"""All-subrange reference for P5: check every nonempty subrange of every instance.

The test oracle for the sweep's one-check-per-instance P5. Instances come
from ``itertools.combinations_with_replacement``, which yields the
non-decreasing tuples of one length in lexicographic order, and the bound
from ``int.bit_length``, so the reference shares only ``costmodel.tbs``
with the sweep.
"""

from itertools import combinations_with_replacement

from olog import costmodel


def p5_sweep(max_len: int, alphabet: int):
    """(violations, first) for P5 over the space, one count per failing
    instance, first in enumeration order as ``(q, key)`` or None."""
    violations, first = 0, None
    for length in range(max_len + 1):
        for q in combinations_with_replacement(range(alphabet), length):
            for key in range(-1, alphabet + 1):
                if any(
                    costmodel.tbs(q, lo, hi, key) > 2 * ((hi - lo).bit_length() - 1) + 1
                    for lo in range(length)
                    for hi in range(lo + 1, length + 1)
                ):
                    violations += 1
                    if first is None:
                        first = (list(q), key)
    return violations, first
