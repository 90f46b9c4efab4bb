"""The search's loop with no checks: ``algorithms._step`` driven bare.

The tests' one driver of the loop body besides ``algorithms._search``.
It keeps the guard ``lo < hi`` and the midpoint (lo+hi)//2 and nothing
else: no invariant, width check, counter or trace. ``items`` is only
indexed, so a ``range`` can stand for a long sequence without being
built.
"""

from olog.algorithms import _step


def run(items, key, lo, hi, r=-1):
    """(r, heads): the loop run from the state (lo, hi, r), with the
    (lo, hi, mid) that each of its iterations started from."""
    heads = []
    while lo < hi:
        mid = (lo + hi) // 2
        heads.append((lo, hi, mid))
        lo, hi, r = _step(items, key, lo, hi, r, mid, 1)
    return r, heads
