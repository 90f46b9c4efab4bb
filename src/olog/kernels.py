"""Hot kernels: the adversarial step profiles and the instance sweep.

The profiles are numpy-vectorized; numpy is imported only inside them,
so commands that never run them skip its import cost. The sweep runs
the P1–P7 battery instance by instance through the instrumented search.

There is one backend: ``BACKEND`` is the constant that reports carry as
``backend``. ``backends()``, ``ilog2_scan_monotonic`` and
``calc_step_scan`` stay only because ``perfbench`` reads them by name;
the grid claims themselves live in ``intmath``.
"""

from __future__ import annotations

import sys

from olog import costmodel, intmath
from olog.algorithms import (
    MODE_FULL_TRACE,
    SortedSeq,
    binary_search,
    check_binary_posts,
    linear_search_oracle,
)
from olog.errors import InvariantViolation, PreconditionError
from olog.intmath import STEP_BUDGET, ilog2

BACKEND = "python"

# perfbench/tracer.py times the P8 and P9 checks under these names.
ilog2_scan_monotonic = intmath.scan_monotonic
calc_step_scan = intmath.first_failure

# Adversarial profiles run the whole key family; these caps keep the
# worst case (O(n log n) and O(n^2) work respectively) at desk scale.
BINARY_PROFILE_MAX_N = 2**26
LINEAR_PROFILE_MAX_N = 2**14

_CHUNK = 1 << 20


def backends() -> dict:
    """Name -> implementation module; ``perfbench`` probes it."""
    return {BACKEND: sys.modules[__name__]}


def _chunks(lo: int, hi: int):
    import numpy as np

    start = lo
    while start <= hi:
        stop = min(start + _CHUNK - 1, hi)
        yield np.arange(start, stop + 1, dtype=np.int64)
        start = stop + 1


def binary_max_steps(n: int) -> int:
    """Worst iteration count over the adversarial key family on [0, n).

    Runs the real comparison schedule for every key in [-1, n]
    simultaneously: on the identity sequence q[i] = i the probe
    ``key < q[mid]`` is exactly ``key < mid``.
    """
    if not 1 <= n <= BINARY_PROFILE_MAX_N:
        raise PreconditionError(
            f"binary profile size must be in [1, {BINARY_PROFILE_MAX_N}], got {n}"
        )
    import numpy as np

    worst = 0
    for keys in _chunks(-1, n):
        lo = np.zeros_like(keys)
        hi = np.full_like(keys, n)
        t = np.zeros_like(keys)
        while True:
            active = lo < hi
            if not active.any():
                break
            mid = (lo + hi) >> 1
            below = active & (keys < mid)
            above = active & (keys > mid)
            found = active & ~below & ~above
            hi = np.where(below, mid, hi)
            lo = np.where(above, mid + 1, lo)
            hi = np.where(found, lo, hi)
            t += active
        worst = max(worst, int(t.max()))
    return worst


def linear_max_steps(n: int) -> int:
    """Worst comparison count of the linear scan over the same key family.

    Executes the scan for all keys at once: every key still alive at
    position i pays one comparison there.
    """
    if not 1 <= n <= LINEAR_PROFILE_MAX_N:
        raise PreconditionError(
            f"linear profile size must be in [1, {LINEAR_PROFILE_MAX_N}], got {n}"
        )
    import numpy as np

    worst = 0
    for keys in _chunks(-1, n):
        counts = np.zeros_like(keys)
        alive = np.ones(keys.shape, dtype=bool)
        for i in range(n):
            counts += alive
            alive &= keys != i
            if not alive.any():
                break
        worst = max(worst, int(counts.max()))
    return worst


_VIOLATION_PROP = {"termination": "P3", "tbs_difference": "P4"}


def verify_sweep(seqs, key_lo: int, key_hi: int, search_fn=None) -> dict:
    """Run the per-instance property battery over seqs x [key_lo, key_hi].

    Returns violation counts and the first counterexample per property
    (P1..P7), in enumeration order, plus the largest observed gap
    between the transition cost and the actual counter. ``search_fn``
    defaults to :func:`binary_search`, looked up at call time so that a
    wrapper installed on this module's global is honoured.

    Each instance walks the ``tbs`` recurrence once here; that one value
    serves P4's end-to-end bound and P5. P5 is checked on each
    instance's full range only: ``tbs`` is translation-invariant
    (tbs(q, lo, hi, key) == tbs(q[lo:hi], 0, hi-lo, key), as
    mid = lo + (hi-lo)//2) and the space is closed under slicing, so
    every (subrange, key) pair is an instance of its own.
    """
    if search_fn is None:
        search_fn = binary_search
    counts = {p: 0 for p in ("P1", "P2", "P3", "P4", "P5", "P6", "P7")}
    first: dict = {p: None for p in counts}
    instances = 0
    max_gap = 0

    def record(prop, q, key, detail):
        counts[prop] += 1
        if first[prop] is None:
            first[prop] = {"q": list(q), "key": int(key), "detail": detail}

    for items in seqs:
        q = SortedSeq(items)
        items = q.items
        n = len(items)
        budget = STEP_BUDGET(n)
        log_n = ilog2(n) if n >= 1 else 0
        bound = costmodel.log_bound(n) if n >= 1 else None
        for key in range(key_lo, key_hi + 1):
            instances += 1
            tbs_total = costmodel.tbs(items, 0, n, key)

            # P5 needs only the cost model, so it runs even when the
            # instrumented run aborts.
            if n >= 1 and tbs_total > bound:
                record("P5", items, key, f"tbs(0, {n})={tbs_total} exceeds its log bound")

            try:
                out = search_fn(q, key, MODE_FULL_TRACE)
            except InvariantViolation as violation:
                prop = _VIOLATION_PROP.get(violation.predicate, "P1")
                record(prop, items, key, str(violation))
                continue

            if not check_binary_posts(items, out.r, key):
                record("P1", items, key, f"postconditions fail for r={out.r}")
            oracle_r = linear_search_oracle(items, key)
            agree = (out.r >= 0) == (oracle_r >= 0) and (out.r < 0 or items[out.r] == key)
            if not agree:
                record("P2", items, key, f"r={out.r} disagrees with oracle index {oracle_r}")
            if out.trace is None or out.t != len(out.trace):
                record("P3", items, key, f"t={out.t} but trace has {len(out.trace or ())} records")
            if out.t > tbs_total:
                record("P4", items, key, f"t={out.t} exceeds tbs={tbs_total}")
            else:
                max_gap = max(max_gap, tbs_total - out.t)
            if out.t > budget:
                record("P6", items, key, f"t={out.t} exceeds budget {budget}")
            if n >= 2 and out.t > 6 * log_n:
                record("P7", items, key, f"t={out.t} exceeds 6*ilog2({n})={6 * log_n}")

    return {
        "instances": instances,
        "violations": counts,
        "first": first,
        "max_tbs_gap": max_gap,
    }
