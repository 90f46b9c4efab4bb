"""Hot kernels: the adversarial step profiles and the instance sweep.

The binary profile is numpy-vectorized, and numpy is imported only
inside it, so commands that never run it skip its import cost.
``estimator.bench_steps`` runs it for a binary ``bench`` list whose
``profile_work`` exceeds ``estimator.INSTRUMENTED_MAX_WORK``; a smaller
binary list runs the instrumented ``binary_search`` itself. There each
key of the adversarial family runs its own loop, comparison by
comparison, with its state in int32 arrays updated in place. Keys go in
chunks of 2^16, so that a chunk's arrays stay in L2, and a key leaves
its chunk's arrays once its search exits, so later rounds touch only
keys still searching. int32 holds every value formed: keys lie in
[-1, n] and the largest sum, lo + hi, is at most
2 * BINARY_PROFILE_MAX_N = 2^27.

The linear profile is pure Python and never loads numpy: the scan walks
q once for every key in lockstep, with the keys still scanning in a
set, so a size costs O(n) set operations (2.5 ms for the default list
16:16384:x4).

The sweep runs the P1–P7 battery instance by instance through the
instrumented search, whose loop-head invariant costs O(1) per head once
the search has found the key's span. P2's linear oracle runs once per
sequence, as ``first_indices``, and each key of the group reads its
answer from that.

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
    first_indices,
)
from olog.errors import InvariantViolation, PreconditionError
from olog.intmath import LOG_BOUND, STEP_BUDGET, ilog2

BACKEND = "python"

# The per-instance properties verify_sweep counts, in report order.
INSTANCE_PROPS = ("P1", "P2", "P3", "P4", "P5", "P6", "P7")

# perfbench/tracer.py times the P8 and P9 checks under these names.
ilog2_scan_monotonic = intmath.scan_monotonic
calc_step_scan = intmath.first_failure

# Adversarial profiles run the whole key family; these caps keep the
# worst case of O(n log n) loop heads and O(n^2) scan comparisons (the
# lockstep scan makes them in O(n) set operations) at desk scale.
BINARY_PROFILE_MAX_N = 2**26
LINEAR_PROFILE_MAX_N = 2**14

# The caps bound one profile; MAX_PROFILE_WORK bounds a whole size list,
# in the units of profile_work. Under the per-size caps alone a strictly
# increasing list could hold hundreds of sizes near 2^26, at about 8 s
# each. The numpy binary profile takes 4.7-7 ns per unit from n = 2^13
# up (Xeon, 2 vCPU, numpy 2.4.6), so a list at the cap runs for 20-30 s
# of it, like a verify space near its caps; the linear scan over the
# sizes 1..2342 takes 0.4 s (Python 3.11.7), as it runs in O(n). It
# admits a single size at either cap (1.9e9 and 2.7e8 units), both
# default lists (3.0e7 and 2.9e8) and 16:67108864:x4 (2.4e9).
MAX_PROFILE_WORK = 2**32

# Raising the binary cap past 2^30 would overflow lo + hi.
_DTYPE = "int32"
assert 2 * BINARY_PROFILE_MAX_N < 2**31

# Keys per chunk of the binary profile: a chunk's keys, lo, hi and mid
# take 256 KiB each and stay in a 2 MiB L2. Binary at 2^20, best of 5 in
# each of two rounds, by chunk size (Xeon, 2 vCPU, numpy 2.4.6): 2^14:
# 107-116 ms; 2^15: 105; 2^16: 73-96; 2^17: 107-109.
_CHUNK = 1 << 16


def backends() -> dict:
    """Name -> implementation module; ``perfbench`` probes it."""
    return {BACKEND: sys.modules[__name__]}


def check_profile_size(kind: str, n: int) -> None:
    """Raise unless ``n`` is within the cap of the ``kind`` profile,
    ``"binary"`` or ``"linear"``."""
    cap = BINARY_PROFILE_MAX_N if kind == "binary" else LINEAR_PROFILE_MAX_N
    if not 1 <= n <= cap:
        raise PreconditionError(f"{kind} profile size must be in [1, {cap}], got {n}")


def profile_work(kind: str, n: int) -> int:
    """Closed-form bound on the loop work of the ``kind`` profile at size
    ``n``: each of the n + 2 keys runs at most n.bit_length() + 1 binary
    loop heads, or compares with at most n positions of the linear scan."""
    return (n + 2) * (n.bit_length() + 1 if kind == "binary" else n)


def check_profile_sizes(kind: str, sizes) -> int:
    """Raise unless every size is within the ``kind`` profile's cap and
    their total ``profile_work`` within MAX_PROFILE_WORK; return that total.
    Runs no profile."""
    for n in sizes:
        check_profile_size(kind, n)
    work = sum(profile_work(kind, n) for n in sizes)
    if work > MAX_PROFILE_WORK:
        raise PreconditionError(
            f"{kind} profile work {work} of {len(sizes)} sizes exceeds the cap {MAX_PROFILE_WORK}"
        )
    return work


def _chunks(lo: int, hi: int):
    import numpy as np

    for start in range(lo, hi + 1, _CHUNK):
        yield np.arange(start, min(start + _CHUNK, hi + 1), dtype=_DTYPE)


def _binary_rounds(keys, n: int) -> int:
    """Iterations of the search loop on q = [0, n) until every key exits.

    Each round every key still in the loop runs one iteration; a found
    key collapses its range. Keys whose range is empty leave the arrays
    once they make up at least half of them, so compaction copies at
    most twice the chunk. The worst count among the keys is the number
    of rounds in which any key was still running.
    """
    import numpy as np

    lo = np.zeros_like(keys)
    hi = np.full_like(keys, n)
    mid = np.empty_like(keys)
    rounds = 0
    while keys.size:
        rounds += 1
        np.add(lo, hi, out=mid)
        mid >>= 1
        below = keys < mid
        above = keys > mid
        found = keys == mid
        np.copyto(hi, mid, where=below)
        mid += 1
        np.copyto(lo, mid, where=above)
        np.copyto(hi, lo, where=found)
        # an exited key stays exited: from lo >= hi every branch keeps it
        running = lo < hi
        left = np.count_nonzero(running)
        if 2 * left <= keys.size:
            keys, lo, hi, mid = keys[running], lo[running], hi[running], mid[:left]
    return rounds


def binary_max_steps(n: int) -> int:
    """Worst iteration count over the adversarial key family on [0, n).

    Runs the real comparison schedule for every key in [-1, n], one
    chunk of keys at a time: on the identity sequence q[i] = i the probe
    ``key < q[mid]`` is exactly ``key < mid``.
    """
    check_profile_size("binary", n)
    return max(_binary_rounds(keys, n) for keys in _chunks(-1, n))


def linear_max_steps(n: int) -> int:
    """Worst comparison count of the linear scan over the same key family.

    Executes the scan of q = [0, n) for every key in [-1, n], all keys in
    lockstep: at position i every key still scanning compares with q[i],
    and the keys equal to it leave. A key that hits at i pays i + 1, one
    that never hits pays n, so the count is the last position at which
    any key was still live. The live keys sit in a set, which finds the
    keys equal to q[i] by membership: O(n) in all, and no numpy.
    """
    check_profile_size("linear", n)
    q = range(n)
    live = set(range(-1, n + 1))
    steps = 0
    for i in range(n):
        if not live:
            break
        steps = i + 1
        live.discard(q[i])
    return steps


def _p4_failure(trace, t, costs, tbs_total):
    """Why the counter breaks P4 against the walk ``costs``, or None. The
    counter at a head is the one after the iteration before it (0 at the first)."""
    t_head = 0
    for rec in trace:
        remaining = costs.get((rec.lo, rec.hi))
        if remaining is None:
            return f"head [{rec.lo}, {rec.hi}) at t={t_head} is off the tbs recursion's path"
        if t_head + remaining != tbs_total:
            return (
                f"t={t_head} at head [{rec.lo}, {rec.hi}) differs from "
                f"tbs difference {tbs_total}-{remaining}"
            )
        t_head = rec.t_after
    if t != tbs_total:
        return f"t={t} differs from tbs={tbs_total}"
    return None


def verify_sweep(groups, search_fn=None) -> dict:
    """Run the per-instance property battery over (items, key_lo, key_hi) groups.

    Returns violation counts and the first counterexample per property
    (P1..P7), in enumeration order, plus ``max_tbs_gap``, the largest
    ``abs(tbs - t)`` between the cost of an instance's full range and the
    search's counter, whichever way it errs. ``search_fn``
    defaults to :func:`binary_search`, looked up at call time so that a
    wrapper installed on this module's global is honoured.

    Each instance walks the ``tbs`` recurrence once; P4 holds the counter
    to that walk at every recorded head, and P5 checks its value on the
    instance's full range only: ``tbs`` is translation-invariant
    (tbs(q, lo, hi, key) == tbs(q[lo:hi], 0, hi-lo, key), as
    mid = lo + (hi-lo)//2), so a source must hold, for each (items, key)
    it yields, every slice of items with that key (or one of its order type).

    An exception the search raises counts against P1 (P3 for the
    termination check), and one the walk raises against P5, skipping P4.
    """
    from olog.complexity import CANONICAL_WITNESS  # here, so bench never loads it
    if search_fn is None:
        search_fn = binary_search
    c, n0 = CANONICAL_WITNESS
    counts = {p: 0 for p in INSTANCE_PROPS}
    first: dict = {p: None for p in counts}
    instances = 0
    max_gap = 0

    def record(prop, q, key, detail):
        counts[prop] += 1
        if first[prop] is None:
            first[prop] = {"q": list(q), "key": int(key), "detail": detail}

    last_n = None
    for items, key_lo, key_hi in groups:
        q = SortedSeq(items)
        items = q.items
        n = len(items)
        if n != last_n:  # the bounds depend on the length only
            last_n = n
            budget = STEP_BUDGET(n)
            log_n = ilog2(n) if n >= 1 else 0
            bound = LOG_BOUND(n) if n >= 1 else None
        oracle = first_indices(items)
        for key in range(key_lo, key_hi + 1):
            instances += 1
            # P5 needs only the cost model, so it runs even when the
            # instrumented run aborts.
            try:
                costs = costmodel.tbs_path(items, key)
                tbs_total = costs[0, n]
            except Exception as err:
                costs = None
                record("P5", items, key, f"the tbs walk raised {type(err).__name__}: {err}")
            else:
                if n >= 1 and tbs_total > bound:
                    record("P5", items, key, f"tbs(0, {n})={tbs_total} exceeds its log bound")

            try:
                out = search_fn(q, key, MODE_FULL_TRACE)
            except InvariantViolation as violation:
                prop = "P3" if violation.predicate == "termination" else "P1"
                record(prop, items, key, str(violation))
                continue
            except Exception as err:
                record("P1", items, key, f"the search raised {type(err).__name__}: {err}")
                continue

            r, t, trace = out
            if not check_binary_posts(items, r, key):
                record("P1", items, key, f"postconditions fail for r={r}")
            oracle_r = oracle.get(key, -1)
            agree = (r >= 0) == (oracle_r >= 0) and (r < 0 or r < n and items[r] == key)
            if not agree:
                record("P2", items, key, f"r={r} disagrees with oracle index {oracle_r}")
            if trace is None or t != len(trace):
                record("P3", items, key, f"t={t} but trace has {len(trace or ())} records")
            if costs is not None:
                failure = _p4_failure(trace or (), t, costs, tbs_total)
                if failure is not None:
                    record("P4", items, key, failure)
                max_gap = max(max_gap, abs(tbs_total - t))
            if t > budget:
                record("P6", items, key, f"t={t} exceeds budget {budget}")
            if n >= n0 and t > c * log_n:
                record("P7", items, key, f"t={t} exceeds {c}*ilog2({n})={c * log_n}")

    return {
        "instances": instances,
        "violations": counts,
        "first": first,
        "max_tbs_gap": max_gap,
    }
