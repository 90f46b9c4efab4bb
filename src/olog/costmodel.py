"""Recursive transition-cost model of the search loop.

``tbs`` mirrors the decisions the search loop makes on a range
[lo, hi) of a sorted sequence and returns how many iterations the loop
will spend there. Its value upper-bounds the instrumented step counter,
and is itself bounded by 2*ilog2(hi-lo) + 1, which chains into the
end-to-end step budget 2*ilog2(len(q)+1) + 1.
"""

from __future__ import annotations

from typing import Sequence

from olog.errors import PreconditionError
from olog.intmath import STEP_BUDGET, ilog2

# Lengths are capped at 2**32 (see intmath), so recursion depth never
# exceeds ~33; anything deeper signals a broken recurrence.
_MAX_DEPTH = 64


def _check_range(q: Sequence[int], lo: int, hi: int) -> None:
    if not (0 <= lo <= hi <= len(q)):
        raise PreconditionError(
            f"range must satisfy 0 <= lo <= hi <= len(q); got lo={lo}, hi={hi}, len={len(q)}"
        )


def tbs(q: Sequence[int], lo: int, hi: int, key: int) -> int:
    """Transition cost of searching ``key`` in q[lo:hi].

    Defined by the recurrence (mid = (lo+hi)//2):

    * 0 if hi-lo == 0 or len(q) == 0
    * 1 if key == q[mid] or hi-lo == 1
    * 1 + tbs(q, lo, mid, key) if key < q[mid]
    * 1 + tbs(q, mid+1, hi, key) otherwise

    The range width hi-lo strictly decreases on every recursive call,
    so the recursion terminates.
    """
    _check_range(q, lo, hi)
    return _tbs(q, lo, hi, key, 0)


def _tbs(q, lo, hi, key, depth):
    if depth > _MAX_DEPTH:
        raise AssertionError("transition-cost recursion exceeded its depth cap")
    mid = (lo + hi) // 2
    # The len(q) == 0 disjunct is subsumed by hi - lo == 0 under the
    # precondition; kept so the base case reads exactly like the recurrence.
    if hi - lo == 0 or len(q) == 0:
        return 0
    if key == q[mid] or hi - lo == 1:
        return 1
    if key < q[mid]:
        return 1 + _tbs(q, lo, mid, key, depth + 1)
    return 1 + _tbs(q, mid + 1, hi, key, depth + 1)


def tbs_table(q: Sequence[int], key: int) -> list[list[int]]:
    """All transition costs at once: table[lo][hi] = tbs(q, lo, hi, key).

    Filled bottom-up by increasing range width, which both routes
    around the recursion and gives checkers O(1) lookups when they
    sweep every subrange.
    """
    n = len(q)
    table = [[0] * (n + 1) for _ in range(n + 1)]
    for width in range(1, n + 1):
        for lo in range(0, n - width + 1):
            hi = lo + width
            mid = (lo + hi) // 2
            if key == q[mid] or width == 1:
                table[lo][hi] = 1
            elif key < q[mid]:
                table[lo][hi] = 1 + table[lo][mid]
            else:
                table[lo][hi] = 1 + table[mid + 1][hi]
    return table


def step_budget(q: Sequence[int]) -> int:
    """End-to-end iteration budget for searching in ``q``: 2*ilog2(len(q)+1) + 1.

    Defined for the empty sequence too (value 1); the counter there is
    exactly 0, so the budget is merely loose, never wrong.
    """
    return STEP_BUDGET(len(q))


def tbs_log_bound(q: Sequence[int], lo: int, hi: int, key: int) -> bool:
    """True iff tbs(q, lo, hi, key) <= 2*ilog2(hi-lo) + 1.

    Requires a nonempty sequence and a nonempty range; empty ranges
    would make the bound vacuous and are rejected.
    """
    if len(q) == 0:
        raise PreconditionError("tbs_log_bound requires a nonempty sequence")
    if not (0 <= lo < hi <= len(q)):
        raise PreconditionError(
            f"tbs_log_bound requires 0 <= lo < hi <= len(q); got lo={lo}, hi={hi}"
        )
    return tbs(q, lo, hi, key) <= 2 * ilog2(hi - lo) + 1
