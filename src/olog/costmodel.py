"""Recursive transition-cost model of the search loop.

``tbs`` mirrors the decisions the search loop makes on a range
[lo, hi) of a sorted sequence and returns how many iterations the loop
will spend there. Its value equals the instrumented step counter. The
bounds it obeys are ``intmath`` terms: ``LOG_BOUND(hi-lo)`` on a
nonempty range, and ``STEP_BUDGET(len(q))`` end to end.
"""

from __future__ import annotations

from typing import Sequence

from olog.errors import PreconditionError

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
    return _tbs(q, lo, hi, key, 0, None)


def tbs_path(q: Sequence[int], key: int) -> dict[tuple[int, int], int]:
    """One walk of the recurrence from the full range [0, len(q)).

    Returns the cost of every range the recursion visits, keyed by
    ``(lo, hi)``; each value equals ``tbs(q, lo, hi, key)``. These are the
    ranges a correct search runs its iterations on, plus, at most, the
    empty range it ends on.
    """
    costs: dict[tuple[int, int], int] = {}
    costs[0, len(q)] = _tbs(q, 0, len(q), key, 0, costs)
    return costs


def _tbs(q, lo, hi, key, depth, costs):
    # records under each child range what the module-global _tbs returns
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
        hi = mid
    else:
        lo = mid + 1
    cost = _tbs(q, lo, hi, key, depth + 1, costs)
    if costs is not None:
        costs[lo, hi] = cost
    return 1 + cost


def tbs_table(q: Sequence[int], key: int) -> list[list[int]]:
    """All transition costs at once: table[lo][hi] = tbs(q, lo, hi, key).

    Filled bottom-up by increasing range width, without the recursion,
    which makes it an independent reference for ``tbs`` in the tests.
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
