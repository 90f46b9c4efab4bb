"""Recursive transition-cost model of the search loop: the ghost cost
function of the paper's Dafny method.

``tbs`` mirrors the decisions the search loop makes on a range
[lo, hi) of a sorted sequence and returns how many iterations the loop
will spend there. Its value equals the instrumented step counter. One
level of the recurrence, the cost of a range and the child range it
recurses on, has one definition, :func:`_unfold`; ``tbs`` and
``tbs_path`` recurse through it at mid = (lo+hi)//2. ``tbs_table``
computes the same costs bottom-up without it, as an independent
reference. The bounds the costs obey are ``intmath`` terms:
``LOG_BOUND(hi-lo)`` on a nonempty range, and ``STEP_BUDGET(len(q))``
end to end.
"""

from __future__ import annotations

from typing import Sequence

from olog.errors import PreconditionError
from olog.intmath import require_int

# Lengths are capped at 2**32 (algorithms.MAX_LEN; intmath.MAX_GRID caps
# the grid), so recursion depth never exceeds ~33; anything deeper signals
# a broken recurrence.
_MAX_DEPTH = 64


def _check_range(q: Sequence[int], lo: int, hi: int) -> None:
    if not (0 <= require_int("lo", lo) <= require_int("hi", hi) <= len(q)):
        raise PreconditionError(
            f"range must satisfy 0 <= lo <= hi <= len(q); got lo={lo}, hi={hi}, len={len(q)}"
        )


def tbs(q: Sequence[int], lo: int, hi: int, key: int) -> int:
    """Transition cost of searching ``key`` in q[lo:hi].

    Defined by the recurrence (mid = (lo+hi)//2):

    * 0 if hi-lo == 0
    * 1 if hi-lo == 1 or key == q[mid]
    * 1 + tbs(q, lo, mid, key) if key < q[mid]
    * 1 + tbs(q, mid+1, hi, key) otherwise

    An empty q needs no case of its own: its only range is [0, 0), whose
    width is 0. The range width hi-lo strictly decreases on every
    recursive call, so the recursion terminates.
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


def _unfold(q, lo, hi, key, mid):
    """One level of the recurrence at ``mid``: (cost, child), where the
    range's cost is ``cost`` plus that of ``child``, the range the
    recursion goes on to, or None where it stops.

    (0, None) on an empty range; (1, None) when the width is 1 or
    key == q[mid]; otherwise (1, (lo, mid)) if key < q[mid], else
    (1, (mid + 1, hi)).
    """
    if hi == lo:
        return 0, None
    if hi - lo == 1 or key == q[mid]:
        return 1, None
    if key < q[mid]:
        return 1, (lo, mid)
    return 1, (mid + 1, hi)


def _tbs(q, lo, hi, key, depth, costs):
    # records under each child range what the module-global _tbs returns
    if depth > _MAX_DEPTH:
        raise AssertionError("transition-cost recursion exceeded its depth cap")
    cost, child = _unfold(q, lo, hi, key, (lo + hi) // 2)
    if child is None:
        return cost
    lo, hi = child
    rest = _tbs(q, lo, hi, key, depth + 1, costs)
    if costs is not None:
        costs[child] = rest
    return cost + rest


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
