"""Instrumented binary search over immutable sorted integer sequences.

The search returns both the functional result and an exact count of
loop iterations. In the checking modes it re-validates its own loop
invariants at every loop head and aborts with a structured
:class:`~olog.errors.InvariantViolation` if any fails; that signals an
implementation bug, never bad user input.

A deliberately broken variant (``broken_binary_search``) runs the same
loop with one changed step, so the checking machinery can be shown to
catch it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from olog import costmodel
from olog.errors import InvariantViolation, PreconditionError

MAX_LEN = 2**32

MODE_OFF = "off"
MODE_INVARIANTS = "invariants"
MODE_FULL_TRACE = "full_trace"
_MODES = (MODE_OFF, MODE_INVARIANTS, MODE_FULL_TRACE)


def check_sorted(items: Sequence[int]) -> bool:
    """True iff ``items`` is non-decreasing (adjacent-pair check)."""
    return all(items[i] <= items[i + 1] for i in range(len(items) - 1))


class SortedSeq:
    """An immutable integer sequence whose sortedness is checked on construction."""

    __slots__ = ("_items",)

    def __init__(self, items: Iterable[int]):
        items = tuple(items)
        if len(items) > MAX_LEN:
            raise PreconditionError(f"sequence length {len(items)} exceeds the 2**32 cap")
        if not check_sorted(items):
            raise PreconditionError("sequence is not sorted (non-decreasing)")
        self._items = items

    @property
    def items(self) -> tuple[int, ...]:
        return self._items

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, i):
        return self._items[i]

    def __iter__(self) -> Iterator[int]:
        return iter(self._items)

    def __eq__(self, other) -> bool:
        if isinstance(other, SortedSeq):
            return self._items == other._items
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._items)

    def __repr__(self) -> str:
        return f"SortedSeq({list(self._items)!r})"


@dataclass(frozen=True)
class IterRecord:
    """State captured for one loop iteration.

    ``lo``/``hi``/``mid`` are the values the iteration started from,
    ``t_after`` the counter after it, and ``tbs_remaining`` the
    transition cost of the range that remains afterwards.
    """

    lo: int
    hi: int
    mid: int
    t_after: int
    tbs_remaining: int

    def to_dict(self) -> dict:
        return {
            "lo": self.lo,
            "hi": self.hi,
            "mid": self.mid,
            "t": self.t_after,
            "tbs_remaining": self.tbs_remaining,
        }


@dataclass(frozen=True)
class SearchOutcome:
    """Result index ``r`` (-1 when absent), iteration count ``t``, optional trace."""

    r: int
    t: int
    trace: Optional[tuple[IterRecord, ...]] = None


def linear_search_oracle(q: Sequence[int], key: int) -> int:
    """Smallest index holding ``key``, or -1; scans left to right.

    Never relies on sortedness, which is what makes it a usable
    independent oracle for the binary search.
    """
    for i, value in enumerate(q):
        if value == key:
            return i
    return -1


def check_binary_posts(q: Sequence[int], r: int, key: int) -> bool:
    """Postcondition pair: a non-negative ``r`` is a valid index holding
    ``key``; a negative ``r`` means ``key`` occurs nowhere in ``q``."""
    if r >= 0:
        return r < len(q) and q[r] == key
    return key not in tuple(q)


def check_binary_loop_inv(q: Sequence[int], lo: int, hi: int, r: int, key: int) -> bool:
    """Loop-head invariant of the search.

    Bounds 0 <= lo <= hi <= len(q) hold; while the key is unfound
    (r < 0) it cannot live in the discarded prefix q[:lo] or suffix
    q[hi:] (the prefix excludes index lo); once found, r indexes the key.
    """
    if not (0 <= lo <= hi <= len(q)):
        return False
    items = tuple(q)
    if r < 0:
        return key not in items[:lo] and key not in items[hi:]
    return r < len(q) and q[r] == key


def _as_sorted(q) -> SortedSeq:
    return q if isinstance(q, SortedSeq) else SortedSeq(q)


def _head_checks(q, lo, hi, r, key, t, tbs_total, prev_width):
    """Invariant battery run at every loop head in the checking modes."""
    width = hi - lo
    state = {"lo": lo, "hi": hi, "r": r, "t": t}
    if prev_width is not None and width >= prev_width:
        raise InvariantViolation(
            "termination",
            state,
            f"hi-lo failed to decrease ({prev_width} -> {width}) at {state!r}",
        )
    if not check_binary_loop_inv(q, lo, hi, r, key):
        raise InvariantViolation("binary_loop", state)
    remaining = costmodel.tbs(q, lo, hi, key)
    if t > tbs_total - remaining:
        raise InvariantViolation(
            "tbs_difference",
            state,
            f"t={t} exceeds tbs difference {tbs_total}-{remaining} at {state!r}",
        )
    return remaining


def _search(q, key: int, check_mode: str, advance: int) -> SearchOutcome:
    """The one instrumented search loop; the go-right step sets
    ``lo = mid + advance``.

    The loop has a single exit point: the found branch records the index
    and collapses the range instead of breaking out.
    """
    if check_mode not in _MODES:
        raise PreconditionError(f"unknown check_mode {check_mode!r}")
    q = _as_sorted(q)
    checking = check_mode != MODE_OFF
    tracing = check_mode == MODE_FULL_TRACE
    if checking and not check_sorted(q.items):
        raise InvariantViolation("sorted", {"items": q.items})

    r = -1
    lo, hi = 0, len(q)
    t = 0
    trace: list[IterRecord] = []
    tbs_total = costmodel.tbs(q, 0, len(q), key) if checking else 0
    prev_width = None

    while True:
        if checking:
            _head_checks(q, lo, hi, r, key, t, tbs_total, prev_width)
            prev_width = hi - lo
        if not lo < hi:
            break
        mid = (lo + hi) // 2
        iter_lo, iter_hi = lo, hi
        if key < q[mid]:
            hi = mid
        elif q[mid] < key:
            lo = mid + advance
        else:
            r = mid
            hi = lo
        t += 1
        if tracing:
            trace.append(
                IterRecord(iter_lo, iter_hi, mid, t, costmodel.tbs(q, lo, hi, key))
            )

    return SearchOutcome(r=r, t=t, trace=tuple(trace) if tracing else None)


def binary_search(q, key: int, check_mode: str = MODE_OFF) -> SearchOutcome:
    """Search ``key`` in sorted ``q``, counting loop iterations exactly.

    ``check_mode``:

    * ``"off"``: plain run, nothing but the counter (the default, so
      measured step counts are never inflated by assertion work).
    * ``"invariants"``: re-checks sortedness, then asserts the loop
      invariant, the transition-cost difference bound and the
      strictly-decreasing range width at every loop head.
    * ``"full_trace"``: everything ``invariants`` does, plus one
      :class:`IterRecord` captured per iteration.
    """
    return _search(q, key, check_mode, advance=1)


def broken_binary_search(q, key: int, check_mode: str = MODE_OFF) -> SearchOutcome:
    """Deliberately broken search used to exercise the checkers.

    The same loop as :func:`binary_search` except the go-right branch
    keeps ``lo`` at ``mid`` instead of skipping past it, so the range
    can stop shrinking. Only ever run it in a checking mode; the
    termination check is what stops it.
    """
    return _search(q, key, check_mode, advance=0)  # the planted bug: must be 1
