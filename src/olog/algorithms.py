"""Instrumented binary search over immutable sorted integer sequences.

The search returns both the functional result and an exact count of
loop iterations. In the checking mode it records every iteration and
re-validates its loop invariant and termination at every loop head,
aborting with a structured :class:`~olog.errors.InvariantViolation` if
either fails; that signals an implementation bug, never bad user input.
The checker judges the counter against the cost model.

A deliberately broken variant (``broken_binary_search``) runs the same
loop with one changed step, so the checking machinery can be shown to
catch it.
"""

from __future__ import annotations

import operator
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from olog.errors import InvariantViolation, PreconditionError

MAX_LEN = 2**32

MODE_OFF = "off"
MODE_FULL_TRACE = "full_trace"
_MODES = (MODE_OFF, MODE_FULL_TRACE)


def check_sorted(items: Sequence[int]) -> bool:
    """True iff ``items`` is non-decreasing (adjacent-pair check)."""
    return all(map(operator.le, items, items[1:]))


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


class IterRecord(NamedTuple):
    """State captured for one loop iteration.

    ``lo``/``hi``/``mid`` are the values the iteration started from and
    ``t_after`` the counter after it.
    """

    lo: int
    hi: int
    mid: int
    t_after: int

    def to_dict(self) -> dict:
        return {"lo": self.lo, "hi": self.hi, "mid": self.mid, "t": self.t_after}


class SearchOutcome(NamedTuple):
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


def first_indices(q: Sequence[int]) -> dict:
    """Value -> smallest index holding it: the linear oracle for every key
    at once, ``first_indices(q).get(key, -1) == linear_search_oracle(q, key)``.

    One left-to-right scan that keeps the first index of each value;
    like the oracle it never relies on sortedness.
    """
    first: dict = {}
    for i, value in enumerate(q):
        if value not in first:
            first[value] = i
    return first


def key_span(items: Sequence[int], key: int) -> tuple[int, int]:
    """(first, last): the smallest and largest index holding ``key``, or
    (len(items), -1) when it is absent. Copies nothing and relies on no
    order: a scan from the left and one from the right, after a membership
    test that spares an absent key the cost of a raised ValueError."""
    if key not in items:
        return len(items), -1
    return items.index(key), len(items) - 1 - operator.indexOf(reversed(items), key)


def check_binary_posts(q: Sequence[int], r: int, key: int) -> bool:
    """Postcondition pair: a non-negative ``r`` is a valid index holding
    ``key``; otherwise ``r`` is -1 and ``key`` occurs nowhere in ``q``."""
    if r >= 0:
        return r < len(q) and q[r] == key
    return r == -1 and key not in tuple(q)


def _inv_holds(items, lo: int, hi: int, r: int, key: int, span: tuple[int, int]) -> bool:
    """The one statement of the loop-head invariant, given
    ``span = key_span(items, key)``: "key not in items[:lo]" is first >= lo
    and "key not in items[hi:]" is last < hi, for any sequence, so a head
    costs O(1)."""
    n = len(items)
    if not (0 <= lo <= hi <= n):
        return False
    if r < 0:
        first, last = span
        return first >= lo and last < hi
    return r < n and items[r] == key


# The records validate nothing, so their generated __new__ is skipped
_new_record = tuple.__new__


def _state(lo, hi, r, t) -> dict:
    return {"lo": lo, "hi": hi, "r": r, "t": t}


def _search(q, key: int, check_mode: str, advance: int) -> SearchOutcome:
    """The one instrumented search loop; the go-right step sets
    ``lo = mid + advance``.

    The loop has a single exit point: the found branch records the index
    and collapses the range instead of breaking out.
    """
    if check_mode not in _MODES:
        raise PreconditionError(f"unknown check_mode {check_mode!r}")
    items = (q if isinstance(q, SortedSeq) else SortedSeq(q)).items
    checking = check_mode == MODE_FULL_TRACE

    r = -1
    lo, hi = 0, len(items)
    t = 0
    trace: list[IterRecord] = []
    prev_width = hi + 1
    if checking:
        span = key_span(items, key)

    while True:
        if checking:
            width = hi - lo
            if width >= prev_width:
                state = _state(lo, hi, r, t)
                why = f"hi-lo failed to decrease ({prev_width} -> {width}) at {state!r}"
                raise InvariantViolation("termination", state, why)
            if not _inv_holds(items, lo, hi, r, key, span):
                raise InvariantViolation("binary_loop", _state(lo, hi, r, t))
            prev_width = width
        if not lo < hi:
            break
        mid = (lo + hi) // 2
        iter_lo, iter_hi = lo, hi
        if key < items[mid]:
            hi = mid
        elif items[mid] < key:
            lo = mid + advance
        else:
            r = mid
            hi = lo
        t += 1
        if checking:
            trace.append(_new_record(IterRecord, (iter_lo, iter_hi, mid, t)))

    return _new_record(SearchOutcome, (r, t, tuple(trace) if checking else None))


def binary_search(q, key: int, check_mode: str = MODE_OFF) -> SearchOutcome:
    """Search ``key`` in sorted ``q``, counting loop iterations exactly.

    ``check_mode``:

    * ``"off"``: plain run, nothing but the counter (the default, so
      measured step counts are never inflated by assertion work).
    * ``"full_trace"``: asserts the loop invariant and the strictly
      decreasing range width at every loop head, and captures one
      :class:`IterRecord` per executed iteration. The checker judges
      the counter and the records against the cost model ``tbs``.
    """
    return _search(q, key, check_mode, advance=1)


def broken_binary_search(q, key: int, check_mode: str = MODE_FULL_TRACE) -> SearchOutcome:
    """Deliberately broken search used to exercise the checkers.

    The same loop as :func:`binary_search` except the go-right branch
    keeps ``lo`` at ``mid`` instead of skipping past it, so the range
    can stop shrinking. It runs only in the checking mode, its default;
    the termination check is what stops it, so ``"off"`` is refused.
    """
    if check_mode == MODE_OFF:
        raise PreconditionError("broken_binary_search runs only in the checking mode")
    return _search(q, key, check_mode, advance=0)  # the planted bug: must be 1
