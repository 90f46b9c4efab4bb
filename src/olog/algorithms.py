"""Instrumented binary search over immutable sorted integer sequences.

The search has the parts of the paper's Dafny method, one definition
each:

* ``requires``: the sequence is sorted, which :class:`SortedSeq` checks
  when it is built;
* the init (lo, hi, r) = (0, len, -1) and the guard ``lo < hi``, in the
  driver :func:`_search`;
* the loop body, :func:`_step`: one three-way comparison of the key
  with items[mid], where the driver takes mid = (lo+hi)//2;
* the invariant, :func:`_inv_holds`, checked at every loop head;
* ``decreases hi - lo``: the driver's width check at every loop head;
* the ghost counter ``t``, one per iteration, with one
  :class:`IterRecord` each;
* ``ensures``: :func:`check_binary_posts`.

The search returns the functional result and the exact count. A failed
invariant or width check aborts it with a structured
:class:`~olog.errors.InvariantViolation`; that signals an
implementation bug, never bad user input. The checker judges the
counter against the ghost cost function, ``costmodel.tbs``.

A deliberately broken variant (``broken_binary_search``) runs the same
driver and body with one changed step, so the checking machinery can be
shown to catch it.
"""

from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator, NamedTuple, Sequence

from olog.errors import InvariantViolation, PreconditionError

MAX_LEN = 2**32


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
    """Result index ``r`` (-1 when absent), iteration count ``t`` and one
    :class:`IterRecord` per iteration."""

    r: int
    t: int
    trace: tuple[IterRecord, ...]


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
    """(first, last): the smallest and largest index holding ``key`` in
    the sorted ``items``, or (len(items), -1) when it is absent.

    Two bisections, O(log n): the order is the one a :class:`SortedSeq`
    checked when it was built, and the standard library's bisection
    shares no code with the search it serves."""
    first = bisect_left(items, key)
    last = bisect_right(items, key, first) - 1
    return (first, last) if first <= last else (len(items), -1)


def check_binary_posts(q: Sequence[int], r: int, key: int) -> bool:
    """Postcondition pair: a non-negative ``r`` is a valid index holding
    ``key``; otherwise ``r`` is -1 and ``key`` occurs nowhere in ``q``."""
    if r >= 0:
        return r < len(q) and q[r] == key
    return r == -1 and key not in tuple(q)


def _inv_holds(items, lo: int, hi: int, r: int, key: int, span: tuple[int, int]) -> bool:
    """The one statement of the loop-head invariant, given ``span``, the
    key's smallest and largest index as ``key_span`` gives them: "key not
    in items[:lo]" is first >= lo and "key not in items[hi:]" is
    last < hi, for any sequence, so a head costs O(1)."""
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


def _step(items, key, lo, hi, r, mid, advance):
    """The loop body: compare ``key`` with items[mid] and return the next
    (lo, hi, r). Going left sets ``hi = mid``, going right
    ``lo = mid + advance``; the found branch records the index and
    collapses the range, so the loop keeps its single exit."""
    if key < items[mid]:
        return lo, mid, r
    if items[mid] < key:
        return mid + advance, hi, r
    return lo, lo, mid


def _search(q, key: int, advance: int) -> SearchOutcome:
    """The one instrumented driver of the loop body ``_step``, whose
    go-right step sets ``lo = mid + advance``.

    From the init (0, len, -1) it checks the variant and the invariant at
    every head, stops when the guard ``lo < hi`` fails, and otherwise
    steps at mid = (lo+hi)//2, counting the iteration and recording it.
    """
    items = (q if isinstance(q, SortedSeq) else SortedSeq(q)).items

    r = -1
    lo, hi = 0, len(items)
    t = 0
    trace: list[IterRecord] = []
    prev_width = hi + 1
    span = key_span(items, key)

    while True:
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
        t += 1
        trace.append(_new_record(IterRecord, (lo, hi, mid, t)))
        lo, hi, r = _step(items, key, lo, hi, r, mid, advance)

    return _new_record(SearchOutcome, (r, t, tuple(trace)))


def binary_search(q, key: int) -> SearchOutcome:
    """Search ``key`` in sorted ``q``, counting loop iterations exactly.

    Asserts the loop invariant and the strictly decreasing range width at
    every loop head, and captures one :class:`IterRecord` per executed
    iteration; the checker judges the counter and the records against the
    cost model ``tbs``. The invariant reads ``key_span``, so a call on a
    :class:`SortedSeq` is O(log n); a plain list is first checked for
    order, in O(n).
    """
    return _search(q, key, advance=1)


def broken_binary_search(q, key: int) -> SearchOutcome:
    """Deliberately broken search used to exercise the checkers.

    The same loop as :func:`binary_search` except the go-right branch
    keeps ``lo`` at ``mid`` instead of skipping past it, so the range
    can stop shrinking. The termination check is what stops it.
    """
    return _search(q, key, advance=0)  # the planted bug: must be 1
