import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from olog import costmodel
from olog.algorithms import (
    MODE_FULL_TRACE,
    SortedSeq,
    _inv_holds,
    _search,
    binary_search,
    broken_binary_search,
    check_binary_posts,
    check_sorted,
    first_indices,
    key_span,
    linear_search_oracle,
)
from olog.errors import InvariantViolation, PreconditionError
from olog.intmath import STEP_BUDGET


@pytest.mark.parametrize(
    "items,expected",
    [([], True), ([1, 3, 3, 7], True), ([2, 1], False), ([5], True), ([1, 2, 1], False)],
)
def test_check_sorted(items, expected):
    assert check_sorted(items) is expected


def test_sorted_seq_rejects_unsorted():
    with pytest.raises(PreconditionError):
        SortedSeq([3, 1])


def test_sorted_seq_is_immutable_value():
    s = SortedSeq([1, 2, 3])
    assert s == SortedSeq((1, 2, 3))
    assert len(s) == 3 and s[1] == 2 and list(s) == [1, 2, 3]


# hand-stepped instances; every (r, t) re-verified below against the
# full-trace run and the transition-cost model
SEARCH_CASES = [
    ([], 5, -1, 0),
    ([1, 3, 5, 7], 7, 3, 2),
    ([1, 3, 5, 7], 4, -1, 2),
    ([9], 9, 0, 1),
]


@pytest.mark.parametrize("items,key,r,t", SEARCH_CASES)
def test_binary_search_known_instances(items, key, r, t):
    outcome = binary_search(SortedSeq(items), key)
    assert (outcome.r, outcome.t) == (r, t)
    assert outcome.trace is None


@pytest.mark.parametrize("items,key,r,t", SEARCH_CASES)
def test_checking_modes_change_nothing(items, key, r, t):
    outcome = binary_search(SortedSeq(items), key, MODE_FULL_TRACE)
    assert (outcome.r, outcome.t) == (r, t)
    assert len(outcome.trace) == t


def test_empty_input_contract():
    for key in range(-5, 6):
        outcome = binary_search(SortedSeq([]), key)
        assert (outcome.r, outcome.t) == (-1, 0)


def test_full_trace_records():
    outcome = binary_search(SortedSeq([1, 3, 5, 7]), 7, MODE_FULL_TRACE)
    assert outcome.t == len(outcome.trace) == 2
    first, second = outcome.trace
    assert (first.lo, first.hi, first.mid, first.t_after) == (0, 4, 2, 1)
    assert first.to_dict() == {"lo": 0, "hi": 4, "mid": 2, "t": 1}
    assert (second.lo, second.hi, second.mid, second.t_after) == (3, 4, 3, 2)
    # records capture the pre-update range, so lo <= mid < hi
    assert all(rec.lo <= rec.mid < rec.hi for rec in outcome.trace)
    with pytest.raises(AttributeError):
        first.lo = 1
    with pytest.raises(AttributeError):
        outcome.t = 0


def test_binary_search_accepts_plain_lists():
    assert binary_search([1, 3, 5, 7], 5).r == 2
    with pytest.raises(PreconditionError):
        binary_search([3, 1], 1)


def test_binary_search_rejects_unknown_mode():
    with pytest.raises(PreconditionError):
        binary_search(SortedSeq([]), 0, "everything")


@pytest.mark.parametrize(
    "items,key,expected",
    [([], 1, -1), ([1, 3, 5, 7], 5, 2), ([2, 2, 2], 2, 0), ([1, 3, 5, 7], 4, -1)],
)
def test_linear_search_oracle(items, key, expected):
    assert linear_search_oracle(items, key) == expected


@pytest.mark.parametrize(
    "items,r,key,expected",
    [
        ([1, 2], -1, 3, True),
        ([1, 2], 0, 1, True),
        ([1, 2], 0, 2, False),
        ([1, 2], 5, 1, False),
        ([1, 2], -2, 3, False),  # an absent key is reported as -1 only
    ],
)
def test_check_binary_posts(items, r, key, expected):
    assert check_binary_posts(items, r, key) is expected


@pytest.mark.parametrize(
    "lo,hi,r,key,expected",
    [
        (0, 4, -1, 4, True),
        (2, 2, -1, 4, True),
        (2, 4, -1, 1, False),  # key 1 sits in the eliminated prefix [1, 3]
        (3, 2, -1, 4, False),  # bounds broken
        (0, 4, 1, 3, True),
        (0, 4, 1, 9, False),  # r points at a non-key
    ],
)
def test_check_binary_loop_inv(lo, hi, r, key, expected):
    items = [1, 3, 5, 7]
    assert _inv_holds(items, lo, hi, r, key, key_span(items, key)) is expected


def _sliced_loop_inv(q, lo, hi, r, key):
    # the invariant as slices, which copy a prefix and a suffix at every head:
    # the reference that the O(1) statement over key_span must equal
    if not (0 <= lo <= hi <= len(q)):
        return False
    items = tuple(q)
    if r < 0:
        return key not in items[:lo] and key not in items[hi:]
    return r < len(q) and q[r] == key


# unsorted as well as sorted lists; keys inside and outside them
@st.composite
def loop_heads(draw):
    items = draw(st.lists(st.integers(min_value=-4, max_value=4), max_size=12))
    if draw(st.booleans()):
        items.sort()
    n = len(items)
    lo = draw(st.integers(min_value=-1, max_value=n + 1))
    hi = draw(st.integers(min_value=-1, max_value=n + 1))
    r = draw(st.integers(min_value=-2, max_value=n + 1))
    keys = st.integers(min_value=-6, max_value=6)
    key = draw(st.sampled_from(items) | keys if items else keys)
    return items, lo, hi, r, key


@given(loop_heads())
def test_loop_inv_equals_the_sliced_statement(head):
    items, lo, hi, r, key = head
    inv = _inv_holds(items, lo, hi, r, key, key_span(items, key))
    assert inv is _sliced_loop_inv(items, lo, hi, r, key)


@given(loop_heads())
def test_first_indices_and_key_span_equal_their_scans(head):
    items, _, _, _, key = head
    assert first_indices(items).get(key, -1) == linear_search_oracle(items, key)
    first, last = key_span(items, key)
    hits = [i for i, value in enumerate(items) if value == key]
    assert (first, last) == ((hits[0], hits[-1]) if hits else (len(items), -1))


class _CountingKey:
    """A key that counts the ==, < and > calls made on it."""

    def __init__(self, value):
        self.value = value
        self.calls = 0

    def __eq__(self, other):
        self.calls += 1
        return self.value == other

    def __lt__(self, other):
        self.calls += 1
        return self.value < other

    def __gt__(self, other):
        self.calls += 1
        return self.value > other

    __hash__ = None


@pytest.mark.parametrize("value", [-1, 0, 1, 512, 1023, 1024, 2046, 2047, 2048])
def test_checking_search_compares_linearly_often(value):
    # the span costs at most 2n comparisons once, each loop head at most 3
    # more; checking each head by slicing (_sliced_loop_inv) makes up to
    # 10 252 at n = 1024
    n = 1024
    key = _CountingKey(value)
    out = binary_search(SortedSeq(range(0, 2 * n, 2)), key, MODE_FULL_TRACE)
    assert out.r == (value // 2 if value % 2 == 0 and 0 <= value < 2 * n else -1)
    assert key.calls <= 2 * n + 3 * (out.t + 1)


def test_overshooting_mutant_trips_the_prefix_clause():
    # lo = mid + 2 skips the key at index 2: the bounds hold at [3, 3),
    # the discarded prefix holds the key
    with pytest.raises(InvariantViolation) as err:
        _search(SortedSeq([0, 1, 2]), 2, MODE_FULL_TRACE, advance=2)
    assert err.value.predicate == "binary_loop"
    assert err.value.state == {"lo": 3, "hi": 3, "r": -1, "t": 1}


sorted_instances = st.tuples(
    st.lists(st.integers(min_value=-50, max_value=50), max_size=24).map(sorted),
    st.integers(min_value=-55, max_value=55),
)


@given(sorted_instances)
def test_search_agrees_with_linear_oracle(instance):
    items, key = instance
    outcome = binary_search(SortedSeq(items), key, MODE_FULL_TRACE)
    oracle = linear_search_oracle(items, key)
    assert (outcome.r >= 0) == (oracle >= 0)
    if outcome.r >= 0:
        assert items[outcome.r] == key
    assert check_binary_posts(items, outcome.r, key)


@given(sorted_instances)
def test_search_counter_bounded(instance):
    items, key = instance
    outcome = binary_search(SortedSeq(items), key, MODE_FULL_TRACE)
    assert outcome.t == len(outcome.trace)
    assert outcome.t == costmodel.tbs(items, 0, len(items), key)
    assert outcome.t <= STEP_BUDGET(len(items))


def test_broken_search_trips_the_termination_check():
    with pytest.raises(InvariantViolation) as err:
        broken_binary_search(SortedSeq([0]), 1, MODE_FULL_TRACE)
    assert err.value.predicate == "termination"
    assert err.value.state["lo"] == 0 and err.value.state["hi"] == 1


def test_broken_search_agrees_when_bug_not_hit():
    # going left only never exercises the planted bug
    outcome = broken_binary_search(SortedSeq([1, 3, 5, 7]), -2, MODE_FULL_TRACE)
    assert (outcome.r, outcome.t) == (-1, 3)


@pytest.mark.parametrize(
    "call,outcome",
    [
        ("broken_binary_search([0], 1)", "InvariantViolation"),
        ("broken_binary_search([0], 1, 'off')", "PreconditionError"),
    ],
)
def test_broken_search_never_runs_unchecked(call, outcome):
    # without the termination check [0] with key 1 would loop forever, so
    # the default is the checking mode and "off" is refused
    probe = (
        "import olog\n"
        "try:\n"
        f"    olog.{call}\n"
        "except Exception as err:\n"
        "    print(type(err).__name__)\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    started = time.perf_counter()
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, timeout=5)
    assert time.perf_counter() - started < 1.0
    assert run.stdout == f"{outcome}\n", run.stderr
