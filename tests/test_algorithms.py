import pytest
from hypothesis import given, strategies as st

from olog import costmodel
from olog.algorithms import (
    MODE_FULL_TRACE,
    SortedSeq,
    binary_search,
    broken_binary_search,
    check_binary_loop_inv,
    check_binary_posts,
    check_sorted,
    linear_search_oracle,
)
from olog.errors import InvariantViolation, PreconditionError


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
    [([1, 2], -1, 3, True), ([1, 2], 0, 1, True), ([1, 2], 0, 2, False), ([1, 2], 5, 1, False)],
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
    assert check_binary_loop_inv([1, 3, 5, 7], lo, hi, r, key) is expected


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
    assert outcome.t <= costmodel.step_budget(items)


def test_broken_search_trips_the_termination_check():
    with pytest.raises(InvariantViolation) as err:
        broken_binary_search(SortedSeq([0]), 1, MODE_FULL_TRACE)
    assert err.value.predicate == "termination"
    assert err.value.state["lo"] == 0 and err.value.state["hi"] == 1


def test_broken_search_agrees_when_bug_not_hit():
    # going left only never exercises the planted bug
    outcome = broken_binary_search(SortedSeq([1, 3, 5, 7]), -2, MODE_FULL_TRACE)
    assert (outcome.r, outcome.t) == (-1, 3)
