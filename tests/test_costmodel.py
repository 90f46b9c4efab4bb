import pytest
from hypothesis import given, strategies as st

from olog.algorithms import SortedSeq, binary_search
from olog.costmodel import step_budget, tbs, tbs_log_bound, tbs_table
from olog.errors import PreconditionError
from olog.intmath import ilog2


@pytest.mark.parametrize(
    "items,lo,hi,key,expected",
    [
        ([1, 3, 5, 7], 2, 2, 5, 0),  # empty range
        ([9], 0, 1, 9, 1),
        ([1, 3, 5, 7], 0, 4, 7, 2),  # mid=2, 5<7, then width-1 range
        ([1, 3, 5, 7], 0, 4, 4, 2),
        ([1, 2], 0, 2, 0, 2),  # mid=1, 0<2, then width-1 range
        ([1, 3, 5, 7], 0, 4, 5, 1),  # found at the first mid
    ],
)
def test_tbs_known_values(items, lo, hi, key, expected):
    assert tbs(items, lo, hi, key) == expected


def test_tbs_rejects_bad_ranges():
    for lo, hi in [(-1, 2), (3, 2), (0, 5)]:
        with pytest.raises(PreconditionError):
            tbs([1, 2, 3], lo, hi, 1)


def test_tbs_table_matches_recursion():
    items = (0, 1, 1, 4, 4, 6, 9)
    for key in range(-1, 11):
        table = tbs_table(items, key)
        for lo in range(len(items) + 1):
            for hi in range(lo, len(items) + 1):
                assert table[lo][hi] == tbs(items, lo, hi, key)


@pytest.mark.parametrize(
    "items,lo,hi,key",
    [([9], 0, 1, 9), ([1, 3, 5, 7], 0, 4, 4), ([1, 2], 0, 2, 0)],
)
def test_tbs_log_bound_examples(items, lo, hi, key):
    assert tbs_log_bound(items, lo, hi, key) is True


def test_tbs_log_bound_equality_case():
    # width 1: cost 1 equals 2*ilog2(1) + 1
    assert tbs([9], 0, 1, 9) == 2 * ilog2(1) + 1


def test_tbs_log_bound_preconditions():
    with pytest.raises(PreconditionError):
        tbs_log_bound([], 0, 0, 1)
    with pytest.raises(PreconditionError):
        tbs_log_bound([1, 2], 1, 1, 1)  # empty range


@pytest.mark.parametrize("length,expected", [(0, 1), (1, 3), (8, 7), (1024, 21)])
def test_step_budget_values(length, expected):
    assert step_budget(range(length)) == expected


sorted_instances = st.tuples(
    st.lists(st.integers(min_value=-20, max_value=20), max_size=16).map(sorted),
    st.integers(min_value=-25, max_value=25),
)


@given(sorted_instances)
def test_counter_dominated_by_tbs_and_budget(instance):
    items, key = instance
    outcome = binary_search(SortedSeq(items), key)
    total = tbs(items, 0, len(items), key)
    assert outcome.t <= total
    assert total <= step_budget(items)


@given(sorted_instances)
def test_log_bound_over_all_subranges(instance):
    items, key = instance
    table = tbs_table(items, key)
    for lo in range(len(items)):
        for hi in range(lo + 1, len(items) + 1):
            assert table[lo][hi] <= 2 * ilog2(hi - lo) + 1

