import pytest
from hypothesis import given, strategies as st

from olog import costmodel
from olog.algorithms import _step
from olog.checker import InstanceSpace
from olog.costmodel import _unfold, tbs, tbs_table
from olog.errors import PreconditionError
from olog.intmath import LOG_BOUND


@pytest.mark.parametrize(
    "items,lo,hi,key,expected",
    [
        ([1, 3, 5, 7], 2, 2, 5, 0),  # empty range
        ([9], 0, 1, 9, 1),
        ([1, 3, 5, 7], 0, 4, 7, 2),  # mid=2, 5<7, then width-1 range
        ([1, 3, 5, 7], 0, 4, 4, 2),
        ([1, 2], 0, 2, 0, 2),  # mid=1, 0<2, then width-1 range
        ([1, 3, 5, 7], 0, 4, 5, 1),  # found at the first mid
        ([], 0, 0, 1, 0),  # the empty sequence's one range
    ],
)
def test_tbs_known_values(items, lo, hi, key, expected):
    # an empty range costs 0 here; that every nonempty one stays within
    # LOG_BOUND is test_log_bound_over_all_subranges's claim, through
    # tbs_table, and test_checker's P5 reference's, through tbs
    assert tbs(items, lo, hi, key) == expected


def test_tbs_rejects_bad_ranges():
    for lo, hi in [(-1, 2), (3, 2), (0, 5)]:
        with pytest.raises(PreconditionError):
            tbs([1, 2, 3], lo, hi, 1)


def test_tbs_path_records_what_the_module_global_recurrence_returns(monkeypatch):
    # the sweep's tests patch costmodel._tbs and read tbs_path: every range
    # the walk visits, the full range included, must carry the value the
    # patched recurrence returned for it
    exact = costmodel._tbs
    returned = {}

    def planted(q, lo, hi, key, *rest):
        returned[lo, hi] = exact(q, lo, hi, key, *rest) + (hi - lo == 3)
        return returned[lo, hi]

    monkeypatch.setattr(costmodel, "_tbs", planted)
    widened = 0
    for items in [(0, 1, 2), (1, 3, 5, 7, 9, 11, 13), (0, 0, 1, 1, 2, 2, 3)]:
        for key in range(-1, 15):
            returned.clear()
            path = costmodel.tbs_path(items, key)
            assert path == returned, (items, key)
            assert (0, len(items)) in path
            widened += any(hi - lo == 3 for lo, hi in path)
    assert widened > 0


# small sequences with repeated values and gaps between them
SMALL = [(0, 1, 1, 4, 4, 6, 9), (0, 0, 2, 2, 2, 5)]


def test_tbs_table_matches_recursion():
    # tbs recurses through _unfold at (lo+hi)//2: the whole recursion and
    # each level of it agree with the bottom-up table
    for items in SMALL:
        for key in range(-1, 11):
            table = tbs_table(items, key)
            for lo in range(len(items) + 1):
                for hi in range(lo, len(items) + 1):
                    assert table[lo][hi] == tbs(items, lo, hi, key)
                    cost, child = _unfold(items, lo, hi, key, (lo + hi) // 2)
                    assert table[lo][hi] == cost + (table[child[0]][child[1]] if child else 0)


def test_unfold_at_every_mid():
    # the search's step at any mid of a range goes to the child the
    # recurrence unfolds to, which is strictly narrower
    for items in SMALL:
        n = len(items)
        for key in range(-1, 11):
            for lo in range(n + 1):
                assert _unfold(items, lo, lo, key, lo) == (0, None)
                for hi in range(lo + 1, n + 1):
                    for mid in range(lo, hi):
                        cost, child = _unfold(items, lo, hi, key, mid)
                        if hi - lo == 1 or key == items[mid]:
                            assert (cost, child) == (1, None)
                            continue
                        assert cost == 1
                        assert child == ((lo, mid) if key < items[mid] else (mid + 1, hi))
                        assert lo <= child[0] <= child[1] <= hi
                        assert child[1] - child[0] < hi - lo
                        assert _step(items, key, lo, hi, -1, mid, 1)[:2] == child


sorted_instances = st.tuples(
    st.lists(st.integers(min_value=-20, max_value=20), max_size=16).map(sorted),
    st.integers(min_value=-25, max_value=25),
)


@given(sorted_instances)
def test_log_bound_over_all_subranges(instance):
    items, key = instance
    table = tbs_table(items, key)
    for lo in range(len(items)):
        for hi in range(lo + 1, len(items) + 1):
            assert table[lo][hi] <= LOG_BOUND(hi - lo)


def test_tbs_translation_invariant_on_instance_space():
    # the first obligation of the sweep's P5 reduction, exhaustively
    space = InstanceSpace(max_len=8, alphabet=4)
    for items, key_lo, key_hi in space.groups():
        length = len(items)
        for key in range(key_lo, key_hi + 1):
            for lo in range(length + 1):
                for hi in range(lo, length + 1):
                    assert tbs(items, lo, hi, key) == tbs(items[lo:hi], 0, hi - lo, key)


@given(
    st.lists(st.integers(min_value=-100, max_value=100), max_size=64).map(sorted),
    st.data(),
)
def test_tbs_translation_invariant(items, data):
    lo = data.draw(st.integers(min_value=0, max_value=len(items)))
    hi = data.draw(st.integers(min_value=lo, max_value=len(items)))
    key = data.draw(st.integers(min_value=-101, max_value=101))
    assert tbs(items, lo, hi, key) == tbs(items[lo:hi], 0, hi - lo, key)


@pytest.mark.parametrize("lo,hi", [(True, 3), (0.0, 3), (0, 3.0), (0, "3")])
def test_tbs_refuses_bounds_that_are_not_ints(lo, hi):
    with pytest.raises(PreconditionError, match="must be an integer"):
        tbs([1, 2, 3], lo, hi, 2)
