import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from olog import algorithms, costmodel
from olog.algorithms import (
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
from olog.checker import InstanceSpace
from olog.errors import InvariantViolation, PreconditionError
from olog.intmath import STEP_BUDGET

import bare


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
    assert hash(s) == hash(SortedSeq((1, 2, 3))) and len({s, SortedSeq([1, 2, 3])}) == 1
    assert SortedSeq([1]) != (1,)  # a tuple of the same items is no SortedSeq
    assert repr(s) == "SortedSeq([1, 2, 3])"


def test_sorted_seq_refuses_a_sequence_past_the_length_cap(monkeypatch):
    monkeypatch.setattr(algorithms, "MAX_LEN", 2)
    assert len(SortedSeq([1, 2])) == 2
    with pytest.raises(PreconditionError, match="exceeds"):
        SortedSeq([1, 2, 3])


# hand-stepped instances; every (r, t) re-verified below against the
# bare loop and the transition-cost model
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


def _heads(outcome):
    return [(rec.lo, rec.hi, rec.mid) for rec in outcome.trace]


@pytest.mark.parametrize("items,key,r,t", SEARCH_CASES)
def test_the_checks_observe_step_and_never_steer_it(items, key, r, t):
    # the checked search takes the same steps as _step driven bare
    outcome = binary_search(SortedSeq(items), key)
    assert (outcome.r, outcome.t) == (r, t)
    assert bare.run(items, key, 0, len(items)) == (r, _heads(outcome))
    assert len(outcome.trace) == t


def test_step_resumes_the_search_from_its_second_head():
    # r is -1 at every head but the last, so (lo, hi, -1) at the second
    # head is a state the loop admits; run bare from it, it takes the
    # checked search's t - 1 remaining steps and ends on its r
    resumed = 0
    for items, key_lo, key_hi in InstanceSpace(max_len=6, alphabet=4).groups():
        for key in range(key_lo, key_hi + 1):
            outcome = binary_search(SortedSeq(items), key)
            if outcome.t < 2:
                continue
            second = outcome.trace[1]
            r, heads = bare.run(items, key, second.lo, second.hi)
            assert (r, heads) == (outcome.r, _heads(outcome)[1:]), (items, key)
            resumed += 1
    assert resumed == 1005


def test_empty_input_contract():
    for key in range(-5, 6):
        outcome = binary_search(SortedSeq([]), key)
        assert (outcome.r, outcome.t) == (-1, 0)


def test_full_trace_records():
    outcome = binary_search(SortedSeq([1, 3, 5, 7]), 7)
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


def _scanned_span(items, key):
    # key_span's answer by a scan that relies on no order
    hits = [i for i, value in enumerate(items) if value == key]
    return (hits[0], hits[-1]) if hits else (len(items), -1)


def _sliced_loop_inv(q, lo, hi, r, key):
    # the invariant as slices, which copy a prefix and a suffix at every head:
    # the reference that the O(1) statement over the key's span must equal
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
    inv = _inv_holds(items, lo, hi, r, key, _scanned_span(items, key))
    assert inv is _sliced_loop_inv(items, lo, hi, r, key)


@given(loop_heads())
def test_first_indices_and_key_span_equal_their_scans(head):
    # first_indices relies on no order; key_span bisects a sorted sequence
    items, _, _, _, key = head
    assert first_indices(items).get(key, -1) == linear_search_oracle(items, key)
    ordered = sorted(items)
    assert key_span(ordered, key) == _scanned_span(ordered, key)


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


@pytest.fixture(scope="module")
def evens():
    return {n: SortedSeq(range(0, 2 * n, 2)) for n in (1024, 2**20)}


@pytest.mark.parametrize("value", [-1, 0, 1, 512, 1023, 1024, 2046, 2047, 2048])
def test_checking_search_compares_linearly_often(value, evens):
    # logarithmically, in fact: the span's two bisections cost at most
    # n.bit_length() + 1 comparisons each, once a call, and each loop head
    # at most 3 more. A scan for the span costs about 2n, and slicing at
    # each head (_sliced_loop_inv) up to 10 252 at n = 1024
    for n, q in evens.items():
        # the same offsets from the top of the sequence as from its bottom
        for key_value in {value, value + 2 * n - 2048}:
            key = _CountingKey(key_value)
            out = binary_search(q, key)
            present = key_value % 2 == 0 and 0 <= key_value < 2 * n
            assert out.r == (key_value // 2 if present else -1)
            assert key.calls <= 2 * (n.bit_length() + 1) + 3 * (out.t + 1)


def test_overshooting_mutant_trips_the_prefix_clause():
    # lo = mid + 2 skips the key at index 2: the bounds hold at [3, 3),
    # the discarded prefix holds the key
    with pytest.raises(InvariantViolation) as err:
        _search(SortedSeq([0, 1, 2]), 2, advance=2)
    assert err.value.predicate == "binary_loop"
    assert err.value.state == {"lo": 3, "hi": 3, "r": -1, "t": 1}


sorted_instances = st.tuples(
    st.lists(st.integers(min_value=-50, max_value=50), max_size=24).map(sorted),
    st.integers(min_value=-55, max_value=55),
)


@given(sorted_instances)
def test_search_agrees_with_linear_oracle(instance):
    items, key = instance
    outcome = binary_search(SortedSeq(items), key)
    oracle = linear_search_oracle(items, key)
    assert (outcome.r >= 0) == (oracle >= 0)
    if outcome.r >= 0:
        assert items[outcome.r] == key
    assert check_binary_posts(items, outcome.r, key)


@given(sorted_instances)
def test_search_counter_bounded(instance):
    items, key = instance
    outcome = binary_search(SortedSeq(items), key)
    assert outcome.t == len(outcome.trace)
    assert outcome.t == costmodel.tbs(items, 0, len(items), key)
    assert outcome.t <= STEP_BUDGET(len(items))


def test_broken_search_trips_the_termination_check():
    with pytest.raises(InvariantViolation) as err:
        broken_binary_search(SortedSeq([0]), 1)
    assert err.value.predicate == "termination"
    assert err.value.state["lo"] == 0 and err.value.state["hi"] == 1


def test_broken_search_agrees_when_bug_not_hit():
    # going left only never exercises the planted bug
    outcome = broken_binary_search(SortedSeq([1, 3, 5, 7]), -2)
    assert (outcome.r, outcome.t) == (-1, 3)


@pytest.mark.parametrize(
    "call,outcome",
    [
        ("broken_binary_search([0], 1)", "InvariantViolation"),
        ("broken_binary_search([0], 1, 'off')", "TypeError"),
    ],
)
def test_broken_search_never_runs_unchecked(call, outcome):
    # without the termination check [0] with key 1 would loop forever, so
    # the broken search takes no mode: like every search, it always checks
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
