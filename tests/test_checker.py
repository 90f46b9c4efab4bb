import bisect
import itertools
import json
import math
import os
import subprocess
import sys
import time
from collections import Counter
from functools import partial
from itertools import product
from pathlib import Path

import jsonschema
import pytest

import olog
import subranges
from olog import checker, complexity, costmodel, intmath
from olog.algorithms import (
    SearchOutcome,
    SortedSeq,
    _search,
    binary_search,
    broken_binary_search,
)
from olog.checker import InstanceSpace, nondecreasing_sequences, verify_all
from olog.errors import PreconditionError, WorkerError

SCHEMAS = Path(olog.__file__).parent / "schemas"


def _instances(space):
    # the (q, key) pairs of the space, in the order the sweep checks them
    return [(q, key) for q, lo, hi in space.groups() for key in range(lo, hi + 1)]


def _sorted_tuples(length, alphabet):
    # every tuple of the length, in lexicographic order, kept if non-decreasing:
    # independent of the combinations_with_replacement the stream comes from
    return [q for q in product(range(alphabet), repeat=length) if list(q) == sorted(q)]


def _reference_instances(max_len, alphabet):
    # shortest first, lexicographic within a length, keys ascending
    return [
        (q, key)
        for length in range(max_len + 1)
        for q in _sorted_tuples(length, alphabet)
        for key in range(-1, alphabet + 1)
    ]


def _sequence_count(max_len, alphabet):
    # multisets of each size: C(n + alphabet - 1, alphabet - 1)
    return sum(math.comb(n + alphabet - 1, alphabet - 1) for n in range(max_len + 1))


def test_space_validation():
    with pytest.raises(PreconditionError):
        InstanceSpace(max_len=0)
    with pytest.raises(PreconditionError):
        InstanceSpace(alphabet=0)


def test_enumeration_tiny_space():
    space = InstanceSpace(max_len=1, alphabet=1)
    instances = _instances(space)
    assert instances == _reference_instances(1, 1)
    assert len(instances) == 6  # ([], [0]) x keys {-1, 0, 1}
    assert [s for s, _ in instances] == [(), (), (), (0,), (0,), (0,)]
    assert [k for _, k in instances] == [-1, 0, 1, -1, 0, 1]


def test_enumeration_count_formula():
    space = InstanceSpace(max_len=8, alphabet=6)
    total = len(_instances(space))
    assert _sequence_count(8, 6) == 3003 == math.comb(14, 6)
    assert total == 3003 * space.keys_per_sequence == 24024


@pytest.mark.parametrize("max_len,alphabet", [(1, 1), (3, 1), (2, 5), (4, 3), (6, 2), (8, 6)])
def test_instance_count_closed_form(max_len, alphabet):
    space = InstanceSpace(max_len=max_len, alphabet=alphabet)
    reference = _reference_instances(max_len, alphabet)
    assert space.instances == len(reference)
    assert space.key_elements == sum((hi - lo + 1) * len(s) for s, lo, hi in space.groups())


@pytest.mark.parametrize("max_len,alphabet", [(1, 1), (3, 1), (2, 5), (4, 3)])
def test_groups_stream_every_sequence_with_the_space_keys(max_len, alphabet):
    groups = InstanceSpace(max_len=max_len, alphabet=alphabet).groups()
    assert iter(groups) is groups  # streamed, not a list
    expected = [
        (items, -1, alphabet)
        for length in range(max_len + 1)
        for items in _sorted_tuples(length, alphabet)
    ]
    assert list(groups) == expected


@pytest.mark.parametrize("max_len,alphabet", [(1, 1), (4, 1), (3, 4), (5, 3), (6, 2)])
def test_instance_space_closed_under_slicing(max_len, alphabet):
    # the second obligation of the sweep's P5 reduction
    space = InstanceSpace(max_len=max_len, alphabet=alphabet)
    instances = set(_instances(space))
    for items, key in instances:
        for lo in range(len(items) + 1):
            for hi in range(lo, len(items) + 1):
                assert (items[lo:hi], key) in instances


def test_verify_all_rejects_oversized_space_before_enumerating(monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(checker, "nondecreasing_sequences", no_enumeration)
    with pytest.raises(PreconditionError, match="instances"):
        verify_all(InstanceSpace(max_len=8, alphabet=100), grid=2)
    monkeypatch.setattr(checker, "MAX_INSTANCES", 23)
    with pytest.raises(PreconditionError):
        verify_all(InstanceSpace(max_len=2, alphabet=2), grid=2)  # 24 instances


def test_space_at_instance_cap_is_accepted(monkeypatch):
    monkeypatch.setattr(checker, "MAX_INSTANCES", 24)
    assert verify_all(InstanceSpace(max_len=2, alphabet=2), grid=2).instances_checked == 24


def test_verify_all_bounds_keys_times_elements(monkeypatch):
    # (2, 2): 4 keys x 8 elements ([0], [1], [0,0], [0,1], [1,1])
    space = InstanceSpace(max_len=2, alphabet=2)
    assert space.key_elements == 32
    cap = checker.MAX_ELEMENTS
    monkeypatch.setattr(checker, "MAX_ELEMENTS", 32)
    assert verify_all(space, grid=2).instances_checked == 24

    def no_enumeration(*args):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(checker, "nondecreasing_sequences", no_enumeration)
    monkeypatch.setattr(checker, "MAX_ELEMENTS", 31)
    with pytest.raises(PreconditionError, match="elements"):
        verify_all(space, grid=2)
    monkeypatch.setattr(checker, "MAX_ELEMENTS", cap)
    with pytest.raises(PreconditionError, match="elements"):
        verify_all(InstanceSpace(max_len=20000, alphabet=1), grid=2)  # 60 003 instances


def test_enumeration_is_sorted_and_ordered():
    space = InstanceSpace(max_len=3, alphabet=3)
    instances = _instances(space)
    assert instances == _reference_instances(3, 3)
    seqs = [s for s, k in instances if k == -1]
    assert all(list(s) == sorted(s) for s in seqs)
    # shortest first, lexicographic within a length
    keyed = [(len(s), s) for s in seqs]
    assert keyed == sorted(keyed)
    assert len(set(seqs)) == len(seqs)


def test_nondecreasing_sequences_exact_small_case():
    assert list(nondecreasing_sequences(2, 2)) == [(0, 0), (0, 1), (1, 1)]


@pytest.fixture(scope="module")
def default_report():
    return verify_all(InstanceSpace(), grid=2**20)


def test_default_space_all_properties_pass(default_report):
    assert default_report.instances_checked == 24024
    assert default_report.all_passed
    assert len(default_report.properties) == 9
    assert {p.id for p in default_report.properties} == {f"P{i}" for i in range(1, 10)}
    assert default_report.minimal_counterexample() is None


def test_counter_equals_tbs_on_default_space(default_report):
    # the largest |tbs - t|: zero on every enumerated instance, i.e. the
    # model is exact there
    assert default_report.max_tbs_gap == 0


def test_report_serializes_against_schema(default_report):
    schema = json.loads((SCHEMAS / "check_report.schema.json").read_text())
    payload = default_report.to_dict()
    jsonschema.validate(payload, schema)
    json.dumps(payload)


def test_verify_all_rejects_small_grid():
    with pytest.raises(PreconditionError):
        verify_all(InstanceSpace(max_len=1, alphabet=1), grid=1)


def test_tiny_space_passes():
    report = verify_all(InstanceSpace(max_len=1, alphabet=1), grid=2)
    assert report.all_passed
    assert report.instances_checked == 6


def _verify_under(monkeypatch, workers, space, grid):
    monkeypatch.setenv("OLOG_WORKERS", str(workers))
    return verify_all(space, grid)


def test_mutant_is_caught_with_minimal_counterexample(monkeypatch):
    # under two workers both first counterexamples lie in the forked share,
    # and the merge adds the violations of both shares
    monkeypatch.setattr(checker, "binary_search", broken_binary_search)
    for workers in (0, 2):
        report = _verify_under(monkeypatch, workers, InstanceSpace(max_len=4, alphabet=3), 16)
        assert not report.all_passed
        failing = {p.id for p in report.properties if not p.passed}
        assert failing & {"P3", "P4"}
        minimal = report.minimal_counterexample()
        assert (minimal["q"], minimal["key"]) == ([0], 1)
        props = {p.id: p for p in report.properties}
        assert (props["P3"].violations, props["P3"].counterexample) == (58, minimal)
        assert minimal["detail"] == (
            "hi-lo failed to decrease (1 -> 1) at {'lo': 0, 'hi': 1, 'r': -1, 't': 1}"
        )
        # [0, 3) goes right to [2, 3), the mutant to [1, 3), where it still
        # terminates: only P4's walk sees the stray head
        assert props["P4"].violations == 9
        assert props["P4"].counterexample == {
            "q": [0, 0, 1],
            "key": 1,
            "detail": "head [1, 3) at t=1 is off the tbs recursion's path",
        }


def test_overshooting_mutant_verdicts_are_pinned(monkeypatch):
    # lo = mid + 2: the loop-head invariant (P1) and the tbs walk (P4) catch it
    mutant = partial(_search, advance=2)
    monkeypatch.setattr(checker, "binary_search", mutant)
    report = verify_all(InstanceSpace(max_len=4, alphabet=3), 64)
    failing = _failing(report)
    assert failing == {"P1": (29, ([0], 1)), "P4": (38, ([0, 0, 0], 1))}
    assert report.minimal_counterexample()["detail"] == (
        "invariant 'binary_loop' violated at {'lo': 2, 'hi': 1, 'r': -1, 't': 1}"
    )


def test_sweep_walks_the_recurrence_once_per_instance(monkeypatch):
    # one walk serves P4, at every loop head and end to end, and P5
    exact = costmodel._tbs
    walks = Counter()

    def counting(q, lo, hi, key, depth, *rest):
        if depth == 0:
            kind = "full" if (lo, hi) == (0, len(q)) else "empty" if lo == hi else "subrange"
            walks[kind] += 1
        return exact(q, lo, hi, key, depth, *rest)

    monkeypatch.setattr(costmodel, "_tbs", counting)
    # in process: a forked worker's walks would be counted in its own copy
    monkeypatch.setenv("OLOG_WORKERS", "0")
    report = verify_all(InstanceSpace(), grid=2)
    assert report.all_passed
    assert walks == {"full": report.instances_checked}
    assert report.instances_checked == 24024


def test_mutant_report_is_schema_valid(monkeypatch):
    monkeypatch.setattr(checker, "binary_search", broken_binary_search)
    report = verify_all(InstanceSpace(max_len=2, alphabet=2), grid=4)
    schema = json.loads((SCHEMAS / "check_report.schema.json").read_text())
    jsonschema.validate(report.to_dict(), schema)


def _never_counts(q, key):
    # a search whose counter never counts and which records nothing
    return SearchOutcome(binary_search(q, key).r, 0, ())


def _failing(report):
    """Failing property id -> (violations, (q, key) of its first counterexample)."""
    failing = {}
    for p in report.properties:
        if not p.passed:
            first = p.counterexample
            failing[p.id] = (p.violations, first and (first.get("q"), first.get("key")))
    return failing


def test_a_search_that_never_counts_fails_p4(monkeypatch):
    monkeypatch.setattr(checker, "binary_search", _never_counts)
    for workers in (0, 2):
        report = _verify_under(monkeypatch, workers, InstanceSpace(max_len=2, alphabet=2), 4)
        # every instance but the four on [] costs at least 1
        assert _failing(report) == {"P4": (20, ([0], -1))}
        assert report.minimal_counterexample()["detail"] == "t=0 differs from tbs=1"


def _counts_twice(q, key):
    # a search whose counter, and the trace's, charges two steps per iteration
    out = binary_search(q, key)
    trace = tuple(rec._replace(t_after=2 * rec.t_after) for rec in out.trace)
    return SearchOutcome(out.r, 2 * out.t, trace)


def test_max_tbs_gap_sees_a_counter_that_overcounts(monkeypatch):
    space = InstanceSpace(max_len=4, alphabet=3)
    exact = verify_all(space, grid=16)
    assert exact.max_tbs_gap == 0
    monkeypatch.setattr(checker, "binary_search", _counts_twice)
    report = verify_all(space, grid=16)
    # the five instances on [] cost 0, so doubling their counter is harmless;
    # 41 of the others, doubled, exceed the step budget
    failing = {p: v for p, (v, _) in _failing(report).items()}
    assert failing == {"P3": 170, "P4": 170, "P6": 41}
    # |tbs - 2t| = t, whose largest value on length 4 is 3
    assert report.max_tbs_gap == 3


def test_a_cost_model_past_its_depth_cap_fails_p5_only(monkeypatch):
    # a mutant of _tbs that recurses on its own range while it is 2 wide or
    # more, so the depth guard is what stops it; every instance of length 2
    # fails P5, and the search, which does not read the cost model, passes
    exact = costmodel._tbs

    def planted(q, lo, hi, key, depth, costs):
        if hi - lo < 2:
            return exact(q, lo, hi, key, depth, costs)
        exact(q, lo, lo, key, depth, costs)  # the guard; an empty range costs 0
        return 1 + costmodel._tbs(q, lo, hi, key, depth + 1, costs)

    monkeypatch.setattr(costmodel, "_tbs", planted)
    report = verify_all(InstanceSpace(max_len=2, alphabet=2), grid=16)
    assert _failing(report) == {"P5": (12, ([0, 0], -1))}
    p5 = next(p for p in report.properties if p.id == "P5")
    assert p5.counterexample["detail"] == (
        "the tbs walk raised AssertionError: transition-cost recursion exceeded its depth cap"
    )


@pytest.mark.parametrize("branch,first", [("left", ([0, 0], -1)), ("right", ([0, 0], 1))])
def test_a_cost_model_that_overcharges_fails_p4(monkeypatch, branch, first):
    # a mutant of _tbs that charges one more on one branch of its recursion;
    # P5's bound 2*ilog2(w)+1 is loose enough to absorb the extra cost
    exact = costmodel._tbs

    def planted(q, lo, hi, key, *rest):
        mid = (lo + hi) // 2
        extra = hi - lo > 1 and key != q[mid] and (key < q[mid]) == (branch == "left")
        return exact(q, lo, hi, key, *rest) + extra

    monkeypatch.setattr(costmodel, "_tbs", planted)
    report = verify_all(InstanceSpace(max_len=4, alphabet=3), grid=16)
    assert set(_failing(report)) == {"P4"}
    assert _failing(report)["P4"][1] == first
    assert report.minimal_counterexample()["q"] == first[0]


def _off_by_one(monkeypatch):
    exact = intmath.ilog2
    monkeypatch.setattr(intmath, "ilog2", lambda n: exact(n) + 1)  # k = 1 in ilog2


def test_an_off_by_one_ilog2_fails_p8(monkeypatch):
    # every value one too large keeps P8's adjacent-pair relation; the
    # doubling oracle does not move
    _off_by_one(monkeypatch)
    report = verify_all(InstanceSpace(max_len=2, alphabet=2), grid=2**20)
    p8 = next(p for p in report.properties if p.id == "P8")
    assert (p8.passed, p8.violations) == (False, 1)
    assert p8.counterexample == {"n": 1, "detail": "ilog2(1) != ilog2_oracle(1)"}


def _always_absent(q, key):
    # a search that reports every key absent, with the right counter and trace
    return binary_search(q, key)._replace(r=-1)


def test_a_search_that_misses_present_keys_fails_p1_and_p2(monkeypatch):
    # P1's postconditions and P2's oracle both see the six present
    # instances: [0] and [1] with their value, [0, 0] and [1, 1] with
    # theirs, [0, 1] with either
    monkeypatch.setattr(checker, "binary_search", _always_absent)
    report = verify_all(InstanceSpace(max_len=2, alphabet=2), grid=2)
    assert _failing(report) == {"P1": (6, ([0], 0)), "P2": (6, ([0], 0))}
    p2 = next(p for p in report.properties if p.id == "P2")
    assert p2.counterexample["detail"] == "r=-1 disagrees with oracle index 0"


def _ten_steps_late(q, key):
    # a search whose counter runs 10 ahead of its trace and of tbs
    out = binary_search(q, key)
    return out._replace(t=out.t + 10)


def test_a_counter_past_the_witness_bound_fails_p7(monkeypatch):
    # every instance's t reaches 10..12, over every budget (at most 3 at
    # length 2), and over 6*ilog2(2) = 6 on the 12 instances of length 2,
    # the only ones the witness covers (n0 = 2)
    monkeypatch.setattr(checker, "binary_search", _ten_steps_late)
    report = verify_all(InstanceSpace(max_len=2, alphabet=2), grid=2)
    failing = _failing(report)
    assert {p: v for p, (v, _) in failing.items()} == {"P3": 24, "P4": 24, "P6": 24, "P7": 12}
    assert failing["P7"] == (12, ([0, 0], -1))
    p7 = next(p for p in report.properties if p.id == "P7")
    assert p7.counterexample["detail"] == "t=12 exceeds 6*ilog2(2)=6"


@pytest.mark.parametrize("workers", [0, 2])
def test_p7_judges_the_witness_of_the_chain_p9_checks(monkeypatch, workers):
    # a chain whose last step ends at 12*ilog2(n) witnesses (12, 2), and the
    # counter 10 ahead reaches at most 12 = 12*ilog2(2): P7 passes with P9,
    # and only the properties that see the counter itself fail
    steps = list(complexity.canonical_chain())
    last = steps[-1]
    twelve = intmath.Expr((intmath.Term(12, 1, 0),), 0)
    steps[-1] = last._replace(relation=last.relation._replace(rhs=twelve))
    monkeypatch.setattr(complexity, "canonical_chain", lambda: tuple(steps))
    assert complexity.derive_log_witness(2).witness == (12, 2)
    monkeypatch.setattr(checker, "binary_search", _ten_steps_late)
    monkeypatch.setenv("OLOG_WORKERS", str(workers))
    report = verify_all(InstanceSpace(max_len=2, alphabet=2), grid=2)
    assert {p: v for p, (v, _) in _failing(report).items()} == {"P3": 24, "P4": 24, "P6": 24}


def _absent_as_minus_two(q, key):
    # a search that reports an absent key as -2 instead of -1
    out = binary_search(q, key)
    return out._replace(r=-2) if out.r < 0 else out


def test_an_absent_index_other_than_minus_one_fails_p1(monkeypatch):
    monkeypatch.setattr(checker, "binary_search", _absent_as_minus_two)
    report = verify_all(InstanceSpace(max_len=3, alphabet=2), grid=16)
    assert set(_failing(report)) == {"P1"}
    assert _failing(report)["P1"][1] == ([], -1)
    assert report.minimal_counterexample()["detail"] == "postconditions fail for r=-2"


def _raises_on_one(q, key):
    if list(q) == [0, 1] and key == 1:
        raise KeyError("planted")
    return binary_search(q, key)


def test_a_search_that_raises_gets_a_p1_verdict(monkeypatch):
    space = InstanceSpace(max_len=4, alphabet=3)
    monkeypatch.setattr(checker, "binary_search", _raises_on_one)
    monkeypatch.setenv("OLOG_WORKERS", "0")
    report = verify_all(space, grid=16)
    assert _failing(report) == {"P1": (1, ([0, 1], 1))}
    assert report.minimal_counterexample()["detail"] == "the search raised KeyError: 'planted'"
    monkeypatch.setenv("OLOG_WORKERS", "2")
    forked = verify_all(space, grid=16)
    assert _strip(forked) == _strip(report)


def test_a_cost_walk_that_raises_gets_a_p5_verdict(monkeypatch):
    exact = costmodel._tbs

    def planted(q, lo, hi, key, *rest):
        if tuple(q) == (0, 1) and key == 1:
            raise IndexError("planted")
        return exact(q, lo, hi, key, *rest)

    monkeypatch.setattr(costmodel, "_tbs", planted)
    space = InstanceSpace(max_len=4, alphabet=3)
    monkeypatch.setenv("OLOG_WORKERS", "0")
    report = verify_all(space, grid=16)
    # the instance's P4 is skipped: there is no cost to judge the counter by
    assert _failing(report) == {"P5": (1, ([0, 1], 1))}
    assert report.minimal_counterexample()["detail"] == "the tbs walk raised IndexError: planted"
    monkeypatch.setenv("OLOG_WORKERS", "2")
    assert _strip(verify_all(space, grid=16)) == _strip(report)


def test_a_report_with_every_kind_of_failure_is_schema_valid(monkeypatch):
    steps = list(complexity.canonical_chain())
    s5 = steps[4]
    weakened = intmath.Relation(s5.relation.lhs, "<=", intmath.Expr((intmath.Term(3, 1, 0),), 0))
    steps[4] = complexity.CalcStep(weakened, s5.n_min, s5.why)
    monkeypatch.setattr(complexity, "canonical_chain", lambda: tuple(steps))
    _off_by_one(monkeypatch)
    monkeypatch.setattr(checker, "binary_search", _raises_on_one)
    report = verify_all(InstanceSpace(max_len=2, alphabet=2), grid=64)
    failing = _failing(report)
    assert set(failing) == {"P1", "P8", "P9"}
    doc = report.to_dict()
    p9 = doc["properties"][8]["counterexample"]
    assert p9 == {"step": 5, "n": 2, "detail": "chain step 5 fails at n=2"}
    jsonschema.validate(doc, json.loads((SCHEMAS / "check_report.schema.json").read_text()))


def _plant_cost_model(monkeypatch):
    exact = costmodel._tbs

    def planted(q, lo, hi, key, *rest):
        # overcharges width-5 ranges that go left, past the bound 2*ilog2(5)+1 = 5
        cost = exact(q, lo, hi, key, *rest)
        if hi - lo == 5 and q[(lo + hi) // 2] > key:
            cost += 5
        return cost

    monkeypatch.setattr(costmodel, "_tbs", planted)


def _strip(report):
    doc = report.to_dict()
    del doc["wall_time_ms"]
    return doc


def _slow_minimal_share(q, key):
    # group 1, [0], holds the broken search's minimal counterexample ([0],
    # 1); with two workers it is the child's share, which then finishes
    # after the parent's
    if list(q) == [0] and key == -1:
        time.sleep(0.05)
    return broken_binary_search(q, key)


def test_parallel_equals_serial(monkeypatch):
    space = InstanceSpace(max_len=4, alphabet=3)
    serial = _verify_under(monkeypatch, 0, space, 64)
    for workers in (2, 3):
        assert _strip(_verify_under(monkeypatch, workers, space, 64)) == _strip(serial)

    monkeypatch.setattr(checker, "binary_search", broken_binary_search)
    serial_m = _verify_under(monkeypatch, 0, space, 64)
    assert serial_m.minimal_counterexample()["q"] == [0]
    for workers in (2, 3):
        assert _strip(_verify_under(monkeypatch, workers, space, 64)) == _strip(serial_m)
    # the merge takes each property's earliest counterexample, not the
    # first share's, nor the share that finished first
    monkeypatch.setattr(checker, "binary_search", _slow_minimal_share)
    assert _strip(_verify_under(monkeypatch, 2, space, 64)) == _strip(serial_m)

    # (1, 1) has two groups, [] and [0]: three of five shares hold none
    tiny = InstanceSpace(max_len=1, alphabet=1)
    for search in (broken_binary_search, binary_search):
        monkeypatch.setattr(checker, "binary_search", search)
        expected = _verify_under(monkeypatch, 0, tiny, 4)
        assert _strip(_verify_under(monkeypatch, 5, tiny, 4)) == _strip(expected)

    # the default space is above the fork's break-even, so with two or
    # more usable CPUs the automatic count forks
    default = InstanceSpace()
    expected = _verify_under(monkeypatch, 0, default, 2**20)
    monkeypatch.delenv("OLOG_WORKERS")
    assert _strip(verify_all(default, grid=2**20)) == _strip(expected)

    # forked workers inherit the planted cost model
    _plant_cost_model(monkeypatch)
    planted_space = InstanceSpace(max_len=7, alphabet=3)
    serial_p = _verify_under(monkeypatch, 0, planted_space, 2)
    assert _p5(serial_p) == (False, 42, ([0, 0, 0, 0, 0], -1))
    assert _strip(serial_p) == _strip(_verify_under(monkeypatch, 2, planted_space, 2))


def test_a_planted_local_function_reaches_the_automatic_forked_shares(monkeypatch):
    # nothing is pickled: the forked shares inherit a search planted on the
    # module global, a local function included
    def local_search(q, key):
        return broken_binary_search(q, key)

    space = InstanceSpace(max_len=4, alphabet=3)
    monkeypatch.setattr(checker, "binary_search", broken_binary_search)
    expected = _verify_under(monkeypatch, 0, space, 16)
    monkeypatch.delenv("OLOG_WORKERS")
    monkeypatch.setattr(checker, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(checker, "POOL_MIN_WORK", checker._sweep_work(space))
    assert checker._pool_workers(space) == 2
    monkeypatch.setattr(checker, "binary_search", local_search)
    report = verify_all(space, grid=16)
    assert _strip(report) == _strip(expected)
    assert report.minimal_counterexample()["q"] == [0]


def test_a_planted_lambda_reaches_the_forced_forked_shares(monkeypatch):
    # a lambda planted on the module global sweeps in the forked shares
    # under a forced worker count
    forks = []
    real_fork = checker.os.fork

    def counting_fork():
        forks.append(1)
        return real_fork()

    space = InstanceSpace(max_len=3, alphabet=2)
    expected = _verify_under(monkeypatch, 0, space, 16)
    monkeypatch.setattr(checker.os, "fork", counting_fork)
    monkeypatch.setattr(checker, "binary_search", lambda q, key: binary_search(q, key))
    report = _verify_under(monkeypatch, 2, space, 16)
    assert _strip(report) == _strip(expected)
    assert forks == [1]


def test_a_platform_without_fork_sweeps_in_process(monkeypatch):
    monkeypatch.delattr(checker.os, "fork")
    space = InstanceSpace(max_len=3, alphabet=2)
    expected = _strip(_verify_under(monkeypatch, 0, space, 16))
    assert _strip(_verify_under(monkeypatch, 2, space, 16)) == expected
    assert _strip(_verify_under(monkeypatch, 3, space, 16)) == expected
    monkeypatch.setenv("OLOG_WORKERS", "nope")
    with pytest.raises(PreconditionError, match="OLOG_WORKERS"):
        verify_all(space, 16)


def test_pool_workers_decision(monkeypatch):
    big, small = InstanceSpace(), InstanceSpace(max_len=2, alphabet=2)
    monkeypatch.delenv("OLOG_WORKERS", raising=False)
    monkeypatch.setattr(checker, "_usable_cpus", lambda: 4)
    assert checker._pool_workers(big) == 4
    assert checker._pool_workers(small) == 0  # below the break-even
    # the break-even is inclusive, on the closed-form work estimate
    assert checker._sweep_work(small) == 4 * 8 + checker.SEQ_WORK * 24
    monkeypatch.setattr(checker, "POOL_MIN_WORK", checker._sweep_work(small))
    assert checker._pool_workers(small) == 4
    monkeypatch.setattr(checker, "POOL_MIN_WORK", checker._sweep_work(small) + 1)
    assert checker._pool_workers(small) == 0

    monkeypatch.setattr(checker, "_usable_cpus", lambda: 1)
    assert checker._pool_workers(big) == 0

    monkeypatch.setenv("OLOG_WORKERS", "0")
    monkeypatch.setattr(checker, "_usable_cpus", lambda: 4)
    assert checker._pool_workers(big) == 0
    monkeypatch.setenv("OLOG_WORKERS", "3")
    monkeypatch.setattr(checker, "_usable_cpus", lambda: 1)
    assert checker._pool_workers(small) == 3
    monkeypatch.setenv("OLOG_WORKERS", str(checker.MAX_WORKERS))
    assert checker._pool_workers(small) == checker.MAX_WORKERS
    for bad in ("nope", "-1", "", str(checker.MAX_WORKERS + 1), "100000"):
        monkeypatch.setenv("OLOG_WORKERS", bad)
        with pytest.raises(PreconditionError, match="OLOG_WORKERS"):
            checker._pool_workers(big)


def test_forced_worker_count_over_the_ceiling_starts_no_process(monkeypatch):
    def no_fork():
        raise AssertionError("a worker was forked")

    monkeypatch.setattr(checker.os, "fork", no_fork)
    monkeypatch.setenv("OLOG_WORKERS", "100000")
    with pytest.raises(PreconditionError, match="OLOG_WORKERS"):
        verify_all(InstanceSpace(max_len=2, alphabet=2), grid=4)


def test_an_explicit_worker_count_out_of_range_starts_no_process(monkeypatch):
    # a forced count outside [0, MAX_WORKERS] is refused whole: 10^5 would
    # fork at once, and -7 sweep in process without a word
    def no_fork():
        raise AssertionError("a worker was forked")

    monkeypatch.setattr(checker.os, "fork", no_fork)
    for workers in (10**5, checker.MAX_WORKERS + 1, -7, -1):
        monkeypatch.setenv("OLOG_WORKERS", str(workers))
        message = rf"^OLOG_WORKERS must be in \[0, 256\], got {workers}$"
        with pytest.raises(PreconditionError, match=message):
            verify_all(InstanceSpace(1, 1), grid=2)


def test_an_explicit_worker_count_of_another_type_starts_no_process(monkeypatch):
    # a forced count that is not a decimal integer (a float, a bool's name,
    # nothing at all) is refused before any fork
    def no_fork():
        raise AssertionError("a worker was forked")

    monkeypatch.setattr(checker.os, "fork", no_fork)
    for workers in ("2.5", "1.0", "True", ""):
        monkeypatch.setenv("OLOG_WORKERS", workers)
        message = rf"^OLOG_WORKERS must be an integer, got {workers!r}$"
        with pytest.raises(PreconditionError, match=message):
            verify_all(InstanceSpace(2, 2), grid=2)


@pytest.mark.parametrize(
    "call",
    [
        lambda: InstanceSpace(2.5, 2),
        lambda: InstanceSpace(2, "3"),
        lambda: InstanceSpace(True, 2),
        lambda: verify_all(InstanceSpace(1, 1), grid=2.5),
        lambda: verify_all(InstanceSpace(1, 1), grid="64"),
        lambda: verify_all(InstanceSpace(1, 1), grid=True),
        lambda: complexity.derive_log_witness(2.5),
        lambda: complexity.derive_log_witness("64"),
        lambda: complexity.is_log2_from(complexity.LogWitness(6, 2), intmath.STEP_BUDGET, 64.0),
    ],
    ids=["max_len-float", "alphabet-str", "max_len-bool", "grid-float", "grid-str",
         "grid-bool", "chain-float", "chain-str", "is_log2_from-float"],
)
def test_a_value_that_is_not_an_int_is_rejected_before_any_sweep(call, monkeypatch):
    # a float grid passes the range comparisons, so only a type check made
    # before the sweep keeps it from sweeping the space and then failing in P8
    swept = []
    monkeypatch.setattr(checker, "_forked_sweep", lambda *args: swept.append(args))
    with pytest.raises(PreconditionError, match=r" must be an integer, got "):
        call()
    assert swept == []


@pytest.mark.parametrize("workers", [0, 2])
def test_a_sweep_that_misses_a_group_gets_no_verdict(workers, monkeypatch):
    # the last share drops its first group; with two workers that share is
    # a forked child's, which inherits the replaced _share
    def dropping_share(space, w, shares):
        groups = itertools.islice(space.groups(), w, None, shares)
        if w == shares - 1:
            next(groups)
        return checker.verify_sweep(groups)

    monkeypatch.setattr(checker, "_share", dropping_share)
    message = r"^the sweep checked 20 of the space's 24 instances; no verdict$"
    with pytest.raises(WorkerError, match=message):
        _verify_under(monkeypatch, workers, InstanceSpace(2, 2), 4)


def test_usable_cpus_falls_back_to_cpu_count(monkeypatch):
    monkeypatch.delattr(checker.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(checker.os, "cpu_count", lambda: 3)
    assert checker._usable_cpus() == 3
    monkeypatch.setattr(checker.os, "cpu_count", lambda: None)
    assert checker._usable_cpus() == 1


# Each probe runs in its own interpreter under a timeout, so a sweep that
# waits forever on a dead worker fails the test instead of hanging the
# suite, and the probe's own children are the only ones it can see.
_SWEEP_PROBE = """
import os, signal, sys, time
from olog import checker
from olog.algorithms import binary_search

PARENT = os.getpid()
max_len, alphabet = map(int, sys.argv[1:3])
os.environ["OLOG_WORKERS"] = sys.argv[3]

def killed_on_one(q, key):
    if tuple(q) == (0, 1, 2) and key == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return binary_search(q, key)

def parent_raises(q, key):
    if os.getpid() == PARENT:
        raise KeyboardInterrupt
    time.sleep(30)

def children_exit(q, key):
    if os.getpid() != PARENT:
        os._exit(3)
    return binary_search(q, key)

checker.binary_search = {
    "kill": killed_on_one, "raise": parent_raises, "exit": children_exit
}[sys.argv[4]]
started = time.perf_counter()
try:
    checker.verify_all(checker.InstanceSpace(max_len, alphabet), 2)
except BaseException as err:
    print(type(err).__name__, err)
print(f"{time.perf_counter() - started:.3f}")
try:
    print("child left:", os.waitpid(-1, os.WNOHANG))
except ChildProcessError:
    print("no child left")
"""


def _sweep_probe(*args):
    env = {**os.environ, "PYTHONPATH": str(Path(olog.__file__).parent.parent)}
    run = subprocess.run([sys.executable, "-c", _SWEEP_PROBE, *map(str, args)],
                         capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    error, elapsed, left = run.stdout.splitlines()
    assert float(elapsed) < 10
    assert left == "no child left"
    return error


@pytest.mark.parametrize("max_len,alphabet,workers", [(3, 5, 2), (4, 3, 3)])
def test_a_dead_worker_raises_instead_of_hanging(max_len, alphabet, workers):
    # ([0, 1, 2], 1) lies in a child's share: its group's index is not a
    # multiple of the worker count
    groups = [items for items, _, _ in InstanceSpace(max_len, alphabet).groups()]
    assert groups.index((0, 1, 2)) % workers != 0
    error = _sweep_probe(max_len, alphabet, workers, "kill")
    assert error.startswith("WorkerError sweep worker ")
    assert "was killed by signal 9 (SIGKILL)" in error


def test_a_worker_that_exits_early_is_named_by_its_status():
    assert _sweep_probe(2, 2, 2, "exit") == (
        "WorkerError sweep worker 1 of 2 exited with status 3; no verdict"
    )


def test_the_parents_share_raising_kills_and_reaps_every_child():
    # the children would sleep for 30 s per instance
    assert _sweep_probe(3, 2, 3, "raise") == "KeyboardInterrupt "


def test_determinism_across_runs(monkeypatch):
    space = InstanceSpace(max_len=3, alphabet=3)
    runs = [_strip(_verify_under(monkeypatch, workers, space, 32)) for workers in (0, 0, 2, 2)]
    assert all(run == runs[0] for run in runs)


def test_workers_env_override(monkeypatch):
    monkeypatch.setenv("OLOG_WORKERS", "2")
    report = verify_all(InstanceSpace(max_len=2, alphabet=2), grid=4)
    assert report.all_passed
    monkeypatch.setenv("OLOG_WORKERS", "nope")
    with pytest.raises(PreconditionError):
        verify_all(InstanceSpace(max_len=2, alphabet=2), grid=4)



def _p5(report):
    p5 = next(p for p in report.properties if p.id == "P5")
    first = p5.counterexample
    return p5.passed, p5.violations, None if first is None else (first["q"], first["key"])


def test_p5_matches_all_subrange_reference(default_report):
    assert subranges.p5_sweep(8, 6) == (0, None)
    assert _p5(default_report) == (True, 0, None)


def test_p5_planted_cost_model_matches_all_subrange_reference(monkeypatch):
    _plant_cost_model(monkeypatch)
    reference = subranges.p5_sweep(7, 3)
    # the reference counts every instance with a failing subrange, the
    # sweep only the instances whose full range fails
    assert reference == (183, ([0, 0, 0, 0, 0], -1))
    for workers in (0, 2):
        report = _verify_under(monkeypatch, workers, InstanceSpace(max_len=7, alphabet=3), 2)
        assert _p5(report) == (False, 42, ([0, 0, 0, 0, 0], -1))
        # the correct search's counter no longer equals the planted cost, so
        # P4 fails on the same instances, and comes first among the ties
        p4 = next(p for p in report.properties if p.id == "P4")
        assert (p4.violations, p4.counterexample["q"], p4.counterexample["key"]) == (
            42, [0, 0, 0, 0, 0], -1
        )
        assert report.minimal_counterexample()["detail"] == (
            "t=1 at head [0, 2) differs from tbs difference 8-2"
        )


def test_p5_reads_the_log_bound_term(monkeypatch):
    # one below LOG_BOUND at every width: only width 1, where tbs is 1 and
    # the planted bound 0, breaks it
    monkeypatch.setattr(checker, "LOG_BOUND", intmath.Expr((intmath.Term(2, 1, 0),), 0))
    report = verify_all(InstanceSpace(max_len=3, alphabet=2), grid=2)
    assert _p5(report) == (False, 8, ([0], -1))
    assert [p.id for p in report.properties if not p.passed] == ["P5"]


def test_a_space_over_the_instance_floor_is_never_counted(monkeypatch):
    def uncounted(self):
        raise AssertionError("the exact instance count was formed")

    monkeypatch.setattr(InstanceSpace, "instances", property(uncounted))
    with pytest.raises(PreconditionError, match="at least 30000003 instances exceed the cap"):
        verify_all(InstanceSpace(max_len=10**7, alphabet=1), grid=2)


def _order_type(items, key):
    """The canonical instance of (items, key)'s order type: the distinct
    values become 0, 2, 4, ... and the key falls in the same place among them."""
    values = sorted(set(items))
    rank = {v: 2 * i for i, v in enumerate(values)}
    key = rank[key] if key in rank else 2 * bisect.bisect_left(values, key) - 1
    return tuple(rank[v] for v in items), key


def _order_types(n):
    # the 2^(n-1) equality patterns, each with 2d+1 places for the key
    return (n + 2) * 2 ** (n - 1) if n else 1


def _outcome(items, key):
    out = binary_search(SortedSeq(items), key)
    trace = [(rec.lo, rec.hi, rec.mid) for rec in out.trace]
    return out.r, out.t, trace, costmodel.tbs(items, 0, len(items), key)


def test_outcome_depends_only_on_the_order_type():
    # what lets complete_to speak for every integer sequence
    space = InstanceSpace(max_len=5, alphabet=7)
    types = set()
    for items, key in _instances(space):
        canonical = _order_type(items, key)
        types.add(canonical)
        assert _outcome(items, key) == _outcome(*canonical), (items, key)
    assert space.instances == 7128
    assert len(types) == 192 == sum(_order_types(n) for n in range(6))
    assert space.complete_to == 5


@pytest.mark.parametrize(
    "max_len,alphabet", [(1, 1), (3, 1), (4, 2), (4, 3), (2, 9), (5, 7), (8, 6)]
)
def test_complete_to_is_tight(max_len, alphabet):
    space = InstanceSpace(max_len=max_len, alphabet=alphabet)
    types = {_order_type(items, key) for items, key in _instances(space)}
    by_length = Counter(len(items) for items, _ in types)
    n = space.complete_to
    assert all(by_length[m] == _order_types(m) for m in range(n + 1))
    assert n == max_len or by_length[n + 1] < _order_types(n + 1)
    if (max_len, alphabet) == (8, 6):
        assert (n, by_length[6], _order_types(6)) == (5, 251, 256)
