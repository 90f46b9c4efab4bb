import bisect
import itertools
import json
import math
import os
import subprocess
import sys
import threading
import time
from collections import Counter
from itertools import product
from pathlib import Path

import jsonschema
import pytest

import olog
import subranges
from faults import FAULTS
from olog import checker, complexity, costmodel, intmath
from olog.algorithms import SortedSeq, binary_search, broken_binary_search
from olog.checker import InstanceSpace, nondecreasing_sequences, verify_all
from olog.errors import PreconditionError, WorkerError
from seam import prelude, verify_under

CHECK_REPORT_SCHEMA = json.loads(
    (Path(olog.__file__).parent / "schemas" / "check_report.schema.json").read_text()
)


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
    payload = default_report.to_dict()
    jsonschema.validate(payload, CHECK_REPORT_SCHEMA)
    json.dumps(payload)


def test_verify_all_rejects_small_grid():
    with pytest.raises(PreconditionError):
        verify_all(InstanceSpace(max_len=1, alphabet=1), grid=1)


def test_tiny_space_passes():
    report = verify_all(InstanceSpace(max_len=1, alphabet=1), grid=2)
    assert report.all_passed
    assert report.instances_checked == 6


@pytest.mark.parametrize("workers", [0, 2, 3])
@pytest.mark.parametrize("name", FAULTS)
def test_planted_fault_battery(name, workers, monkeypatch):
    # under 2 and 3 workers the forked shares' counts, gaps and first
    # counterexamples merge, so each row's pinned report covers the merge
    fault = FAULTS[name]
    fault.plant(monkeypatch)
    report = verify_under(monkeypatch, workers, InstanceSpace(*fault.space), fault.grid)
    jsonschema.validate(report.to_dict(), CHECK_REPORT_SCHEMA)
    failing = {p.id: (p.violations, p.counterexample) for p in report.properties if not p.passed}
    assert failing == fault.failing
    minimal = fault.minimal and fault.failing[fault.minimal][1]
    assert report.minimal_counterexample() == minimal
    assert report.max_tbs_gap == fault.max_tbs_gap


def test_every_property_fails_under_a_planted_fault():
    failing = set().union(*(fault.failing for fault in FAULTS.values()))
    assert failing == {f"P{i}" for i in range(1, 10)}


def test_mutant_is_caught_with_minimal_counterexample(monkeypatch):
    # the shipped mutant at the automatic worker count gets its row's verdict
    fault = FAULTS["broken_binary_search"]
    fault.plant(monkeypatch)
    report = verify_all(InstanceSpace(*fault.space), fault.grid)
    failing = {p.id: (p.violations, p.counterexample) for p in report.properties if not p.passed}
    assert failing == fault.failing
    minimal = report.minimal_counterexample()
    assert (minimal["q"], minimal["key"]) == ([0], 1)
    assert minimal == fault.failing["P3"][1]


def test_mutant_report_is_schema_valid(monkeypatch):
    monkeypatch.setattr(checker, "binary_search", broken_binary_search)
    report = verify_all(InstanceSpace(max_len=2, alphabet=2), grid=4)
    jsonschema.validate(report.to_dict(), CHECK_REPORT_SCHEMA)


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
    report = verify_under(monkeypatch, 0, InstanceSpace(), 2)
    assert report.all_passed
    assert walks == {"full": report.instances_checked}
    assert report.instances_checked == 24024


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
    # the default space is above the fork's break-even, so with two or
    # more usable CPUs the automatic count forks
    default = InstanceSpace()
    automatic = verify_all(default, grid=2**20)
    assert _strip(verify_under(monkeypatch, 0, default, 2**20)) == _strip(automatic)

    space = InstanceSpace(max_len=4, alphabet=3)
    serial = verify_under(monkeypatch, 0, space, 64)
    for workers in (2, 3):
        assert _strip(verify_under(monkeypatch, workers, space, 64)) == _strip(serial)

    # the merge takes each property's earliest counterexample, not the
    # first share's, nor the share that finished first
    monkeypatch.setattr(checker, "binary_search", broken_binary_search)
    serial_m = verify_under(monkeypatch, 0, space, 64)
    monkeypatch.setattr(checker, "binary_search", _slow_minimal_share)
    assert _strip(verify_under(monkeypatch, 2, space, 64)) == _strip(serial_m)

    # (1, 1) has two groups, [] and [0]: three of five shares hold none
    tiny = InstanceSpace(max_len=1, alphabet=1)
    for search in (broken_binary_search, binary_search):
        monkeypatch.setattr(checker, "binary_search", search)
        expected = verify_under(monkeypatch, 0, tiny, 4)
        assert _strip(verify_under(monkeypatch, 5, tiny, 4)) == _strip(expected)


def test_determinism_across_runs(monkeypatch):
    space = InstanceSpace(max_len=3, alphabet=3)
    runs = [_strip(verify_under(monkeypatch, workers, space, 32)) for workers in (0, 0, 2, 2)]
    assert all(run == runs[0] for run in runs)


def test_a_planted_local_function_reaches_the_automatic_forked_shares(monkeypatch):
    # nothing is pickled: the forked shares inherit a search planted on the
    # module global, a local function included
    def local_search(q, key):
        return broken_binary_search(q, key)

    space = InstanceSpace(max_len=4, alphabet=3)
    monkeypatch.setattr(checker, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(checker, "POOL_MIN_WORK", checker._sweep_work(space))
    assert checker._pool_workers(space) == 2
    monkeypatch.setattr(checker, "binary_search", local_search)
    report = verify_all(space, grid=16)
    monkeypatch.setattr(checker, "binary_search", broken_binary_search)
    assert _strip(report) == _strip(verify_under(monkeypatch, 0, space, 16))
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
    expected = verify_under(monkeypatch, 0, space, 16)
    monkeypatch.setattr(checker.os, "fork", counting_fork)
    monkeypatch.setattr(checker, "binary_search", lambda q, key: binary_search(q, key))
    report = verify_under(monkeypatch, 2, space, 16)
    assert _strip(report) == _strip(expected)
    assert forks == [1]


def test_a_platform_without_fork_sweeps_in_process(monkeypatch):
    # a space that would fork on two CPUs sweeps in process without os.fork
    space = InstanceSpace(max_len=3, alphabet=2)
    monkeypatch.setattr(checker, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(checker, "POOL_MIN_WORK", checker._sweep_work(space))
    assert checker._pool_workers(space) == 2
    monkeypatch.delattr(checker.os, "fork")
    assert checker._pool_workers(space) == 0
    report = verify_all(space, 16)
    assert _strip(report) == _strip(verify_under(monkeypatch, 0, space, 16))


def test_a_caller_with_other_live_threads_sweeps_in_process(monkeypatch, default_report):
    # only the calling thread survives a fork, so a child could wait
    # forever on a lock another thread held
    def no_fork():
        raise AssertionError("a worker was forked")

    monkeypatch.setattr(checker, "_usable_cpus", lambda: 2)
    assert checker._pool_workers(InstanceSpace()) == 2
    parked = threading.Event()
    thread = threading.Thread(target=parked.wait)
    thread.start()
    try:
        assert checker._pool_workers(InstanceSpace()) == 0
        monkeypatch.setattr(checker.os, "fork", no_fork)
        report = verify_all(InstanceSpace(), 2**20)
    finally:
        parked.set()
        thread.join()
    assert _strip(report) == _strip(default_report)


def test_pool_workers_decision(monkeypatch):
    big, small = InstanceSpace(), InstanceSpace(max_len=2, alphabet=2)
    monkeypatch.setattr(checker, "_usable_cpus", lambda: 4)
    assert checker._pool_workers(big) == 4
    assert checker._pool_workers(small) == 0  # below the break-even
    # the break-even is inclusive, on the closed-form work estimate, and
    # each of its two shares holds half of it
    assert checker._sweep_work(small) == 4 * 8 + checker.SEQ_WORK * 24
    monkeypatch.setattr(checker, "POOL_MIN_WORK", checker._sweep_work(small))
    assert checker._pool_workers(small) == 2
    monkeypatch.setattr(checker, "POOL_MIN_WORK", checker._sweep_work(small) + 1)
    assert checker._pool_workers(small) == 0

    monkeypatch.setattr(checker, "_usable_cpus", lambda: 1)
    assert checker._pool_workers(big) == 0


def test_pool_workers_sizes_the_count_by_the_work(monkeypatch):
    # no share holds less than half the two-worker break-even: 64 CPUs
    # would otherwise fork 63 children for the default space's 0.2 s sweep
    monkeypatch.setattr(checker, "_usable_cpus", lambda: 64)
    assert checker._pool_workers(InstanceSpace()) == 7
    assert checker._pool_workers(InstanceSpace(5, 12)) == 21
    # on two CPUs the spaces the benchmark and the tests verify keep the
    # count the CPUs alone gave
    monkeypatch.setattr(checker, "_usable_cpus", lambda: 2)
    counts = {space: checker._pool_workers(InstanceSpace(*space)) for space in
              [(8, 6), (5, 12), (26, 3), (2000, 1), (10, 8), (1, 1), (2, 2), (2, 3), (3, 2)]}
    assert counts == {(8, 6): 2, (5, 12): 2, (26, 3): 2, (2000, 1): 2, (10, 8): 2,
                      (1, 1): 0, (2, 2): 0, (2, 3): 0, (3, 2): 0}


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
        verify_under(monkeypatch, workers, InstanceSpace(2, 2), 4)


def test_usable_cpus_falls_back_to_cpu_count(monkeypatch):
    monkeypatch.delattr(checker.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(checker.os, "cpu_count", lambda: 3)
    assert checker._usable_cpus() == 3
    monkeypatch.setattr(checker.os, "cpu_count", lambda: None)
    assert checker._usable_cpus() == 1


# Each probe runs in its own interpreter under a timeout, so a sweep that
# waits forever on a dead worker fails the test instead of hanging the
# suite, and the probe's own children are the only ones it can see. It
# starts with seam.prelude, which pins the worker count.
_SWEEP_PROBE = """
import os, signal, sys, time
from olog import checker
from olog.algorithms import binary_search

PARENT = os.getpid()
max_len, alphabet = map(int, sys.argv[1:3])

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
}[sys.argv[3]]
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


def _sweep_probe(max_len, alphabet, workers, mode):
    env = {**os.environ, "PYTHONPATH": str(Path(olog.__file__).parent.parent)}
    run = subprocess.run([sys.executable, "-c", prelude(workers) + _SWEEP_PROBE,
                          str(max_len), str(alphabet), mode],
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


class _UnreadableEnvironment(dict):
    def __getitem__(self, name):
        raise AssertionError(f"the environment's {name} was read")

    get = __contains__ = __getitem__


def test_pool_workers_ignores_the_environment(monkeypatch):
    # no variable overrides the count: it is chosen without reading one
    monkeypatch.setattr(checker, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(checker.os, "environ", _UnreadableEnvironment())
    assert checker._pool_workers(InstanceSpace()) == 2


def test_p5_matches_all_subrange_reference(default_report):
    assert subranges.p5_sweep(8, 6) == (0, None)
    p5 = next(p for p in default_report.properties if p.id == "P5")
    assert (p5.passed, p5.violations, p5.counterexample) == (True, 0, None)


def test_p5_planted_cost_model_matches_all_subrange_reference(monkeypatch):
    fault = FAULTS["tbs_overcharging_width_5"]
    fault.plant(monkeypatch)
    # the reference counts every instance with a failing subrange, the
    # sweep only the instances whose full range fails; both find it first
    first = fault.failing["P5"][1]
    assert subranges.p5_sweep(*fault.space) == (183, (first["q"], first["key"]))


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
