import bisect
import errno
import itertools
import json
import math
import os
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import jsonschema
import pytest

import olog
import subranges
from faults import FAULTS
from olog import checker, complexity, costmodel, intmath
from olog.algorithms import SortedSeq, binary_search, broken_binary_search
from olog.checker import InstanceSpace, nondecreasing_sequences, verify_all
from olog.errors import InvariantViolation, PreconditionError, WorkerError
from seam import prelude, verify_under

CHECK_REPORT_SCHEMA = json.loads(
    (Path(olog.__file__).parent / "schemas" / "check_report.schema.json").read_text()
)


def _instances(space):
    # the (q, key) pairs of the space, in the order the sweep checks them
    return [(q, key) for q, lo, hi in space.groups() for key in range(lo, hi + 1)]


def _sorted_tuples(length, alphabet):
    # every non-decreasing tuple of the length, in lexicographic order: each
    # one a value shorter, extended by every value from its last one on.
    # Independent of the combinations_with_replacement the stream comes from
    if length == 0:
        return [()]
    return [q + (v,) for q in _sorted_tuples(length - 1, alphabet)
            for v in range(q[-1] if q else 0, alphabet)]


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
    # the one parity check of the forked sweep: under 2 and 3 workers the
    # shares' counts, gaps and first counterexamples merge, so each row's
    # pinned report covers the merge
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


def test_verify_sweep_takes_each_groups_own_keys(monkeypatch):
    # [0] with keys -1..1, and [0, 2] with the one key between its values
    groups = [((0,), -1, 1), ((0, 2), 1, 1)]
    sweep = checker.verify_sweep(iter(groups))
    assert sweep["instances"] == 4
    assert sum(sweep["violations"].values()) == 0
    monkeypatch.setattr(checker, "binary_search", broken_binary_search)
    mutant = checker.verify_sweep(iter(groups))
    assert mutant["first"]["P3"]["q"] == [0] and mutant["first"]["P3"]["key"] == 1
    assert mutant["violations"]["P3"] == 2  # [0] with 1, [0, 2] with 1


def _heads(out):
    return [(rec.lo, rec.hi, rec.t_after) for rec in out.trace], out.t


def test_sweep_holds_each_head_to_the_cost_of_its_range(monkeypatch):
    # the correct search's counter plus the cost of each head's range is
    # the whole range's cost, by costmodel.tbs rather than the sweep's walk
    strays = 0
    for q, key in _instances(InstanceSpace(max_len=6, alphabet=3)):
        expected = binary_search(q, key)
        total = costmodel.tbs(q, 0, len(q), key)
        t_head = 0
        for rec in expected.trace:
            assert t_head + costmodel.tbs(q, rec.lo, rec.hi, key) == total
            t_head = rec.t_after
        # the costs along the path fall one by one, so P4 passes exactly
        # when the recorded heads and counter are the correct search's
        for search in (binary_search, broken_binary_search):
            try:
                out = search(q, key)
            except InvariantViolation:
                continue  # the sweep charges an aborted run to P1 or P3
            stray = _heads(out) != _heads(expected)
            strays += stray
            monkeypatch.setattr(checker, "binary_search", search)
            sweep = checker.verify_sweep([(q, key, key)])
            assert sweep["violations"]["P4"] == stray, (q, key)
    assert strays > 0


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


def test_more_shares_than_groups_change_no_report(monkeypatch):
    # (1, 1) has two groups, [] and [0]: three of five shares hold none
    tiny = InstanceSpace(max_len=1, alphabet=1)
    for search in (broken_binary_search, binary_search):
        monkeypatch.setattr(checker, "binary_search", search)
        expected = verify_under(monkeypatch, 0, tiny, 4)
        assert _strip(verify_under(monkeypatch, 5, tiny, 4)) == _strip(expected)


class _UnreadableEnvironment(dict):
    def __getitem__(self, name):
        raise AssertionError(f"the environment's {name} was read")

    get = __contains__ = __getitem__


# The count checker._pool_workers picks, one row per decision: the usable
# CPUs, or ("no affinity API", what os.cpu_count returns); the space;
# whether os.fork exists; whether another thread is alive; POOL_MIN_WORK,
# None for the shipped value; and the count.
WORKER_COUNTS = {
    "4 CPUs": (4, (8, 6), True, False, None, 4),
    "4 CPUs, below the break-even": (4, (2, 2), True, False, None, 0),
    # the break-even is inclusive, on the work estimate 4 keys x 8 elements
    # + SEQ_WORK x 24 instances = 224, and each of two shares holds half
    "4 CPUs, at the break-even": (4, (2, 2), True, False, 224, 2),
    "4 CPUs, one past the break-even": (4, (2, 2), True, False, 225, 0),
    "4 CPUs, at the break-even, no os.fork": (4, (2, 2), False, False, 224, 0),
    # only the calling thread survives a fork, so a child could wait
    # forever on a lock another thread held
    "4 CPUs, at the break-even, a live thread": (4, (2, 2), True, True, 224, 0),
    "1 CPU": (1, (8, 6), True, False, None, 0),
    # no share holds less than half the two-worker break-even: 64 CPUs
    # would otherwise fork 63 children for the default space's 0.2 s sweep
    "64 CPUs": (64, (8, 6), True, False, None, 7),
    "64 CPUs, (5, 12)": (64, (5, 12), True, False, None, 21),
    # on two CPUs the spaces the benchmark and the tests verify keep the
    # count the CPUs alone gave
    **{f"2 CPUs, {space}": (2, space, True, False, None, count) for space, count in [
        ((8, 6), 2), ((5, 12), 2), ((26, 3), 2), ((2000, 1), 2), ((10, 8), 2),
        ((1, 1), 0), ((2, 2), 0), ((2, 3), 0), ((3, 2), 0)]},
    "no affinity API, cpu_count 3": (("no affinity API", 3), (8, 6), True, False, None, 3),
    "no affinity API, cpu_count None": (("no affinity API", None), (8, 6), True, False, None, 0),
}


@pytest.mark.parametrize("row", WORKER_COUNTS)
def test_the_automatic_worker_count(row, monkeypatch):
    # no variable overrides the count: it is chosen without reading one. A
    # small space is also verified at that count: it forks count - 1
    # children, and its report is the in-process one
    cpus, space, fork, live_thread, min_work, count = WORKER_COUNTS[row]
    space = InstanceSpace(*space)
    if isinstance(cpus, int):
        monkeypatch.setattr(checker, "_usable_cpus", lambda: cpus)
    else:
        monkeypatch.delattr(checker.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(checker.os, "cpu_count", lambda: cpus[1])
    if min_work is not None:
        monkeypatch.setattr(checker, "POOL_MIN_WORK", min_work)
    forks = []
    if fork:
        real_fork = checker.os.fork
        monkeypatch.setattr(checker.os, "fork", lambda: forks.append(1) or real_fork())
    else:
        monkeypatch.delattr(checker.os, "fork")
    small = space.instances <= 100  # the other rows' spaces sweep for 0.1 s or more
    parked = threading.Event()
    thread = threading.Thread(target=parked.wait)
    if live_thread:
        thread.start()
    monkeypatch.setattr(checker.os, "environ", _UnreadableEnvironment())
    try:
        assert checker._pool_workers(space) == count
        report = verify_all(space, 2) if small else None
    finally:
        parked.set()
        if live_thread:
            thread.join()
    if small:
        assert len(forks) == max(count - 1, 0)
        assert _strip(report) == _strip(verify_under(monkeypatch, 0, space, 2))


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
        lambda: intmath.first_failure(intmath.MONOTONIC, 1, 64.0),
    ],
    ids=["max_len-float", "alphabet-str", "max_len-bool", "grid-float", "grid-str",
         "grid-bool", "chain-float", "chain-str", "first_failure-float"],
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


def _open_fds():
    # where /proc/self/fd lists them
    return os.path.isdir("/proc/self/fd") and sorted(os.listdir("/proc/self/fd"))


# A pipe or fork the system refuses under a pinned count, as at a process
# limit: the call that raises, the count, and the children forked before it
REFUSED = {
    "fork refused on its 2nd call, 3 workers": ("fork", 2, 3, 1),
    "pipe refused on its 1st call, 2 workers": ("pipe", 1, 2, 0),
}


@pytest.mark.parametrize("row", REFUSED)
def test_a_refused_fork_costs_speed_not_the_verdict(row, monkeypatch):
    # this process sweeps every share it could not fork: the report is the
    # in-process one, every child forked is reaped and no descriptor leaks
    call, nth, workers, forked = REFUSED[row]
    FAULTS["broken_binary_search"].plant(monkeypatch)
    space = InstanceSpace(3, 2)
    expected = _strip(verify_under(monkeypatch, 0, space, 4))
    calls, forks = [], []
    real = {"pipe": checker.os.pipe, "fork": checker.os.fork}

    def refusing(name):
        def planted():
            calls.append(name)
            if name == call and calls.count(name) == nth:
                raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            pid = real[name]()
            if name == "fork" and pid:
                forks.append(pid)
            return pid
        return planted

    for name in real:
        monkeypatch.setattr(checker.os, name, refusing(name))
    before = _open_fds()
    assert _strip(verify_under(monkeypatch, workers, space, 4)) == expected
    assert len(forks) == forked
    assert _open_fds() == before
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# How verify ends when a sweep worker dies, or when this process raises
# while its children sweep: the space, the worker count, what the planted
# search does, then main's exit code and stderr. Each row's probe runs in
# its own interpreter under a timeout, so a sweep that waits forever on a
# dead worker fails the test instead of hanging the suite, and the probe's
# own children are the only ones it can see. It starts with seam.prelude,
# which pins the worker count.
DEAD_WORKERS = {
    # ([0, 1, 2], 1) lies in a child's share: group 27 of (3, 5), group 14
    # of (4, 3)
    "killed, 2 workers": ((3, 5), 2, "kill", "2",
                          "error: sweep worker 1 of 2 was killed by signal 9 (SIGKILL); "
                          "no verdict\n"),
    "killed, 3 workers": ((4, 3), 3, "kill", "2",
                          "error: sweep worker 2 of 3 was killed by signal 9 (SIGKILL); "
                          "no verdict\n"),
    "exited early": ((2, 2), 2, "exit", "2",
                     "error: sweep worker 1 of 2 exited with status 3; no verdict\n"),
    # the children would sleep 12 s, past the 10 s verify may take, and exit
    "the parent's share raising": ((3, 2), 3, "raise", "KeyboardInterrupt", ""),
}
_SWEEP_PROBE = """
import os, signal, sys, time
from olog import checker
from olog.algorithms import binary_search
from olog.cli import main

PARENT = os.getpid()
mode, max_len, alphabet = sys.argv[1:]

def killed_on_one(q, key):
    if tuple(q) == (0, 1, 2) and key == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return binary_search(q, key)

def parent_raises(q, key):
    if os.getpid() == PARENT:
        raise KeyboardInterrupt
    time.sleep(12)
    os._exit(0)

def children_exit(q, key):
    if os.getpid() != PARENT:
        os._exit(3)
    return binary_search(q, key)

checker.binary_search = {
    "kill": killed_on_one, "raise": parent_raises, "exit": children_exit
}[mode]
started = time.perf_counter()
try:
    print(main(["verify", "--max-len", max_len, "--alphabet", alphabet, "--grid", "2"]))
except KeyboardInterrupt:
    print("KeyboardInterrupt")
print(f"{time.perf_counter() - started:.3f}")
try:
    print("child left:", os.waitpid(-1, os.WNOHANG))
except ChildProcessError:
    print("no child left")
"""


@pytest.mark.parametrize("row", DEAD_WORKERS)
def test_a_dead_worker_ends_verify_at_once_and_leaves_no_child(row):
    (max_len, alphabet), workers, mode, code, stderr = DEAD_WORKERS[row]
    env = {**os.environ, "PYTHONPATH": str(Path(olog.__file__).parent.parent)}
    run = subprocess.run([sys.executable, "-c", prelude(workers) + _SWEEP_PROBE,
                          mode, str(max_len), str(alphabet)],
                         capture_output=True, text=True, env=env, timeout=60)
    assert run.stderr == stderr
    exit_code, elapsed, left = run.stdout.splitlines()
    assert exit_code == code
    assert float(elapsed) < 10
    assert left == "no child left"


@pytest.mark.parametrize("code,death", [
    (3, "exited with status 3"),
    (-9, "was killed by signal 9 (SIGKILL)"),
    # a real-time signal, which signal.Signals does not name
    (-40, "was killed by signal 40 (an unnamed signal)"),
])
def test_death_names_how_a_worker_ended(code, death):
    assert checker._death(code) == death


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
