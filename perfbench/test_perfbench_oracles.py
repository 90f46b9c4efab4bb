"""Tests of the benchmark's known-answer checks.

Run from the repository root: ``python -m pytest perfbench``.
"""

import itertools
import json
from types import SimpleNamespace

import pytest

import oracles
import tracer
import workloads


def _enumerated_instances(max_len, alphabet):
    sequences = sum(
        1
        for length in range(max_len + 1)
        for _ in itertools.combinations_with_replacement(range(alphabet), length)
    )
    return sequences * (alphabet + 2)


@pytest.mark.parametrize("max_len", range(1, 7))
@pytest.mark.parametrize("alphabet", range(1, 7))
def test_closed_form_count_matches_enumeration(max_len, alphabet):
    assert oracles.expected_instances(max_len, alphabet) == _enumerated_instances(max_len, alphabet)


def test_closed_form_count_matches_known_sizes():
    assert oracles.expected_instances(8, 6) == 24024
    assert oracles.expected_instances(5, 14) == 186048
    assert oracles.expected_instances(32, 3) == 32725


def test_scan_points_cover_every_point_of_each_range():
    grid = 16
    # P8 covers [1, 16]; chain steps 1-4 cover [1, 16] and step 5 covers [2, 16].
    assert oracles.scan_points(workloads.verify(1, 1, grid)) == 16 + 4 * 16 + 15
    assert oracles.scan_points(workloads.bound(grid)) == 4 * 16 + 15
    assert oracles.scan_points(workloads.bench("binary", [1, 16])) == 0


def _verify_doc(instances=24, grid=16, failing=()):
    return json.dumps({
        "instances_checked": instances,
        "properties": [{"id": f"P{i}", "passed": f"P{i}" not in failing} for i in range(1, 10)],
        "grid_bounds": {"grid": grid},
    })


def _bound_doc(witness=None, grid=16, ok=True, steps=5):
    return json.dumps({
        "witness": witness or {"c": 6, "n0": 2},
        "steps": [{"checked_to": grid, "ok": ok} for _ in range(steps)],
    })


def _trace_out(r, t, budget):
    records = [json.dumps({"t": i + 1}) for i in range(t)]
    return "\n".join(records + [json.dumps({"r": r, "t": t, "budget": budget})]) + "\n"


VERIFY = workloads.verify(2, 2, 16)
BOUND = workloads.bound(16)


def test_correct_verify_and_bound_pass():
    assert oracles.check(VERIFY, 0, _verify_doc(), "") == []
    assert oracles.check(BOUND, 0, _bound_doc(), "") == []


@pytest.mark.parametrize("doc", [
    _verify_doc(instances=23),
    _verify_doc(failing=("P5",)),
    _verify_doc(grid=8),
    json.dumps({"instances_checked": 24, "properties": [], "grid_bounds": {"grid": 16}}),
    "not json",
])
def test_wrong_verify_output_is_flagged(doc):
    assert oracles.check(VERIFY, 0, doc, "")


@pytest.mark.parametrize("doc", [
    _bound_doc(witness={"c": 7, "n0": 2}),
    _bound_doc(witness={"c": 6, "n0": 3}),
    _bound_doc(ok=False),
    _bound_doc(grid=15),
    _bound_doc(steps=4),
])
def test_wrong_witness_or_chain_is_flagged(doc):
    assert oracles.check(BOUND, 0, doc, "")


@pytest.mark.parametrize("rc", [1, 2, None])
def test_wrong_exit_code_is_flagged(rc):
    assert oracles.check(VERIFY, rc, _verify_doc(), "")
    assert oracles.check(BOUND, rc, _bound_doc(), "")


def test_traceback_is_flagged():
    assert oracles.check(VERIFY, 0, _verify_doc(), "Traceback (most recent call last):\n")


def _bench_doc(algo, sizes, verdict, worst=oracles.worst_steps):
    return json.dumps({
        "samples": [{"n": n, "t_max": worst(algo, n)} for n in sizes],
        "classification": {"verdict": verdict},
    })


def test_bench_exact_worst_case():
    sizes = [1, 16, 256, 4096]
    binary, linear = workloads.bench("binary", sizes), workloads.bench("linear", sizes)
    assert [oracles.worst_steps("binary", n) for n in sizes] == [1, 5, 9, 13]
    assert oracles.check(binary, 0, _bench_doc("binary", sizes, "Logarithmic"), "") == []
    assert oracles.check(linear, 0, _bench_doc("linear", sizes, "Linear"), "") == []
    assert oracles.check(binary, 0, _bench_doc("binary", sizes, "Linear"), "")
    assert oracles.check(linear, 0, _bench_doc("binary", sizes, "Linear"), "")
    off_by_one = lambda algo, n: n.bit_length() + 1
    assert oracles.check(binary, 0, _bench_doc("binary", sizes, "Logarithmic", off_by_one), "")
    assert oracles.check(binary, 0, _bench_doc("binary", sizes[:3], "Logarithmic"), "")


def test_default_bench_sizes_match_the_cli_defaults():
    assert workloads.bench("binary")["params"]["sizes"][-1] == 1048576
    assert workloads.bench("linear")["params"]["sizes"] == [16, 64, 256, 1024, 4096, 16384]


def test_trace_checks():
    call = workloads.trace([1, 3, 3, 5, 7], 3)
    budget = 2 * 2 + 1  # 2*ilog2(6)+1
    assert oracles.check(call, 0, _trace_out(1, 1, budget), "") == []
    assert oracles.check(call, 0, _trace_out(2, 2, budget), "") == []
    assert oracles.check(call, 0, _trace_out(0, 1, budget), "")  # q[0] != key
    assert oracles.check(call, 0, _trace_out(-1, 3, budget), "")  # key is present
    assert oracles.check(call, 0, _trace_out(1, 4, budget), "")  # t above bit_length(5)=3
    assert oracles.check(call, 0, _trace_out(1, 1, budget + 1), "")
    absent = workloads.trace([1, 3, 5], 4)
    assert oracles.check(absent, 0, _trace_out(-1, 2, 5), "") == []
    assert oracles.check(absent, 0, _trace_out(1, 2, 5), "")


def test_unsorted_input_must_exit_2_cleanly():
    call = workloads.trace([3, 1], 3, check="rejected")
    assert oracles.check(call, 2, "", "error: sequence is not sorted\n") == []
    assert oracles.check(call, 0, _trace_out(-1, 1, 3), "")
    assert oracles.check(call, 1, "", "error: x\n")
    assert oracles.check(call, 2, "", "Traceback (most recent call last):\nValueError\n")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workloads_are_seeded(name):
    assert workloads.calls_for(name, 7) == workloads.calls_for(name, 7)
    checks = {c["check"] for c in workloads.calls_for(name, 7)}
    assert {"verify", "bench"} <= checks


def test_interactive_mixes_hits_misses_and_rejections():
    calls = workloads.calls_for("interactive", 3)
    traces = [c["params"] for c in calls if c["check"] == "trace"]
    hits = [p for p in traces if p["key"] in p["q"]]
    assert len(traces) == workloads.TRACE_CALLS
    assert 0 < len(hits) < len(traces)
    assert all(1 <= len(p["q"]) <= workloads.TRACE_MAX_LEN and p["q"] == sorted(p["q"])
               for p in traces)
    rejected = [c["params"]["q"] for c in calls if c["check"] == "rejected"]
    assert len(rejected) == workloads.UNSORTED_CALLS
    assert all(q != sorted(q) for q in rejected)


def _spans(rows):
    """A Tracer holding (name, parent, start, end) rows."""
    t = tracer.Tracer()
    for name, parent, start, end in rows:
        t.name.append(t.name_id(name))
        t.parent.append(parent)
        t.start.append(start)
        t.end.append(end)
    return t


def test_self_times_account_for_each_call():
    spans = _spans([
        ("cli.main", -1, 0.0, 10.0),
        ("kernels.verify_sweep", 0, 1.0, 9.0),
        ("algorithms.binary_search", 1, 2.0, 3.0),
        ("algorithms.binary_search", 1, 4.0, 6.0),
        ("cli.main", -1, 11.0, 12.0),
    ])
    own, incl, problems = tracer.analyse(spans)
    assert problems == []
    assert own == {"cli.main": 3.0, "kernels.verify_sweep": 5.0, "algorithms.binary_search": 3.0}
    assert incl["kernels.verify_sweep"] == 8.0


def test_span_outside_its_parent_is_flagged():
    spans = _spans([("cli.main", -1, 0.0, 1.0), ("estimator.fit_class", 0, 0.5, 2.0)])
    assert tracer.analyse(spans)[2]


def test_wrappers_record_nested_spans_and_counts():
    t = tracer.Tracer()
    inner = t.wrap("inner", lambda x: x + 1, tracer._add("inner.calls", lambda a, r: 1))
    outer = t.wrap("outer", lambda x: inner(x) * 2)
    items = t.wrap_generator("gen", lambda n: iter(range(n)), "gen.items")
    assert outer(1) == 4
    assert list(items(3)) == [0, 1, 2]
    assert [t.names[i] for i in t.name] == ["outer", "inner", "gen", "gen", "gen", "gen"]
    assert list(t.parent) == [-1, 0, -1, -1, -1, -1]
    assert t.counts == {"inner.calls": 1, "gen.items": 3}
    assert tracer.analyse(t)[2] == []


def test_backend_parity_flags_a_differing_backend():
    good = SimpleNamespace(binary_max_steps=lambda n: n.bit_length())
    bad = SimpleNamespace(binary_max_steps=lambda n: n.bit_length() + (n > 100))
    record = [("binary_max_steps", (16,)), ("binary_max_steps", (4096,))]
    assert tracer.backend_parity({"a": good, "b": good}, record) == []
    assert len(tracer.backend_parity({"a": good, "b": bad}, record)) == 1


@pytest.mark.parametrize("stdout", ["[]", '{"instances_checked": 24, "properties": [1]}',
                                    '{"samples": [{"n": "x", "t_max": 1}]}'])
def test_malformed_output_is_a_failure_not_a_crash(stdout):
    assert oracles.check(VERIFY, 0, stdout, "")
    assert oracles.check(workloads.bench("binary", [1, 16]), 0, stdout, "")
