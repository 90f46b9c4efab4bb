"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Correctness tolerances are exact (integer comparisons, zero violations),
and each criterion's stated runtime budget is asserted (run with -s to
see the measured times).
"""

import json
import time

import pytest

from olog import checker, estimator, intmath
from olog.algorithms import SortedSeq, binary_search, broken_binary_search
from olog.checker import InstanceSpace
from olog.cli import main
from olog.intmath import ilog2

from doubling import DOUBLING


class _Run:
    def __enter__(self):
        self.started = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.started


def _finish(num, name, failures, elapsed=None, limit=None):
    status = "PASS" if not failures else "FAIL"
    timing = ""
    if elapsed is not None:
        timing = f" [{elapsed:.3f}s{f' / budget {limit:.0f}s' if limit else ''}]"
    print(f"ACCEPTANCE C{num} {name}: {status}{timing}")
    assert not failures, f"criterion {num}: " + "; ".join(failures)
    if limit is not None:
        assert elapsed < limit, f"criterion {num} took {elapsed:.3f}s, expected < {limit}s"


@pytest.fixture(scope="module")
def default_verify_report():
    with _Run() as run:
        report = checker.verify_all(InstanceSpace(max_len=8, alphabet=6), grid=2**20)
    return report, run.elapsed


def test_c1_witness_reproduction(capsys):
    with _Run() as run:
        code = main(["bound", "--grid", "1048576", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    failures = []
    if code != 0:
        failures.append(f"exit code {code}")
    if payload["witness"] != {"c": 6, "n0": 2}:
        failures.append(f"witness {payload['witness']}")
    if len(payload["steps"]) != 5 or not all(s["ok"] for s in payload["steps"]):
        failures.append("calc-chain steps did not all pass")
    if not all(s["checked_to"] == 1048576 for s in payload["steps"]):
        failures.append("steps not checked to the requested grid")
    _finish(1, "witness reproduction", failures, run.elapsed, 2.0)


def test_c2_exhaustive_invariant_suite(default_verify_report):
    report, elapsed = default_verify_report
    failures = []
    if report.instances_checked != 24024:
        failures.append(f"{report.instances_checked} instances, expected 24024")
    if len(report.properties) != 9:
        failures.append("expected nine properties")
    for prop in report.properties:
        if not prop.passed:
            failures.append(f"{prop.id} {prop.name} failed: {prop.counterexample}")
    _finish(2, "exhaustive invariant suite (P1-P9, 24024 instances)", failures,
            elapsed, 10.0)


def test_c3_end_to_end_budget():
    failures = []
    with _Run() as run:
        for k in range(0, 21):
            n = 2**k
            max_t = estimator.binary_max_steps(n)
            budget = 2 * ilog2(n + 1) + 1
            if max_t > budget:
                failures.append(f"n={n}: max_t={max_t} > budget={budget}")
            if n >= 2 and max_t > 6 * ilog2(n):
                failures.append(f"n={n}: max_t={max_t} > 6*ilog2(n)={6 * ilog2(n)}")
    _finish(3, "end-to-end budget over n in {1..2^20}", failures, run.elapsed, 5.0)


def test_c4_tbs_log_bound_property(default_verify_report):
    report, _ = default_verify_report
    p5 = next(p for p in report.properties if p.id == "P5")
    failures = []
    if not p5.passed or p5.violations != 0:
        failures.append(f"P5 violations: {p5.violations} ({p5.counterexample})")
    _finish(4, "transition-cost log bound on all subranges", failures)


def test_c5_ilog2_grid_properties():
    with _Run() as run:
        mono = intmath.scan_monotonic(2**20)
        doubling = intmath.first_failure(DOUBLING, 1, 2**20)
    failures = []
    if mono != 0:
        failures.append(f"monotonicity fails first at x={mono}")
    if doubling != 0:
        failures.append(f"doubling identity fails first at n={doubling}")
    _finish(5, "ilog2 monotonicity + doubling identity to 2^20", failures,
            run.elapsed, 1.0)


def test_c6_empty_input_contract():
    failures = []
    for key in range(-1, 7):
        outcome = binary_search(SortedSeq([]), key)
        if (outcome.r, outcome.t) != (-1, 0):
            failures.append(f"key={key}: got (r={outcome.r}, t={outcome.t})")
    _finish(6, "empty input returns (-1, 0)", failures)


def test_c7_estimator_separation():
    with _Run() as run:
        binary = estimator.fit_class(
            estimator.bench_steps("binary_search", [2**k for k in range(4, 21)])
        )
        linear = estimator.fit_class(
            estimator.bench_steps("linear_oracle", [2**k for k in range(4, 15)])
        )
    failures = []
    if binary.best_class != "Logarithmic":
        failures.append(f"binary classified {binary.best_class}")
    if not (binary.margin is None or binary.margin >= 2):
        failures.append(f"binary margin {binary.margin} < 2")
    if linear.best_class != "Linear":
        failures.append(f"linear classified {linear.best_class}")
    _finish(7, "estimator separates Logarithmic from Linear", failures, run.elapsed)


def test_c8_mutant_sensitivity(monkeypatch):
    # in process and on two workers, where [0] lies in the forked share
    monkeypatch.setattr(checker, "binary_search", broken_binary_search)
    failures = []
    with _Run() as run:
        for workers in ("0", "2"):
            monkeypatch.setenv("OLOG_WORKERS", workers)
            report = checker.verify_all(InstanceSpace(max_len=4, alphabet=3), grid=16)
            if report.all_passed:
                failures.append(f"broken search passed the suite (false pass), {workers} workers")
            failing = {p.id for p in report.properties if not p.passed}
            if not failing & {"P3", "P4"}:
                failures.append(f"expected P3/P4 to catch the mutant, got {failing}, "
                                f"{workers} workers")
            minimal = report.minimal_counterexample()
            if minimal is None or (minimal["q"], minimal["key"]) != ([0], 1):
                failures.append(f"minimal counterexample {minimal}, expected q=[0], key=1, "
                                f"{workers} workers")
    _finish(8, "planted mutant caught with minimal counterexample", failures, run.elapsed)
