import pytest

from olog import estimator
from olog.cli import DEFAULT_SIZES, parse_sizes
from olog.errors import PreconditionError
from olog.estimator import StepSample, bench_steps, fit_class, samples_to_csv
from olog.intmath import ilog2


def test_bench_binary_single_element():
    assert bench_steps("binary_search", [1]) == [StepSample(1, 1)]


def test_bench_binary_worst_case_is_log_plus_one():
    # on [0..n-1] with keys covering every exit, the deepest path runs
    # ilog2(n)+1 iterations when n is a power of two
    samples = bench_steps("binary_search", [2**k for k in (2, 4, 6, 8)])
    for s in samples:
        assert s.t_max == ilog2(s.n) + 1
        assert s.t_max <= 2 * ilog2(s.n + 1) + 1


def test_bench_binary_growth_rate():
    # ~2 extra steps per 4x size
    samples = bench_steps("binary_search", [2**k for k in range(4, 21, 2)])
    deltas = [b.t_max - a.t_max for a, b in zip(samples, samples[1:])]
    assert all(d == 2 for d in deltas)


def test_bench_linear_full_scan():
    samples = bench_steps("linear_oracle", [16, 32, 64])
    assert [s.t_max for s in samples] == [16, 32, 64]


def test_bench_validation():
    with pytest.raises(PreconditionError):
        bench_steps("binary_search", [])
    with pytest.raises(PreconditionError):
        bench_steps("binary_search", [16, 16])
    with pytest.raises(PreconditionError):
        bench_steps("binary_search", [64, 16])
    with pytest.raises(PreconditionError):
        bench_steps("bogosort", [16, 32])


def _profiles_run(monkeypatch):
    """Which profile bench_steps calls, recorded per size."""
    ran = []

    def record(name, fn):
        def profile(n):
            ran.append(name)
            return fn(n)
        return profile

    names = {"instrumented_max_steps": "instrumented", "binary_max_steps": "profile",
             "linear_max_steps": "linear"}
    for name, label in names.items():
        monkeypatch.setattr(estimator, name, record(label, getattr(estimator, name)))
    return ran


# profile_work of 1,16,256,4096 is 60 066; with 13 469 last the list is 13
# units under INSTRUMENTED_MAX_WORK, with 13 470 last it is 2 units over
@pytest.mark.parametrize("last,selected", [(13469, "instrumented"), (13470, "profile")])
def test_both_binary_profiles_give_the_same_samples(last, selected, monkeypatch):
    sizes = [1, 16, 256, 4096, last]
    work = sum(estimator.profile_work("binary", n) for n in sizes)
    assert work - estimator.INSTRUMENTED_MAX_WORK == (-13 if selected == "instrumented" else 2)
    ran = _profiles_run(monkeypatch)
    samples = bench_steps("binary_search", sizes)
    assert ran == [selected] * len(sizes)
    # the other side of the selection, on the same list
    other = work - 1 if selected == "instrumented" else work
    monkeypatch.setattr(estimator, "INSTRUMENTED_MAX_WORK", other)
    ran.clear()
    assert bench_steps("binary_search", sizes) == samples
    assert set(ran) == {"profile", "instrumented"} - {selected}
    assert samples == [StepSample(n, n.bit_length()) for n in sizes]


def test_linear_lists_run_the_lockstep_scan(monkeypatch):
    ran = _profiles_run(monkeypatch)
    assert [s.t_max for s in bench_steps("linear_oracle", [1, 16])] == [1, 16]
    assert ran == ["linear", "linear"]  # neither binary profile
    # the default list, 16 to 16384 by x4
    sizes = parse_sizes(DEFAULT_SIZES["linear_oracle"])
    assert bench_steps("linear_oracle", sizes) == [StepSample(n, n) for n in sizes]


def test_total_profile_work_is_capped_before_any_profile(monkeypatch):
    def no_profile(n):
        raise AssertionError("a profile ran")

    for name in ("binary_max_steps", "linear_max_steps"):
        monkeypatch.setattr(estimator, name, no_profile)
    monkeypatch.setattr(estimator, "instrumented_max_steps", no_profile)
    # each size is within its cap, the list's profile_work is not
    cap = estimator.BINARY_PROFILE_MAX_N
    with pytest.raises(PreconditionError, match="exceeds the cap"):
        bench_steps("binary_search", list(range(cap - 399, cap + 1)))
    with pytest.raises(PreconditionError, match="exceeds the cap"):
        bench_steps("linear_oracle", list(range(1, 2400)))
    # admitted: both default lists, a single size at each cap, x4 to the cap
    admitted = {
        "binary": [parse_sizes(DEFAULT_SIZES["binary_search"]), [cap], parse_sizes(f"16:{cap}:x4")],
        "linear": [parse_sizes(DEFAULT_SIZES["linear_oracle"]), [estimator.LINEAR_PROFILE_MAX_N]],
    }
    for kind, lists in admitted.items():
        for sizes in lists:
            work = estimator.check_profile_sizes(kind, sizes)
            assert work == sum(estimator.profile_work(kind, n) for n in sizes)
            assert work <= estimator.MAX_PROFILE_WORK


def test_profile_work_bounds_the_loop_work():
    # binary: n + 2 keys of at most n.bit_length() iterations plus the exit
    # test; linear: n + 2 keys of at most n comparisons
    for n in (1, 2, 3, 16, 1000):
        assert estimator.profile_work("binary", n) == (n + 2) * (estimator.binary_max_steps(n) + 1)
        assert estimator.profile_work("linear", n) == (n + 2) * estimator.linear_max_steps(n)


def test_fit_binary_is_logarithmic_with_margin():
    samples = bench_steps("binary_search", [2**k for k in range(4, 21)])
    report = fit_class(samples)
    assert report.best_class == "Logarithmic"
    assert report.margin is None or report.margin >= 2
    assert report.confident and report.verdict == "Logarithmic"


def test_fit_linear_control():
    samples = bench_steps("linear_oracle", [2**k for k in range(4, 15)])
    report = fit_class(samples)
    assert report.best_class == "Linear"
    assert report.verdict == "Linear"


def test_control_separation():
    sizes = [2**k for k in range(4, 13)]
    binary = fit_class(bench_steps("binary_search", sizes))
    linear = fit_class(bench_steps("linear_oracle", sizes))
    assert binary.best_class != linear.best_class


def test_fit_constant_samples():
    report = fit_class([StepSample(n, 5) for n in (10, 100, 1000, 10000)])
    assert report.best_class == "Constant"


def test_fit_quadratic_samples():
    report = fit_class([StepSample(n, 3 * n * n + 7) for n in (10, 60, 300, 1200, 5000)])
    assert report.best_class == "Quadratic"
    assert report.confident


@pytest.mark.parametrize("k", [2, 5, 100])
def test_scale_robustness(k):
    base = bench_steps("binary_search", [2**j for j in range(4, 18)])
    scaled = [StepSample(s.n, k * s.t_max) for s in base]
    assert fit_class(base).best_class == fit_class(scaled).best_class


def test_budget_consistency():
    samples = bench_steps("binary_search", [2**k for k in range(1, 21)])
    assert all(s.t_max <= 2 * ilog2(s.n + 1) + 1 for s in samples)


def test_fit_preconditions():
    with pytest.raises(PreconditionError):
        fit_class([StepSample(16, 5)] * 3)  # too few
    with pytest.raises(PreconditionError):
        fit_class([StepSample(n, n) for n in (16, 32, 64, 128)])  # too narrow a span
    with pytest.raises(PreconditionError):
        StepSample(0, 1)


def test_margin_at_least_one_when_finite():
    noisy = [StepSample(n, n + (n % 7)) for n in (10, 110, 1300, 9000, 40000)]
    report = fit_class(noisy)
    assert report.margin is None or report.margin >= 1.0


def test_samples_csv_format():
    text = samples_to_csv([StepSample(16, 5), StepSample(64, 7)])
    assert text == "n,t_max\n16,5\n64,7\n"
