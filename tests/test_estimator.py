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


@pytest.mark.parametrize(
    "call",
    [
        lambda: bench_steps("linear_oracle", [16.0, 256.0, 4096.0, 16384.0]),
        lambda: bench_steps("binary_search", [16.0, 256.0, 4096.0, 16384.0]),
        lambda: bench_steps("binary_search", [True, 16, 256, 4096]),
        lambda: estimator.binary_max_steps(16.0),
        lambda: estimator.linear_max_steps(16.5),
        lambda: estimator.check_profile_sizes("binary", [16, "256"]),
        lambda: StepSample(4.5, 3),
        lambda: StepSample(16, 4.5),
    ],
)
def test_profiles_and_samples_refuse_what_is_not_an_int(call):
    with pytest.raises(PreconditionError, match="must be an integer"):
        call()


def _profiles_run(monkeypatch):
    """Which profile bench_steps calls, recorded per size."""
    ran = []

    def record(name, fn):
        def profile(n):
            ran.append(name)
            return fn(n)
        return profile

    names = {"binary_max_steps": "binary", "linear_max_steps": "linear"}
    for name, label in names.items():
        monkeypatch.setattr(estimator, name, record(label, getattr(estimator, name)))
    return ran


def test_binary_lists_run_the_width_recurrence(monkeypatch):
    # small and default lists alike; tests/test_kernels.py holds its counts
    # to the checked search run on every key
    ran = _profiles_run(monkeypatch)
    for sizes in ([1, 16, 256, 4096], parse_sizes(DEFAULT_SIZES["binary_search"])):
        ran.clear()
        assert bench_steps("binary_search", sizes) == [StepSample(n, n.bit_length()) for n in sizes]
        assert ran == ["binary"] * len(sizes)


def test_linear_lists_run_the_lockstep_scan(monkeypatch):
    ran = _profiles_run(monkeypatch)
    assert [s.t_max for s in bench_steps("linear_oracle", [1, 16])] == [1, 16]
    assert ran == ["linear", "linear"]  # not the binary profile
    # the default list, 16 to 16384 by x4
    sizes = parse_sizes(DEFAULT_SIZES["linear_oracle"])
    assert bench_steps("linear_oracle", sizes) == [StepSample(n, n) for n in sizes]


def test_total_profile_work_is_capped_before_any_profile(monkeypatch):
    def no_profile(n):
        raise AssertionError("a profile ran")

    for name in ("binary_max_steps", "linear_max_steps"):
        monkeypatch.setattr(estimator, name, no_profile)
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
            estimator.check_profile_sizes(kind, sizes)
            assert sum(estimator.profile_work(kind, n) for n in sizes) <= estimator.MAX_PROFILE_WORK


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
    # a zero mean step count used to divide by zero in the fit
    for counts in ((0, 0, 0, 0), (1, -1, 1, -1)):
        with pytest.raises(PreconditionError, match="t_max must be >= 1"):
            fit_class([StepSample(n, t) for n, t in zip((1, 10, 100, 1000), counts)])
    for bad in (lambda: StepSample(16, 0), lambda: StepSample(16, -1),
                lambda: StepSample(16, 5)._replace(t_max=0)):
        with pytest.raises(PreconditionError, match="t_max must be >= 1"):
            bad()


def test_margin_at_least_one_when_finite():
    noisy = [StepSample(n, n + (n % 7)) for n in (10, 110, 1300, 9000, 40000)]
    report = fit_class(noisy)
    assert report.margin is None or report.margin >= 1.0


def test_samples_csv_format():
    text = samples_to_csv([StepSample(16, 5), StepSample(64, 7)])
    assert text == "n,t_max\n16,5\n64,7\n"
