import pytest

from olog import estimator
from olog.algorithms import SortedSeq, binary_search, linear_search_oracle
from olog.cli import DEFAULT_SIZES, parse_sizes
from olog.errors import PreconditionError
from olog.estimator import StepSample, bench_steps, fit_class, samples_to_csv
from olog.intmath import ilog2

import bare

_CAP = estimator.BINARY_PROFILE_MAX_N

# The worst step count over the keys -1..n of [0, n), by (algorithm, n):
# binary search's is n.bit_length(), one more at each power of two, and
# the linear scan's is n. The rows hold every size of both default lists
# (16 to 2^20 and to 2^14, by x4) and 2^k - 1, 2^k, 2^k + 1 up to the cap.
WORST = {
    **{("binary_search", n): t for n, t in [
        (1, 1), (4, 3), (16, 5), (64, 7), (256, 9), (1000, 10), (1024, 11), (4096, 13),
        (16384, 15), (65535, 16), (65536, 17), (65537, 17), (262144, 19),
        (1048575, 20), (1048576, 21), (1048577, 21), (_CAP - 1, 26), (_CAP, 27)]},
    **{("linear_oracle", n): n for n in (1, 16, 32, 64, 256, 257, 1024, 4096, 16384)},
}


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


@pytest.mark.parametrize("algo,n", WORST, ids=[f"{algo.split('_')[0]} {n}" for algo, n in WORST])
def test_bench_gives_each_size_its_worst_count(algo, n, monkeypatch):
    # every binary size runs the width recurrence, every linear size the
    # closed form: neither runs a key
    ran = _profiles_run(monkeypatch)
    assert bench_steps(algo, [n]) == [StepSample(n, WORST[algo, n])]
    assert ran == [algo.split("_")[0]]


def test_the_default_lists_give_the_worst_counts():
    for algo, spec in DEFAULT_SIZES.items():
        sizes = parse_sizes(spec)
        assert bench_steps(algo, sizes) == [StepSample(n, WORST[algo, n]) for n in sizes]


def _binary_worst(n):
    q = SortedSeq(range(n))
    return max(binary_search(q, key).t for key in range(-1, n + 1))


def _linear_worst(n):
    items = list(range(n))
    return max(n if r < 0 else r + 1 for r in (linear_search_oracle(items, key)
                                                for key in range(-1, n + 1)))


# each profile against its search run on every key -1..n of [0, n): the
# checked binary_search, and the linear oracle, whose scan compares r + 1
# times for a found key and n for an absent one. The sizes are 1..300 and
# 2^k - 1, 2^k and 2^k + 1 for each k of the row
PER_KEY = {
    "binary": (estimator.binary_max_steps, _binary_worst, range(9, 14)),
    "linear": (estimator.linear_max_steps, _linear_worst, (10, 12)),
}


@pytest.mark.parametrize("kind", PER_KEY)
def test_a_profile_is_its_search_s_worst_over_every_key(kind):
    profile, worst, powers = PER_KEY[kind]
    for n in [*range(1, 301), *(2**k + d for k in powers for d in (-1, 0, 1))]:
        assert profile(n) == worst(n), n


def test_binary_max_steps_at_the_cap_covers_the_top_keys():
    # the width recurrence never runs a key; no key at the ends of the
    # family or next to the middle needs more than it counts, and key -1,
    # which halves 2^26 down to 1, needs exactly that. The bare loop only
    # indexes its items, so range(cap) stands for the cap's family
    worst = estimator.binary_max_steps(_CAP)
    keys = [-1, 0, _CAP // 2, _CAP // 2 + 1] + list(range(_CAP - 40, _CAP + 1))
    assert worst == max(len(bare.run(range(_CAP), key, 0, _CAP)[1]) for key in keys)


def test_bench_validation():
    with pytest.raises(PreconditionError):
        bench_steps("binary_search", [])
    with pytest.raises(PreconditionError):
        bench_steps("binary_search", [16, 16])
    with pytest.raises(PreconditionError):
        bench_steps("binary_search", [64, 16])
    with pytest.raises(PreconditionError):
        bench_steps("bogosort", [16, 32])
    # each profile refuses a size outside [1, its cap] on its own
    for profile, n in ((estimator.binary_max_steps, 0), (estimator.binary_max_steps, _CAP + 1),
                       (estimator.linear_max_steps, estimator.LINEAR_PROFILE_MAX_N + 1)):
        with pytest.raises(PreconditionError, match=r"profile size must be in \[1, "):
            profile(n)


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
