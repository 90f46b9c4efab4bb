"""Empirical growth-class identification from exact step counts.

Step counts are machine-independent, so the samples are exact integers;
only the final residuals are floating point. Each candidate class gets
a two-parameter fit t ~ a*g(n) + b (a clamped at 0) by closed-form
least squares; no iterative optimizer, so results are deterministic.

The samples come from adversarial step profiles in pure Python (see
``bench_steps``): the width recurrence ``binary_max_steps`` in O(log n)
rounds a size, and ``linear_max_steps``, whose worst scan is an absent
key's n comparisons, in O(1) a size. The tests hold each to a run of
its search on every key.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

from olog.errors import PreconditionError
from olog.intmath import ilog2, require_int, validated_make

ALGORITHMS = ("binary_search", "linear_oracle")

# Candidates ordered slowest-growing first; ties break toward this order.
GROWTH_CLASSES = (
    ("Constant", lambda n: 1),
    ("Logarithmic", lambda n: ilog2(n)),
    ("Linear", lambda n: n),
    ("Linearithmic", lambda n: n * ilog2(n)),
    ("Quadratic", lambda n: n * n),
)

# The largest sizes a profile accepts. Run on every key of the family,
# the search would make O(n log n) loop heads and the linear scan O(n^2)
# comparisons; the binary width recurrence runs any admitted size in
# O(log n) rounds, and linear_max_steps any in O(1).
BINARY_PROFILE_MAX_N = 2**26
LINEAR_PROFILE_MAX_N = 2**14

# The caps bound one size; MAX_PROFILE_WORK bounds a whole size list, in
# the units of profile_work, so that a strictly increasing list cannot
# hold hundreds of sizes near a cap. Its units count the per-key work of
# the search and of one scan per key, but neither profile runs a key, so
# the cap bounds the list rather than bench's time. It admits a single
# size at either cap (1.9e9 and 2.7e8 units), both default lists (3.0e7
# and 2.9e8) and 16:67108864:x4 (2.4e9).
MAX_PROFILE_WORK = 2**32

#: Ratio of runner-up error to best error below which the verdict is
#: reported as inconclusive rather than guessed.
CONFIDENCE_MARGIN = 2.0


class _StepSampleFields(NamedTuple):
    n: int
    t_max: int


class StepSample(_StepSampleFields):
    __slots__ = ()
    _make = classmethod(validated_make)

    def __new__(cls, n: int, t_max: int):
        if require_int("sample size", n) < 1:
            raise PreconditionError(f"sample size must be >= 1, got {n}")
        # a search over n >= 1 elements takes at least one step, and
        # fit_class divides by the mean step count
        if require_int("t_max", t_max) < 1:
            raise PreconditionError(f"t_max must be >= 1, got {t_max}")
        return super().__new__(cls, n, t_max)


class ClassFit(NamedTuple):
    a: float
    b: float
    rel_rmse: float


class ClassificationReport(NamedTuple):
    best_class: str
    fits: dict[str, ClassFit]
    margin: Optional[float]  # None means infinite (best fit is exact)
    confident: bool

    @property
    def verdict(self) -> str:
        return self.best_class if self.confident else "inconclusive"

    def to_dict(self) -> dict:
        return {
            "best_class": self.best_class,
            "verdict": self.verdict,
            "confident": self.confident,
            "margin": self.margin,
            "fits": {
                name: {"a": fit.a, "b": fit.b, "rel_rmse": fit.rel_rmse}
                for name, fit in self.fits.items()
            },
        }


def check_profile_size(kind: str, n: int) -> None:
    """Raise unless ``n`` is an int within the cap of the ``kind`` profile,
    ``"binary"`` or ``"linear"``."""
    cap = BINARY_PROFILE_MAX_N if kind == "binary" else LINEAR_PROFILE_MAX_N
    if not 1 <= require_int(f"{kind} profile size", n) <= cap:
        raise PreconditionError(f"{kind} profile size must be in [1, {cap}], got {n}")


def profile_work(kind: str, n: int) -> int:
    """Closed-form bound on the per-key loop work of the ``kind`` profile
    at size ``n``: each of the n + 2 keys runs at most n.bit_length() + 1
    loop heads of the search, or compares with at most n positions of
    the linear scan."""
    return (n + 2) * (n.bit_length() + 1 if kind == "binary" else n)


def check_profile_sizes(kind: str, sizes) -> None:
    """Raise unless every size is within the ``kind`` profile's cap and
    their total ``profile_work`` within MAX_PROFILE_WORK. Runs no profile."""
    for n in sizes:
        check_profile_size(kind, n)
    work = sum(profile_work(kind, n) for n in sizes)
    if work > MAX_PROFILE_WORK:
        raise PreconditionError(
            f"{kind} profile work {work} of {len(sizes)} sizes exceeds the cap {MAX_PROFILE_WORK}"
        )


def binary_max_steps(n: int) -> int:
    """Worst iteration count over the adversarial key family on [0, n).

    On q = range(n) the probe ``key < q[mid]`` is ``key < mid`` and
    mid - lo = (hi - lo) // 2, so where a key goes next depends only on
    its offset in its range and on the range's width w. Each round, every
    live range of width w >= 1 runs one iteration: the key equal to mid
    leaves, and the rest go to ranges of widths w // 2 and w - 1 - w // 2.
    A child of width >= 1 holds at least the keys of its own elements, so
    the worst count among the keys in [-1, n] is the number of rounds in
    which some range was live. A round holds at most two widths.
    """
    check_profile_size("binary", n)
    widths = {n}
    rounds = 0
    while widths:
        rounds += 1
        widths = {c for w in widths for c in (w // 2, w - 1 - w // 2) if c}
    return rounds


def linear_max_steps(n: int) -> int:
    """Worst comparison count of the linear scan of q = [0, n) over the same
    key family: n, since an absent key (-1 or n) compares with all n
    positions and no key compares with more."""
    check_profile_size("linear", n)
    return n


def bench_steps(algorithm: str, sizes: Sequence[int]) -> list[StepSample]:
    """Worst step count per size over the adversarial key family.

    The searched sequence is always [0, 1, ..., n-1]; the key family is
    every element plus one value below and one above. The linear scan is
    the non-logarithmic control and counts equality comparisons.

    Every size is checked against its cap, and the list's total
    ``profile_work`` against ``MAX_PROFILE_WORK``, before the first
    profile runs. Every binary list runs the width recurrence
    ``binary_max_steps`` and every linear list ``linear_max_steps``.
    """
    if algorithm not in ALGORITHMS:
        raise PreconditionError(f"algorithm must be one of {ALGORITHMS}, got {algorithm!r}")
    if not sizes:
        raise PreconditionError("sizes must be nonempty")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise PreconditionError(f"sizes must be strictly increasing, got {list(sizes)}")
    kind = "binary" if algorithm == "binary_search" else "linear"
    check_profile_sizes(kind, sizes)
    profile = binary_max_steps if kind == "binary" else linear_max_steps
    return [StepSample(n, profile(n)) for n in sizes]


def _fit_one(ns, ts, g) -> ClassFit:
    xs = [g(n) for n in ns]
    mean_x = sum(xs) / len(xs)
    mean_t = sum(ts) / len(ts)
    var_x = sum((x - mean_x) ** 2 for x in xs)
    if var_x > 0:
        a = sum((x - mean_x) * (t - mean_t) for x, t in zip(xs, ts)) / var_x
        a = max(a, 0.0)
    else:
        a = 0.0
    b = mean_t - a * mean_x
    rmse = math.sqrt(sum((t - (a * x + b)) ** 2 for x, t in zip(xs, ts)) / len(xs))
    return ClassFit(a=a, b=b, rel_rmse=rmse / mean_t)


def check_fit_sizes(ns: Sequence[int]) -> None:
    """Raise unless the sizes ns can separate the growth classes: at least
    4 of them, spanning at least two decimal orders of magnitude."""
    if len(ns) < 4:
        raise PreconditionError(f"need >= 4 samples, got {len(ns)}")
    if max(ns) < 100 * min(ns):
        raise PreconditionError(
            f"sizes must span >= 2 orders of magnitude; got [{min(ns)}, {max(ns)}]"
        )


def fit_class(samples: Sequence[StepSample]) -> ClassificationReport:
    """Pick the growth class with the smallest relative RMSE.

    The samples' sizes must pass ``check_fit_sizes``.
    """
    ns = [s.n for s in samples]
    ts = [s.t_max for s in samples]
    check_fit_sizes(ns)

    fits = {name: _fit_one(ns, ts, g) for name, g in GROWTH_CLASSES}
    order = [name for name, _ in GROWTH_CLASSES]
    ranked = sorted(order, key=lambda name: (fits[name].rel_rmse, order.index(name)))
    best, runner_up = ranked[0], ranked[1]

    best_err = fits[best].rel_rmse
    runner_err = fits[runner_up].rel_rmse
    if best_err == 0.0:
        margin = None if runner_err > 0.0 else 1.0
        confident = runner_err > 0.0
    else:
        margin = runner_err / best_err
        confident = margin >= CONFIDENCE_MARGIN
    return ClassificationReport(best_class=best, fits=fits, margin=margin, confident=confident)
