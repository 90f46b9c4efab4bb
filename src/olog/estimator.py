"""Empirical growth-class identification from exact step counts.

Step counts are machine-independent, so the samples are exact integers;
only the final residuals are floating point. Each candidate class gets
a two-parameter fit t ~ a*g(n) + b (a clamped at 0) by closed-form
least squares; no iterative optimizer, so results are deterministic.

The samples come from adversarial step profiles in pure Python (see
``bench_steps``): the instrumented ``binary_search`` on every key, the
width recurrence ``binary_max_steps`` in O(log n) rounds a size, and the
lockstep scan ``linear_max_steps`` in O(n) set operations a size.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

from olog.algorithms import SortedSeq, binary_search
from olog.errors import PreconditionError
from olog.intmath import ilog2, validated_make

ALGORITHMS = ("binary_search", "linear_oracle")

# Candidates ordered slowest-growing first; ties break toward this order.
GROWTH_CLASSES = (
    ("Constant", lambda n: 1),
    ("Logarithmic", lambda n: ilog2(n)),
    ("Linear", lambda n: n),
    ("Linearithmic", lambda n: n * ilog2(n)),
    ("Quadratic", lambda n: n * n),
)

# A binary list of at most this much profile_work runs the instrumented
# search on every key in process, so that bench executes the code it
# names; a larger one runs the width recurrence binary_max_steps. The
# constant is a time budget: the instrumented search takes 0.19-0.29 us
# per unit (best of 5, Xeon, 2 vCPU, Python 3.11.7), 13-18 ms for
# 1,16,256,4096 (60 066 units), 69-97 ms for 16:16384:x4 (335 076) and
# 58-76 ms at the constant.
INSTRUMENTED_MAX_WORK = 2**18

# The largest sizes a profile accepts. The instrumented search makes
# O(n log n) loop heads over the key family and the linear scan O(n^2)
# comparisons (the lockstep scan makes them in O(n) set operations); the
# binary width recurrence runs any admitted size in O(log n) rounds.
BINARY_PROFILE_MAX_N = 2**26
LINEAR_PROFILE_MAX_N = 2**14

# The caps bound one size; MAX_PROFILE_WORK bounds a whole size list, in
# the units of profile_work, so that a strictly increasing list cannot
# hold hundreds of sizes near a cap. The linear scan over the sizes
# 1..2342 takes 0.4 s (Python 3.11.7). It admits a single size at either
# cap (1.9e9 and 2.7e8 units), both default lists (3.0e7 and 2.9e8) and
# 16:67108864:x4 (2.4e9).
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
        if n < 1:
            raise PreconditionError(f"sample size must be >= 1, got {n}")
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
    """Raise unless ``n`` is within the cap of the ``kind`` profile,
    ``"binary"`` or ``"linear"``."""
    cap = BINARY_PROFILE_MAX_N if kind == "binary" else LINEAR_PROFILE_MAX_N
    if not 1 <= n <= cap:
        raise PreconditionError(f"{kind} profile size must be in [1, {cap}], got {n}")


def profile_work(kind: str, n: int) -> int:
    """Closed-form bound on the per-key loop work of the ``kind`` profile
    at size ``n``: each of the n + 2 keys runs at most n.bit_length() + 1
    loop heads of the instrumented search, or compares with at most n
    positions of the linear scan."""
    return (n + 2) * (n.bit_length() + 1 if kind == "binary" else n)


def check_profile_sizes(kind: str, sizes) -> int:
    """Raise unless every size is within the ``kind`` profile's cap and
    their total ``profile_work`` within MAX_PROFILE_WORK; return that total.
    Runs no profile."""
    for n in sizes:
        check_profile_size(kind, n)
    work = sum(profile_work(kind, n) for n in sizes)
    if work > MAX_PROFILE_WORK:
        raise PreconditionError(
            f"{kind} profile work {work} of {len(sizes)} sizes exceeds the cap {MAX_PROFILE_WORK}"
        )
    return work


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
    """Worst comparison count of the linear scan over the same key family.

    Executes the scan of q = [0, n) for every key in [-1, n], all keys in
    lockstep: at position i every key still scanning compares with q[i],
    and the keys equal to it leave. A key that hits at i pays i + 1, one
    that never hits pays n, so the count is the last position at which
    any key was still live. The live keys sit in a set, which finds the
    keys equal to q[i] by membership: O(n) in all.
    """
    check_profile_size("linear", n)
    q = range(n)
    live = set(range(-1, n + 1))
    steps = 0
    for i in range(n):
        if not live:
            break
        steps = i + 1
        live.discard(q[i])
    return steps


def instrumented_max_steps(n: int) -> int:
    """Worst iteration count of :func:`binary_search` itself over the
    adversarial key family on [0, n)."""
    q = SortedSeq(range(n))
    return max(binary_search(q, key).t for key in range(-1, n + 1))


def bench_steps(algorithm: str, sizes: Sequence[int]) -> list[StepSample]:
    """Worst step count per size over the adversarial key family.

    The searched sequence is always [0, 1, ..., n-1]; the key family is
    every element plus one value below and one above. The linear scan is
    the non-logarithmic control and counts equality comparisons.

    Every size is checked against its cap, and the list's total
    ``profile_work`` against ``MAX_PROFILE_WORK``, before the first
    profile runs. A binary list of at most
    ``INSTRUMENTED_MAX_WORK`` units runs :func:`binary_search` itself on
    every key; a larger one runs the width recurrence
    ``binary_max_steps``, and both give the same counts. Every linear
    list runs the lockstep scan ``linear_max_steps``.
    """
    if algorithm not in ALGORITHMS:
        raise PreconditionError(f"algorithm must be one of {ALGORITHMS}, got {algorithm!r}")
    if not sizes:
        raise PreconditionError("sizes must be nonempty")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise PreconditionError(f"sizes must be strictly increasing, got {list(sizes)}")
    kind = "binary" if algorithm == "binary_search" else "linear"
    work = check_profile_sizes(kind, sizes)
    if kind == "linear":
        profile = linear_max_steps
    elif work <= INSTRUMENTED_MAX_WORK:
        profile = instrumented_max_steps
    else:
        profile = binary_max_steps
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


def fit_class(samples: Sequence[StepSample]) -> ClassificationReport:
    """Pick the growth class with the smallest relative RMSE.

    Needs at least 4 samples spanning at least two decimal orders of
    magnitude in n; anything narrower cannot separate the candidates.
    """
    if len(samples) < 4:
        raise PreconditionError(f"need >= 4 samples, got {len(samples)}")
    ns = [s.n for s in samples]
    ts = [s.t_max for s in samples]
    if max(ns) < 100 * min(ns):
        raise PreconditionError(
            f"sizes must span >= 2 orders of magnitude; got [{min(ns)}, {max(ns)}]"
        )

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


def samples_to_csv(samples: Sequence[StepSample]) -> str:
    lines = ["n,t_max"]
    lines.extend(f"{s.n},{s.t_max}" for s in samples)
    return "\n".join(lines) + "\n"
