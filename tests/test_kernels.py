"""Two independent routes to each kernel's answer must agree.

Grid claims are checked by dyadic blocks and by a pointwise scan; the
adversarial profiles are checked against their closed forms: binary
search's worst case on n elements is ``n.bit_length()`` iterations, the
linear scan's is n comparisons. The kernels live in their home modules;
``olog.kernels`` only re-exports the names ``perfbench`` reads.
"""

import inspect

import pytest

from olog import checker, costmodel, estimator, intmath, kernels
from olog.algorithms import (
    MODE_FULL_TRACE,
    binary_search,
    broken_binary_search,
    linear_search_oracle,
)
from olog.checker import InstanceSpace
from olog.complexity import LogWitness, canonical_chain, is_log2_from
from olog.errors import InvariantViolation
from olog.estimator import instrumented_max_steps
from olog.intmath import MONOTONIC, STEP_BUDGET, Expr, Relation, Term

import pointwise
from doubling import DOUBLING


def _oracle_pointwise(n_max):
    bad = (n for n in range(1, n_max + 1) if n.bit_length() - 1 != intmath.ilog2_oracle(n))
    return next(bad, 0)


def _within_witness_pointwise(c, n0, n_max):
    within = Relation(STEP_BUDGET, "<=", Expr((Term(c, 1, 0),), 0))
    return pointwise.first_failure(within, n0, n_max) == 0


# claim -> (route under test, independent route)
ROUTES = {
    "ilog2_scan_monotonic": (
        intmath.scan_monotonic, lambda n: pointwise.first_failure(MONOTONIC, 1, n)
    ),
    "ilog2_scan_doubling": (
        lambda n: intmath.first_failure(DOUBLING, 1, n),
        lambda n: pointwise.first_failure(DOUBLING, 1, n),
    ),
    "ilog2_scan_oracle": (intmath.scan_oracle_equivalence, _oracle_pointwise),
    "bound_scan": (
        lambda c, n0, n: is_log2_from(LogWitness(c, n0), STEP_BUDGET, n),
        _within_witness_pointwise,
    ),
    "binary_max_steps": (estimator.binary_max_steps, int.bit_length),
    "linear_max_steps": (estimator.linear_max_steps, lambda n: n),
}


@pytest.mark.parametrize(
    "fn,args",
    [
        ("ilog2_scan_monotonic", (4096,)),
        ("ilog2_scan_doubling", (4096,)),
        ("ilog2_scan_oracle", (4096,)),
        ("bound_scan", (6, 2, 4096)),
        ("bound_scan", (6, 1, 1024)),
        ("bound_scan", (1, 2, 16)),
        ("binary_max_steps", (1,)),
        ("binary_max_steps", (1000,)),
        ("binary_max_steps", (4096,)),
        ("linear_max_steps", (257,)),
        # the worst count steps up at each power of two
        *(("binary_max_steps", (2**k + d,)) for k in (16, 20, 26) for d in (-1, 0, 1)
          if 2**k + d <= estimator.BINARY_PROFILE_MAX_N),
    ],
)
def test_scan_parity(fn, args):
    kernel, independent = ROUTES[fn]
    assert int(kernel(*args)) == int(independent(*args))


@pytest.mark.parametrize("step", [1, 2, 3, 4, 5])
def test_calc_step_parity(step):
    s = canonical_chain()[step - 1]
    grid = 2**14
    assert intmath.first_failure(s.relation, s.n_min, grid) == 0
    assert pointwise.first_failure(s.relation, s.n_min, grid) == 0


def test_binary_max_steps_matches_per_key_library_runs():
    # bench's in-process profile runs binary_search on every key of the
    # family; 2^k - 1..2^k + 1 straddle each power of two up to 2^13
    straddles = [2**k + d for k in range(9, 14) for d in (-1, 0, 1)]
    for n in [*range(1, 301), *straddles]:
        assert estimator.binary_max_steps(n) == instrumented_max_steps(n)


def test_linear_max_steps_matches_per_key_oracle_runs():
    # one oracle scan per key against the lockstep scan of all keys;
    # 1023..1025 and 4095..4097 straddle powers of two
    for n in [*range(1, 301), 1023, 1024, 1025, 4095, 4096, 4097]:
        items = list(range(n))
        hits = (linear_search_oracle(items, key) for key in range(-1, n + 1))
        expected = max(n if r < 0 else r + 1 for r in hits)
        assert estimator.linear_max_steps(n) == expected


def _identity_search_steps(n, key):
    lo, hi, t = 0, n, 0
    while lo < hi:
        mid = (lo + hi) // 2
        if key < mid:
            hi = mid
        elif key > mid:
            lo = mid + 1
        else:
            hi = lo
        t += 1
    return t


def test_binary_max_steps_at_the_cap_covers_the_top_keys():
    # the width recurrence never runs a key; no key at the ends of the
    # family or next to the middle needs more than it counts, and key -1,
    # which halves 2^26 down to 1, needs exactly that
    cap = estimator.BINARY_PROFILE_MAX_N
    worst = estimator.binary_max_steps(cap)
    assert worst == cap.bit_length()
    keys = [-1, 0, cap // 2, cap // 2 + 1] + list(range(cap - 40, cap + 1))
    assert worst == max(_identity_search_steps(cap, key) for key in keys)


def test_verify_sweep_takes_each_groups_own_keys():
    # [0] with keys -1..1, and [0, 2] with the one key between its values
    groups = [((0,), -1, 1), ((0, 2), 1, 1)]
    sweep = checker.verify_sweep(iter(groups))
    assert sweep["instances"] == 4
    assert sum(sweep["violations"].values()) == 0
    mutant = checker.verify_sweep(iter(groups), broken_binary_search)
    assert mutant["first"]["P3"]["q"] == [0] and mutant["first"]["P3"]["key"] == 1
    assert mutant["violations"]["P3"] == 2  # [0] with 1, [0, 2] with 1


def test_broken_search_leaves_the_recursion_path_elsewhere():
    # [0, 0, 1] with key 1: the mutant goes right from [0, 3) to [1, 3),
    # not to [2, 3), and still terminates, so only P4 sees it
    sweep = checker.verify_sweep([((0, 0, 1), 1, 1)], broken_binary_search)
    assert {p: n for p, n in sweep["violations"].items() if n} == {"P4": 1}
    assert sweep["first"]["P4"] == {
        "q": [0, 0, 1],
        "key": 1,
        "detail": "head [1, 3) at t=1 is off the tbs recursion's path",
    }


def _heads(out):
    return [(rec.lo, rec.hi, rec.t_after) for rec in out.trace], out.t


def test_sweep_holds_each_head_to_the_cost_of_its_range():
    # the correct search's counter plus the cost of each head's range is
    # the whole range's cost, by costmodel.tbs rather than the sweep's walk
    strays = 0
    groups = InstanceSpace(max_len=6, alphabet=3).groups()
    for q, key in ((q, key) for q, lo, hi in groups for key in range(lo, hi + 1)):
        expected = binary_search(q, key, MODE_FULL_TRACE)
        total = costmodel.tbs(q, 0, len(q), key)
        t_head = 0
        for rec in expected.trace:
            assert t_head + costmodel.tbs(q, rec.lo, rec.hi, key) == total
            t_head = rec.t_after
        # the costs along the path fall one by one, so P4 passes exactly
        # when the recorded heads and counter are the correct search's
        for search in (binary_search, broken_binary_search):
            try:
                out = search(q, key, MODE_FULL_TRACE)
            except InvariantViolation:
                continue  # the sweep charges an aborted run to P1 or P3
            stray = _heads(out) != _heads(expected)
            strays += stray
            sweep = checker.verify_sweep([(q, key, key)], search)
            assert sweep["violations"]["P4"] == stray, (q, key)
    assert strays > 0


def test_profile_caps():
    from olog.errors import PreconditionError

    with pytest.raises(PreconditionError):
        estimator.binary_max_steps(0)
    with pytest.raises(PreconditionError):
        estimator.binary_max_steps(estimator.BINARY_PROFILE_MAX_N + 1)
    with pytest.raises(PreconditionError):
        estimator.linear_max_steps(estimator.LINEAR_PROFILE_MAX_N + 1)


# perfbench reads these names from the shim; each must be its home's object,
# so that a wrapper swapped in for every olog global that is it reaches the
# home's call sites
SHIM = {
    "verify_sweep": (checker, "verify_sweep"),
    "binary_max_steps": (estimator, "binary_max_steps"),
    "linear_max_steps": (estimator, "linear_max_steps"),
    "ilog2_scan_monotonic": (intmath, "scan_monotonic"),
    "calc_step_scan": (intmath, "first_failure"),
}


def test_the_shim_reexports_its_homes_objects():
    for name, (home, home_name) in SHIM.items():
        assert getattr(kernels, name) is getattr(home, home_name), name
    own = [name for name, fn in inspect.getmembers(kernels, inspect.isfunction)
           if fn.__module__ == kernels.__name__]
    assert own == ["backends"]
    assert kernels.backends() == {kernels.BACKEND: kernels}
