"""Parity: every route to a kernel's answer must give the same result.

The instance kernels run on every backend present; when the compiled
one is missing the comparisons collapse to self-checks instead of
failing the suite. Grid claims are no backend's code: their two routes
are the dyadic-block check and a pointwise scan.
"""

import pytest

from olog import intmath, kernels
from olog.algorithms import SortedSeq, binary_search
from olog.checker import InstanceSpace, nondecreasing_sequences
from olog.complexity import STEP_BOUND, LogWitness, canonical_chain, is_log2_from
from olog.intmath import DOUBLING, MONOTONIC, STEP_BUDGET, Expr, Relation, Term

import pointwise

BACKENDS = kernels.backends()


def pairs():
    return [(name, mod) for name, mod in sorted(BACKENDS.items())]


def _oracle_pointwise(n_max):
    bad = (n for n in range(1, n_max + 1) if n.bit_length() - 1 != intmath.ilog2_oracle(n))
    return next(bad, 0)


def _within_witness_pointwise(c, n0, n_max):
    within = Relation(STEP_BUDGET, "<=", Expr((Term(c, 1, 0),), 0))
    return pointwise.first_failure(within, n0, n_max) == 0


# grid claim -> (dyadic-block route, pointwise route)
GRID_CLAIMS = {
    "ilog2_scan_monotonic": (
        kernels.ilog2_scan_monotonic, lambda n: pointwise.first_failure(MONOTONIC, 1, n)
    ),
    "ilog2_scan_doubling": (
        intmath.scan_doubling, lambda n: pointwise.first_failure(DOUBLING, 1, n)
    ),
    "ilog2_scan_oracle": (intmath.scan_oracle_equivalence, _oracle_pointwise),
    "bound_scan": (
        lambda c, n0, n: is_log2_from(LogWitness(c, n0), STEP_BOUND, n),
        _within_witness_pointwise,
    ),
}


def routes(fn):
    if fn in GRID_CLAIMS:
        return dict(zip(("dyadic blocks", "pointwise"), GRID_CLAIMS[fn]))
    return {name: getattr(mod, fn) for name, mod in pairs()}


def test_active_backend_is_exposed():
    assert kernels.BACKEND in BACKENDS


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
    ],
)
def test_scan_parity(fn, args):
    results = {name: int(route(*args)) for name, route in routes(fn).items()}
    assert len(set(results.values())) == 1, results


@pytest.mark.parametrize("step", [1, 2, 3, 4, 5])
def test_calc_step_parity(step):
    s = canonical_chain()[step - 1]
    grid = 2**14
    assert kernels.calc_step_scan(s.relation, s.n_min, grid) == 0
    assert pointwise.first_failure(s.relation, s.n_min, grid) == 0


def test_search_steps_matches_library():
    cases = [((), 3), ((1, 3, 5, 7), 7), ((1, 3, 5, 7), 4), ((9,), 9), ((0, 0, 0), 0)]
    for items, key in cases:
        expected = binary_search(SortedSeq(items), key)
        for name, mod in pairs():
            assert tuple(map(int, mod.search_steps(items, key))) == (expected.r, expected.t)


def test_binary_max_steps_matches_per_key_library_runs():
    for n in (1, 2, 3, 7, 8, 33):
        items = SortedSeq(range(n))
        expected = max(
            binary_search(items, key).t for key in range(-1, n + 1)
        )
        assert kernels.binary_max_steps(n) == expected


def test_verify_sweep_parity_on_default_space():
    space = InstanceSpace()
    seqs = [
        items
        for length in range(space.max_len + 1)
        for items in nondecreasing_sequences(length, space.alphabet)
    ]
    results = {}
    for name, mod in pairs():
        raw = mod.verify_sweep(seqs, space.key_lo, space.key_hi)
        firsts = {
            k: None if v is None else (tuple(v["q"]), int(v["key"]))
            for k, v in raw["first"].items()
        }
        results[name] = (
            int(raw["instances"]),
            {k: int(v) for k, v in raw["violations"].items()},
            firsts,
            int(raw["max_tbs_gap"]),
        )
    assert len(set(map(repr, results.values()))) == 1, results


def test_profile_caps():
    from olog.errors import PreconditionError

    with pytest.raises(PreconditionError):
        kernels.binary_max_steps(0)
    with pytest.raises(PreconditionError):
        kernels.binary_max_steps(kernels.BINARY_PROFILE_MAX_N + 1)
    with pytest.raises(PreconditionError):
        kernels.linear_max_steps(kernels.LINEAR_PROFILE_MAX_N + 1)
