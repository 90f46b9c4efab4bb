"""Two independent routes to each kernel's answer must agree.

Grid claims are checked by dyadic blocks and by a pointwise scan; the
adversarial profiles are checked against their closed forms: binary
search's worst case on n elements is ``n.bit_length()`` iterations, the
linear scan's is n comparisons.
"""

import pytest

from olog import intmath, kernels
from olog.algorithms import SortedSeq, binary_search
from olog.complexity import STEP_BOUND, LogWitness, canonical_chain, is_log2_from
from olog.intmath import DOUBLING, MONOTONIC, STEP_BUDGET, Expr, Relation, Term

import pointwise


def _oracle_pointwise(n_max):
    bad = (n for n in range(1, n_max + 1) if n.bit_length() - 1 != intmath.ilog2_oracle(n))
    return next(bad, 0)


def _within_witness_pointwise(c, n0, n_max):
    within = Relation(STEP_BUDGET, "<=", Expr((Term(c, 1, 0),), 0))
    return pointwise.first_failure(within, n0, n_max) == 0


# claim -> (route under test, independent route)
ROUTES = {
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
    "binary_max_steps": (kernels.binary_max_steps, int.bit_length),
    "linear_max_steps": (kernels.linear_max_steps, lambda n: n),
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
    ],
)
def test_scan_parity(fn, args):
    kernel, independent = ROUTES[fn]
    assert int(kernel(*args)) == int(independent(*args))


@pytest.mark.parametrize("step", [1, 2, 3, 4, 5])
def test_calc_step_parity(step):
    s = canonical_chain()[step - 1]
    grid = 2**14
    assert kernels.calc_step_scan(s.relation, s.n_min, grid) == 0
    assert pointwise.first_failure(s.relation, s.n_min, grid) == 0


def test_binary_max_steps_matches_per_key_library_runs():
    for n in (1, 2, 3, 7, 8, 33):
        items = SortedSeq(range(n))
        expected = max(
            binary_search(items, key).t for key in range(-1, n + 1)
        )
        assert kernels.binary_max_steps(n) == expected


def test_profile_caps():
    from olog.errors import PreconditionError

    with pytest.raises(PreconditionError):
        kernels.binary_max_steps(0)
    with pytest.raises(PreconditionError):
        kernels.binary_max_steps(kernels.BINARY_PROFILE_MAX_N + 1)
    with pytest.raises(PreconditionError):
        kernels.linear_max_steps(kernels.LINEAR_PROFILE_MAX_N + 1)
