import json

import pytest

from olog import complexity
from olog.complexity import (
    CalcStep,
    LogWitness,
    canonical_chain,
    check_calc_chain,
    derive_log_witness,
    is_log2_from,
    is_o_log2n,
)
from olog.errors import PreconditionError, VacuousRangeError
from olog.intmath import STEP_BUDGET, Expr, Relation, Term, ilog2

import pointwise


def test_step_bound_values():
    # 2*ilog2(n+1) + 1, total on all of nat
    assert STEP_BUDGET(0) == 1
    assert STEP_BUDGET(1) == 3
    assert STEP_BUDGET(8) == 7
    assert STEP_BUDGET(1024) == 21


def test_witness_requires_positive_parts():
    with pytest.raises(PreconditionError):
        LogWitness(0, 2)
    with pytest.raises(PreconditionError):
        LogWitness(6, 0)


def test_is_log2_from_examples():
    assert is_log2_from(LogWitness(6, 2), STEP_BUDGET, 1024) is True
    # at n=1: bound(1)=3 but 6*ilog2(1)=0
    assert is_log2_from(LogWitness(6, 1), STEP_BUDGET, 1024) is False
    # at n=2: bound(2)=3 but 1*ilog2(2)=1
    assert is_log2_from(LogWitness(1, 2), STEP_BUDGET, 16) is False


def test_is_log2_from_refuses_vacuous_range():
    with pytest.raises(VacuousRangeError):
        is_log2_from(LogWitness(6, 100), STEP_BUDGET, 99)
    with pytest.raises(PreconditionError):
        is_log2_from(LogWitness(6, 2), STEP_BUDGET, 2**32 + 1)  # past the grid cap


def test_is_o_log2n_examples():
    w = LogWitness(6, 2)
    assert is_o_log2n(8, 4, STEP_BUDGET, w, 1024) is True
    assert is_o_log2n(1, 10, STEP_BUDGET, w, 1024) is False
    assert is_o_log2n(1, 3, STEP_BUDGET, w, 1024) is True  # t equals the bound exactly


def test_is_o_log2n_preconditions():
    w = LogWitness(6, 2)
    with pytest.raises(PreconditionError):
        is_o_log2n(0, 0, STEP_BUDGET, w, 1024)
    with pytest.raises(PreconditionError):
        is_o_log2n(64, 3, STEP_BUDGET, w, 32)  # grid does not cover n


def test_derive_log_witness_full_grid():
    witness, trace = derive_log_witness(2**20)
    assert (witness.c, witness.n0) == (6, 2)
    assert len(trace.steps) == 5
    assert trace.ok
    assert all(s.checked_to == 2**20 for s in trace.steps)


def test_derive_log_witness_smallest_grid():
    witness, trace = derive_log_witness(2)
    assert (witness.c, witness.n0) == (6, 2)
    assert trace.ok


def test_derive_log_witness_rejects_grid_below_threshold():
    with pytest.raises(PreconditionError):
        derive_log_witness(1)


def test_witness_round_trips_through_checker():
    for grid in (2, 64, 4096):
        witness, _ = derive_log_witness(grid)
        assert is_log2_from(witness, STEP_BUDGET, grid)


def test_chain_steps_check_in_isolation():
    # every canonical step alone holds on a small grid
    for result in check_calc_chain(canonical_chain(), 4096):
        assert result.ok, str(result.step.relation)


def _reversed_step3():
    # flip step 3 (the monotonicity link); 3*ilog2(2n) <= 3*ilog2(n+1)
    # first breaks at n=2 where ilog2(4)=2 but ilog2(3)=1
    steps = list(canonical_chain())
    s3 = steps[2]
    flipped = Relation(s3.relation.rhs, "<=", s3.relation.lhs)
    steps[2] = CalcStep(flipped, s3.n_min, "deliberately reversed")
    return steps


def _step5_rhs_mutant():
    # step 5 with its right-hand side weakened to 3*ilog2(n): false from n=2 on
    steps = list(canonical_chain())
    s5 = steps[4]
    weakened = Relation(s5.relation.lhs, "<=", Expr((Term(3, 1, 0),), 0))
    steps[4] = CalcStep(weakened, s5.n_min, s5.why)
    return steps


def test_reversed_monotonic_step_is_caught():
    steps = _reversed_step3()
    results = check_calc_chain(steps, 1024)
    assert results[2].ok is False
    assert results[2].first_failure_n == 2
    assert all(r.ok for i, r in enumerate(results) if i != 2)


def test_step5_rhs_mutant_is_caught():
    # a chain is checked by what its steps compute, never by their labels
    results = check_calc_chain(_step5_rhs_mutant(), 1024)
    assert [r.ok for r in results] == [True, True, True, True, False]
    assert results[4].first_failure_n == 2


def test_broken_chain_trace_reports_first_failure():
    steps = _reversed_step3()
    trace = complexity.CalcTrace(LogWitness(6, 2), check_calc_chain(steps, 1024), 1024)
    assert not trace.ok
    assert trace.first_failure() == (3, 2)


def test_generic_and_kernel_chain_scans_agree():
    # the block check and a pointwise scan find the same first failing n,
    # on the canonical chain and on both mutants
    grid = 2**14
    for steps in (canonical_chain(), _reversed_step3(), _step5_rhs_mutant()):
        block = [r.first_failure_n or 0 for r in check_calc_chain(steps, grid)]
        reference = [pointwise.first_failure(s.relation, s.n_min, grid) for s in steps]
        assert block == reference


def test_calc_trace_serialization_shape():
    _, trace = derive_log_witness(1024)
    payload = trace.to_dict()
    assert payload["witness"] == {"c": 6, "n0": 2}
    assert len(payload["steps"]) == 5
    first = payload["steps"][0]
    assert set(first) == {"from", "rel", "to", "checked_to", "ok"}
    assert first["from"] == "2*ilog2(n+1) + 1"
    assert payload["steps"][-1]["to"] == "6*ilog2(n)"
    json.dumps(payload)  # must be plain-JSON serializable


def test_tightness_floor_probe():
    # the 6*ilog2(n) bound is not vacuously loose: at n=2 the two sides
    # are within a factor of two (3 vs 6)
    assert STEP_BUDGET(2) == 3
    assert 6 * ilog2(2) == 6
    assert all(STEP_BUDGET(n) <= 6 * ilog2(n) for n in range(2, 4096))

