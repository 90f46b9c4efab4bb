import json
from functools import partial

import pytest

from olog import complexity, intmath
from olog.complexity import (
    CalcStep,
    LogWitness,
    canonical_chain,
    check_calc_chain,
    derive_log_witness,
)
from olog.errors import PreconditionError, VacuousRangeError
from olog.intmath import STEP_BUDGET, Expr, Relation, Term, ilog2

import pointwise
from faults import chain_ending_at


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


@pytest.mark.parametrize("c,n0", [(6.5, 2), (True, 2), (6, 2.0), (6, True)])
def test_witness_refuses_what_is_not_an_int(c, n0):
    with pytest.raises(PreconditionError, match="must be an integer"):
        LogWitness(c, n0)


def test_derive_log_witness_full_grid():
    trace = derive_log_witness(2**20)
    assert trace.witness == (6, 2)
    assert len(trace.steps) == 5
    assert trace.ok and trace.failures == (0,) * 5
    assert trace.grid == 2**20
    assert all(s["checked_to"] == 2**20 for s in trace.to_dict()["steps"])


def test_derive_log_witness_smallest_grid():
    trace = derive_log_witness(2)
    assert trace.witness == (6, 2)
    assert trace.ok and trace.failure() is None


def test_derive_log_witness_rejects_grid_below_threshold():
    with pytest.raises(PreconditionError, match=r"^grid must be in \[2, 2\*\*32\] \(2 is"):
        derive_log_witness(1)


def test_is_log2_from_examples():
    # (c, n0, grid, first n in [n0, grid] where STEP_BUDGET(n) > c*ilog2(n),
    # 0 where none), the block check agreeing with a pointwise scan
    for c, n0, grid, fails_at in [
        (6, 2, 4096, 0),
        (6, 1, 1024, 1),  # at n=1: STEP_BUDGET(1)=3 but 6*ilog2(1)=0
        (1, 2, 16, 2),  # at n=2: STEP_BUDGET(2)=3 but 1*ilog2(2)=1
    ]:
        within = Relation(STEP_BUDGET, "<=", Expr((Term(c, 1, 0),), 0))
        assert intmath.first_failure(within, n0, grid) == fails_at, (c, n0, grid)
        assert pointwise.first_failure(within, n0, grid) == fails_at, (c, n0, grid)


def test_witness_round_trips_through_checker():
    for grid in (2, 64, 4096):
        c, n0 = derive_log_witness(grid).witness
        within = Relation(STEP_BUDGET, "<=", Expr((Term(c, 1, 0),), 0))
        assert intmath.first_failure(within, n0, grid) == 0, grid
        assert pointwise.first_failure(within, n0, grid) == 0, grid


def test_chain_steps_check_in_isolation():
    # every canonical step alone holds on a small grid
    trace = check_calc_chain(canonical_chain(), 4096)
    assert trace.steps == canonical_chain()
    assert trace.failures == (0,) * 5 and trace.grid == 4096


def test_check_calc_chain_rejects_a_grid_past_the_cap():
    with pytest.raises(PreconditionError):
        check_calc_chain(canonical_chain(), 2**32 + 1)


def test_check_calc_chain_rejects_a_step_the_grid_does_not_reach():
    with pytest.raises(VacuousRangeError):
        check_calc_chain(_edited_chain(3, n_min=65), 64)


def _reversed_step3():
    # flip step 3 (the monotonicity link); 3*ilog2(2n) <= 3*ilog2(n+1)
    # first breaks at n=2 where ilog2(4)=2 but ilog2(3)=1
    steps = list(canonical_chain())
    s3 = steps[2]
    flipped = Relation(s3.relation.rhs, "<=", s3.relation.lhs)
    steps[2] = CalcStep(flipped, s3.n_min, "deliberately reversed")
    return steps


def _edited_chain(index, rhs=None, n_min=None):
    # the canonical chain with step `index` (1-based) given a new
    # right-hand side or threshold
    steps = list(canonical_chain())
    s = steps[index - 1]
    rel = s.relation if rhs is None else Relation(s.relation.lhs, s.relation.rel, rhs)
    steps[index - 1] = CalcStep(rel, s.n_min if n_min is None else n_min, s.why)
    return tuple(steps)


def test_reversed_monotonic_step_is_caught():
    trace = check_calc_chain(_reversed_step3(), 1024)
    assert trace.failures == (0, 0, 2, 0, 0)


def test_step5_rhs_mutant_is_caught():
    # a chain is checked by what its steps compute, never by their labels;
    # step 5 weakened to 3*ilog2(n) is false from n=2 on
    trace = check_calc_chain(chain_ending_at(3), 1024)
    assert trace.failures == (0, 0, 0, 0, 2)


def test_broken_chain_trace_reports_first_failure():
    trace = check_calc_chain(_reversed_step3(), 1024)
    assert not trace.ok
    assert trace.failure() == {"step": 3, "n": 2, "detail": "chain step 3 fails at n=2"}


def test_a_failing_chain_is_returned_not_raised(monkeypatch):
    monkeypatch.setattr(complexity, "canonical_chain", partial(chain_ending_at, 3))
    trace = derive_log_witness(1024)
    assert trace.failures == (0, 0, 0, 0, 2)
    assert (trace.failure()["step"], trace.failure()["n"]) == (5, 2)
    assert trace.witness == (3, 2)  # what the chain claims, checked or not


@pytest.mark.parametrize(
    "chain,witness",
    [
        (partial(chain_ending_at, 7), (7, 2)),
        (lambda: _edited_chain(3, n_min=5), (6, 5)),
    ],
    ids=["end-7-ilog2", "step3-from-5"],
)
def test_the_witness_follows_the_chain(chain, witness, monkeypatch):
    monkeypatch.setattr(complexity, "canonical_chain", chain)
    trace = derive_log_witness(1024)
    assert trace.ok
    assert trace.witness == witness
    assert trace.to_dict()["witness"] == dict(zip(("c", "n0"), witness))


def test_a_chain_must_end_at_a_multiple_of_ilog2_n(monkeypatch):
    for end in (Expr((Term(6, 1, 1),), 0), Expr((Term(6, 1, 0),), 1),
                Expr((Term(3, 1, 0), Term(3, 1, 0)), 0), Expr((), 6)):
        monkeypatch.setattr(complexity, "canonical_chain", lambda: _edited_chain(5, rhs=end))
        with pytest.raises(PreconditionError, match=r"must end at c\*ilog2\(n\)"):
            derive_log_witness(1024)


def test_the_canonical_witness_is_the_shipped_chains():
    assert complexity.chain_witness(canonical_chain()) == (6, 2)
    assert derive_log_witness(64).witness == (6, 2)


def test_generic_and_kernel_chain_scans_agree():
    # the block check and a pointwise scan find the same first failing n,
    # on the canonical chain and on both mutants
    grid = 2**14
    for steps in (canonical_chain(), _reversed_step3(), chain_ending_at(3)):
        block = list(check_calc_chain(steps, grid).failures)
        reference = [pointwise.first_failure(s.relation, s.n_min, grid) for s in steps]
        assert block == reference


def test_calc_trace_serialization_shape():
    payload = derive_log_witness(1024).to_dict()
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

