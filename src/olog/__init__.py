"""Executable worst-case step-count contracts for binary search.

The instrumented search counts its loop iterations exactly; a recursive
transition-cost model dominates that counter; the cost model is bounded
by 2*ilog2(n+1)+1; and a machine-re-checked inequality chain turns that
bound into the witness pair (c=6, n0=2) for membership in O(log2 n).
Every universally quantified claim is decided at every point of an
explicit, reported grid (by dyadic blocks, on which ilog2 is constant),
with exhaustive small-instance sweeps standing in for symbolic proof.
"""

from olog.algorithms import (
    IterRecord,
    SearchOutcome,
    SortedSeq,
    binary_search,
    broken_binary_search,
    check_binary_loop_inv,
    check_binary_posts,
    check_sorted,
    linear_search_oracle,
)
from olog.checker import CheckReport, InstanceSpace, enumerate_instances, max_steps_profile, verify_all
from olog.complexity import (
    STEP_BOUND,
    BoundFn,
    CalcTrace,
    LogWitness,
    derive_log_witness,
    is_log2_from,
    is_o_log2n,
    search_log_witness,
)
from olog.costmodel import RangeCost, step_budget, tbs, tbs_log_bound
from olog.errors import (
    CalcChainError,
    ContractError,
    InvariantViolation,
    PreconditionError,
    VacuousRangeError,
)
from olog.estimator import ClassificationReport, StepSample, bench_steps, fit_class
from olog.intmath import ilog2, ilog2_checked_against_oracle, ilog2_oracle

__version__ = "0.1.0"
