"""Executable worst-case step-count contracts for binary search.

The instrumented search counts its loop iterations exactly; a recursive
transition-cost model equals that counter; the cost model on a range of
width w is bounded by ``intmath.LOG_BOUND`` = 2*ilog2(w)+1, so the counter
stays within ``STEP_BUDGET`` = 2*ilog2(n+1)+1; and a machine-re-checked
inequality chain turns that budget into the witness pair (c=6, n0=2) for
membership in O(log2 n).
Every universally quantified claim is decided at every point of an
explicit, reported grid (by dyadic blocks, on which ilog2 is constant),
with exhaustive small-instance sweeps standing in for symbolic proof.

The public names below, and the submodules, are loaded on first use
(PEP 562), so ``import olog`` and each CLI command import only the
modules they run.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "algorithms": (
        "IterRecord",
        "SearchOutcome",
        "SortedSeq",
        "binary_search",
        "broken_binary_search",
        "check_binary_loop_inv",
        "check_binary_posts",
        "check_sorted",
        "linear_search_oracle",
    ),
    "checker": ("CheckReport", "InstanceSpace", "enumerate_instances", "verify_all"),
    "complexity": (
        "CalcTrace",
        "LogWitness",
        "derive_log_witness",
        "is_log2_from",
        "is_o_log2n",
    ),
    "costmodel": ("tbs",),
    "errors": (
        "CalcChainError",
        "ContractError",
        "InvariantViolation",
        "PreconditionError",
        "VacuousRangeError",
    ),
    "estimator": ("ClassificationReport", "StepSample", "bench_steps", "fit_class"),
    "intmath": ("STEP_BUDGET", "ilog2", "ilog2_checked_against_oracle", "ilog2_oracle"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli", "kernels")

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        return getattr(importlib.import_module(f"olog.{_HOME[name]}"), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"olog.{name}")
    raise AttributeError(f"module 'olog' has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
