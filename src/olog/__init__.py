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

The public names below are the ones README.md's Library section
documents; every other name stays importable from its module. They
resolve on first use (PEP 562), so ``import olog`` loads no submodule;
a submodule loads as in any package, by ``import olog.X``. The bounds
and ``ilog2`` have one binding, in ``intmath``, which every other module
reads when it runs.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "algorithms": ("SortedSeq", "binary_search", "broken_binary_search", "linear_search_oracle"),
    "checker": ("InstanceSpace", "verify_all"),
    "complexity": ("CalcTrace", "derive_log_witness"),
    "costmodel": ("tbs",),
    "errors": ("PreconditionError",),
    "intmath": ("STEP_BUDGET", "ilog2", "ilog2_oracle"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _HOME:  # __import__ is the import statement's loader, which -X importtime times
        return getattr(__import__(f"olog.{_HOME[name]}", fromlist=[name]), name)
    raise AttributeError(f"module 'olog' has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
