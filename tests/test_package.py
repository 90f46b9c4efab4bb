"""The package's lazy public API and its immutable record classes."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import olog
from olog.errors import PreconditionError

# Every public name of the package, by the module that defines it.
PUBLIC = {
    "algorithms": ["IterRecord", "SearchOutcome", "SortedSeq", "binary_search",
                   "broken_binary_search", "check_binary_loop_inv", "check_binary_posts",
                   "check_sorted", "linear_search_oracle"],
    "checker": ["CheckReport", "InstanceSpace", "enumerate_instances", "verify_all"],
    "complexity": ["CalcTrace", "LogWitness", "derive_log_witness", "is_log2_from",
                   "is_o_log2n"],
    "costmodel": ["tbs"],
    "errors": ["CalcChainError", "ContractError", "InvariantViolation", "PreconditionError",
               "VacuousRangeError"],
    "estimator": ["ClassificationReport", "StepSample", "bench_steps", "fit_class"],
    "intmath": ["STEP_BUDGET", "ilog2", "ilog2_checked_against_oracle", "ilog2_oracle"],
}
SUBMODULES = [*PUBLIC, "cli", "kernels"]


def test_all_names_are_the_defining_modules_objects():
    assert sorted(olog.__all__) == sorted(n for names in PUBLIC.values() for n in names)
    for module, names in PUBLIC.items():
        defining = importlib.import_module(f"olog.{module}")
        for name in names:
            assert getattr(olog, name) is getattr(defining, name), name
    assert set(olog.__all__) | set(SUBMODULES) <= set(dir(olog))


def test_submodules_resolve_after_a_bare_import():
    probe = (
        "import sys, olog; "
        "assert not [m for m in sys.modules if m.startswith('olog.')], 'import olog loaded more'; "
        f"names = {SUBMODULES!r}; "
        "assert [getattr(olog, n).__name__ for n in names] == [f'olog.{n}' for n in names]; "
        "from olog import checker; assert checker is olog.checker"
    )
    src = str(Path(olog.__file__).parent.parent)
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert run.returncode == 0, run.stderr


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        olog.nonexistent
    with pytest.raises(ImportError):
        from olog import nonexistent  # noqa: F401


def _records():
    """One valid instance of each immutable record class."""
    from olog import checker, complexity, estimator, intmath

    term = intmath.Term(2, 1, 1)
    expr = intmath.Expr((term,), 1)
    relation = intmath.Relation(expr, "<=", intmath.Expr((intmath.Term(6, 1, 0),), 0))
    witness = complexity.LogWitness(6, 2)
    step = complexity.CalcStep(relation, 2, "why")
    result = complexity.CalcStepResult(step, 64, True)
    prop = checker.PropertyResult("P1", "binary_posts", True, 0)
    fit = estimator.ClassFit(1.0, 0.0, 0.0)
    return [
        term, expr, relation, witness, step, result,
        complexity.CalcTrace(witness, (result,), 64), checker.InstanceSpace(2, 3), prop,
        checker.CheckReport(1, (prop,), {}, 0, 0, "python", 0), estimator.StepSample(4, 3), fit,
        estimator.ClassificationReport("Logarithmic", {"Logarithmic": fit}, None, True),
    ]


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_records_refuse_assignment(record):
    fields = record.__match_args__
    with pytest.raises(AttributeError):
        setattr(record, fields[0], getattr(record, fields[0]))
    with pytest.raises(AttributeError):
        record.extra = 1
    assert type(record)(*(getattr(record, f) for f in fields)) == record
    assert repr(record).startswith(f"{type(record).__name__}({fields[0]}=")


def test_validating_records_reject_invalid_fields():
    from olog.checker import InstanceSpace
    from olog.complexity import LogWitness
    from olog.estimator import StepSample
    from olog.intmath import Expr, Relation, Term

    side = Expr((), 0)
    for make in (
        lambda: Term(1, 0, 0),
        lambda: Term(1, 1, -1),
        lambda: Relation(side, "<", side),
        lambda: LogWitness(0, 2),
        lambda: LogWitness(6, 0),
        lambda: InstanceSpace(max_len=0),
        lambda: InstanceSpace(alphabet=0),
        lambda: StepSample(0, 1),
        # _make, and _replace through it, build through the validating __new__
        lambda: Term(1, 1, 0)._replace(b=0),
        lambda: Relation._make([side, "<", side]),
        lambda: LogWitness(6, 2)._replace(n0=0),
        lambda: InstanceSpace._make([0, 0]),
        lambda: StepSample(4, 3)._replace(n=0),
    ):
        with pytest.raises(PreconditionError):
            make()
    assert InstanceSpace() == InstanceSpace(8, 6) == InstanceSpace._make([8, 6])
    assert Term(3, 2, 0)._replace(d=1) == Term(3, 2, 1)
    assert hash(LogWitness(6, 2)) == hash(LogWitness(c=6, n0=2))
    assert repr(Term(3, 2, 0)) == "Term(a=3, b=2, d=0)"
