"""The package's lazy public API, its immutable record classes and its entry points."""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import olog
from olog.errors import PreconditionError

# Every public name of the package, by the module that defines it.
PUBLIC = {
    "algorithms": ["SortedSeq", "binary_search", "broken_binary_search", "linear_search_oracle"],
    "checker": ["InstanceSpace", "verify_all"],
    "complexity": ["CalcTrace", "derive_log_witness"],
    "costmodel": ["tbs"],
    "errors": ["PreconditionError"],
    "intmath": ["STEP_BUDGET", "ilog2", "ilog2_oracle"],
}
SUBMODULES = [*PUBLIC, "cli", "estimator", "kernels"]
README = Path(__file__).parent.parent / "README.md"
# The names only intmath binds: every other module reads them through it
# when it runs, so that one plant reaches every caller.
INTMATH_ONLY = {"LOG_BOUND", "STEP_BUDGET", "ilog2"}
# perfbench reads these names from the kernels shim; each must be its
# home's object, so that a wrapper swapped in for every olog global that is
# it reaches the home's call sites
SHIM = {
    "verify_sweep": ("checker", "verify_sweep"),
    "binary_max_steps": ("estimator", "binary_max_steps"),
    "linear_max_steps": ("estimator", "linear_max_steps"),
    "ilog2_scan_monotonic": ("intmath", "scan_monotonic"),
    "calc_step_scan": ("intmath", "first_failure"),
}


def test_all_names_are_the_defining_modules_objects():
    assert sorted(olog.__all__) == sorted(n for names in PUBLIC.values() for n in names)
    for module, names in PUBLIC.items():
        defining = importlib.import_module(f"olog.{module}")
        for name in names:
            assert getattr(olog, name) is getattr(defining, name), name
    assert set(olog.__all__) <= set(dir(olog))
    # a public name is one the README documents
    library = _library_section()
    assert [n for n in olog.__all__ if not re.search(rf"\b{n}\b", library)] == []


def test_the_shim_reexports_its_homes_objects():
    from olog import kernels

    for name, (home, home_name) in SHIM.items():
        assert getattr(kernels, name) is getattr(importlib.import_module(f"olog.{home}"),
                                                 home_name), name
    own = [name for name, fn in inspect.getmembers(kernels, inspect.isfunction)
           if fn.__module__ == kernels.__name__]
    assert own == ["backends"]
    assert kernels.backends() == {kernels.BACKEND: kernels}


def test_submodules_load_only_by_import():
    # the package hook serves the public names, not the submodules: a
    # submodule is an attribute of the package once it has been imported
    probe = (
        "import sys, olog; "
        "assert not [m for m in sys.modules if m.startswith('olog.')], 'import olog loaded more'; "
        f"names = {SUBMODULES!r}; "
        "resolved = [n for n in names if hasattr(olog, n)]; "
        "assert not resolved, f'resolved before their import: {resolved}'; "
        "from olog import checker; import olog.checker; "
        "assert checker is olog.checker is sys.modules['olog.checker']"
    )
    src = str(Path(olog.__file__).parent.parent)
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert run.returncode == 0, run.stderr


def test_importtime_times_the_module_a_public_name_loads():
    # the package hook loads a public name's home module the way an import
    # statement does, so -X importtime lists it for library callers too
    src = str(Path(olog.__file__).parent.parent)
    run = subprocess.run([sys.executable, "-X", "importtime", "-c",
                          "from olog import tbs, verify_all"],
                         capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
                         timeout=60)
    assert run.returncode == 0, run.stderr
    timed = {line.rsplit("|", 1)[1].strip() for line in run.stderr.splitlines()
             if line.startswith("import time:")}
    assert {"olog.costmodel", "olog.checker"} <= timed


def test_olog_modules_import_each_other_by_dotted_name():
    # "from olog import checker" goes through the package, and a call of
    # importlib.import_module is a second loader; either hides the module
    # from -X importtime. A bound or ilog2 imported by name from intmath
    # would be a second binding, which a plant on intmath does not reach.
    package = Path(olog.__file__).parent
    modules = {path.stem for path in package.glob("*.py")}
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                (node.module == "olog" and node.level == 0) or (node.level and not node.module)
            ):
                found += [f"{path.name}:{node.lineno} from olog import {a.name}"
                          for a in node.names if a.name in modules]
            elif isinstance(node, ast.ImportFrom) and path.stem != "intmath" and (
                node.module == "olog.intmath" or (node.level and node.module == "intmath")
            ):
                found += [f"{path.name}:{node.lineno} from olog.intmath import {a.name}"
                          for a in node.names if a.name in INTMATH_ONLY]
            elif isinstance(node, ast.Call) and "import_module" in (
                getattr(node.func, "attr", None), getattr(node.func, "id", None)
            ):
                found.append(f"{path.name}:{node.lineno} import_module")
    assert not found


def _library_section() -> str:
    readme = README.read_text(encoding="utf-8")
    return readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def test_the_readme_library_example_runs():
    block = _library_section().split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(block, "README.md#library", "exec"), {})


def test_both_entry_points_exit_through_console_main():
    # the installed script and python -m olog both end in console_main,
    # which freezes the heap before the exit; pyproject.toml is read as
    # text, since Python 3.10 has no tomllib
    pyproject = (Path(__file__).parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    scripts = pyproject.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert scripts.strip().splitlines() == ['olog = "olog.cli:console_main"']
    dunder_main = Path(olog.__file__).parent / "__main__.py"
    body = ast.parse(dunder_main.read_text(encoding="utf-8")).body
    assert [ast.unparse(stmt) for stmt in body] == [
        "from olog.cli import console_main", "console_main()",
    ]


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
    prop = checker.PropertyResult("P1", "binary_posts", True, 0)
    fit = estimator.ClassFit(1.0, 0.0, 0.0)
    return [
        term, expr, relation, witness, step,
        complexity.CalcTrace((step,), (0,), 64), checker.InstanceSpace(2, 3), prop,
        checker.CheckReport(1, (prop,), {}, 0, 0, 0), estimator.StepSample(4, 3), fit,
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
