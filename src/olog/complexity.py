"""Bounded-domain membership checks for the O(log2 n) class.

The classical definition quantifies over all n beyond a threshold; here
every universal quantifier becomes a check over an explicit grid whose
bound travels with the verdict, and every existential becomes a
concrete witness. A bound is an ``intmath.Expr``; the canonical one is
the step budget

    intmath.STEP_BUDGET(n) = 2*ilog2(n+1) + 1

and the inequality chain in ``canonical_chain`` derives the witness pair
(c=6, n0=2) for it. Each chain step is an ``intmath.Relation``, checked
by dyadic blocks at every grid point (see ``intmath.first_failure``).
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import olog.intmath as intmath
from olog.errors import PreconditionError
from olog.intmath import (
    MAX_GRID,
    Expr,
    Relation,
    Term,
    first_failure,
    require_int,
    validated_make,
)


class _LogWitnessFields(NamedTuple):
    c: int
    n0: int


class LogWitness(_LogWitnessFields):
    """The pair (c, n0) witnessing a logarithmic upper bound; both strictly positive."""

    __slots__ = ()
    _make = classmethod(validated_make)

    def __new__(cls, c: int, n0: int):
        self = super().__new__(cls, c, n0)
        if require_int("c", c) < 1 or require_int("n0", n0) < 1:
            raise PreconditionError(f"witness needs c >= 1 and n0 >= 1, got {self!r}")
        return self


class CalcStep(NamedTuple):
    """One link of an inequality chain, checkable in isolation.

    ``relation`` must hold for every n >= ``n_min`` on the checked grid;
    ``why`` records the justification.
    """

    relation: Relation
    n_min: int
    why: str


class CalcTrace(NamedTuple):
    """A checked inequality chain. ``failures[i]`` is the first n in
    [steps[i]'s threshold, grid] at which step i fails, or 0 where it
    holds; the witness is read off the chain itself."""

    steps: tuple[CalcStep, ...]
    failures: tuple[int, ...]
    grid: int

    @property
    def witness(self) -> LogWitness:
        return chain_witness(self.steps)

    @property
    def ok(self) -> bool:
        return not any(self.failures)

    def failure(self) -> Optional[dict]:
        """The earliest failing step and n as P9's counterexample, or None.
        Where a side of the step raised at that n, the detail names it."""
        for i, (step, n) in enumerate(zip(self.steps, self.failures), start=1):
            if n:
                why = step.relation.raised_at(n)
                detail = f"chain step {i} fails at n={n}" + (f": {why}" if why else "")
                return {"step": i, "n": n, "detail": detail}
        return None

    def to_dict(self) -> dict:
        return {
            "witness": {"c": self.witness.c, "n0": self.witness.n0},
            "steps": [
                {
                    "from": str(step.relation.lhs),
                    "rel": step.relation.rel,
                    "to": str(step.relation.rhs),
                    "checked_to": self.grid,
                    "ok": n == 0,
                }
                for step, n in zip(self.steps, self.failures)
            ],
        }


def canonical_chain() -> tuple[CalcStep, ...]:
    """The five-step chain from the canonical bound down to 6*ilog2(n).

    Each expression is written once; step i relates expression i to
    expression i+1, so the chain is connected by construction. The first
    is ``intmath.STEP_BUDGET``, read when the chain is built, so a budget
    planted there is the one the chain starts from.
    """
    exprs = (
        intmath.STEP_BUDGET,
        Expr((Term(2, 1, 1), Term(1, 1, 1)), 0),
        Expr((Term(3, 1, 1),), 0),
        Expr((Term(3, 2, 0),), 0),
        Expr((Term(3, 1, 0),), 3),
        Expr((Term(6, 1, 0),), 0),
    )
    links = (
        ("<=", 1, "ilog2(n+1) >= 1 for n >= 1"),
        ("=", 1, "collect terms"),
        ("<=", 1, "ilog2 monotonic and n+1 <= 2*n for n >= 1"),
        ("=", 1, "ilog2(2*n) = 1 + ilog2(n)"),
        ("<=", 2, "ilog2(n) >= 1 for n >= 2"),
    )
    return tuple(
        CalcStep(Relation(lhs, rel, rhs), n_min, why)
        for lhs, rhs, (rel, n_min, why) in zip(exprs, exprs[1:], links)
    )


def chain_witness(steps) -> LogWitness:
    """The witness (c, n0) a chain ending at c*ilog2(n) establishes: c is
    that coefficient, and n0 the largest step threshold."""
    end = steps[-1].relation.rhs
    if len(end.terms) != 1 or end != Expr((Term(end.terms[0].a, 1, 0),), 0):
        raise PreconditionError(f"a chain must end at c*ilog2(n), got {end}")
    return LogWitness(end.terms[0].a, max(s.n_min for s in steps))


def check_calc_chain(steps, n_max: int) -> CalcTrace:
    """Check every chain step on [step.n_min, n_max], by dyadic blocks.

    Any step list works the same way, so a spliced-in broken step is
    caught exactly like a real one. A grid outside [1, 2**32] raises
    ``PreconditionError``, and a step whose threshold lies past n_max
    ``VacuousRangeError`` (both from ``first_failure``).
    """
    steps = tuple(steps)
    failures = tuple(first_failure(s.relation, max(s.n_min, 1), n_max) for s in steps)
    return CalcTrace(steps, failures, n_max)


def check_grid(n_max: int) -> None:
    """Raise ``PreconditionError`` unless the grid is an int in [n0, 2**32],
    n0 the threshold of the canonical chain's witness: the grid rule of
    ``verify`` and ``bound`` alike. Checks no step."""
    n0 = chain_witness(canonical_chain()).n0
    if not n0 <= require_int("grid", n_max) <= MAX_GRID:
        raise PreconditionError(
            f"grid must be in [{n0}, 2**32] ({n0} is the witness threshold), got {n_max}"
        )


def derive_log_witness(n_max: int) -> CalcTrace:
    """Check the canonical chain at every n in [each step's threshold, n_max].

    The trace is returned whether or not every step holds; its witness
    comes from the chain, and ``failure`` names a failing step and n. A
    grid that breaks ``check_grid`` raises ``PreconditionError``.
    """
    check_grid(n_max)
    return check_calc_chain(canonical_chain(), n_max)

