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

from olog.errors import CalcChainError, PreconditionError, VacuousRangeError
from olog.intmath import (
    MAX_GRID,
    STEP_BUDGET,
    Expr,
    Relation,
    Term,
    first_failure,
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
        if c < 1 or n0 < 1:
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


class CalcStepResult(NamedTuple):
    step: CalcStep
    checked_to: int
    ok: bool
    first_failure_n: Optional[int] = None

    def to_dict(self) -> dict:
        rel = self.step.relation
        return {
            "from": str(rel.lhs),
            "rel": rel.rel,
            "to": str(rel.rhs),
            "checked_to": self.checked_to,
            "ok": self.ok,
        }


class CalcTrace(NamedTuple):
    """A fully re-checked inequality chain plus the witness it justifies."""

    witness: LogWitness
    steps: tuple[CalcStepResult, ...]
    grid: int

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.steps)

    def first_failure(self) -> Optional[tuple[int, int]]:
        """(1-based step index, n) of the earliest failing point, or None."""
        for i, s in enumerate(self.steps, start=1):
            if not s.ok:
                return i, s.first_failure_n
        return None

    def to_dict(self) -> dict:
        return {
            "witness": {"c": self.witness.c, "n0": self.witness.n0},
            "steps": [s.to_dict() for s in self.steps],
        }


def canonical_chain() -> tuple[CalcStep, ...]:
    """The five-step chain from the canonical bound down to 6*ilog2(n).

    Each expression is written once; step i relates expression i to
    expression i+1, so the chain is connected by construction.
    """
    exprs = (
        STEP_BUDGET,
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


#: The witness the canonical chain establishes: the end label's
#: coefficient, valid from the largest per-step threshold onward.
CANONICAL_WITNESS = LogWitness(c=6, n0=2)


def check_calc_chain(steps, n_max: int) -> tuple[CalcStepResult, ...]:
    """Check every chain step on [step.n_min, n_max], by dyadic blocks.

    Any step list works the same way, so a spliced-in broken step is
    caught exactly like a real one.
    """
    if n_max < 1 or n_max > MAX_GRID:
        raise PreconditionError(f"chain grid must be in [1, 2**32], got {n_max}")
    results = []
    for i, step in enumerate(steps, start=1):
        lo = max(step.n_min, 1)
        if lo > n_max:
            raise VacuousRangeError(
                f"step {i} needs n >= {step.n_min} but the grid only reaches {n_max}"
            )
        bad = first_failure(step.relation, lo, n_max)
        results.append(
            CalcStepResult(step, n_max, bad == 0, None if bad == 0 else bad)
        )
    return tuple(results)


def derive_log_witness(n_max: int) -> tuple[LogWitness, CalcTrace]:
    """Re-derive the witness (6, 2) by machine-checking the canonical chain.

    Every step is verified at every n in [its threshold, n_max]; a
    failing point raises :class:`CalcChainError` naming the step and n.
    """
    if n_max < 2:
        raise PreconditionError(f"witness derivation needs n_max >= 2, got {n_max}")
    results = check_calc_chain(canonical_chain(), n_max)
    trace = CalcTrace(CANONICAL_WITNESS, results, n_max)
    if not trace.ok:
        step_index, n = trace.first_failure()
        raise CalcChainError(step_index, n, trace)
    return CANONICAL_WITNESS, trace


def is_log2_from(witness: LogWitness, bound: Expr, n_max: int) -> bool:
    """True iff bound(n) <= c*ilog2(n) for every n in [n0, n_max], by dyadic blocks.

    An empty range (n_max < n0) raises ``VacuousRangeError``, since a
    vacuously true verdict would look like a real one, and n_max above
    2**32 raises ``PreconditionError`` (both from ``first_failure``).
    """
    within = Relation(bound, "<=", Expr((Term(witness.c, 1, 0),), 0))
    return first_failure(within, witness.n0, n_max) == 0


def is_o_log2n(n: int, t: int, bound: Expr, witness: LogWitness, n_max: int) -> bool:
    """True iff t <= bound(n) and the bound is logarithmic on the checked grid.

    The classical form quantifies existentially over bound functions;
    here the caller supplies the explicit witness function instead.
    """
    if n < 1:
        raise PreconditionError(f"membership check requires n >= 1, got {n}")
    if n_max < max(n, witness.n0):
        raise PreconditionError(
            f"n_max={n_max} must cover both n={n} and the threshold n0={witness.n0}"
        )
    return t <= bound(n) and is_log2_from(witness, bound, n_max)
