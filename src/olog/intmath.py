"""Exact integer floor-log2, its term language and the grid checks.

Everything here is integer arithmetic: no floats, no rounding. The
central function is ``ilog2``, defined by the recurrence

    ilog2(1) = 0
    ilog2(n) = 1 + ilog2(n // 2)    for n > 1

which equals floor(log2(n)). A repeated-doubling oracle provides an
independent route to the same value.

Every claim the package checks over a grid of n (monotonicity, each
step of the inequality chain, among them the doubling law, and the step
budget against a witness) is a ``Relation`` between two sums of terms
``a*ilog2(b*n + d)`` plus a constant, and ``first_failure`` checks any
of them. It is exhaustive because ilog2 is constant on each dyadic
block [2**k, 2**(k+1) - 1] (Knuth, TAOCP Vol. 1, 1.2.4): a term can
change value only where its argument b*n + d reaches a power of two, so
between two such points both sides, and hence the relation's truth, are
constant. Evaluating the relation once at the start of each of those
blocks therefore decides it at every n, and the first failing block
start is the first failing n. A side that raises at n fails the
relation there, so a faulty ilog2 gives a failing n, never an error.
"""

from __future__ import annotations

from typing import NamedTuple

from olog.errors import PreconditionError, VacuousRangeError

# Every grid claim is stated for n up to this bound. The tests discharge
# the block-constancy of ilog2 to 2**33, beyond the largest argument a
# term with b = 2 reaches here.
MAX_GRID = 2**32


def ilog2(n: int) -> int:
    """Floor of log base 2 of ``n``.

    Implemented as an iterative halving loop; the defining recurrence
    divides by two until reaching 1, so the argument strictly decreases
    and stays bounded below by 1.

    Args:
        n: a positive integer.

    Returns:
        The largest k such that 2**k <= n.

    Raises:
        PreconditionError: if ``n`` is not an int (a bool is not) or ``n < 1``.
    """
    if require_int("n", n) < 1:
        raise PreconditionError(f"ilog2 requires n >= 1, got {n}")
    k = 0
    while n > 1:
        n //= 2
        k += 1
    return k


def ilog2_oracle(n: int) -> int:
    """Independent floor-log2: largest k with 2**k <= n, by doubling.

    Uses only multiplication by two and comparison, never division, so
    it shares no code path with ``ilog2``.
    """
    if require_int("n", n) < 1:
        raise PreconditionError(f"ilog2_oracle requires n >= 1, got {n}")
    power = 1
    k = 0
    while power * 2 <= n:
        power *= 2
        k += 1
    return k


# Records are NamedTuples: immutable, compared and hashed by value, and
# cheap to import and to define. A NamedTuple body cannot define
# __new__, so a record that validates its fields declares them in a
# base and checks them in a subclass's __new__. The inherited _make, which
# _replace calls, builds through tuple.__new__ and would skip that check,
# so such a record sets ``_make = classmethod(validated_make)``.
def validated_make(cls, iterable):
    return cls(*iterable)


class _TermFields(NamedTuple):
    a: int
    b: int
    d: int


class Term(_TermFields):
    """``a*ilog2(b*n + d)``; b >= 1 and d >= 0 keep the argument >= 1 for n >= 1."""

    __slots__ = ()
    _make = classmethod(validated_make)

    def __new__(cls, a: int, b: int, d: int):
        self = super().__new__(cls, require_int("a term's a", a), b, d)
        if require_int("a term's b", b) < 1 or require_int("a term's d", d) < 0:
            raise PreconditionError(f"a term needs b >= 1 and d >= 0, got {self!r}")
        return self

    def __call__(self, n: int) -> int:
        return self.a * ilog2(self.b * n + self.d)

    def __str__(self) -> str:
        arg = ("n" if self.b == 1 else f"{self.b}*n") + (f"+{self.d}" if self.d else "")
        return ("" if self.a == 1 else f"{self.a}*") + f"ilog2({arg})"

    def jumps(self, n_lo: int, n_hi: int) -> list[int]:
        """Every n in (n_lo, n_hi] where b*n + d first reaches a power of two.

        The first such power comes from ``int.bit_length``, not from
        ``ilog2``, so the blocks a claim is checked on do not depend on
        the function the claim is about.
        """
        found = []
        k = (self.b * n_lo + self.d).bit_length()
        while (n := ((1 << k) - self.d + self.b - 1) // self.b) <= n_hi:
            found.append(n)
            k += 1
        return found


class _ExprFields(NamedTuple):
    terms: tuple[Term, ...]
    e: int


class Expr(_ExprFields):
    """``sum(terms) + e``, the value each side of a grid claim takes at n."""

    __slots__ = ()
    _make = classmethod(validated_make)

    def __new__(cls, terms: tuple[Term, ...], e: int):
        if not isinstance(terms, tuple) or not all(isinstance(t, Term) for t in terms):
            raise PreconditionError(f"an expression's terms must be a Term tuple, got {terms!r}")
        return super().__new__(cls, terms, require_int("an expression's e", e))

    def __call__(self, n: int) -> int:
        return sum(t(n) for t in self.terms) + self.e

    def __str__(self) -> str:
        parts = [str(t) for t in self.terms] + ([str(self.e)] if self.e or not self.terms else [])
        return " + ".join(parts).replace("+ -", "- ")


class _RelationFields(NamedTuple):
    lhs: Expr
    rel: str
    rhs: Expr


class Relation(_RelationFields):
    """``lhs rel rhs`` for every n of a checked range; ``rel`` is "=" or "<="."""

    __slots__ = ()
    _make = classmethod(validated_make)

    def __new__(cls, lhs: Expr, rel: str, rhs: Expr):
        if not (isinstance(lhs, Expr) and isinstance(rhs, Expr)):
            raise PreconditionError(f"a relation's sides must be Exprs, got {lhs!r} and {rhs!r}")
        if rel not in ("=", "<="):
            raise PreconditionError(f"relation must be '=' or '<=', got {rel!r}")
        return super().__new__(cls, lhs, rel, rhs)

    def holds_at(self, n: int) -> bool:
        """Whether the relation holds at n; a side that raises there (a
        faulty ilog2, say) fails it, as a failed obligation, not an error."""
        try:
            left, right = self.lhs(n), self.rhs(n)
        except Exception:
            return False
        return left == right if self.rel == "=" else left <= right

    def __str__(self) -> str:
        return f"{self.lhs} {self.rel} {self.rhs}"


def require_int(what: str, value) -> int:
    """``value``, unless it is not an int (a bool is not)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise PreconditionError(f"{what} must be an integer, got {value!r}")
    return value


def _check_range(n_lo: int, n_hi: int) -> None:
    require_int("a grid bound", n_lo)
    require_int("a grid bound", n_hi)
    if n_lo < 1 or n_hi > MAX_GRID:
        raise PreconditionError(f"grid range must lie in [1, 2**32], got [{n_lo}, {n_hi}]")
    if n_lo > n_hi:
        raise VacuousRangeError(f"grid range [{n_lo}, {n_hi}] is empty")


def first_failure(rel: Relation, n_lo: int, n_hi: int) -> int:
    """First n in [n_lo, n_hi] where ``rel`` fails, or 0 if it holds on all of it.

    Evaluates ``rel`` at n_lo and at each n where some term's argument
    reaches a power of two: the start of every block on which both sides
    are constant (see the module docstring).
    """
    _check_range(n_lo, n_hi)
    starts = {n_lo}
    for term in rel.lhs.terms + rel.rhs.terms:
        starts.update(term.jumps(n_lo, n_hi))
    return next((n for n in sorted(starts) if not rel.holds_at(n)), 0)


#: The end-to-end iteration budget of the search on n elements; total on
#: all of nat (at n = 0 it is 2*ilog2(1) + 1 = 1).
STEP_BUDGET = Expr((Term(2, 1, 1),), 1)

#: The per-range bound on the transition cost ``tbs`` of a range of width
#: w >= 1; there is none for an empty range (ilog2(0) is undefined).
LOG_BOUND = Expr((Term(2, 1, 0),), 1)

#: P8: ilog2(x) <= ilog2(x+1) at adjacent points, hence monotonic by transitivity.
MONOTONIC = Relation(Expr((Term(1, 1, 0),), 0), "<=", Expr((Term(1, 1, 1),), 0))


def scan_monotonic(n_max: int) -> int:
    """First x in [1, n_max] with ilog2(x) > ilog2(x+1), or 0 if none."""
    return first_failure(MONOTONIC, 1, n_max)


def scan_oracle_equivalence(n_max: int) -> int:
    """First n in [1, n_max] where recurrence and doubling oracle differ, or 0.

    Both are constant on each dyadic block, so they are compared at the
    two ends of every block that meets [1, n_max]. Where either raises,
    they differ.
    """
    _check_range(1, n_max)
    for k in range(n_max.bit_length()):
        for n in (1 << k, min((2 << k) - 1, n_max)):
            try:
                agree = ilog2(n) == ilog2_oracle(n)
            except Exception:
                agree = False
            if not agree:
                return n
    return 0
