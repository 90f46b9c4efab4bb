"""Pointwise reference for grid claims: evaluate a relation at every n.

The test oracle for ``intmath.first_failure``. Term values come from
``int.bit_length``, not from ``intmath.ilog2``, so the reference shares
nothing with the block checker but the relation's fields.
"""


def value(expr, n: int) -> int:
    return sum(t.a * ((t.b * n + t.d).bit_length() - 1) for t in expr.terms) + expr.e


def first_failure(rel, n_lo: int, n_hi: int) -> int:
    """First n in [n_lo, n_hi] where ``rel`` fails, or 0."""
    for n in range(n_lo, n_hi + 1):
        left, right = value(rel.lhs, n), value(rel.rhs, n)
        if (left != right) if rel.rel == "=" else (left > right):
            return n
    return 0
