"""The doubling law of ilog2 as a grid relation: ilog2(2n) = 1 + ilog2(n).

Inside the package the law is step 4 of the inequality chain (P9); the
tests also state it on its own and check it through
``intmath.first_failure``, by dyadic blocks, and through ``pointwise``.
"""

from olog.intmath import Expr, Relation, Term

DOUBLING = Relation(Expr((Term(1, 2, 0),), 0), "=", Expr((Term(1, 1, 0),), 1))
