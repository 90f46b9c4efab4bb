import pytest
from hypothesis import given, settings, strategies as st

from olog import intmath
from olog.errors import PreconditionError, VacuousRangeError
from olog.intmath import Expr, Relation, Term, ilog2, ilog2_oracle

import pointwise
from doubling import DOUBLING


def floor_log2_brute(n):
    # independent route: largest k with 2**(k+1) <= n would overshoot
    k = 0
    while 2 ** (k + 1) <= n:
        k += 1
    return k


@pytest.mark.parametrize(
    "n,expected",
    [
        (1, 0),
        (2, 1),
        (7, 2),
        (8, 3),
        (1023, 9),
        (1024, 10),
        (2**20, 20),
        (2**20 + 1, 20),
    ],
)
def test_ilog2_known_values(n, expected):
    assert floor_log2_brute(n) == expected  # the frozen value really is floor(log2)
    assert ilog2(n) == expected


@pytest.mark.parametrize("bad", [0, -1, -(2**40)])
def test_ilog2_rejects_nonpositive(bad):
    with pytest.raises(PreconditionError):
        ilog2(bad)
    with pytest.raises(PreconditionError):
        ilog2_oracle(bad)


@pytest.mark.parametrize("n", [1, 1023, 1024])
def test_oracle_agreement_examples(n):
    assert ilog2(n) == ilog2_oracle(n)


@given(st.integers(min_value=1, max_value=2**64))
def test_ilog2_matches_bit_length(n):
    # third, unrelated route: position of the most significant bit
    assert ilog2(n) == n.bit_length() - 1


@given(st.integers(min_value=1, max_value=2**48))
def test_ilog2_matches_oracle(n):
    assert ilog2(n) == ilog2_oracle(n)


@given(st.integers(min_value=1, max_value=2**32 - 1))
def test_ilog2_adjacent_monotonic(n):
    assert ilog2(n) <= ilog2(n + 1)


@given(st.integers(min_value=1, max_value=2**31))
def test_ilog2_doubling_identity(n):
    assert ilog2(2 * n) == 1 + ilog2(n)


def test_floor_division_semantics():
    # the recurrence divides by two with floor semantics: 7 -> 3 -> 1
    assert ilog2(7) == 1 + ilog2(3) == 2


GRID = 2**20


def test_scan_monotonic_clean_to_grid():
    assert intmath.scan_monotonic(GRID) == 0


def test_scan_doubling_clean_to_grid():
    assert intmath.first_failure(DOUBLING, 1, GRID) == 0


def test_scan_oracle_equivalence_clean_to_grid():
    assert intmath.scan_oracle_equivalence(GRID) == 0


def test_scans_reject_bad_grid():
    for scan in (
        intmath.scan_monotonic,
        lambda n: intmath.first_failure(DOUBLING, 1, n),
        intmath.scan_oracle_equivalence,
    ):
        with pytest.raises(PreconditionError):
            scan(0)
        with pytest.raises(PreconditionError):
            scan(2**32 + 1)


def test_ilog2_block_constancy_obligation():
    # Base: ilog2(1) = 0, so ilog2 is constant on block 0 = [1, 1].
    # Step: n // 2 maps block k = [2**k, 2**(k+1) - 1] onto block k-1,
    # endpoint to endpoint, and the recurrence adds one; so ilog2 is k on
    # all of block k. Checked for every block up to 2**33.
    assert ilog2(1) == 0
    for k in range(1, 34):
        lo, hi = 1 << k, (2 << k) - 1
        assert (lo // 2, hi // 2) == (1 << (k - 1), (1 << k) - 1)
        assert ilog2(lo) == ilog2(hi) == 1 + ilog2(lo // 2) == 1 + ilog2(hi // 2) == k


def test_scan_oracle_equivalence_matches_pointwise_routes():
    # the block comparison agrees with both other floor-log2 routes at every n
    n_max = 2**14
    assert intmath.scan_oracle_equivalence(n_max) == 0
    for n in range(1, n_max + 1):
        assert ilog2_oracle(n) == n.bit_length() - 1 == ilog2(n)


def _log(a, b, d):
    return Expr((Term(a, b, d),), 0)


# first failing n in [n_lo, 4096] of each relation, by dyadic blocks and
# pointwise: each failure lies at a block start past n_lo, so no block may
# be skipped, and 0 means that it holds on all of the range
FIRST_FAILURES = {
    "ilog2(n) <= 3": (Relation(_log(1, 1, 0), "<=", Expr((), 3)), 1, 16),
    "ilog2(n) <= 4": (Relation(_log(1, 1, 0), "<=", Expr((), 4)), 1, 32),
    "ilog2(n) <= 10": (Relation(_log(1, 1, 0), "<=", Expr((), 10)), 1, 2048),
    # 3*11+1 = 34 >= 32, and 3*10+2 = 32
    "2*ilog2(3*n+1) <= 9": (Relation(_log(2, 3, 1), "<=", Expr((), 9)), 1, 11),
    "2*ilog2(3*n+2) <= 9": (Relation(_log(2, 3, 2), "<=", Expr((), 9)), 1, 10),
    "ilog2(2*n) = ilog2(n+1) from 3": (Relation(_log(1, 2, 0), "=", _log(1, 1, 1)), 3, 4),
    "ilog2(n+3) + ilog2(2*n+1) <= 7 from 5": (
        Relation(Expr((Term(1, 1, 3), Term(1, 2, 1)), 0), "<=", Expr((), 7)), 5, 13),
    "monotonic": (intmath.MONOTONIC, 1, 0),
    "doubling": (DOUBLING, 1, 0),
}


@pytest.mark.parametrize("row", FIRST_FAILURES)
def test_first_failure_inside_the_range(row):
    rel, n_lo, first = FIRST_FAILURES[row]
    assert intmath.first_failure(rel, n_lo, 4096) == first
    assert pointwise.first_failure(rel, n_lo, 4096) == first


_terms = st.lists(
    st.builds(
        Term,
        st.integers(min_value=-3, max_value=6),
        st.sampled_from([1, 2, 3]),
        st.integers(min_value=0, max_value=3),
    ),
    min_size=0,
    max_size=3,
).map(tuple)
_exprs = st.builds(Expr, _terms, st.integers(min_value=-3, max_value=3))


@settings(max_examples=150, deadline=None)
@given(
    _exprs,
    st.sampled_from(["=", "<="]),
    _exprs,
    st.integers(min_value=1, max_value=2**12),
    st.integers(min_value=0, max_value=2**12),
)
def test_block_check_matches_pointwise_on_random_relations(lhs, rel, rhs, n_lo, width):
    relation = Relation(lhs, rel, rhs)
    n_hi = min(n_lo + width, 2**12)
    assert intmath.first_failure(relation, n_lo, n_hi) == pointwise.first_failure(
        relation, n_lo, n_hi
    )


def test_term_language_rejects_malformed_input():
    with pytest.raises(PreconditionError):
        Term(1, 0, 0)  # b*n + d must stay >= 1 for n >= 1
    with pytest.raises(PreconditionError):
        Term(1, 1, -1)
    with pytest.raises(PreconditionError):
        Relation(Expr((), 0), "<", Expr((), 1))
    with pytest.raises(VacuousRangeError):
        intmath.first_failure(intmath.MONOTONIC, 5, 4)
    with pytest.raises(PreconditionError):
        intmath.first_failure(intmath.MONOTONIC, 0, 4)


def test_bounds_are_their_closed_forms():
    for n in range(1, 4097):
        assert intmath.LOG_BOUND(n) == intmath.STEP_BUDGET(n - 1) == 2 * n.bit_length() - 1
    with pytest.raises(PreconditionError):
        intmath.LOG_BOUND(0)  # an empty range has no log bound


def test_labels_come_from_the_terms():
    assert str(intmath.STEP_BUDGET) == "2*ilog2(n+1) + 1"
    assert str(intmath.LOG_BOUND) == "2*ilog2(n) + 1"
    assert str(DOUBLING) == "ilog2(2*n) = ilog2(n) + 1"
    assert str(Relation(Expr((Term(-3, 3, 2),), -1), "<=", Expr((), 0))) == (
        "-3*ilog2(3*n+2) - 1 <= 0"
    )


@pytest.mark.parametrize(
    "call",
    [
        lambda: ilog2(2.5),
        lambda: ilog2(True),
        lambda: ilog2_oracle(8.0),
        lambda: ilog2_oracle(False),
        lambda: Term(2.5, 1, 0),
        lambda: Term(True, 1, 0),
        lambda: Term(1, 1.5, 0),
        lambda: Term(1, 1, 0.5),
    ],
)
def test_ilog2_and_terms_refuse_what_is_not_an_int(call):
    with pytest.raises(PreconditionError, match="must be an integer"):
        call()


@pytest.mark.parametrize(
    "call,message",
    [
        # a float constant used to evaluate to 5.5 at n = 4, and to pass
        # the grid checks as a bound
        (lambda: Expr((Term(2, 1, 1),), 1.5), "e must be an integer"),
        (lambda: Expr((Term(1, 1, 0),), "1"), "e must be an integer"),
        (lambda: Expr((Term(1, 1, 0),), True), "e must be an integer"),
        (lambda: intmath.STEP_BUDGET._replace(e=1.0), "e must be an integer"),
        (lambda: Expr(((1, 1, 0),), 0), "terms must be a Term tuple"),
        (lambda: Expr([Term(1, 1, 0)], 0), "terms must be a Term tuple"),
        (lambda: Expr(Term(1, 1, 0), 0), "terms must be a Term tuple"),
        (lambda: intmath.LOG_BOUND._replace(terms=((2, 1, 0),)), "terms must be a Term tuple"),
    ],
    ids=["e-float", "e-str", "e-bool", "replace-e-float", "term-plain-tuple", "terms-list",
         "terms-one-term", "replace-terms"],
)
def test_an_expression_refuses_what_is_not_its_fields(call, message):
    with pytest.raises(PreconditionError, match=message):
        call()


@pytest.mark.parametrize(
    "lhs,rhs",
    [
        # each used to be built, and then to raise a bare AttributeError
        # ('terms') from first_failure's block scan
        (Term(1, 1, 0), Expr((), 5)),
        (((Term(1, 1, 0),), 0), Expr((), 5)),
        (Expr((Term(1, 1, 0),), 0), 5),
    ],
    ids=["lhs-term", "lhs-plain-tuple", "rhs-int"],
)
def test_a_relation_refuses_sides_that_are_not_expressions(lhs, rhs):
    with pytest.raises(PreconditionError, match="sides must be Exprs"):
        Relation(lhs, "<=", rhs)
    with pytest.raises(PreconditionError, match="sides must be Exprs"):
        Relation(Expr((), 0), "<=", Expr((), 1))._replace(lhs=lhs, rhs=rhs)
