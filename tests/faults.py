"""The planted-fault battery: every fault the sweep must catch, with its verdict.

``FAULTS`` maps a fault's name to a ``Fault``. ``plant(monkeypatch)``
plants the fault on olog's module globals through ``monkeypatch.setattr``,
so it is undone with the caller's monkeypatch, and a forked sweep worker
inherits it. Whatever the worker count,
``verify_all(InstanceSpace(*space), grid)`` must then report:

- ``failing``: every failing property's id, mapped to its violation count
  and its first counterexample as the report writes it, detail included;
- ``minimal``: the failing property whose counterexample is the report's
  minimal one, None when no instance fails;
- ``max_tbs_gap``: the report's largest ``abs(tbs - t)``.

A plant wraps the exact functions as this module imported them, whatever
else is planted at the time. The module imports no test framework, so
any harness can iterate it.
"""

import time
from functools import partial
from typing import Callable, NamedTuple, Optional

from olog import checker, complexity, costmodel, intmath
from olog.algorithms import SearchOutcome, _search, binary_search, broken_binary_search
from olog.complexity import canonical_chain
from olog.costmodel import _tbs
from olog.errors import PreconditionError
from olog.intmath import ilog2


class Fault(NamedTuple):
    plant: Callable
    space: tuple  # (max_len, alphabet)
    grid: int
    failing: dict  # property id -> (violations, counterexample)
    minimal: Optional[str]
    max_tbs_gap: int


def chain_ending_at(c):
    """The shipped chain with step 5 ending at c*ilog2(n): it witnesses
    (c, 2), and below c = 6 it fails from n=2 on."""
    *steps, last = canonical_chain()
    rhs = intmath.Expr((intmath.Term(c, 1, 0),), 0)
    return (*steps, last._replace(relation=last.relation._replace(rhs=rhs)))


def _planted(module, name, value):
    return lambda monkeypatch: monkeypatch.setattr(module, name, value)


def _outcome_changed(change):
    # the correct search, whose outcome out becomes change(q, key, out)
    def search(q, key):
        return change(q, key, binary_search(q, key))

    return _planted(checker, "binary_search", search)


def _cost_changed(extra):
    # the exact cost model plus extra(q, lo, hi, key) on every range
    def planted(q, lo, hi, key, *rest):
        return _tbs(q, lo, hi, key, *rest) + extra(q, lo, hi, key)

    return _planted(costmodel, "_tbs", planted)


def _replaced_on_0_1(**fields):
    # the correct search, whose outcome on ([0], 1) alone gets the fields
    return _outcome_changed(
        lambda q, key, out: out._replace(**fields) if (list(q), key) == ([0], 1) else out)


def _together(*plants):
    def plant(monkeypatch):
        for one in plants:
            one(monkeypatch)

    return plant


def _counts_twice(q, key, out):
    # the counter, and the trace's, charge two steps per iteration
    trace = tuple(rec._replace(t_after=2 * rec.t_after) for rec in out.trace)
    return SearchOutcome(out.r, 2 * out.t, trace)


def _search_raising_on_one(q, key, out):
    if list(q) == [0, 1] and key == 1:
        raise KeyError("planted")
    return out


def _tbs_raising_on_one(q, lo, hi, key):
    if list(q) == [0, 1] and key == 1:
        raise IndexError("planted")
    return 0


def _overcharging(branch, q, lo, hi, key):
    # one more on one branch of the recursion
    mid = (lo + hi) // 2
    return hi - lo > 1 and key != q[mid] and (key < q[mid]) == (branch == "left")


def _tbs_past_its_depth_cap(q, lo, hi, key, depth, costs):
    # recurses on its own range while it is 2 wide or more, so the depth
    # guard is what stops it
    if hi - lo < 2:
        return _tbs(q, lo, hi, key, depth, costs)
    _tbs(q, lo, lo, key, depth, costs)  # the guard; an empty range costs 0
    return 1 + costmodel._tbs(q, lo, hi, key, depth + 1, costs)


def _slow_minimal_share(q, key):
    # the broken search, 0.05 s late on ([0], -1): under 2 and 3 workers
    # group 1, [0], which holds its minimal counterexample ([0], 1), lies in
    # a child's share, and that share finishes after the others
    if list(q) == [0] and key == -1:
        time.sleep(0.05)
    return broken_binary_search(q, key)


def _ilog2_rejecting_one(n):
    # ilog2 with its guard `n < 1` written `n <= 1`
    if intmath.require_int("n", n) <= 1:
        raise PreconditionError(f"ilog2 requires n >= 1, got {n}")
    return ilog2(n)


# what _ilog2_rejecting_one raises at 1, as a failure's detail words it
REJECTS_ONE = "PreconditionError: ilog2 requires n >= 1, got 1"


def _at(q, key, detail):
    return {"q": q, "key": key, "detail": detail}


# every value one too large keeps P8's adjacent-pair relation; the
# doubling oracle does not move
_ILOG2_OFF_BY_ONE = _planted(intmath, "ilog2", lambda n: ilog2(n) + 1)
# a counter 10 ahead of its trace and of tbs
_TEN_STEPS_LATE = _outcome_changed(lambda q, key, out: out._replace(t=out.t + 10))


FAULTS = {
    # [0, 3) goes right to [2, 3), the mutant to [1, 3), where it still
    # terminates: only P4's walk sees the stray head
    "broken_binary_search": Fault(
        _planted(checker, "binary_search", broken_binary_search), (4, 3), 16,
        {"P3": (58, _at([0], 1, "hi-lo failed to decrease (1 -> 1) at "
                                "{'lo': 0, 'hi': 1, 'r': -1, 't': 1}")),
         "P4": (9, _at([0, 0, 1], 1, "head [1, 3) at t=1 is off the tbs recursion's path"))},
        "P3", 0),
    # lo = mid + 2: the loop-head invariant (P1) and the tbs walk (P4) catch it
    "overshooting_by_one": Fault(
        _planted(checker, "binary_search", partial(_search, advance=2)), (4, 3), 64,
        {"P1": (29, _at([0], 1, "invariant 'binary_loop' violated at "
                                "{'lo': 2, 'hi': 1, 'r': -1, 't': 1}")),
         "P4": (38, _at([0, 0, 0], 1, "t=1 differs from tbs=2"))},
        "P1", 1),
    # a counter that never counts, and a trace that records nothing: every
    # instance but the four on [] costs at least 1
    "never_counts": Fault(
        _outcome_changed(lambda q, key, out: SearchOutcome(out.r, 0, ())), (2, 2), 4,
        {"P4": (20, _at([0], -1, "t=0 differs from tbs=1"))},
        "P4", 2),
    # the five instances on [] cost 0, so doubling their counter is
    # harmless; 41 of the others, doubled, exceed the step budget; |tbs -
    # 2t| = t, whose largest value on length 4 is 3
    "counts_twice": Fault(
        _outcome_changed(_counts_twice), (4, 3), 16,
        {"P3": (170, _at([0], -1, "t=2 but trace has 1 records")),
         "P4": (170, _at([0], -1, "t=2 differs from tbs=1")),
         "P6": (41, _at([0, 0], -1, "t=4 exceeds budget 3"))},
        "P3", 3),
    # every instance of length 2 fails P5, and the search, which does not
    # read the cost model, passes
    "tbs_past_its_depth_cap": Fault(
        _planted(costmodel, "_tbs", _tbs_past_its_depth_cap), (2, 2), 16,
        {"P5": (12, _at([0, 0], -1, "the tbs walk raised AssertionError: "
                                    "transition-cost recursion exceeded its depth cap"))},
        "P5", 0),
    # P5's bound 2*ilog2(w)+1 is loose enough to absorb the extra cost
    "tbs_overcharging_left": Fault(
        _cost_changed(partial(_overcharging, "left")), (4, 3), 16,
        {"P4": (67, _at([0, 0], -1, "t=1 at head [0, 1) differs from tbs difference 3-1"))},
        "P4", 2),
    "tbs_overcharging_right": Fault(
        _cost_changed(partial(_overcharging, "right")), (4, 3), 16,
        {"P4": (58, _at([0, 0], 1, "t=1 differs from tbs=2"))},
        "P4", 1),
    "ilog2_off_by_one": Fault(
        _ILOG2_OFF_BY_ONE, (2, 2), 2**20,
        {"P8": (1, {"n": 1, "detail": "ilog2(1) != ilog2_oracle(1)"})},
        None, 0),
    # with the right counter and trace, P1's postconditions and P2's oracle
    # both see the six present instances: [0] and [1] with their value,
    # [0, 0] and [1, 1] with theirs, [0, 1] with either
    "always_absent": Fault(
        _outcome_changed(lambda q, key, out: out._replace(r=-1)), (2, 2), 2,
        {"P1": (6, _at([0], 0, "postconditions fail for r=-1")),
         "P2": (6, _at([0], 0, "r=-1 disagrees with oracle index 0"))},
        "P1", 0),
    # every instance's t reaches 10..12, over every budget (at most 3 at
    # length 2), and over 6*ilog2(2) = 6 on the 12 instances of length 2,
    # the only ones the witness covers (n0 = 2)
    "ten_steps_late": Fault(
        _TEN_STEPS_LATE, (2, 2), 2,
        {"P3": (24, _at([], -1, "t=10 but trace has 0 records")),
         "P4": (24, _at([], -1, "t=10 differs from tbs=0")),
         "P6": (24, _at([], -1, "t=10 exceeds budget 1")),
         "P7": (12, _at([0, 0], -1, "t=12 exceeds 6*ilog2(2)=6"))},
        "P3", 10),
    # a chain ending at 12*ilog2(n) witnesses (12, 2), and the counter 10
    # ahead reaches at most 12 = 12*ilog2(2): P7 passes with P9, so P7
    # judges the witness of the chain P9 checks
    "ten_steps_late_under_a_12_ilog2_chain": Fault(
        _together(_planted(complexity, "canonical_chain", partial(chain_ending_at, 12)),
                  _TEN_STEPS_LATE),
        (2, 2), 2,
        {"P3": (24, _at([], -1, "t=10 but trace has 0 records")),
         "P4": (24, _at([], -1, "t=10 differs from tbs=0")),
         "P6": (24, _at([], -1, "t=10 exceeds budget 1"))},
        "P3", 10),
    "absent_as_minus_two": Fault(
        _outcome_changed(lambda q, key, out: out._replace(r=-2) if out.r < 0 else out),
        (3, 2), 16,
        {"P1": (28, _at([], -1, "postconditions fail for r=-2"))},
        "P1", 0),
    "search_raising": Fault(
        _outcome_changed(_search_raising_on_one), (4, 3), 16,
        {"P1": (1, _at([0, 1], 1, "the search raised KeyError: 'planted'"))},
        "P1", 0),
    # the instance's P4 is skipped: there is no cost to judge the counter by
    "tbs_walk_raising": Fault(
        _cost_changed(_tbs_raising_on_one), (4, 3), 16,
        {"P5": (1, _at([0, 1], 1, "the tbs walk raised IndexError: planted"))},
        "P5", 0),
    # an instance, a grid and a chain counterexample in one report
    "every_kind_of_failure": Fault(
        _together(_planted(complexity, "canonical_chain", partial(chain_ending_at, 3)),
                  _ILOG2_OFF_BY_ONE, _outcome_changed(_search_raising_on_one)),
        (2, 2), 64,
        {"P1": (1, _at([0, 1], 1, "the search raised KeyError: 'planted'")),
         "P8": (1, {"n": 1, "detail": "ilog2(1) != ilog2_oracle(1)"}),
         "P9": (1, {"step": 5, "n": 2, "detail": "chain step 5 fails at n=2"})},
        "P1", 0),
    # width-5 ranges that go left cost 5 more, past the bound 2*ilog2(5)+1 =
    # 5, but P5 counts only the instances whose full range fails; the
    # correct counter no longer equals the cost, so P4 fails on the same
    # instances, and comes first among the ties
    "tbs_overcharging_width_5": Fault(
        _cost_changed(lambda q, lo, hi, key: 5 * (hi - lo == 5 and q[(lo + hi) // 2] > key)),
        (7, 3), 2,
        {"P4": (42, _at([0, 0, 0, 0, 0], -1,
                        "t=1 at head [0, 2) differs from tbs difference 8-2")),
         "P5": (42, _at([0, 0, 0, 0, 0], -1, "tbs(0, 5)=8 exceeds its log bound"))},
        "P4", 5),
    # one below LOG_BOUND at every width: only width 1, where tbs is 1 and
    # the planted bound 0, breaks it
    "log_bound_lowered": Fault(
        _planted(intmath, "LOG_BOUND", intmath.Expr((intmath.Term(2, 1, 0),), 0)),
        (3, 2), 2,
        {"P5": (8, _at([0], -1, "tbs(0, 1)=1 exceeds its log bound"))},
        "P5", 0),
    # a budget of ilog2(n+1), below the worst case from n = 2 on: the five
    # instances of length 2 that take 2 steps exceed its 1, and length 3's
    # worst case, 2, meets its 2; P9's chain, which now starts from the
    # planted budget, still holds: its step 1 only gets looser
    "step_budget_lowered": Fault(
        _planted(intmath, "STEP_BUDGET", intmath.Expr((intmath.Term(1, 1, 1),), 0)),
        (3, 2), 2,
        {"P6": (5, _at([0, 0], -1, "t=2 exceeds budget 1"))},
        "P6", 0),
    # ilog2 with k -= 1 for k += 1, -floor(log2 n): the bounds are negative
    # from length 1 (STEP_BUDGET) and 2 (LOG_BOUND, P7's), ilog2 decreases
    # from 1 to 2 and leaves the oracle at 2, and chain step 1 fails where
    # it needs ilog2(n+1) >= 1
    "ilog2_counting_down": Fault(
        _planted(intmath, "ilog2", lambda n: -ilog2(n)), (2, 2), 4,
        {"P5": (12, _at([0, 0], -1, "tbs(0, 2)=2 exceeds its log bound")),
         "P6": (20, _at([0], -1, "t=1 exceeds budget -1")),
         "P7": (12, _at([0, 0], -1, "t=2 exceeds 6*ilog2(2)=-6")),
         "P8": (2, {"n": 1, "detail": "ilog2(1) > ilog2(2)"}),
         "P9": (1, {"step": 1, "n": 1, "detail": "chain step 1 fails at n=1"})},
        "P6", 0),
    # ilog2(1) raises: a bound that raises fails its property on every
    # instance of its length (STEP_BUDGET at 0, LOG_BOUND at 1; P7 starts
    # at n0 = 2), and a relation that raises at n fails there (P8 and
    # chain step 4, the doubling law, at n=1), each detail naming the raise
    "ilog2_rejecting_one": Fault(
        _planted(intmath, "ilog2", _ilog2_rejecting_one), (2, 2), 4,
        {"P5": (8, _at([0], -1, f"LOG_BOUND(1) raised {REJECTS_ONE}")),
         "P6": (4, _at([], -1, f"STEP_BUDGET(0) raised {REJECTS_ONE}")),
         "P8": (2, {"n": 1, "detail": f"ilog2(1) != ilog2_oracle(1): ilog2 raised {REJECTS_ONE}"}),
         "P9": (1, {"step": 4, "n": 1,
                    "detail": f"chain step 4 fails at n=1: 3*ilog2(n) + 3 raised {REJECTS_ONE}"})},
        "P6", 0),
    # an r that P1's postconditions and P2's oracle cannot compare
    "unreadable_outcome": Fault(
        _replaced_on_0_1(r=None), (2, 2), 4,
        {"P1": (1, _at([0], 1, "the checks cannot read the search's outcome: TypeError: "
                               "'>=' not supported between instances of 'NoneType' and 'int'"))},
        "P1", 0),
    # a counter that P3 and P4 compare without error, but the gap cannot
    # subtract: the instance counts once, against P1, and nowhere else
    "unreadable_counter": Fault(
        _replaced_on_0_1(t=None), (2, 2), 4,
        {"P1": (1, _at([0], 1, "the checks cannot read the search's outcome: TypeError: "
                               "unsupported operand type(s) for -: 'int' and 'NoneType'"))},
        "P1", 0),
    # a trace as long as the counter, so P3 holds, whose records P4 cannot read
    "unreadable_trace": Fault(
        _replaced_on_0_1(trace=(1,)), (2, 2), 4,
        {"P1": (1, _at([0], 1, "the checks cannot read the search's outcome: AttributeError: "
                               "'int' object has no attribute 'lo'"))},
        "P1", 0),
}

# broken_binary_search's report, whatever order the shares finish in: the
# merge keeps each property's earliest counterexample, not the first
# share's, nor the first to arrive
FAULTS["broken_binary_search_finishing_last"] = FAULTS["broken_binary_search"]._replace(
    plant=_planted(checker, "binary_search", _slow_minimal_share))
