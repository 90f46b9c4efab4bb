"""Desk-scale proof surrogate: exhaustive enumeration plus the property suite.

Instead of discharging the search's contracts symbolically, this module
enumerates every sorted sequence up to a configurable length over a
small alphabet, crosses it with a key range that includes one value
below and one above the alphabet (forcing both absent-key exits), and
checks the full battery on every instance:

* P1 binary_posts: final postconditions, plus the loop-head invariant
  (an unfound key never hides in the eliminated prefix/suffix).
* P2 oracle_agreement: found/absent verdict matches a linear scan.
* P3 counter_exact_terminating: the counter equals the number of
  iterations recorded, one per iteration run, and the range width
  strictly decreases.
* P4 counter_equals_tbs: at every recorded loop head, the counter plus
  the cost of the head's range equals tbs(q, 0, len(q), key), and a head
  off the ``tbs`` recursion's path fails; end to end, t == tbs(q, 0,
  len(q), key).
* P5 tbs_log_bound: every nonempty subrange's transition cost obeys
  ``intmath.LOG_BOUND``, 2*ilog2(width) + 1. Checked on each instance's
  full range: ``tbs`` is translation-invariant and every slice of an
  enumerated sequence is enumerated with the same keys, so each subrange
  is an instance's.
* P6 step_budget: t <= ``intmath.STEP_BUDGET``, 2*ilog2(len(q)+1) + 1.
* P7 witness_bound: for len(q) >= n0, t <= c*ilog2(len(q)), (c, n0) the
  witness of ``complexity.canonical_chain()``, the chain P9 checks: (6, 2)
  as shipped.
* P8 ilog2_monotonic: adjacent-pair monotonicity up to the grid bound,
  and agreement with ``ilog2_oracle`` at both ends of every dyadic block.
* P9 calc_chain: the witness derivation re-checks on the same grid.

P1–P7 are checked instance by instance by ``verify_sweep``, through the
instrumented search, whose loop-head invariant costs O(1) per head once
the search has found the key's span. P2's linear oracle runs once per
sequence, as ``first_indices``, and each key of the group reads its
answer from that. P8 and P9 are checked by dyadic blocks (see
``intmath.first_failure``), which decides every grid point; where the
first failure is a raise, the detail names what raised.

Each bound has one binding, in ``intmath``: P5–P7 read ``LOG_BOUND``,
``STEP_BUDGET`` and ``ilog2`` there when the sweep runs, and P9's chain
starts from ``intmath.STEP_BUDGET``, so one plant on ``intmath`` reaches
every property that reads it.

Counterexamples are minimal by construction: enumeration goes shortest
sequence first, then lexicographic, then ascending key, and the first
failure per property is the one reported.
"""

from __future__ import annotations

import itertools
import marshal
import math
import os
import sys
import time
from typing import Iterator, NamedTuple, NoReturn, Optional

import olog.complexity as complexity
import olog.costmodel as costmodel
import olog.intmath as intmath
from olog.algorithms import SortedSeq, binary_search, check_binary_posts, first_indices
from olog.errors import InvariantViolation, PreconditionError, WorkerError
from olog.intmath import require_int, validated_make

PROPERTY_NAMES = {
    "P1": "binary_posts",
    "P2": "oracle_agreement",
    "P3": "counter_exact_terminating",
    "P4": "counter_equals_tbs",
    "P5": "tbs_log_bound",
    "P6": "step_budget",
    "P7": "witness_bound",
    "P8": "ilog2_monotonic",
    "P9": "calc_chain",
}
# The properties verify_sweep checks instance by instance, in report order.
INSTANCE_PROPS = tuple(PROPERTY_NAMES)[:7]

# The sequential sweep checks 85k-270k instances/s, and two workers
# 140k-425k/s (2 CPUs, Python 3.11.7, a shared host; the low end at
# max-len 26, the high end at max-len 1), so a space at the instance cap
# runs for about half a minute to two minutes.
MAX_INSTANCES = 10**7
# The search bisects the span its loop-head invariant reads, but three
# scans still grow with length: P1's absence test, `key not in tuple(q)`,
# once per absent key, and per sequence SortedSeq's order check and P2's
# first_indices. Under cProfile first_indices is 35% of the (2000, 1)
# sweep, the order check 9% and the absence test 6%. So the work grows
# with keys x total sequence length, which the instance count does not
# bound (alphabet 1 holds one sequence per length). max-len 4000 at
# alphabet 1, 2.4e7 of these, takes 1.1-1.6 s sequential and 0.8-0.9 s
# on two workers (`olog verify` wall, same machine), and the cap sits at
# about four times that. The sequences are streamed, so memory does not
# grow with them: that space and the default both peak at 15 MB RSS.
MAX_ELEMENTS = 10**8
# The sweep's cost is estimated in units of one key x (length + SEQ_WORK):
# a key's search, oracle and checks cost 0.2-0.6 us x (length + 8) from
# max-len 5 to 26, and 0.04-0.05 us x length at max-len 2000 and 4000
# (sequential verify_all, same machine), so the estimate weighs long
# sequences several times above their cost.
SEQ_WORK = 8
# Forking one worker, reading its result and reaping it costs 3-7 ms
# (verify_all on the (1, 1) space, 2 vCPU, Python 3.11.7). Against the
# sequential sweep two forked workers broke even between 4.5e4 and 5.7e4
# units (3.2k-5k instances, 30-40 ms) and were 1.3x faster at 1e5 (the
# (6, 6) space, 7.4k instances, 60 ms), medians of 40 interleaved runs on
# a shared host; below POOL_MIN_WORK the sweep stays in process.
POOL_MIN_WORK = 10**5


class _InstanceSpaceFields(NamedTuple):
    max_len: int
    alphabet: int


class InstanceSpace(_InstanceSpaceFields):
    """The instances the sweep checks: sequences of length 0..max_len over
    [0, alphabet-1], each with every key in [-1, alphabet]."""

    __slots__ = ()
    _make = classmethod(validated_make)

    def __new__(cls, max_len: int = 8, alphabet: int = 6):
        if require_int("max_len", max_len) < 1:
            raise PreconditionError(f"max_len must be >= 1, got {max_len}")
        if require_int("alphabet", alphabet) < 1:
            raise PreconditionError(f"alphabet must be >= 1, got {alphabet}")
        return super().__new__(cls, max_len, alphabet)

    @property
    def key_lo(self) -> int:
        return -1

    @property
    def key_hi(self) -> int:
        return self.alphabet

    @property
    def keys_per_sequence(self) -> int:
        return self.key_hi - self.key_lo + 1

    @property
    def instances(self) -> int:
        """(alphabet+2) * C(max_len+alphabet, max_len): keys times sequences,
        as the C(L+alphabet-1, L) sequences of each length L <= max_len sum to it."""
        return self.keys_per_sequence * math.comb(self.max_len + self.alphabet, self.max_len)

    @property
    def key_elements(self) -> int:
        """Keys times total sequence length, the unit of the sweep's work
        that grows with length (see MAX_ELEMENTS): 0.04-0.05 us each at
        max-len 2000 and 4000 over one letter. The sequences of length L
        hold L*C(L+alphabet-1, L) = alphabet*C(L+alphabet-1, alphabet)
        elements, which sum over L <= max_len to
        alphabet*C(max_len+alphabet, alphabet+1)."""
        return self.keys_per_sequence * self.alphabet * math.comb(
            self.max_len + self.alphabet, self.alphabet + 1
        )

    @property
    def complete_to(self) -> int:
        """Longest n such that every order type of length <= n (which neighbours
        are equal, where the key falls among the values) has an instance here,
        so a pass decides every sorted integer sequence that long: the sweep
        only compares. A key strictly between two values needs n+1 of them."""
        return min(self.max_len, max(self.alphabet - 1, 1))  # length 1 has no such gap

    def groups(self) -> Iterator[tuple[tuple[int, ...], int, int]]:
        """(items, key_lo, key_hi) per sequence, in enumeration order, streamed."""
        for length in range(self.max_len + 1):
            for items in nondecreasing_sequences(length, self.alphabet):
                yield items, self.key_lo, self.key_hi


def nondecreasing_sequences(length: int, alphabet: int) -> Iterator[tuple[int, ...]]:
    """All non-decreasing tuples of the given length over [0, alphabet-1],
    in lexicographic order."""
    return itertools.combinations_with_replacement(range(alphabet), length)


class PropertyResult(NamedTuple):
    id: str
    name: str
    passed: bool
    violations: int
    counterexample: Optional[dict] = None


class CheckReport(NamedTuple):
    instances_checked: int
    properties: tuple[PropertyResult, ...]
    grid_bounds: dict
    wall_time_ms: int
    max_tbs_gap: int
    complete_to: int

    @property
    def all_passed(self) -> bool:
        return all(p.passed for p in self.properties)

    def minimal_counterexample(self) -> Optional[dict]:
        """Earliest failing instance across properties, in enumeration order."""
        candidates = [
            p.counterexample
            for p in self.properties
            if p.counterexample is not None and "q" in p.counterexample
        ]
        if not candidates:
            return None
        return min(candidates, key=_enumeration_order)

    def to_dict(self) -> dict:
        return {
            "instances_checked": self.instances_checked,
            "complete_to": self.complete_to,
            "all_passed": self.all_passed,
            "properties": [p._asdict() for p in self.properties],
            "grid_bounds": self.grid_bounds,
            "max_tbs_gap": self.max_tbs_gap,
            "minimal_counterexample": self.minimal_counterexample(),
            "wall_time_ms": self.wall_time_ms,
        }


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def _sweep_work(space: InstanceSpace) -> int:
    """Estimated sweep cost in units of one key times (length + SEQ_WORK)."""
    return space.key_elements + SEQ_WORK * space.instances


def _pool_workers(space: InstanceSpace) -> int:
    """Worker processes for the sweep; 0 runs it in this process.

    Each share holds at least half the two-worker break-even, so the count
    is min(usable CPUs, 2 * work // POOL_MIN_WORK), and 0 below two. A
    platform without ``os.fork`` gets 0, and so does a caller with other
    live threads: only the calling thread survives a fork, and a child
    could wait forever on a lock another one held. ``threading`` is looked
    up, never imported, for that count.
    """
    threading = sys.modules.get("threading")
    if not hasattr(os, "fork") or (threading is not None and threading.active_count() > 1):
        return 0
    workers = min(_usable_cpus(), 2 * _sweep_work(space) // POOL_MIN_WORK)
    return workers if workers >= 2 else 0


def _enumeration_order(counterexample: dict) -> tuple:
    """Sort key of an instance counterexample: shortest sequence first,
    then lexicographic, then ascending key."""
    return len(counterexample["q"]), tuple(counterexample["q"]), counterexample["key"]


def _merge_sweeps(results: list[dict]) -> dict:
    """One sweep result from the shares' results: counts add up, and each
    property's first counterexample is the earliest in enumeration order."""
    return {
        "instances": sum(res["instances"] for res in results),
        "violations": {
            p: sum(res["violations"][p] for res in results) for p in INSTANCE_PROPS
        },
        "first": {
            p: min(
                (res["first"][p] for res in results if res["first"][p] is not None),
                key=_enumeration_order,
                default=None,
            )
            for p in INSTANCE_PROPS
        },
        "max_tbs_gap": max(res["max_tbs_gap"] for res in results),
    }


def _p4_failure(trace, t, costs, tbs_total):
    """Why the counter breaks P4 against the walk ``costs``, or None. The
    counter at a head is the one after the iteration before it (0 at the first)."""
    t_head = 0
    for rec in trace:
        remaining = costs.get((rec.lo, rec.hi))
        if remaining is None:
            return f"head [{rec.lo}, {rec.hi}) at t={t_head} is off the tbs recursion's path"
        if t_head + remaining != tbs_total:
            return (
                f"t={t_head} at head [{rec.lo}, {rec.hi}) differs from "
                f"tbs difference {tbs_total}-{remaining}"
            )
        t_head = rec.t_after
    if t != tbs_total:
        return f"t={t} differs from tbs={tbs_total}"
    return None


def _length_bound(raised: dict, prop: str, name: str, n: int):
    """``intmath``'s ``name`` at n, read there when called, or None after
    noting in ``raised`` why it failed ``prop`` at this length."""
    try:
        return getattr(intmath, name)(n)
    except Exception as err:
        raised[prop] = f"{name}({n}) raised {type(err).__name__}: {err}"
        return None


def verify_sweep(groups) -> dict:
    """Run the per-instance property battery over (items, key_lo, key_hi) groups.

    Returns violation counts and the first counterexample per property
    (P1..P7), in enumeration order, plus ``max_tbs_gap``, the largest
    ``abs(tbs - t)`` between the cost of an instance's full range and the
    search's counter, whichever way it errs. The search is this module's
    global ``binary_search``, looked up once per call, so a search planted
    there (``broken_binary_search``, say) is the one judged. P7 reads the
    witness of ``complexity.canonical_chain()``, built once per call: the
    chain ``derive_log_witness`` checks for P9.

    Each instance walks the ``tbs`` recurrence once; P4 holds the counter
    to that walk at every recorded head, and P5 checks its value on the
    instance's full range only: ``tbs`` is translation-invariant
    (tbs(q, lo, hi, key) == tbs(q[lo:hi], 0, hi-lo, key), as
    mid = lo + (hi-lo)//2), so a source must hold, for each (items, key)
    it yields, every slice of items with that key (or one of its order type).

    An exception the search raises counts against P1 (P3 for the
    termination check). An outcome the checks cannot read also counts
    against P1: one that does not unpack into (r, t, trace), or on which
    a check of P1–P4, P6 or P7, or the gap, raises. Every check reads the
    outcome before any verdict is recorded, so either case skips all of
    the instance's checks of the outcome, and an instance counts at most
    once against each property. An exception the walk raises counts
    against P5, skipping P4. The per-length bounds (``LOG_BOUND`` for P5,
    ``STEP_BUDGET`` for P6, ``ilog2`` for P7) are read from ``intmath``
    once per length, so a bound planted there is the one judged, and one
    that raises counts against its property on every instance of that
    length.
    """
    search = binary_search
    c, n0 = complexity.chain_witness(complexity.canonical_chain())
    counts = {p: 0 for p in INSTANCE_PROPS}
    first: dict = {p: None for p in counts}
    instances = 0
    max_gap = 0

    def record(prop, q, key, detail):
        counts[prop] += 1
        if first[prop] is None:
            first[prop] = {"q": list(q), "key": int(key), "detail": detail}

    last_n = None
    for items, key_lo, key_hi in groups:
        q = SortedSeq(items)
        items = q.items
        n = len(items)
        if n != last_n:  # the bounds depend on the length only
            last_n = n
            raised: dict = {}
            budget = _length_bound(raised, "P6", "STEP_BUDGET", n)
            bound = _length_bound(raised, "P5", "LOG_BOUND", n) if n >= 1 else None
            log_n = _length_bound(raised, "P7", "ilog2", n) if n >= n0 else None
        oracle = first_indices(items)
        for key in range(key_lo, key_hi + 1):
            instances += 1
            for prop, detail in raised.items():
                record(prop, items, key, detail)
            # P5 needs only the cost model, so it runs even when the
            # instrumented run aborts.
            try:
                costs = costmodel.tbs_path(items, key)
                tbs_total = costs[0, n]
            except Exception as err:
                costs = None
                record("P5", items, key, f"the tbs walk raised {type(err).__name__}: {err}")
            else:
                if bound is not None and tbs_total > bound:
                    record("P5", items, key, f"tbs(0, {n})={tbs_total} exceeds its log bound")

            try:
                out = search(q, key)
            except InvariantViolation as violation:
                prop = "P3" if violation.predicate == "termination" else "P1"
                record(prop, items, key, str(violation))
                continue
            except Exception as err:
                record("P1", items, key, f"the search raised {type(err).__name__}: {err}")
                continue
            oracle_r = oracle.get(key, -1)
            try:
                r, t, trace = out
                posts_hold = check_binary_posts(items, r, key)
                agree = (r >= 0) == (oracle_r >= 0) and (r < 0 or r < n and items[r] == key)
                records = len(trace or ())
                counted = trace is not None and t == records
                p4 = gap = None
                if costs is not None:
                    p4 = _p4_failure(trace or (), t, costs, tbs_total)
                    gap = abs(tbs_total - t)
                in_budget = budget is None or t <= budget
                in_witness = log_n is None or t <= c * log_n
            except Exception as err:
                record("P1", items, key,
                       f"the checks cannot read the search's outcome: {type(err).__name__}: {err}")
                continue

            if not posts_hold:
                record("P1", items, key, f"postconditions fail for r={r}")
            if not agree:
                record("P2", items, key, f"r={r} disagrees with oracle index {oracle_r}")
            if not counted:
                record("P3", items, key, f"t={t} but trace has {records} records")
            if p4 is not None:
                record("P4", items, key, p4)
            if gap is not None:
                max_gap = max(max_gap, gap)
            if not in_budget:
                record("P6", items, key, f"t={t} exceeds budget {budget}")
            if not in_witness:
                record("P7", items, key, f"t={t} exceeds {c}*ilog2({n})={c * log_n}")

    return {
        "instances": instances,
        "violations": counts,
        "first": first,
        "max_tbs_gap": max_gap,
    }


def _share(space: InstanceSpace, w: int, workers: int) -> dict:
    """The sweep of the w-th of ``workers`` strided shares: every
    ``workers``-th group of the enumeration, from the w-th on."""
    groups = itertools.islice(space.groups(), w, None, workers)
    return verify_sweep(groups)


def _sweep_child(space: InstanceSpace, w: int, workers: int, wfd: int) -> NoReturn:
    """A forked worker: sweep share w, write the result to ``wfd`` with
    marshal, and leave with os._exit, so that nothing the parent set up
    (buffered output, atexit handlers, pytest's state) runs twice. A
    failure prints its traceback and exits 1; an interrupt exits 1."""
    status = 1
    try:
        data = marshal.dumps(_share(space, w, workers))
        with open(wfd, "wb") as pipe:
            pipe.write(data)
        status = 0
    except Exception:
        import traceback

        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(status)


def _death(code: int) -> str:
    """How a child ended, from ``os.waitstatus_to_exitcode``."""
    if code > 0:
        return f"exited with status {code}"
    import signal

    try:
        name = signal.Signals(-code).name
    except ValueError:
        name = "an unnamed signal"
    return f"was killed by signal {-code} ({name})"


def _forked_sweep(space: InstanceSpace, workers: int) -> dict:
    """Sweep the space in ``workers`` strided shares: this process sweeps
    share 0 and a forked child each of the others, so one share forks
    nothing.

    The children inherit every module global as it stands at the fork, a
    planted search or cost model included, so nothing is pickled. Each one
    writes its result to a pipe and exits; this process reads each pipe to
    EOF and then reaps the child, so a child that dies (killed by a
    signal, say) shows up as a bad wait status and raises WorkerError,
    never as a hang. Whatever raises, every child still running is killed
    and every child reaped.

    A pipe or fork the system refuses (at a process or descriptor limit,
    say) stops the forking: this process then sweeps share 0 and every
    share it did not fork, so a refusal costs speed, not the verdict.

    Each process enumerates the whole stream and skips the other shares'
    groups, so each pays for the whole enumeration: under 1% of the
    sequential sweep at (5, 12) and about 5% at (2000, 1) (Python 3.11.7, 2
    vCPU). Only the calling thread survives a fork; ``_pool_workers``
    chooses 1 share for a caller with other live threads.
    """
    children: dict = {}  # pid -> (share, read end of its pipe), until reaped
    try:
        for w in range(1, workers):
            try:
                rfd, wfd = os.pipe()
            except OSError:
                break
            try:
                pid = os.fork()
            except OSError:
                os.close(rfd)
                os.close(wfd)
                break
            if pid == 0:
                _sweep_child(space, w, workers, wfd)
            os.close(wfd)
            children[pid] = (w, open(rfd, "rb"))
        forked = {w for w, _ in children.values()}
        shares = [_share(space, w, workers) for w in range(workers) if w not in forked]
        for pid in list(children):
            w, pipe = children[pid]
            data = pipe.read()
            pipe.close()
            status = os.waitpid(pid, 0)[1]
            del children[pid]
            code = os.waitstatus_to_exitcode(status)
            if code != 0:
                raise WorkerError(f"sweep worker {w} of {workers} {_death(code)}; no verdict")
            shares.append(marshal.loads(data))
    finally:
        if children:
            import signal

            for pid, (_, pipe) in children.items():
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return _merge_sweeps(shares)


def verify_all(space: InstanceSpace, grid: int) -> CheckReport:
    """Run the whole suite; failing properties become report entries,
    never exceptions.

    The sweep judges this module's global ``binary_search`` (see
    ``verify_sweep``).

    The enumeration is streamed, never held as a list. ``_pool_workers``
    picks the worker count N from the usable CPUs, the space's estimated
    work, fork support and the caller's live threads; nothing overrides
    it. ``_forked_sweep`` runs W = max(N, 1) shares: W - 1 forked children
    and this process each sweep every W-th group, so 0 or 1 sweeps in
    this process and forks nothing. The merge adds the counts and keeps
    each property's earliest counterexample, so the report is identical
    for every worker count except ``wall_time_ms``. A pipe or fork the
    system refuses moves every share not yet forked into this process, so
    it costs speed, not the verdict (see ``_forked_sweep``).

    Every input is validated before any property is checked: first the
    grid, by ``complexity.check_grid``, then the space against each cap.
    Only then does P9's chain run, and after it the sweep, so a
    PreconditionError comes before any work and any fork.

    Raises WorkerError when a forked worker dies before it reports, or
    when the merged sweep checked fewer or more instances than the space
    holds: a partial sweep's counts vouch for nothing.
    """
    started = time.perf_counter()
    complexity.check_grid(grid)
    # C(max_len+alphabet, max_len) > max(max_len, alphabet), so a space
    # this floor rejects is never counted: its binomial could take minutes
    # to form, and have too many digits to print
    floor = space.keys_per_sequence * (max(space.max_len, space.alphabet) + 1)
    if floor > MAX_INSTANCES:
        raise PreconditionError(f"at least {floor} instances exceed the cap {MAX_INSTANCES}")
    if space.instances > MAX_INSTANCES:
        # the floor keeps the count under ~2000 digits, within int -> str's limit
        digits = len(str(space.instances))
        raise PreconditionError(
            f"a {digits}-digit number of instances exceeds the cap {MAX_INSTANCES}"
        )
    if space.key_elements > MAX_ELEMENTS:
        raise PreconditionError(
            f"keys x sequence elements = {space.key_elements} exceed the cap {MAX_ELEMENTS}"
        )
    chain = complexity.derive_log_witness(grid)  # P9
    sweep = _forked_sweep(space, max(_pool_workers(space), 1))
    if sweep["instances"] != space.instances:
        raise WorkerError(
            f"the sweep checked {sweep['instances']} of the space's "
            f"{space.instances} instances; no verdict"
        )

    results = []
    for pid in INSTANCE_PROPS:
        bad = sweep["violations"][pid]
        results.append(
            PropertyResult(pid, PROPERTY_NAMES[pid], bad == 0, bad, sweep["first"][pid])
        )

    mono, odd = intmath.scan_monotonic(grid), intmath.scan_oracle_equivalence(grid)
    found = []  # (n, detail, why): why names a raise at the reported n
    if mono:
        found.append((mono, f"ilog2({mono}) > ilog2({mono + 1})",
                      intmath.MONOTONIC.raised_at(mono)))
    if odd:
        found.append((odd, f"ilog2({odd}) != ilog2_oracle({odd})",
                      intmath.raised("ilog2", intmath.ilog2, odd)
                      or intmath.raised("ilog2_oracle", intmath.ilog2_oracle, odd)))
    p8 = [{"n": n, "detail": f"{detail}: {why}" if why else detail}
          for n, detail, why in sorted(found, key=lambda f: f[:2])]
    results.append(PropertyResult("P8", PROPERTY_NAMES["P8"], not p8, len(p8), p8[0] if p8 else None))
    p9 = chain.failure()
    results.append(PropertyResult("P9", PROPERTY_NAMES["P9"], not p9, int(bool(p9)), p9))

    elapsed_ms = int((time.perf_counter() - started) * 1000)
    return CheckReport(
        instances_checked=sweep["instances"],
        properties=tuple(results),
        grid_bounds={
            "max_len": space.max_len,
            "alphabet": space.alphabet,
            "key_lo": space.key_lo,
            "key_hi": space.key_hi,
            "grid": grid,
        },
        wall_time_ms=elapsed_ms,
        max_tbs_gap=sweep["max_tbs_gap"],
        complete_to=space.complete_to,
    )

