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
* P7 witness_bound: for len(q) >= 2, t <= 6*ilog2(len(q)).
* P8 ilog2_monotonic: adjacent-pair monotonicity up to the grid bound,
  and agreement with ``ilog2_oracle`` at both ends of every dyadic block.
* P9 calc_chain: the witness derivation re-checks on the same grid.

P8 and P9 are checked by dyadic blocks (see ``intmath.first_failure``),
which decides every grid point.

Counterexamples are minimal by construction: enumeration goes shortest
sequence first, then lexicographic, then ascending key, and the first
failure per property is the one reported.
"""

from __future__ import annotations

import functools
import math
import os
import time
from typing import Callable, Iterator, NamedTuple, Optional

from olog import complexity, intmath, kernels
from olog.algorithms import SortedSeq
from olog.errors import CalcChainError, PreconditionError
from olog.intmath import MAX_GRID, validated_make

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

# The sequential sweep checks 85k-270k instances/s, and two workers
# 140k-425k/s (2 CPUs, Python 3.11.7, a shared host; the low end at
# max-len 26, the high end at max-len 1), so a space at the instance cap
# runs for about half a minute to two minutes.
MAX_INSTANCES = 10**7
# Each key still scans its sequence a few times at C speed (the span the
# search's loop-head invariant reads, P1's absence test) and each sequence
# is scanned in Python (its sortedness check, P2's first_indices), so the
# work grows with keys x total sequence length, which the instance count
# does not bound (alphabet 1 holds one sequence per length). max-len 4000
# at alphabet 1, 2.4e7 of these, takes 1.5-1.8 s sequential and 1.2-1.3 s
# on two workers (same machine), and the cap sits at about four times
# that. The sequences are streamed, so memory does not grow with them:
# that space peaks at 15-19 MB RSS, the default at 15-17 MB.
MAX_ELEMENTS = 10**8
# The sweep's cost is estimated in units of one key x (length + SEQ_WORK):
# a key's search, oracle and checks cost 0.4-0.8 us x (length + 8) up to
# length 26, and 0.06-0.08 us x length at length 4000 (same machine), so
# the estimate weighs long sequences several times above their cost.
SEQ_WORK = 8
# Forking two workers and joining them costs 5-20 ms. Against the
# sequential sweep the pool broke even at about 4.5e4 units (3.7k
# instances, 25-35 ms) and was 1.2-1.3x faster at 1e5 (the (6, 6) space,
# 7.4k instances, 60 ms); below POOL_MIN_WORK the sweep stays in process.
POOL_MIN_WORK = 10**5
# A forced OLOG_WORKERS count above this exits 2 instead of asking for
# that many processes. Two workers on 2 CPUs is the most measured to pay,
# and a pool larger than the usable CPUs only adds start-up; the ceiling
# sits far above both without letting a typo start 10^5 processes.
MAX_WORKERS = 256
# Chunks are contiguous runs of the enumeration, CHUNKS_PER_WORKER per
# worker so the last one leaves little idle time, and at most CHUNK_WORK
# units (50-180 ms, at most ~9e4 sequence elements) so the sequences in
# flight stay a bounded few MB whatever the space's size.
CHUNKS_PER_WORKER = 8
CHUNK_WORK = 2**18


class _InstanceSpaceFields(NamedTuple):
    max_len: int
    alphabet: int


class InstanceSpace(_InstanceSpaceFields):
    """The instances the sweep checks: sequences of length 0..max_len over
    [0, alphabet-1], each with every key in [-1, alphabet]."""

    __slots__ = ()
    _make = classmethod(validated_make)

    def __new__(cls, max_len: int = 8, alphabet: int = 6):
        if max_len < 1:
            raise PreconditionError(f"max_len must be >= 1, got {max_len}")
        if alphabet < 1:
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
    def elements(self) -> int:
        """Total length of all sequences: alphabet * C(max_len+alphabet, alphabet+1).

        Length L contributes L*C(L+alphabet-1, L) = alphabet*C(L+alphabet-1, alphabet)
        elements, and those sum over L <= max_len to the closed form."""
        return self.alphabet * math.comb(self.max_len + self.alphabet, self.alphabet + 1)

    @property
    def key_elements(self) -> int:
        """Keys times total sequence length: each key's search scans its sequence."""
        return self.keys_per_sequence * self.elements

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
    if length == 0:
        yield ()
        return
    seq = [0] * length
    top = alphabet - 1
    while True:
        yield tuple(seq)
        i = length - 1
        while i >= 0 and seq[i] == top:
            i -= 1
        if i < 0:
            return
        bumped = seq[i] + 1
        for j in range(i, length):
            seq[j] = bumped


def enumerate_instances(space: InstanceSpace) -> Iterator[tuple[SortedSeq, int]]:
    """Every (sorted sequence, key) pair of the space, deterministically:
    shortest sequences first, lexicographic within a length, keys ascending."""
    for items, key_lo, key_hi in space.groups():
        seq = SortedSeq(items)
        for key in range(key_lo, key_hi + 1):
            yield seq, key


class PropertyResult(NamedTuple):
    id: str
    name: str
    passed: bool
    violations: int
    counterexample: Optional[dict] = None

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "passed": self.passed,
            "violations": self.violations,
            "counterexample": self.counterexample,
        }


class CheckReport(NamedTuple):
    instances_checked: int
    properties: tuple[PropertyResult, ...]
    grid_bounds: dict
    wall_time_ms: int
    max_tbs_gap: int
    backend: str
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
        return min(
            candidates, key=lambda c: (len(c["q"]), tuple(c["q"]), c["key"])
        )

    def to_dict(self) -> dict:
        return {
            "instances_checked": self.instances_checked,
            "complete_to": self.complete_to,
            "all_passed": self.all_passed,
            "properties": [p.to_dict() for p in self.properties],
            "grid_bounds": self.grid_bounds,
            "max_tbs_gap": self.max_tbs_gap,
            "minimal_counterexample": self.minimal_counterexample(),
            "wall_time_ms": self.wall_time_ms,
            "backend": self.backend,
        }


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def _picklable(fn) -> bool:
    import pickle

    try:
        pickle.dumps(fn)
    except (pickle.PicklingError, AttributeError, TypeError):
        return False
    return True


def _sweep_work(space: InstanceSpace) -> int:
    """Estimated sweep cost in units of one key times (length + SEQ_WORK)."""
    return space.key_elements + SEQ_WORK * space.instances


def _pool_workers(space: InstanceSpace, search_fn: Optional[Callable] = None) -> int:
    """Worker processes for the sweep; 0 runs it in this process.

    ``OLOG_WORKERS`` forces the count when set (0 is sequential, at
    most MAX_WORKERS).
    Otherwise every usable CPU is used once the space's estimated work
    pays for starting a pool. Either way a ``search_fn`` that cannot be
    pickled runs in process, which gives the same report.
    """
    raw = os.environ.get("OLOG_WORKERS")
    if raw is not None:
        try:
            workers = int(raw)
        except ValueError:
            raise PreconditionError(f"OLOG_WORKERS must be an integer, got {raw!r}")
        if not 0 <= workers <= MAX_WORKERS:
            raise PreconditionError(f"OLOG_WORKERS must be in [0, {MAX_WORKERS}], got {workers}")
    else:
        cpus = _usable_cpus()
        workers = cpus if cpus >= 2 and _sweep_work(space) >= POOL_MIN_WORK else 0
    if workers and search_fn is not None and not _picklable(search_fn):
        return 0
    return workers


def _chunks(space: InstanceSpace, pieces: int) -> Iterator[list[tuple]]:
    """The space's groups cut into contiguous lists of about equal estimated
    work, ``pieces`` of them, each at most CHUNK_WORK."""
    target = min(-(-_sweep_work(space) // pieces), CHUNK_WORK)
    chunk, work = [], 0
    for items, key_lo, key_hi in space.groups():
        chunk.append((items, key_lo, key_hi))
        work += (key_hi - key_lo + 1) * (len(items) + SEQ_WORK)
        if work >= target:
            yield chunk
            chunk, work = [], 0
    if chunk:
        yield chunk


def _merge_sweeps(results) -> dict:
    merged = {
        "instances": 0,
        "violations": {p: 0 for p in kernels.INSTANCE_PROPS},
        "first": {p: None for p in kernels.INSTANCE_PROPS},
        "max_tbs_gap": 0,
    }
    for res in results:
        merged["instances"] += res["instances"]
        merged["max_tbs_gap"] = max(merged["max_tbs_gap"], res["max_tbs_gap"])
        for p in kernels.INSTANCE_PROPS:
            merged["violations"][p] += res["violations"][p]
            if merged["first"][p] is None and res["first"][p] is not None:
                merged["first"][p] = res["first"][p]
    return merged


def verify_all(
    space: InstanceSpace,
    grid: int,
    search_fn: Optional[Callable] = None,
    workers: Optional[int] = None,
) -> CheckReport:
    """Run the whole suite; failing properties become report entries,
    never exceptions.

    ``search_fn`` swaps in a different search implementation (the
    shipped broken variant, say) so the instrumentation can catch it
    in the act.

    The enumeration is streamed, never held as a list. ``workers`` = 0
    sweeps it in this process; ``workers`` > 0 cuts it into contiguous
    chunks of about equal estimated work and sweeps them on a process
    pool. The merge is an ordered reduction, so the report is identical
    for every worker count except ``wall_time_ms``. ``workers=None``
    takes ``OLOG_WORKERS`` when it is set, and otherwise uses every
    usable CPU once the space is big enough to pay for a pool.
    """
    if not 2 <= grid <= MAX_GRID:
        raise PreconditionError(
            f"grid must be in [2, 2**32] (2 is the witness threshold), got {grid}"
        )
    # C(max_len+alphabet, max_len) > max(max_len, alphabet), so a space
    # this floor rejects is never counted: its binomial could take minutes
    # to form, and have too many digits to print
    floor = space.keys_per_sequence * (max(space.max_len, space.alphabet) + 1)
    if floor > MAX_INSTANCES:
        raise PreconditionError(f"at least {floor} instances exceed the cap {MAX_INSTANCES}")
    if space.instances > MAX_INSTANCES:
        raise PreconditionError(f"{space.instances} instances exceed the cap {MAX_INSTANCES}")
    if space.key_elements > MAX_ELEMENTS:
        raise PreconditionError(
            f"keys x sequence elements = {space.key_elements} exceed the cap {MAX_ELEMENTS}"
        )
    if workers is None:
        workers = _pool_workers(space, search_fn)

    started = time.perf_counter()

    if workers > 0:
        import multiprocessing

        sweep_chunk = functools.partial(kernels.verify_sweep, search_fn=search_fn)
        with multiprocessing.Pool(workers) as pool:
            sweep = _merge_sweeps(
                pool.imap(sweep_chunk, _chunks(space, workers * CHUNKS_PER_WORKER))
            )
    else:
        sweep = kernels.verify_sweep(space.groups(), search_fn)

    results = []
    for pid in kernels.INSTANCE_PROPS:
        bad = sweep["violations"][pid]
        results.append(
            PropertyResult(pid, PROPERTY_NAMES[pid], bad == 0, bad, sweep["first"][pid])
        )

    mono, odd = intmath.scan_monotonic(grid), intmath.scan_oracle_equivalence(grid)
    p8 = [
        {"n": n, "detail": detail}
        for n, detail in sorted(
            [
                (mono, f"ilog2({mono}) > ilog2({mono + 1})"),
                (odd, f"ilog2({odd}) != ilog2_oracle({odd})"),
            ]
        )
        if n
    ]
    results.append(PropertyResult("P8", PROPERTY_NAMES["P8"], not p8, len(p8), p8[0] if p8 else None))
    try:
        complexity.derive_log_witness(grid)
        results.append(PropertyResult("P9", PROPERTY_NAMES["P9"], True, 0, None))
    except CalcChainError as err:
        results.append(
            PropertyResult(
                "P9",
                PROPERTY_NAMES["P9"],
                False,
                1,
                {"step": err.step_index, "n": err.n, "detail": str(err)},
            )
        )

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
        backend=kernels.BACKEND,
        complete_to=space.complete_to,
    )

