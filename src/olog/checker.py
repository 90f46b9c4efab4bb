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
  executed iterations and the range width strictly decreases.
* P4 tbs_dominates: per-head, the counter stays under the
  transition-cost difference; end to end, t <= tbs(q, 0, len(q), key).
* P5 tbs_log_bound: every nonempty subrange's transition cost obeys
  2*ilog2(width) + 1.
* P6 step_budget: t <= 2*ilog2(len(q)+1) + 1.
* P7 witness_bound: for len(q) >= 2, t <= 6*ilog2(len(q)).
* P8 ilog2_monotonic: adjacent-pair monotonicity up to the grid bound.
* P9 calc_chain: the witness derivation re-checks on the same grid.

P8 and P9 are checked by dyadic blocks (see ``intmath.first_failure``),
which decides every grid point.

Counterexamples are minimal by construction: enumeration goes shortest
sequence first, then lexicographic, then ascending key, and the first
failure per property is the one reported.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from olog import complexity, intmath, kernels
from olog.algorithms import SortedSeq
from olog.errors import CalcChainError, PreconditionError
from olog.intmath import MAX_GRID

PROPERTY_NAMES = {
    "P1": "binary_posts",
    "P2": "oracle_agreement",
    "P3": "counter_exact_terminating",
    "P4": "tbs_dominates",
    "P5": "tbs_log_bound",
    "P6": "step_budget",
    "P7": "witness_bound",
    "P8": "ilog2_monotonic",
    "P9": "calc_chain",
}
_INSTANCE_PROPS = ("P1", "P2", "P3", "P4", "P5", "P6", "P7")


@dataclass(frozen=True)
class InstanceSpace:
    """Enumeration bounds: sequences of length 0..max_len over [0, alphabet-1],
    keys in [-1, alphabet]."""

    max_len: int = 8
    alphabet: int = 6

    def __post_init__(self):
        if self.max_len < 1:
            raise PreconditionError(f"max_len must be >= 1, got {self.max_len}")
        if self.alphabet < 1:
            raise PreconditionError(f"alphabet must be >= 1, got {self.alphabet}")

    @property
    def key_lo(self) -> int:
        return -1

    @property
    def key_hi(self) -> int:
        return self.alphabet

    @property
    def keys_per_sequence(self) -> int:
        return self.key_hi - self.key_lo + 1


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
    for length in range(space.max_len + 1):
        for items in nondecreasing_sequences(length, space.alphabet):
            seq = SortedSeq(items)
            for key in range(space.key_lo, space.key_hi + 1):
                yield seq, key


@dataclass(frozen=True)
class PropertyResult:
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


@dataclass(frozen=True)
class CheckReport:
    instances_checked: int
    properties: tuple[PropertyResult, ...]
    grid_bounds: dict
    wall_time_ms: int
    max_tbs_gap: int
    backend: str

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
            "all_passed": self.all_passed,
            "properties": [p.to_dict() for p in self.properties],
            "grid_bounds": self.grid_bounds,
            "max_tbs_gap": self.max_tbs_gap,
            "minimal_counterexample": self.minimal_counterexample(),
            "wall_time_ms": self.wall_time_ms,
            "backend": self.backend,
        }


def _workers_from_env() -> int:
    raw = os.environ.get("OLOG_WORKERS", "0")
    try:
        workers = int(raw)
    except ValueError:
        raise PreconditionError(f"OLOG_WORKERS must be an integer, got {raw!r}")
    if workers < 0:
        raise PreconditionError(f"OLOG_WORKERS must be >= 0, got {workers}")
    return workers


def _sweep_task(args):
    seqs, key_lo, key_hi, search_fn = args
    return kernels.verify_sweep(seqs, key_lo, key_hi, search_fn)


def _merge_sweeps(results) -> dict:
    merged = {
        "instances": 0,
        "violations": {p: 0 for p in _INSTANCE_PROPS},
        "first": {p: None for p in _INSTANCE_PROPS},
        "max_tbs_gap": 0,
    }
    for res in results:
        merged["instances"] += res["instances"]
        merged["max_tbs_gap"] = max(merged["max_tbs_gap"], res["max_tbs_gap"])
        for p in _INSTANCE_PROPS:
            merged["violations"][p] += res["violations"][p]
            if merged["first"][p] is None and res["first"][p] is not None:
                merged["first"][p] = res["first"][p]
    return merged


def _chunked(items: list, pieces: int) -> list[list]:
    size = max(1, (len(items) + pieces - 1) // pieces)
    return [items[i : i + size] for i in range(0, len(items), size)]


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
    in the act. ``workers`` > 0 fans sequence chunks out to a process
    pool; the merge is an ordered reduction, so the report is identical
    to a sequential run.
    """
    if not 2 <= grid <= MAX_GRID:
        raise PreconditionError(
            f"grid must be in [2, 2**32] (2 is the witness threshold), got {grid}"
        )
    if workers is None:
        workers = _workers_from_env()

    started = time.perf_counter()

    seqs = [
        items
        for length in range(space.max_len + 1)
        for items in nondecreasing_sequences(length, space.alphabet)
    ]
    tasks = [
        (chunk, space.key_lo, space.key_hi, search_fn)
        for chunk in (_chunked(seqs, workers * 4) if workers > 0 else [seqs])
    ]
    if workers > 0 and len(tasks) > 1:
        with multiprocessing.Pool(workers) as pool:
            sweep = _merge_sweeps(pool.map(_sweep_task, tasks))
    else:
        sweep = _merge_sweeps(map(_sweep_task, tasks))

    results = []
    for pid in _INSTANCE_PROPS:
        bad = sweep["violations"][pid]
        results.append(
            PropertyResult(pid, PROPERTY_NAMES[pid], bad == 0, bad, sweep["first"][pid])
        )

    mono_fail = intmath.scan_monotonic(grid)
    results.append(
        PropertyResult(
            "P8",
            PROPERTY_NAMES["P8"],
            mono_fail == 0,
            0 if mono_fail == 0 else 1,
            None
            if mono_fail == 0
            else {"n": mono_fail, "detail": f"ilog2({mono_fail}) > ilog2({mono_fail + 1})"},
        )
    )
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
    )

