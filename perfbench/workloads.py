"""The benchmark's workloads: fixed lists of olog CLI calls.

Each call is a dict with the argv after ``python -m olog``, the oracle
that checks it (``check``) and the parameters that oracle needs. The
seed only orders the calls and, on ``interactive``, draws the searched
sequences and keys; olog sees nothing but the generated argv.

Why these four:

* ``sweep-wide``: many short instances, so per-instance cost in the
  sweep (``binary_search``, ``tbs_table``) dominates.
* ``sweep-long``: few long instances, so the O(L^2) subrange work in
  the sweep (P5 loop, ``tbs_table``) dominates.
* ``grid``: the P8 scan and the five P9 chain scans dominate; the sweep
  does almost nothing.
* ``interactive``: short ``bench`` and ``trace`` calls, so the process
  set-up that every call pays dominates.

Every workload also makes a few small calls into the layers it does not
stress (two small ``bench`` calls, or small ``verify`` calls), so each
traced layer runs at least once on every workload. Those calls cost
little beyond process set-up.

A pass takes a few seconds, so one run holds several passes and the
medians over them damp the run-to-run noise of a shared machine.
"""

from __future__ import annotations

import random

GRID = 2**20
TRACE_CALLS = 8
UNSORTED_CALLS = 1
TRACE_MAX_LEN = 4096
DEFAULT_BENCH_SIZES = {"binary": (16, 1048576, 4), "linear": (16, 16384, 4)}
SMALL_BENCH_SIZES = [1, 16, 256, 4096]
# (max_len, alphabet, grid) of the quick checks on ``interactive``.
SMALL_VERIFIES = [(1, 1, 16), (2, 2, 64), (2, 3, 256), (3, 2, 1024)]


def verify(max_len: int, alphabet: int, grid: int) -> dict:
    argv = ["verify", "--max-len", str(max_len), "--alphabet", str(alphabet),
            "--grid", str(grid), "--format", "json"]
    return {"argv": argv, "check": "verify",
            "params": {"max_len": max_len, "alphabet": alphabet, "grid": grid}}


def bound(grid: int) -> dict:
    return {"argv": ["bound", "--grid", str(grid), "--format", "json"], "check": "bound",
            "params": {"grid": grid}}


def _geometric(start: int, stop: int, factor: int) -> list[int]:
    sizes, n = [], start
    while n <= stop:
        sizes.append(n)
        n *= factor
    return sizes


def bench(algo: str, sizes: list[int] | None = None) -> dict:
    """``sizes=None`` runs the command's default size list."""
    argv = ["bench", "--algo", algo, "--format", "json"]
    if sizes is None:
        sizes = _geometric(*DEFAULT_BENCH_SIZES[algo])
    else:
        argv += ["--sizes", ",".join(map(str, sizes))]
    return {"argv": argv, "check": "bench", "params": {"algo": algo, "sizes": sizes}}


def trace(q: list[int], key: int, check: str = "trace") -> dict:
    argv = ["trace", "--q", ",".join(map(str, q)), "--key", str(key), "--format", "json"]
    return {"argv": argv, "check": check, "params": {"q": q, "key": key}}


def _sorted_sequence(rng: random.Random) -> list[int]:
    n = int(2 ** rng.uniform(0, TRACE_MAX_LEN.bit_length() - 1))
    return sorted(rng.randrange(4 * n) for _ in range(n))


def _interactive(rng: random.Random) -> list[dict]:
    calls = [bench("binary"), bench("linear")] + [verify(*v) for v in SMALL_VERIFIES]
    for i in range(TRACE_CALLS):
        q = _sorted_sequence(rng)
        if i % 2 == 0:
            key = rng.choice(q)
        else:
            present = set(q)
            key = rng.choice([k for k in range(-1, 4 * len(q) + 1) if k not in present])
        calls.append(trace(q, key))
    for _ in range(UNSORTED_CALLS):
        q = sorted(rng.sample(range(4 * TRACE_MAX_LEN), rng.randint(2, 64)), reverse=True)
        calls.append(trace(q, rng.choice(q), check="rejected"))
    return calls


def _small_benches() -> list[dict]:
    return [bench("binary", SMALL_BENCH_SIZES), bench("linear", SMALL_BENCH_SIZES)]


WORKLOADS = {
    "sweep-wide": lambda rng: [verify(5, 12, 2)] + _small_benches(),
    "sweep-long": lambda rng: [verify(26, 3, 2)] + _small_benches(),
    "grid": lambda rng: [bound(GRID), verify(1, 1, GRID)] + _small_benches(),
    "interactive": _interactive,
}


def calls_for(workload: str, seed: int) -> list[dict]:
    """The workload's call list for this seed, in the order one pass runs it."""
    rng = random.Random(seed)
    calls = WORKLOADS[workload](rng)
    rng.shuffle(calls)
    return calls
