"""Traced run: time olog's layers in-process, from the benchmark's side.

Run as a child process with ``PYTHONPATH=src``::

    python perfbench/tracer.py --workload sweep-wide --seed 1 --seconds 10 \\
        --spans .perfbench_out/spans-sweep-wide.tsv.gz

It wraps the public functions of olog's modules (every module global
that refers to them, so ``from x import f`` call sites are caught too),
drives ``olog.cli.main`` through the workload's call list, and checks
every verdict with the same oracles as the subprocess run. Passes
alternate untraced and traced; the difference of their median wall
times is the tracing overhead. olog's own source is not touched.

Spans are kept in memory as parallel arrays (name, parent, start, end),
self times are computed from them after each pass, and the last traced
pass's spans are written out at the end. The last line of stdout is one
JSON object with the per-layer metrics and the checks.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gzip
import io
import json
import statistics
import sys
import time
import traceback
from array import array
from collections import Counter, defaultdict

import oracles
import workloads

STEPS = range(1, 6)


class Tracer:
    """Span recorder. The name table lasts for the whole run; ``reset``
    starts a pass with empty span arrays (parent -1 marks a root)."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def __len__(self) -> int:
        return len(self.start)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name, fn, count=None):
        """Wrap ``fn`` in a span. ``name`` is a string or a function of the
        call's arguments; ``count(counts, args, result)`` records work done."""
        fixed = self.name_id(name) if isinstance(name, str) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(fixed if fixed is not None else self.name_id(name(*args)))
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if count is not None:
                count(self.counts, args, result)
            return result

        return wrapper

    def wrap_generator(self, name, fn, count_name):
        """Wrap a generator function: one span per item produced."""
        nid = self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                idx = self.open(nid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self.close(idx)
                self.counts[count_name] += 1
                yield item

        return wrapper


def _add(key, amount):
    def count(counts, args, result):
        counts[key] += amount(args, result)
    return count


def _count_search(counts, args, result):
    counts["algorithms.binary_search.calls"] += 1
    counts["algorithms.iterations"] += result.t


def layer_wrappers(tracer: Tracer, olog):
    """(module, attribute, wrapper) for every traced public function."""
    algorithms, checker, complexity = olog.algorithms, olog.checker, olog.complexity
    costmodel, estimator, kernels = olog.costmodel, olog.estimator, olog.kernels
    def step_name(step, n_lo, n_hi):
        return f"kernels.calc_step_scan.step{step}"

    def count_step(counts, args, result):
        step, n_lo, n_hi = args
        counts[f"kernels.calc_step_scan.step{step}.points"] += n_hi - n_lo + 1

    table = [
        (checker, "verify_all", "checker.verify_all", None),
        (kernels, "verify_sweep", "kernels.verify_sweep",
         _add("kernels.verify_sweep.instances", lambda a, r: r["instances"])),
        (algorithms, "binary_search", "algorithms.binary_search", _count_search),
        (costmodel, "tbs_table", "costmodel.tbs_table",
         _add("costmodel.tbs_table.cells", lambda a, r: len(a[0]) * (len(a[0]) + 1) // 2)),
        (algorithms, "linear_search_oracle", "algorithms.linear_search_oracle", None),
        (algorithms, "check_binary_posts", "algorithms.check_binary_posts", None),
        (kernels, "ilog2_scan_monotonic", "kernels.ilog2_scan_monotonic",
         _add("kernels.ilog2_scan_monotonic.points", lambda a, r: a[0])),
        (complexity, "derive_log_witness", "complexity.derive_log_witness",
         _add("complexity.derive_log_witness.points", lambda a, r: oracles.chain_points(a[0]))),
        (kernels, "calc_step_scan", step_name, count_step),
        (kernels, "binary_max_steps", "kernels.binary_max_steps", None),
        (kernels, "linear_max_steps", "kernels.linear_max_steps", None),
        (estimator, "fit_class", "estimator.fit_class", None),
    ]
    wrapped = [(m, attr, tracer.wrap(name, getattr(m, attr), count))
               for m, attr, name, count in table]
    wrapped.append((checker, "nondecreasing_sequences",
                    tracer.wrap_generator("checker.enumerate", checker.nondecreasing_sequences,
                                          "checker.sequences")))
    return wrapped


class Patch:
    """Swaps each traced function for its wrapper in every olog module
    global that refers to it, and back."""

    def __init__(self, wrapped):
        self.swaps = []
        olog_modules = [m for name, m in sys.modules.items()
                        if name == "olog" or name.startswith("olog.")]
        for module, attr, wrapper in wrapped:
            original = getattr(module, attr)
            for m in olog_modules:
                for key, value in vars(m).items():
                    if value is original:
                        self.swaps.append((m, key, original, wrapper))

    def __enter__(self):
        for m, key, _, wrapper in self.swaps:
            setattr(m, key, wrapper)

    def __exit__(self, *exc):
        for m, key, original, _ in self.swaps:
            setattr(m, key, original)


def run_call(main, call):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(call["argv"])
        except Exception:  # a crash is a failed verdict, not a benchmark error
            rc = None
            err.write(traceback.format_exc())
    return oracles.check(call, rc, out.getvalue(), err.getvalue())


def analyse(spans: Tracer) -> tuple[dict, dict, list[str]]:
    """Self and inclusive time per span name, and the accounting problems:
    each child must lie inside its parent, and the self times of each
    root's subtree must add up to the root's wall time."""
    n = len(spans.start)
    child = [0.0] * n
    root = [0] * n
    problems = []
    for i in range(n):
        p = spans.parent[i]
        dur = spans.end[i] - spans.start[i]
        if p < 0:
            root[i] = i
            continue
        root[i] = root[p]
        child[p] += dur
        if not spans.start[p] <= spans.start[i] <= spans.end[i] <= spans.end[p]:
            problems.append(f"span {i} lies outside its parent {p}")
    self_by_name: dict = defaultdict(float)
    incl_by_name: dict = defaultdict(float)
    self_by_root: dict = defaultdict(float)
    for i in range(n):
        dur = spans.end[i] - spans.start[i]
        own = dur - child[i]
        name = spans.names[spans.name[i]]
        self_by_name[name] += own
        incl_by_name[name] += dur
        self_by_root[root[i]] += own
    for r, total in self_by_root.items():
        wall = spans.end[r] - spans.start[r]
        if abs(total - wall) > 1e-6:
            problems.append(f"self times of call span {r} sum to {total}, wall {wall}")
    return self_by_name, incl_by_name, problems


def pass_metrics(spans: Tracer) -> tuple[dict, list[str]]:
    own, incl, problems = analyse(spans)
    c = spans.counts
    m = {
        "checker.enumerate_s": own["checker.enumerate"],
        "checker.sequences": c["checker.sequences"],
        "checker.verify_all.self_s": own["checker.verify_all"],
        "kernels.verify_sweep_s": own["kernels.verify_sweep"],
        "kernels.verify_sweep.us_per_instance":
            1e6 * incl["kernels.verify_sweep"] / max(c["kernels.verify_sweep.instances"], 1),
        "algorithms.binary_search_s": own["algorithms.binary_search"],
        "algorithms.binary_search.calls": c["algorithms.binary_search.calls"],
        "algorithms.iterations": c["algorithms.iterations"],
        "costmodel.tbs_table_s": own["costmodel.tbs_table"],
        "costmodel.tbs_table.cells": c["costmodel.tbs_table.cells"],
        "algorithms.linear_search_oracle_s": own["algorithms.linear_search_oracle"],
        "algorithms.check_binary_posts_s": own["algorithms.check_binary_posts"],
        "kernels.ilog2_scan_monotonic_s": own["kernels.ilog2_scan_monotonic"],
        "kernels.ilog2_scan_monotonic.points": c["kernels.ilog2_scan_monotonic.points"],
        "complexity.derive_log_witness_s": own["complexity.derive_log_witness"],
        "complexity.derive_log_witness.points": c["complexity.derive_log_witness.points"],
    }
    for step in STEPS:
        m[f"kernels.calc_step_scan.step{step}_s"] = own[f"kernels.calc_step_scan.step{step}"]
        m[f"kernels.calc_step_scan.step{step}.points"] = c[f"kernels.calc_step_scan.step{step}.points"]
    m["kernels.binary_max_steps_s"] = own["kernels.binary_max_steps"]
    m["kernels.linear_max_steps_s"] = own["kernels.linear_max_steps"]
    m["estimator.fit_class_s"] = own["estimator.fit_class"]
    m["cli.main.self_s"] = own["cli.main"]
    m["cli.main.wall_s"] = incl["cli.main"]
    return m, problems


GROUPS = {
    "sweep": ("kernels.verify_sweep_s", "algorithms.binary_search_s", "costmodel.tbs_table_s",
              "algorithms.linear_search_oracle_s", "algorithms.check_binary_posts_s"),
    "scans": ("kernels.ilog2_scan_monotonic_s", "complexity.derive_log_witness_s")
             + tuple(f"kernels.calc_step_scan.step{s}_s" for s in STEPS),
    "profile": ("kernels.binary_max_steps_s", "kernels.linear_max_steps_s",
                "estimator.fit_class_s"),
    "enumerate": ("checker.enumerate_s",),
    "cli": ("cli.main.self_s", "checker.verify_all.self_s"),
}


def _kernel_args(kernels, record):
    """Wrappers that keep each kernel call's arguments, for the parity check."""
    names = ("ilog2_scan_monotonic", "calc_step_scan", "binary_max_steps",
             "linear_max_steps", "verify_sweep")

    def keep(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record.append((name, args))
            return fn(*args, **kwargs)
        return wrapper

    return [(kernels, name, keep(name, getattr(kernels, name))) for name in names]


def _comparable(name, result):
    if name != "verify_sweep":
        return int(result)
    firsts = {k: None if v is None else (tuple(v["q"]), v["key"])
              for k, v in result["first"].items()}
    return (result["instances"], result["violations"], firsts, result["max_tbs_gap"])


def backend_parity(backends: dict, record) -> list[str]:
    """Re-run each recorded kernel call on every backend; results must be equal."""
    problems = []
    for name, args in record:
        if name == "verify_sweep":
            args = args[:3]
        results = {b: _comparable(name, getattr(mod, name)(*args)) for b, mod in backends.items()}
        if len(set(map(repr, results.values()))) > 1:
            problems.append(f"{name}{args[1:] if name == 'verify_sweep' else args}: {results}")
    return problems


def write_spans(path, spans: Tracer, origin: float) -> None:
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write("id\tname\tparent\tstart_s\tend_s\n")
        for i in range(len(spans.start)):
            fh.write(f"{i}\t{spans.names[spans.name[i]]}\t{spans.parent[i]}\t"
                     f"{spans.start[i] - origin:.9f}\t{spans.end[i] - origin:.9f}\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spans", required=True, help="where to write the last traced pass")
    args = parser.parse_args()

    import olog
    from olog import cli, kernels

    calls = workloads.calls_for(args.workload, args.seed)
    tracer = Tracer()
    main_traced = tracer.wrap("cli.main", cli.main)
    patch = Patch(layer_wrappers(tracer, olog))

    attempted = failed = 0
    problems: list[str] = []
    untraced_walls, traced_walls, per_pass = [], [], []

    def run_pass(main):
        nonlocal attempted, failed
        started = time.perf_counter()
        for call in calls:
            attempted += 1
            found = run_call(main, call)
            if found:
                failed += 1
                problems.extend(f"{call['argv'][0]}: {p}" for p in found)
        return started, time.perf_counter() - started

    deadline = time.perf_counter() + args.seconds
    run_pass(cli.main)  # warm-up, so neither side of the first pair pays first-call costs
    while True:
        untraced_walls.append(run_pass(cli.main)[1])
        tracer.reset()
        with patch:
            origin, wall = run_pass(main_traced)
        traced_walls.append(wall)
        metrics, accounting = pass_metrics(tracer)
        problems.extend(accounting)
        per_pass.append(metrics)
        if time.perf_counter() >= deadline:
            break
    write_spans(args.spans, tracer, origin)

    backends = kernels.backends()
    parity = "skipped: one backend"
    if len(backends) > 1:
        record: list = []
        with Patch(_kernel_args(kernels, record)):
            for call in calls:
                run_call(cli.main, call)
        mismatches = backend_parity(backends, record)
        problems.extend(mismatches)
        parity = "mismatch" if mismatches else f"equal on {len(record)} kernel calls"

    layers = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    layers["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced_walls)
    groups = {g: sum(layers[k] for k in keys) for g, keys in GROUPS.items()}
    print(json.dumps({
        "layers": layers,
        "groups_s": groups,
        "untraced_pass_s": untraced_walls,
        "traced_pass_s": traced_walls,
        "spans_last_pass": len(tracer),
        "backend": kernels.BACKEND,
        "parity": parity,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
