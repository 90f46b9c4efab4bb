#!/usr/bin/env python3
"""olog benchmark: time to a checked verdict from the olog CLI.

Run from the root of a checkout of the repository::

    python3 perfbench/run.py --workload sweep-wide --seed 1 --seconds 20 --trace 0

Every call is a fresh ``python -m olog ...`` process with
``PYTHONPATH=src``, import included. One client drives the load as a
closed loop: one call at a time, each started when the previous one has
ended. Every call's verdict is checked against a known answer that does
not come from olog (see ``oracles.py``); a mismatch counts as failed.

``--trace 0`` measures the end-to-end metrics. It runs passes over the
workload's call list until ``--seconds`` have gone by, timing
``python -m olog --help`` (set-up, paid by every call) a few times
before each pass. It reports the median, over passes (over probes for
``setup_s``), of:

* ``wall_s``: wall time of one pass, the time to all of its verdicts;
* ``setup_s``: wall time of ``python -m olog --help``;
* ``peak_rss_mb``: largest ``ru_maxrss`` of any call in a pass;
* ``instances_per_s``: instances checked by ``verify`` per second of
  ``verify`` wall time, per pass;
* ``grid_points_per_s``: points covered by the P8 and P9 scans per
  second of wall time of the calls that run them, per pass.

``--trace 1`` measures the per-layer metrics: import times from
``-X importtime``, the workload's ``verify`` calls under
``OLOG_WORKERS=2``, and an in-process traced run (``tracer.py``) that
times each olog module's public functions.

The line before the last holds the details: each metric's median, its
highest percentile with at least ten samples beyond it, the sample
count, the environment, and the first problems found. The last line is
the result: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

import oracles
import workloads

OUT_DIR = Path(".perfbench_out")
BENCH_DIR = Path(__file__).resolve().parent
SETUP_PROBES_PER_PASS = 3
IMPORT_PROBES = 5
CALL_TIMEOUT_S = 120
PERCENTILES = (99.9, 99, 95, 90, 75, 50)

ENV_PROBE = (
    "import json, sys, numpy, olog.kernels as k; "
    "print(json.dumps({'python': sys.version.split()[0], 'numpy': numpy.__version__, "
    "'backend': k.BACKEND, 'backends': sorted(k.backends())}))"
)


class CallResult(NamedTuple):
    rc: int
    stdout: str
    stderr: str
    wall: float
    rss_mb: float


def child_env(**extra) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("OLOG_WORKERS", "OLOG_KERNEL")}
    env["PYTHONPATH"] = "src"
    env.update(extra)
    return env


def run_process(args: list[str], env: dict) -> CallResult:
    """Run one child to completion; its rusage comes from ``os.wait4``."""
    out_path, err_path = OUT_DIR / "stdout", OUT_DIR / "stderr"
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(args, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env)
        killer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return CallResult(proc.returncode, out.read().decode("utf-8", "replace"),
                          err.read().decode("utf-8", "replace"), wall, usage.ru_maxrss / 1024)


def run_olog(argv: list[str], env: dict) -> CallResult:
    return run_process([sys.executable, "-m", "olog", *argv], env)


class Tally:
    """Calls attempted and failed, with the first problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems[:2])

    def check(self, call: dict, res: CallResult) -> None:
        self.record(call["argv"][0], oracles.check(call, res.rc, res.stdout, res.stderr))


def summary(values: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n}
    for p in PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            out[f"p{p:g}"] = ordered[rank - 1]
            break
    return out


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts and path.suffix != ".so":
            h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(root: Path, env: dict, tally: Tally) -> dict:
    res = run_process([sys.executable, "-c", ENV_PROBE], env)
    tally.record("environment probe", [] if res.rc == 0 else [res.stderr.strip()[-200:]])
    found = json.loads(res.stdout) if res.rc == 0 else {}
    commit = None
    if (root / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
            commit = git.stdout.strip() or None
        except OSError:
            pass
    return {
        "nproc": os.cpu_count(),
        "python": found.get("python"),
        "numpy": found.get("numpy"),
        "backend": found.get("backend"),
        "backends": found.get("backends"),
        "git_commit": commit,
        "src_sha256": source_digest(root),
    }


def setup_times(env: dict, tally: Tally, probes: int) -> list[float]:
    """Wall times of ``python -m olog --help``."""
    walls = []
    for _ in range(probes):
        res = run_olog(["--help"], env)
        ok = res.rc == 0 and "usage: olog" in res.stdout
        tally.record("--help", [] if ok else [f"exit {res.rc}: {res.stderr.strip()[-200:]}"])
        walls.append(res.wall)
    return walls


def run_pass(calls: list[dict], env: dict, tally: Tally) -> dict:
    """One closed-loop pass over the call list."""
    started = time.perf_counter()
    results = []
    for call in calls:
        res = run_olog(call["argv"], env)
        tally.check(call, res)
        results.append((call, res))
    return {
        "wall_s": time.perf_counter() - started,
        "peak_rss_mb": max(r.rss_mb for _, r in results),
        "instances": sum(oracles.call_instances(c) for c in calls),
        "verify_s": sum(r.wall for c, r in results if c["check"] == "verify"),
        "points": sum(oracles.scan_points(c) for c in calls),
        "scan_s": sum(r.wall for c, r in results if oracles.scan_points(c)),
        "calls": [(c["argv"][0], r.wall) for c, r in results],
    }


def measure_end_to_end(calls, env, tally, seconds) -> tuple[dict, dict]:
    started = time.perf_counter()
    setup_times(env, tally, 1)  # warm-up: the first start reads cold files
    setup, passes = [], []
    while not passes or time.perf_counter() - started < seconds:
        # Set-up is probed before every pass, so it samples the same
        # stretch of time as the passes do.
        setup += setup_times(env, tally, SETUP_PROBES_PER_PASS)
        passes.append(run_pass(calls, env, tally))
    samples = {
        "wall_s": [p["wall_s"] for p in passes],
        "setup_s": setup,
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
        "instances_per_s": [p["instances"] / p["verify_s"] for p in passes],
        "grid_points_per_s": [p["points"] / p["scan_s"] for p in passes],
    }
    details = {name: summary(values) for name, values in samples.items()}
    by_command: dict = {}
    for p in passes:
        for command, wall in p["calls"]:
            by_command.setdefault(command, []).append(wall)
    details["call_s"] = {command: summary(walls) for command, walls in by_command.items()}
    return {name: d["median"] for name, d in details.items() if name in samples}, details


def import_times(env: dict, tally: Tally) -> dict:
    """``-X importtime`` of ``olog.cli``: numpy's cumulative time, and
    everything else the import of olog costs."""
    numpy_s, olog_s = [], []
    for _ in range(IMPORT_PROBES):
        res = run_process([sys.executable, "-X", "importtime", "-c", "import olog.cli"], env)
        tally.record("importtime", [] if res.rc == 0 else [res.stderr.strip()[-200:]])
        numpy_us = olog_us = 0
        for line in res.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = line.split("|")
            if not cumulative.strip().isdigit():
                continue
            stripped = name.strip()
            if stripped == "numpy" and not numpy_us:
                numpy_us = int(cumulative)
            top_level = not name.startswith("  ")
            if top_level and stripped.split(".")[0] == "olog":
                olog_us += int(cumulative)
        numpy_s.append(numpy_us / 1e6)
        olog_s.append((olog_us - numpy_us) / 1e6)
    return {"import.numpy_s": statistics.median(numpy_s),
            "import.olog_s": statistics.median(olog_s)}


def measure_layers(args, calls, env, tally) -> tuple[dict, dict]:
    started = time.perf_counter()
    setup = statistics.median(setup_times(env, tally, SETUP_PROBES_PER_PASS + 1)[1:])
    layers = import_times(env, tally)

    workers2 = 0.0
    for call in calls:
        if call["check"] == "verify":
            res = run_olog(call["argv"], child_env(OLOG_WORKERS="2"))
            tally.check(call, res)
            workers2 += res.wall
    layers["checker.verify_all.workers2_s"] = workers2

    spans_path = OUT_DIR / f"spans-{args.workload}.tsv.gz"
    remaining = max(args.seconds - (time.perf_counter() - started), 0.0)
    res = run_process(
        [sys.executable, str(BENCH_DIR / "tracer.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", f"{remaining:.3f}", "--spans", str(spans_path)],
        env,
    )
    if res.rc != 0:
        tally.record("traced run", [f"exit {res.rc}: {res.stderr.strip()[-400:]}"])
        return layers, {}
    traced = json.loads(res.stdout.strip().splitlines()[-1])
    tally.attempted += traced["attempted"]
    tally.failed += traced["failed"]
    tally.problems.extend(f"traced: {p}" for p in traced["problems"])
    layers.update(traced["layers"])

    # Where a pass's time goes: set-up once per call, the rest from the spans.
    pass_s = setup * len(calls) + traced["layers"]["cli.main.wall_s"]
    shares = {"setup": setup * len(calls) / pass_s}
    shares.update({g: t / pass_s for g, t in traced["groups_s"].items()})
    details = {
        "dominant": max(shares, key=shares.get),
        "shares": shares,
        "setup_s": setup,
        "untraced_pass_s": traced["untraced_pass_s"],
        "traced_pass_s": traced["traced_pass_s"],
        "spans_file": str(spans_path),
        "spans_last_pass": traced["spans_last_pass"],
        "parity": traced["parity"],
    }
    return layers, details


def load_spec() -> dict:
    return json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "olog" / "__main__.py").is_file():
        print("error: src/olog not found; run from the root of an olog checkout",
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    spec = load_spec()
    env = child_env()
    tally = Tally()
    calls = workloads.calls_for(args.workload, args.seed)
    info = environment(root, env, tally)

    if args.trace:
        values, details = measure_layers(args, calls, env, tally)
        wanted = spec["per_layer"]
    else:
        values, details = measure_end_to_end(calls, env, tally, args.seconds)
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        tally.problems.append(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}

    print(json.dumps({"report": {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "calls_per_pass": len(calls),
        "fail_ratio": tally.failed / max(tally.attempted, 1),
        "environment": info,
        "details": details,
        "problems": tally.problems[:20],
    }}))
    print(json.dumps({
        "correct": tally.failed == 0 and not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
