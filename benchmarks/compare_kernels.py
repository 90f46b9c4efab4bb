#!/usr/bin/env python3
"""Race the compiled kernel against the pure-Python fallback.

Runs every backend kernel (the adversarial profiles and the instance
sweep) on both backends, checks the results agree bit-for-bit, and
prints a timing table. Exits nonzero if any results diverge; if the
compiled kernel is not built, only the Python column is filled. Grid
claims are not backend kernels: intmath checks them by dyadic blocks
on every backend alike.

Usage: python benchmarks/compare_kernels.py [--profile-n N]
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from olog import kernels  # noqa: E402
from olog.checker import InstanceSpace, nondecreasing_sequences  # noqa: E402


def _time(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def _strip_details(sweep):
    firsts = {
        k: None if v is None else (tuple(v["q"]), v["key"])
        for k, v in sweep["first"].items()
    }
    return (sweep["instances"], sweep["violations"], firsts, sweep["max_tbs_gap"])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--profile-n", type=int, default=2**20, dest="profile_n")
    args = parser.parse_args()

    backends = kernels.backends()
    if "compiled" not in backends:
        print("compiled kernel not built; showing python timings only", file=sys.stderr)

    space = InstanceSpace()
    seqs = [
        items
        for length in range(space.max_len + 1)
        for items in nondecreasing_sequences(length, space.alphabet)
    ]
    cases = [
        (f"binary_max_steps({args.profile_n})", "binary_max_steps", (args.profile_n,), None),
        ("linear_max_steps(16384)", "linear_max_steps", (16384,), None),
        (
            f"verify_sweep({len(seqs)} seqs x {space.keys_per_sequence} keys)",
            "verify_sweep",
            (seqs, space.key_lo, space.key_hi),
            _strip_details,
        ),
    ]

    width = max(len(label) for label, *_ in cases)
    header = f"{'kernel':<{width}}  {'python':>10}  {'compiled':>10}  {'speedup':>8}"
    print(header)
    print("-" * len(header))
    diverged = False
    for label, name, call_args, normalize in cases:
        py_result, py_time = _time(getattr(backends["python"], name), *call_args)
        if "compiled" in backends:
            c_result, c_time = _time(getattr(backends["compiled"], name), *call_args)
            lhs = normalize(py_result) if normalize else py_result
            rhs = normalize(c_result) if normalize else c_result
            if lhs != rhs:
                diverged = True
                print(f"{label:<{width}}  RESULTS DIVERGE: python={lhs!r} compiled={rhs!r}")
                continue
            speedup = py_time / c_time if c_time > 0 else float("inf")
            print(
                f"{label:<{width}}  {py_time:>9.4f}s  {c_time:>9.4f}s  {speedup:>7.1f}x"
            )
        else:
            print(f"{label:<{width}}  {py_time:>9.4f}s  {'-':>10}  {'-':>8}")

    if diverged:
        print("FAIL: backends disagree", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
