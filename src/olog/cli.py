"""Command-line front end.

Four workflows: ``verify`` (exhaustive property suite), ``bound``
(witness derivation with the re-checked inequality chain), ``bench``
(adversarial step counts plus growth classification) and ``trace``
(per-iteration view of a single search).

Exit codes: 0 success, 1 a checked property/bound failed, 2 bad
configuration or input, a sweep with no verdict (a worker that died, or
shares that missed part of the space), or output that could not be
written. A fault in package code (an ``ilog2`` that raises, say) is a
failing property, so 1, never 2.

Each command imports the modules it runs inside its ``_cmd_*``
function, by dotted name so that ``-X importtime`` times each, and
``json`` only where it writes JSON: a call pays for those alone.
Each report format has one writer: ``_json``, ``_csv``, and ``_columns``
for the text tables.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import os
import stat
import sys

from olog.errors import PreconditionError, WorkerError

DEFAULT_GRID = 2**20
DEFAULT_SIZES = {"binary_search": "16:1048576:x4", "linear_oracle": "16:16384:x4"}
_ALGO_FLAG = {"binary": "binary_search", "linear": "linear_oracle"}


def _fail_config(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _write(out, to_file: bool, text: str) -> str | None:
    """Write and flush the report; the error, if it cannot be written."""
    try:
        if to_file and stat.S_ISREG(os.fstat(out.fileno()).st_mode):
            out.truncate(0)
        out.write(text)
        out.flush()
    except OSError as err:
        if not to_file:  # so no later write, at exit included, fails again (Python docs, SIGPIPE)
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return f"cannot write output: {err}"


def _json(payload, indent=2) -> str:
    """A JSON report: ``payload`` and a newline; ``indent=None`` writes
    one JSON Lines record. The only place ``json`` is imported."""
    import json

    return json.dumps(payload, indent=indent) + "\n"


def _csv(header, rows) -> str:
    """A CSV report: the header and each row, cells as ``str`` writes them."""
    return "".join(",".join(map(str, row)) + "\n" for row in (header, *rows))


def _columns(widths, rows) -> list[str]:
    """A text table's lines: each cell right-aligned to its column's width."""
    return [" ".join(f"{cell:>{width}}" for cell, width in zip(row, widths)) for row in rows]


def _ints(option: str, text: str, parts) -> list[int]:
    """The parts of the option's text as ints; a part that is not one
    rejects the whole text."""
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise PreconditionError(f"{option} must hold integers, got {text!r}") from None


def parse_sizes(text: str) -> list[int]:
    """Size lists: ``start:stop:xFACTOR`` for geometric grids, or a
    comma-separated list."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3 or not parts[2].lower().startswith("x"):
            raise PreconditionError(f"size list must look like start:stop:xFACTOR, got {text!r}")
        start, stop, factor = _ints("--sizes", text, (parts[0], parts[1], parts[2][1:]))
        if start < 1 or stop < start or factor < 2:
            raise PreconditionError(f"bad geometric size list {text!r}")
        sizes = []
        n = start
        while n <= stop:
            sizes.append(n)
            n *= factor
        return sizes
    sizes = _ints("--sizes", text, [p for p in text.split(",") if p.strip()])
    if not sizes:
        raise PreconditionError("empty size list")
    return sizes


def _cmd_verify(args, out) -> int:
    import olog.checker as checker

    space = checker.InstanceSpace(max_len=args.max_len, alphabet=args.alphabet)
    report = checker.verify_all(space, grid=args.grid)

    if args.format == "json":
        out.write(_json(report.to_dict()))
    elif args.format == "csv":
        rows = [(p.id, p.name, p.passed, p.violations) for p in report.properties]
        out.write(_csv(("id", "name", "passed", "violations"), rows))
    else:
        lines = [
            f"instances checked: {report.instances_checked}",
            f"complete for every integer sequence of length <= {report.complete_to}",
        ]
        for p in report.properties:
            if p.passed:
                lines.append(f"{p.id} {p.name:<28} pass")
            else:
                lines.append(
                    f"{p.id} {p.name:<28} FAIL ({p.violations} violations; "
                    f"first: {p.counterexample})"
                )
        verdict = "all passed" if report.all_passed else "FAILED"
        lines.append(
            f"result: {len(report.properties)} properties, {verdict} "
            f"in {report.wall_time_ms} ms"
        )
        out.write("\n".join(lines) + "\n")
    return 0 if report.all_passed else 1


def _cmd_bound(args, out) -> int:
    import olog.complexity as complexity

    trace = complexity.derive_log_witness(args.grid)
    if args.format == "json":
        out.write(_json(trace.to_dict()))
    elif args.format == "csv":
        steps = trace.to_dict()["steps"]  # the JSON's step fields, in order
        rows = [(i, *step.values()) for i, step in enumerate(steps, start=1)]
        out.write(_csv(("step", *steps[0]), rows))
    else:
        lines = [
            f"witness: c={trace.witness.c}, n0={trace.witness.n0} "
            f"(each step checked by dyadic blocks to n={trace.grid})"
        ]
        for step, n in zip(trace.steps, trace.failures):
            mark = "FAIL" if n else "ok  "
            lines.append(f"  {mark} {step.relation}   [{step.why}]")
        out.write("\n".join(lines) + "\n")
    failure = trace.failure()
    if failure is None:
        return 0
    print(f"error: {failure['detail']}", file=sys.stderr)
    return 1


def _cmd_bench(args, out) -> int:
    import olog.estimator as estimator
    from olog.intmath import STEP_BUDGET

    algorithm = _ALGO_FLAG[args.algo]
    sizes = parse_sizes(args.sizes if args.sizes else DEFAULT_SIZES[algorithm])
    estimator.check_fit_sizes(sizes)  # a list fit_class would reject runs no profile
    samples = estimator.bench_steps(algorithm, sizes)
    report = estimator.fit_class(samples)

    failed = algorithm == "binary_search" and (
        any(s.t_max > STEP_BUDGET(s.n) for s in samples) or report.verdict != "Logarithmic"
    )
    margin = "inf" if report.margin is None else f"{report.margin:.2f}"
    verdict = f"classification: {report.verdict} (margin={margin})"

    header = estimator.StepSample._fields
    if args.format == "json":
        out.write(_json({"algorithm": algorithm, "samples": [s._asdict() for s in samples],
                         "classification": report.to_dict()}))
    elif args.format == "csv":
        out.write(_csv(header, samples))
        print(verdict, file=sys.stderr)
    else:
        lines = [f"algorithm: {algorithm}", *_columns((9, 7), [header, *samples]), verdict]
        out.write("\n".join(lines) + "\n")
    return 1 if failed else 0


def _cmd_trace(args, out) -> int:
    import olog.costmodel as costmodel
    from olog.algorithms import SortedSeq, binary_search
    from olog.intmath import STEP_BUDGET

    # argparse on Python 3.11 takes --q=-- for the end-of-options marker
    # and hands over an empty list; "--" is no integer list either
    text = args.q.strip() if isinstance(args.q, str) else "--"
    items = _ints("--q", text, [p for p in text.split(",") if p.strip()])
    seq = SortedSeq(items)  # raises PreconditionError when unsorted
    outcome = binary_search(seq, args.key)
    budget = STEP_BUDGET(len(seq))
    costs = costmodel.tbs_path(seq, args.key)
    tbs_total = costs[0, len(seq)]
    # the range an iteration leaves is the next one's head; the last
    # leaves an empty range, which costs nothing
    remaining = [costs[rec.lo, rec.hi] for rec in outcome.trace[1:]] + [0]

    if args.format == "json":
        records = [{**rec.to_dict(), "tbs_remaining": left}
                   for rec, left in zip(outcome.trace, remaining)]
        records.append({"r": outcome.r, "t": outcome.t, "budget": budget})
        out.write("".join(_json(record, indent=None) for record in records))
    else:
        rows = [(*rec, left, (tbs_total - left) - rec.t_after)
                for rec, left in zip(outcome.trace, remaining)]
        lines = _columns((4, 4, 4, 4, 14, 7),
                         [("lo", "hi", "mid", "t", "tbs_remaining", "margin"), *rows])
        lines.append(f"r={outcome.r} t={outcome.t} budget={budget}")
        out.write("\n".join(lines) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="olog",
        description="Step-count contracts for binary search: verify, bound, bench, trace.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, formats=("text", "json", "csv")):
        p.add_argument("--output", default="-", help="output path, or - for stdout")
        p.add_argument("--format", choices=formats, default="text")

    p_verify = sub.add_parser("verify", help="run the exhaustive property suite")
    p_verify.add_argument("--max-len", type=int, default=8, dest="max_len", help="must be >= 1")
    p_verify.add_argument("--alphabet", type=int, default=6)
    p_verify.add_argument("--grid", type=int, default=DEFAULT_GRID)
    add_common(p_verify)
    p_verify.set_defaults(fn=_cmd_verify)

    p_bound = sub.add_parser("bound", help="derive and re-check the log2 witness")
    p_bound.add_argument("--grid", type=int, default=DEFAULT_GRID)
    add_common(p_bound)
    p_bound.set_defaults(fn=_cmd_bound)

    p_bench = sub.add_parser("bench", help="adversarial step counts + classification")
    p_bench.add_argument("--algo", choices=tuple(_ALGO_FLAG), default="binary")
    p_bench.add_argument(
        "--sizes",
        default=None,
        help="start:stop:xFACTOR or comma list (default depends on --algo)",
    )
    add_common(p_bench)
    p_bench.set_defaults(fn=_cmd_bench)

    p_trace = sub.add_parser("trace", help="per-iteration trace of one search")
    p_trace.add_argument("--q", required=True, help="comma-separated sorted ints ('' for empty;"
                         " --q=-5,-3 if the first is negative)")
    p_trace.add_argument("--key", type=int, required=True)
    add_common(p_trace, ("text", "json"))
    p_trace.set_defaults(fn=_cmd_trace)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    # --help goes out through _write like a report, so that output that
    # cannot be written exits 2 here too; argparse would swallow the error
    shown = io.StringIO()
    try:
        with contextlib.redirect_stdout(shown):
            args = parser.parse_args(argv)
    except SystemExit as exc:  # --help, or a usage error already on stderr
        error = _write(sys.stdout, False, shown.getvalue())
        if error is not None:
            return _fail_config(error)
        return int(exc.code) if exc.code is not None else 0
    # --output is opened before the work, so that an unwritable path is a
    # configuration error reported at once, but in append mode: a run that
    # exits 2 removes a file it made, and leaves an existing one as it was
    # unless the write itself failed.
    # The command writes to a buffer, which then replaces a regular file's
    # content; a device or pipe (/dev/null, /dev/stdout) cannot be
    # truncated and gets the buffer appended.
    to_file = args.output != "-"
    made = to_file and not os.path.exists(args.output)
    try:
        out = open(args.output, "a", encoding="utf-8") if to_file else sys.stdout
    except (OSError, ValueError) as err:
        return _fail_config(f"cannot write --output: {err}")
    text = io.StringIO()
    try:
        code = args.fn(args, text)
        error = _write(out, to_file, text.getvalue())
    except (ValueError, WorkerError) as err:  # PreconditionError included
        error = str(err)
    finally:
        if to_file:
            with contextlib.suppress(OSError):  # a failed write was reported
                out.close()
    if error is None:
        return code
    if made:
        # the file the open made: a dangling symlink given as --output
        # stays, and what the open created where it points goes
        os.remove(os.path.realpath(args.output))
    return _fail_config(error)


def console_main() -> None:
    """Entry point of ``olog`` and ``python -m olog``: run, then exit."""
    code = main()
    # Everything left on the heap dies with the process, so the cyclic
    # collection the interpreter runs while it finalizes only costs time:
    # about 9 of the 13 ms from here to the parent seeing the exit (2 vCPU,
    # Python 3.11). It skips a frozen heap; the flush of stdout and
    # stderr, atexit handlers and the exit code are kept, which os._exit
    # would drop. main() stays unfrozen for callers that run it in process.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    console_main()
