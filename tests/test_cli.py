import argparse
import functools
import gc
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest

import olog
from faults import FAULTS, chain_ending_at
from olog import algorithms, checker, complexity, estimator
from olog.cli import main, parse_sizes
from olog.errors import PreconditionError
from seam import pin, prelude

SCHEMAS = Path(olog.__file__).parent / "schemas"
SRC = Path(olog.__file__).parent.parent


def _python(*args, timeout=60, stdout=subprocess.PIPE):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE, text=True, env=env,
        timeout=timeout,
    )


def _schema(name):
    return json.loads((SCHEMAS / name).read_text())


def test_parse_sizes_geometric():
    assert parse_sizes("16:1048576:x4") == [4**k * 16 for k in range(9)]
    assert parse_sizes("16:16384:x4") == [16, 64, 256, 1024, 4096, 16384]
    assert parse_sizes("10:99:x3") == [10, 30, 90]


def test_parse_sizes_list_and_errors():
    assert parse_sizes("16,32,64") == [16, 32, 64]
    assert parse_sizes("8") == [8]
    with pytest.raises(PreconditionError):
        parse_sizes("16:8:x4")
    with pytest.raises(PreconditionError):
        parse_sizes("16:32:4")
    with pytest.raises(PreconditionError):
        parse_sizes("")
    with pytest.raises(PreconditionError, match=r"^--sizes must hold integers, got '16:x:x4'$"):
        parse_sizes("16:x:x4")


def test_verify_defaults_pass(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "instances checked: 24024" in out
    assert "complete for every integer sequence of length <= 5" in out
    assert sum(1 for line in out.splitlines() if line.endswith(" pass")) == 9
    assert "all passed" in out


def test_verify_json_schema(capsys):
    assert main(["verify", "--max-len", "3", "--alphabet", "2", "--grid", "64",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, _schema("check_report.schema.json"))
    assert payload["all_passed"] is True
    assert payload["complete_to"] == 1  # a key between two values needs a third


def test_verify_long_sequences_pass(capsys):
    # one sequence per length 0..70 over a one-letter alphabet, three keys each
    assert main(["verify", "--max-len", "70", "--alphabet", "1", "--grid", "2",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["instances_checked"] == 213
    assert [p["passed"] for p in payload["properties"]] == [True] * 9


def _invalid_choice(value, *choices):
    """argparse's message for a value outside the choices: Python versions
    differ in how they quote the choices."""
    parser = argparse.ArgumentParser(exit_on_error=False)
    parser.add_argument("x", choices=choices)
    with pytest.raises(argparse.ArgumentError) as err:
        parser.parse_args([value])
    return str(err.value).removeprefix("argument x: ")


_CAP = estimator.BINARY_PROFILE_MAX_N

# Every input olog rejects with exit 2, by name: its argv, and the last
# line of its stderr, which is the whole of it unless argparse printed
# its usage first.
REJECTED = {
    # verify and bound check the grid in complexity.check_grid, before any
    # other work: the 40/40 space, over the instance cap, is not counted
    **{f"{command} --grid {grid}": (
        [*argv, "--grid", grid],
        f"error: grid must be in [2, 2**32] (2 is the witness threshold), got {grid}")
       for grid in ("1", "-3", "4294967297")
       for command, argv in (("verify", ["verify"]), ("bound", ["bound"]),
                             ("verify 40/40", ["verify", "--max-len", "40", "--alphabet", "40"]))},
    # C(2*size, size) would take seconds to minutes to form, and have too
    # many digits to print; (size+2)*(size+1) instances already exceed the cap
    **{f"floor {size}": (
        ["verify", "--max-len", size, "--alphabet", size, "--grid", "2"],
        f"error: at least {(int(size) + 2) * (int(size) + 1)} instances exceed the cap 10000000")
       for size in ("100000", "1000000", "2000000")},
    # 3002 * C(6000, 3000) passes the floor; its digits are not printed
    "1808 digits": (["verify", "--max-len", "3000", "--alphabet", "3000", "--grid", "2"],
                    "error: a 1808-digit number of instances exceeds the cap 10000000"),
    # 3.6e13 instances, counted before any enumeration
    "14 digits": (["verify", "--alphabet", "100"],
                  "error: a 14-digit number of instances exceeds the cap 10000000"),
    # 60 003 instances, but 3 keys x 2.0e8 sequence elements
    "keys x elements": (["verify", "--max-len", "20000", "--alphabet", "1"],
                        "error: keys x sequence elements = 600030000 exceed the cap 100000000"),
    "max-len 0": (["verify", "--max-len", "0"], "error: max_len must be >= 1, got 0"),
    "alphabet 0": (["verify", "--alphabet", "0"], "error: alphabet must be >= 1, got 0"),
    # 400 sizes, each within the binary cap, three of them at it: 5.5e9
    # units of profile_work
    "bench work cap": (
        ["bench", "--sizes", ",".join(map(str, [*range(1, 398), _CAP - 2, _CAP - 1, _CAP]))],
        "error: binary profile work 5503680462 of 400 sizes exceeds the cap 4294967296"),
    # 16..16384 are within the linear cap, 65536 is not
    "linear size cap": (["bench", "--algo", "linear", "--sizes", "16:1048576:x4"],
                        "error: linear profile size must be in [1, 16384], got 65536"),
    "sizes 16:8:x4": (["bench", "--sizes", "16:8:x4"], "error: bad geometric size list '16:8:x4'"),
    "sizes ,": (["bench", "--sizes", ","], "error: empty size list"),
    # the fit's rules on a size list come before bench_steps' own
    "sizes 4,2": (["bench", "--sizes", "4,2"], "error: need >= 4 samples, got 2"),
    "sizes 16:x:x4": (["bench", "--sizes", "16:x:x4"],
                      "error: --sizes must hold integers, got '16:x:x4'"),
    "sizes 8": (["bench", "--sizes", "8"], "error: need >= 4 samples, got 1"),
    "sizes 16,32,64,128": (["bench", "--sizes", "16,32,64,128"],
                           "error: sizes must span >= 2 orders of magnitude; got [16, 128]"),
    "trace unsorted": (["trace", "--q", "3,1", "--key", "1"],
                       "error: sequence is not sorted (non-decreasing)"),
    "trace 1,two,3": (["trace", "--q", "1,two,3", "--key", "1"],
                      "error: --q must hold integers, got '1,two,3'"),
    # argparse on Python 3.11 hands --q=-- over as an empty list
    "trace --q=--": (["trace", "--q=--", "--key", "0"], "error: --q must hold integers, got '--'"),
    "trace --format csv": (
        ["trace", "--q", "1,2", "--key", "2", "--format", "csv"],
        f"olog trace: error: argument --format: {_invalid_choice('csv', 'text', 'json')}"),
    # argparse reads "--q -5,-3" as --q with no value followed by an
    # option "-5,-3", so such a list is passed as --q=-5,-3
    "trace --q -5,-3": (["trace", "--q", "-5,-3", "--key", "-3"],
                        "olog trace: error: argument --q: expected one argument"),
    "unknown command": (["frobnicate"], "olog: error: argument command: " + _invalid_choice(
        "frobnicate", "verify", "bound", "bench", "trace")),
}
# the work a command can reach: the sweep, the chain scan, both bench
# profiles and the search trace runs
_PHASES = ((checker, "_forked_sweep"), (complexity, "check_calc_chain"),
           (estimator, "binary_max_steps"), (estimator, "linear_max_steps"),
           (algorithms, "binary_search"))


def _plant_sentinels(monkeypatch):
    """Make each phase raise, which main does not catch, if it runs."""
    for module, name in _PHASES:
        def sentinel(*args, name=name):
            raise AssertionError(f"{name} ran")

        monkeypatch.setattr(module, name, sentinel)


@pytest.mark.parametrize("row", sorted(REJECTED))
def test_a_rejected_input_exits_2_at_once(row, tmp_path, monkeypatch, capsys):
    argv, line = REJECTED[row]
    _plant_sentinels(monkeypatch)
    target = tmp_path / "out.txt"
    assert main([*argv, "--output", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.err.endswith("\n")
    usage, _, last = captured.err.removesuffix("\n").rpartition("\n")
    assert (captured.out, last) == ("", line)
    assert usage.startswith("usage: olog") if line.startswith("olog") else usage == ""
    assert not target.exists()


def test_the_console_path_prints_a_rejection_as_one_line_at_once():
    for row in ("floor 2000000", "1808 digits", "bound --grid 1"):
        argv, line = REJECTED[row]
        started = time.perf_counter()
        run = _python("-m", "olog", *argv, timeout=10)
        assert time.perf_counter() - started < 1.0, row
        assert (run.returncode, run.stdout, run.stderr) == (2, "", line + "\n")


# The olog modules each command loads, the package and olog.cli included:
# what -X importtime lists for a call, and what sys.modules holds at exit.
_BASE = {"olog", "olog.cli", "olog.errors"}
LOADS = {
    "--help": _BASE,
    "trace": _BASE | {"olog.algorithms", "olog.costmodel", "olog.intmath"},
    "bench": _BASE | {"olog.estimator", "olog.intmath"},
    "bound": _BASE | {"olog.complexity", "olog.intmath"},
    "verify": _BASE | {"olog.algorithms", "olog.checker", "olog.complexity",
                       "olog.costmodel", "olog.intmath"},
}
# one text-format call per row; the default verify forks two workers
_LEDGER = {
    "--help": ["--help"],
    "trace": ["trace", "--q", "1,2", "--key", "2"],
    "bench": ["bench"],
    "bench --algo linear": ["bench", "--algo", "linear"],
    "bound": ["bound", "--grid", "64"],
    "verify": ["verify"],
}
_LEDGER_CHILD = (
    "import atexit, sys\n"
    "atexit.register(lambda: print(sorted(m for m in sys.modules if m.split('.')[0] == 'olog'),"
    " file=sys.stderr))\n"
    "from olog.cli import console_main\n"
    "console_main()\n"
)


@pytest.mark.parametrize("row", sorted(_LEDGER))
def test_importtime_accounts_for_every_module_a_command_loads(row):
    # olog imports its own modules by dotted name, through the interpreter's
    # import statement, so -X importtime times each one the command loads;
    # its stderr lines end in "|   <indent>module name". No command loads
    # numpy, multiprocessing (the sweep forks its own workers), dataclasses,
    # or json, which only a JSON report needs.
    argv = _LEDGER[row]
    source = (prelude(2) if row == "verify" else "") + _LEDGER_CHILD
    run = _python("-X", "importtime", "-c", source, *argv)
    assert run.returncode == 0, run.stderr
    *lines, at_exit = run.stderr.splitlines()
    timed = {line.rsplit("|", 1)[1].strip() for line in lines if line.startswith("import time:")}
    assert {m for m in timed if m.split(".")[0] == "olog"} == LOADS[argv[0]]
    assert at_exit == str(sorted(LOADS[argv[0]]))
    assert not timed & {"numpy", "multiprocessing", "dataclasses", "json"}


def test_bench_loads_neither_the_checker_nor_the_witness_derivation():
    # nor the search, the cost model or the kernels shim, on the size specs
    # the ledger's default rows do not run: every profile is a closed form
    # or the width recurrence
    probe = (
        "import sys; from olog.cli import main; "
        "assert main(['bench', '--sizes', '16:4096:x4']) == 0; "
        "assert main(['bench', '--sizes', '1,16,256,4096']) == 0; "
        "assert main(['bench', '--algo', 'linear', '--sizes', '1,16,256,4096']) == 0; "
        "extra = {'olog.algorithms', 'olog.checker', 'olog.complexity', 'olog.costmodel', "
        "'olog.kernels'}; "
        "extra &= set(sys.modules); "
        "assert not extra, f'bench loaded {extra}'"
    )
    run = _python("-c", probe)
    assert run.returncode == 0, run.stderr


# A child's peak RSS counts the memory of the process it was forked
# from, so the command runs under a small interpreter, not under pytest.
# The probe passes the command's stdout through, then prints the exit code
# and peak RSS on a last line of its own.
_RSS_PROBE = (
    "import os, subprocess, sys; "
    "proc = subprocess.Popen(sys.argv[1:]); "
    "_, status, usage = os.wait4(proc.pid, 0); "
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)"
)


def _run_with_peak_rss(*argv, workers=None):
    """Stdout and peak RSS in MB of ``olog argv``, forked workers included
    (ru_maxrss is in kB on Linux), with the sweep's worker count pinned
    unless ``workers`` is None."""
    olog = ["-m", "olog"] if workers is None else [
        "-c", f"{prelude(workers)}from olog.cli import console_main; console_main()"]
    run = _python("-c", _RSS_PROBE, sys.executable, *olog, *argv)
    out, _, status = run.stdout.rstrip("\n").rpartition("\n")
    rc, rss_kb = map(int, status.split())
    assert rc == 0, run.stderr
    return out, rss_kb / 1024


def _peak_rss_mb(*argv):
    return _run_with_peak_rss(*argv)[1]


def test_a_long_space_verifies_in_the_default_space_s_memory():
    # 6 003 instances over 2.0e6 sequence elements are streamed: held as a
    # list, they took 39 MB against 17 MB for the default space. Both run
    # on two forked workers, the count the automatic rule picks on two CPUs
    long, long_rss = _run_with_peak_rss(
        "verify", "--max-len", "2000", "--alphabet", "1", "--grid", "2", "--format", "json",
        workers=2)
    default, default_rss = _run_with_peak_rss("verify", "--format", "json", workers=2)
    long, default = json.loads(long), json.loads(default)
    assert long["all_passed"] and default["all_passed"]
    assert (long["instances_checked"], default["complete_to"]) == (6003, 5)
    assert long_rss <= 1.5 * default_rss


def test_bench_profiles_run_in_bounded_memory():
    # the width recurrence holds at most two widths a round: 14.7 MB for
    # the default list against 14.4 MB for --help, where a vectorised
    # kernel over every key took 29.8 MB
    assert _peak_rss_mb("bench") <= 1.25 * _peak_rss_mb("--help")


def test_linear_bench_stays_near_the_interpreter_footprint():
    # the linear count is n, so nothing grows with the sizes: 14.7 MB
    # against 14.3 MB for --help, where a vectorised scan took 28.3 MB
    assert _peak_rss_mb("bench", "--algo", "linear") <= 1.25 * _peak_rss_mb("--help")


def test_verify_exits_1_when_a_property_fails(monkeypatch, capsys):
    import olog.checker as checker_mod
    from olog.algorithms import broken_binary_search

    monkeypatch.setattr(checker_mod, "binary_search", broken_binary_search)
    # the first counterexample, [0], lies in the forked share of two
    for workers in (0, 2):
        pin(monkeypatch, workers)
        assert main(["verify", "--max-len", "3", "--alphabet", "2", "--grid", "4"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "'q': [0]" in out


def test_bound_default(capsys):
    assert main(["bound"]) == 0
    out = capsys.readouterr().out
    assert "c=6, n0=2" in out
    assert out.count("ok") == 5
    assert "FAIL" not in out


def test_bound_json_schema(capsys):
    # the default grid is 2**20, the cap 2**32
    for argv, grid in ((["--grid", "1024"], 1024), ([], 2**20), (["--grid", "4294967296"], 2**32)):
        assert main(["bound", *argv, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        jsonschema.validate(payload, _schema("calc_trace.schema.json"))
        assert payload["witness"] == {"c": 6, "n0": 2}
        assert len(payload["steps"]) == 5
        assert all(s["ok"] for s in payload["steps"])
        assert all(s["checked_to"] == grid for s in payload["steps"])


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_bound_reports_a_failing_chain_in_every_format(fmt, monkeypatch, capsys):
    # step 5 weakened to 3*ilog2(n) + 3 <= 3*ilog2(n): false from n=2 on
    from olog import complexity

    monkeypatch.setattr(complexity, "canonical_chain", functools.partial(chain_ending_at, 3))
    assert main(["bound", "--format", fmt]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: chain step 5 fails at n=2\n"
    if fmt == "json":
        payload = json.loads(captured.out)
        jsonschema.validate(payload, _schema("calc_trace.schema.json"))
        assert [s["ok"] for s in payload["steps"]] == [True] * 4 + [False]
    elif fmt == "csv":
        rows = captured.out.splitlines()
        assert [row.split(",", 1)[0] for row in rows[1:]] == ["1", "2", "3", "4", "5"]
        assert [row.rsplit(",", 1)[1] for row in rows[1:]] == ["True"] * 4 + ["False"]
    else:
        marks = [line.split()[0] for line in captured.out.splitlines()[1:]]
        assert marks == ["ok"] * 4 + ["FAIL"]


@pytest.mark.parametrize("fault,step", [("ilog2_counting_down", 1), ("ilog2_rejecting_one", 4)])
def test_a_faulty_ilog2_exits_1_not_2(fault, step, monkeypatch, capsys):
    # a fault in package code is a failing property, never a configuration
    # error; FAULTS pins verify's report under 0, 2 and 3 workers
    FAULTS[fault].plant(monkeypatch)
    assert main(["bound", "--grid", "64"]) == 1
    assert capsys.readouterr().err == f"error: chain step {step} fails at n=1\n"
    assert main(["verify", "--max-len", "2", "--alphabet", "2", "--grid", "4"]) == 1
    captured = capsys.readouterr()
    assert "\nresult: 9 properties, FAILED in " in captured.out
    assert captured.err == ""


def test_bound_prints_the_witness_its_chain_ends_at(monkeypatch, capsys):
    from olog import complexity

    monkeypatch.setattr(complexity, "canonical_chain", functools.partial(chain_ending_at, 7))
    assert main(["bound", "--grid", "64"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("witness: c=7, n0=2 ")
    assert "FAIL" not in out


def test_bench_binary_json(capsys):
    assert main(["bench", "--sizes", "16:1048576:x4", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, _schema("bench_report.schema.json"))
    jsonschema.validate(payload["classification"], _schema("classification.schema.json"))
    assert payload["algorithm"] == "binary_search"
    assert payload["classification"]["verdict"] == "Logarithmic"
    samples = estimator.bench_steps("binary_search", parse_sizes("16:1048576:x4"))
    assert payload["samples"] == [s._asdict() for s in samples]


def test_bench_runs_every_size_to_the_binary_cap_at_once():
    # 2.4e9 units of per-key work, but the width recurrence takes O(log n)
    # rounds per size
    started = time.perf_counter()
    run = _python("-m", "olog", "bench", "--sizes", "16:67108864:x4", "--format", "json",
                  timeout=10)
    assert time.perf_counter() - started < 1.0
    assert run.returncode == 0, run.stderr
    samples = json.loads(run.stdout)["samples"]
    assert [s["n"] for s in samples] == [16 * 4**k for k in range(12)]
    assert all(s["t_max"] == s["n"].bit_length() for s in samples)


def test_bench_linear_default_sizes(capsys):
    assert main(["bench", "--algo", "linear"]) == 0
    assert "classification: Linear" in capsys.readouterr().out


# olog reports, byte for byte: stdout and stderr of verify's and bound's CSV
# and of bench's text table (test_bench_csv pins bench's CSV, TRACE_OUTPUT
# trace's table and JSON Lines)
REPORT_OUTPUT = {
    "verify csv": (
        ["verify", "--max-len", "2", "--alphabet", "2", "--grid", "4", "--format", "csv"],
        "id,name,passed,violations\n"
        "P1,binary_posts,True,0\n"
        "P2,oracle_agreement,True,0\n"
        "P3,counter_exact_terminating,True,0\n"
        "P4,counter_equals_tbs,True,0\n"
        "P5,tbs_log_bound,True,0\n"
        "P6,step_budget,True,0\n"
        "P7,witness_bound,True,0\n"
        "P8,ilog2_monotonic,True,0\n"
        "P9,calc_chain,True,0\n",
        ""),
    "bound csv": (
        ["bound", "--grid", "256", "--format", "csv"],
        "step,from,rel,to,checked_to,ok\n"
        "1,2*ilog2(n+1) + 1,<=,2*ilog2(n+1) + ilog2(n+1),256,True\n"
        "2,2*ilog2(n+1) + ilog2(n+1),=,3*ilog2(n+1),256,True\n"
        "3,3*ilog2(n+1),<=,3*ilog2(2*n),256,True\n"
        "4,3*ilog2(2*n),=,3*ilog2(n) + 3,256,True\n"
        "5,3*ilog2(n) + 3,<=,6*ilog2(n),256,True\n",
        ""),
    "bench text": (
        ["bench", "--sizes", "16:4096:x4"],
        "algorithm: binary_search\n"
        "        n   t_max\n"
        "       16       5\n"
        "       64       7\n"
        "      256       9\n"
        "     1024      11\n"
        "     4096      13\n"
        "classification: Logarithmic (margin=inf)\n",
        ""),
}


@pytest.mark.parametrize("row", sorted(REPORT_OUTPUT))
def test_report_output_is_pinned(row, capsys):
    argv, out, err = REPORT_OUTPUT[row]
    assert main(argv) == 0
    assert capsys.readouterr() == (out, err)


def test_bench_csv(capsys):
    # the samples on stdout, the classification on stderr, byte for byte
    assert main(["bench", "--sizes", "16:4096:x4", "--format", "csv"]) == 0
    assert capsys.readouterr() == (
        "n,t_max\n16,5\n64,7\n256,9\n1024,11\n4096,13\n",
        "classification: Logarithmic (margin=inf)\n")


# olog trace output, byte for byte, on hand-stepped instances: one record
# per iteration, then r, t and the budget; the tbs_remaining column is the
# cost of the range each iteration leaves, read from one walk of tbs
TRACE_OUTPUT = {
    ("1,3,5,7", 7, "text"): (
        "  lo   hi  mid    t  tbs_remaining  margin\n"
        "   0    4    2    1              1       0\n"
        "   3    4    3    2              0       0\n"
        "r=3 t=2 budget=5\n"
    ),
    ("1,3,5,7", 7, "json"): (
        '{"lo": 0, "hi": 4, "mid": 2, "t": 1, "tbs_remaining": 1}\n'
        '{"lo": 3, "hi": 4, "mid": 3, "t": 2, "tbs_remaining": 0}\n'
        '{"r": 3, "t": 2, "budget": 5}\n'
    ),
    ("1,3,5,7", 4, "text"): (
        "  lo   hi  mid    t  tbs_remaining  margin\n"
        "   0    4    2    1              1       0\n"
        "   0    2    1    2              0       0\n"
        "r=-1 t=2 budget=5\n"
    ),
    ("1,3,5,7", 4, "json"): (
        '{"lo": 0, "hi": 4, "mid": 2, "t": 1, "tbs_remaining": 1}\n'
        '{"lo": 0, "hi": 2, "mid": 1, "t": 2, "tbs_remaining": 0}\n'
        '{"r": -1, "t": 2, "budget": 5}\n'
    ),
    ("1,3,5,7", 0, "text"): (
        "  lo   hi  mid    t  tbs_remaining  margin\n"
        "   0    4    2    1              2       0\n"
        "   0    2    1    2              1       0\n"
        "   0    1    0    3              0       0\n"
        "r=-1 t=3 budget=5\n"
    ),
    ("1,3,5,7", 0, "json"): (
        '{"lo": 0, "hi": 4, "mid": 2, "t": 1, "tbs_remaining": 2}\n'
        '{"lo": 0, "hi": 2, "mid": 1, "t": 2, "tbs_remaining": 1}\n'
        '{"lo": 0, "hi": 1, "mid": 0, "t": 3, "tbs_remaining": 0}\n'
        '{"r": -1, "t": 3, "budget": 5}\n'
    ),
    ("9", 9, "text"): (
        "  lo   hi  mid    t  tbs_remaining  margin\n"
        "   0    1    0    1              0       0\n"
        "r=0 t=1 budget=3\n"
    ),
    ("9", 9, "json"): (
        '{"lo": 0, "hi": 1, "mid": 0, "t": 1, "tbs_remaining": 0}\n'
        '{"r": 0, "t": 1, "budget": 3}\n'
    ),
    ("", 3, "text"): "  lo   hi  mid    t  tbs_remaining  margin\nr=-1 t=0 budget=1\n",
    ("", 3, "json"): '{"r": -1, "t": 0, "budget": 1}\n',
}


@pytest.mark.parametrize("q,key,fmt", sorted(TRACE_OUTPUT),
                         ids=[f"{q}-{key}-{fmt}" for q, key, fmt in sorted(TRACE_OUTPUT)])
def test_trace_output_is_pinned(q, key, fmt, capsys):
    assert main(["trace", "--q", q, "--key", str(key), "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert out == TRACE_OUTPUT[q, key, fmt]
    if fmt == "json":
        schema = _schema("trace_line.schema.json")
        for line in out.splitlines():
            jsonschema.validate(json.loads(line), schema)


def test_a_negative_first_value_goes_after_an_equals_sign():
    # REJECTED's "trace --q -5,-3" row pins the spaced form's error
    text = _python("-m", "olog", "trace", "--q=-5,-3", "--key", "-3")
    assert (text.returncode, text.stderr) == (0, "")
    assert text.stdout == (
        "  lo   hi  mid    t  tbs_remaining  margin\n"
        "   0    2    1    1              0       0\n"
        "r=1 t=1 budget=3\n"
    )
    lines = _python("-m", "olog", "trace", "--q=-5,-3", "--key", "-3", "--format", "json")
    assert (lines.returncode, lines.stderr) == (0, "")
    assert lines.stdout == (
        '{"lo": 0, "hi": 2, "mid": 1, "t": 1, "tbs_remaining": 0}\n'
        '{"r": 1, "t": 1, "budget": 3}\n'
    )
    shown = " ".join(_python("-m", "olog", "trace", "--help").stdout.split())
    assert "--q=-5,-3 if the first is negative" in shown


def test_output_to_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    assert main(["verify", "--max-len", "2", "--alphabet", "2", "--grid", "4",
                 "--format", "json", "--output", str(target)]) == 0
    payload = json.loads(target.read_text())
    assert payload["all_passed"] is True


# one quick successful run per command
_QUICK = {
    "verify": ["--max-len", "2", "--alphabet", "2", "--grid", "4"],
    "bound": ["--grid", "4"],
    "bench": ["--sizes", "16:4096:x4"],
    "trace": ["--q", "1,2", "--key", "2"],
}


@pytest.mark.parametrize("command", sorted(_QUICK))
@pytest.mark.parametrize("where", ["missing_dir", "directory"])
def test_unwritable_output_exits_2_before_any_work(command, where, tmp_path, monkeypatch, capsys):
    _plant_sentinels(monkeypatch)
    target = tmp_path / "missing" / "x.json" if where == "missing_dir" else tmp_path
    assert main([command, *_QUICK[command], "--output", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write --output: ")
    assert captured.err.count("\n") == 1


# one configuration error per command, found after --output is opened
_BAD_CONFIG = {
    "verify": ["--grid", "1"],
    "bound": ["--grid", "1"],
    "bench": ["--sizes", "16:8:x4"],
    "trace": ["--q", "2,1", "--key", "2"],
}


@pytest.mark.parametrize("command", sorted(_BAD_CONFIG))
def test_a_run_that_exits_2_leaves_the_output_as_it_was(command, tmp_path, capsys):
    existing, missing = tmp_path / "r.json", tmp_path / "new.json"
    existing.write_text("keep\n")
    link, linked = tmp_path / "out.json", tmp_path / "target.json"
    link.symlink_to(linked)  # dangling: the open creates target.json
    for target in (existing, missing, link):
        assert main([command, *_BAD_CONFIG[command], "--output", str(target)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
    assert existing.read_text() == "keep\n"
    assert not missing.exists()
    assert link.is_symlink() and not linked.exists()


def test_output_replaces_an_existing_file(tmp_path, capsys):
    argv = ["trace", "--q", "1,2", "--key", "2"]
    assert main(argv) == 0
    target = tmp_path / "r.txt"
    target.write_text("x" * 10_000)
    assert main([*argv, "--output", str(target)]) == 0
    assert target.read_text() == capsys.readouterr().out


@pytest.mark.parametrize("command", sorted(_QUICK))
def test_output_to_a_device_succeeds(command, capsys):
    # /dev/null cannot be truncated; the report is written all the same
    assert main([command, *_QUICK[command], "--output", os.devnull]) == 0
    captured = capsys.readouterr()
    assert captured.out == captured.err == ""


def test_output_to_stdout_through_a_pipe():
    if not os.path.exists("/dev/stdout"):
        pytest.skip("no /dev/stdout on this platform")
    argv = ["trace", "--q", "1,2", "--key", "2", "--format", "json"]
    piped = _python("-m", "olog", *argv, "--output", "/dev/stdout", timeout=10)
    assert piped.returncode == 0, piped.stderr
    assert piped.stdout == _python("-m", "olog", *argv, timeout=10).stdout


def _assert_write_error(run):
    assert run.returncode == 2, run.stderr
    assert run.stderr.startswith("error: cannot write output: ")
    assert run.stderr.count("\n") == 1, run.stderr  # no traceback, no "Exception ignored"


def test_a_full_device_exits_2_with_one_error_line(monkeypatch):
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this platform")
    trace = ["-m", "olog", "trace", "--q", "1,2,3", "--key", "2"]
    # ENOSPC at the close of --output
    _assert_write_error(_python(*trace, "--output", "/dev/full", timeout=10))
    # and at the flush of stdout, or at its write when it is unbuffered;
    # --help included, whose error argparse would swallow
    for unbuffered in (None, "1"):
        if unbuffered is None:
            monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
        else:
            monkeypatch.setenv("PYTHONUNBUFFERED", unbuffered)
        for argv in (trace, ["-m", "olog", "--help"]):
            with open("/dev/full", "w") as full:
                _assert_write_error(_python(*argv, timeout=10, stdout=full))


def test_a_closed_stdout_pipe_exits_2_with_one_error_line():
    # main's open descriptors are the same before and after it, where
    # /proc/self/fd lists them
    probe = (
        "import os, sys\n"
        "from olog.cli import main\n"
        "def fds():\n"
        "    return os.path.isdir('/proc/self/fd') and sorted(os.listdir('/proc/self/fd'))\n"
        "before = fds()\n"
        "code = main(sys.argv[1:])\n"
        "assert fds() == before, (before, fds())\n"
        "sys.exit(code)\n"
    )
    rfd, wfd = os.pipe()
    os.close(rfd)  # the reader is gone before olog writes
    try:
        argv = ["verify", "--max-len", "1", "--alphabet", "1", "--grid", "2", "--format", "csv"]
        run = _python("-c", probe, *argv, timeout=30, stdout=wfd)
    finally:
        os.close(wfd)
    _assert_write_error(run)
    assert "Broken pipe" in run.stderr


@pytest.mark.parametrize("command", sorted(_QUICK))
def test_main_leaves_the_heap_unfrozen(command, capsys):
    # only console_main freezes it, as the process exits; an in-process
    # caller keeps the cyclic collector
    frozen = gc.get_freeze_count()
    assert main([command, *_QUICK[command]]) == 0
    assert gc.get_freeze_count() == frozen


def test_console_main_keeps_atexit_and_the_final_flush(monkeypatch, capsys):
    # the handler's line stays in the stdout buffer until the interpreter
    # flushes it at exit, after the heap was frozen
    argv = ["bench", "--format", "json"]
    assert main(argv) == 0
    report = capsys.readouterr().out
    probe = (
        "import atexit, gc\n"
        "from olog.cli import console_main\n"
        "atexit.register(lambda: print('frozen at exit:', gc.get_freeze_count() > 0))\n"
        "console_main()\n"
    )
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    run = _python("-c", probe, *argv, timeout=10)
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout == report + "frozen at exit: True\n"


def test_console_main_exits_1_on_a_failed_bound():
    # bound with step 5 weakened to 3*ilog2(n) + 3 <= 3*ilog2(n), through
    # python -m olog's exit path; test_output_to_stdout_through_a_pipe and
    # test_the_console_path_prints_a_rejection_as_one_line_at_once pin 0 and 2
    probe = (
        "from olog import complexity\n"
        "from olog.cli import console_main\n"
        "from olog.intmath import Expr, Relation, Term\n"
        "*steps, s5 = complexity.canonical_chain()\n"
        "end = Relation(s5.relation.lhs, '<=', Expr((Term(3, 1, 0),), 0))\n"
        "false = (*steps, complexity.CalcStep(end, s5.n_min, s5.why))\n"
        "complexity.canonical_chain = lambda: false\n"
        "console_main()\n"
    )
    run = _python("-c", probe, "bound", "--grid", "64", timeout=10)
    assert (run.returncode, run.stderr) == (1, "error: chain step 5 fails at n=2\n")
