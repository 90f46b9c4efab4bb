import functools
import gc
import importlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest

import olog
from olog import SortedSeq, binary_search
from olog.cli import main, parse_sizes
from olog.errors import PreconditionError

SCHEMAS = Path(olog.__file__).parent / "schemas"
SRC = Path(olog.__file__).parent.parent


def _python(*args, timeout=60, stdout=subprocess.PIPE, workers=None):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    if workers is not None:
        env["OLOG_WORKERS"] = workers
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


def test_verify_csv(capsys):
    assert main(["verify", "--max-len", "2", "--alphabet", "2", "--grid", "4",
                 "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "id,name,passed,violations"
    assert len(lines) == 10


def test_verify_long_sequences_pass(capsys):
    # one sequence per length 0..70 over a one-letter alphabet, three keys each
    assert main(["verify", "--max-len", "70", "--alphabet", "1", "--grid", "2",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["instances_checked"] == 213
    assert [p["passed"] for p in payload["properties"]] == [True] * 9


@pytest.mark.parametrize(
    "argv",
    [["verify", "--max-len", "0"], ["verify", "--grid", "1"], ["verify", "--alphabet", "0"]],
)
def test_verify_config_errors(argv, capsys):
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


def _assert_rejected_at_once(*argv):
    # neither numpy nor multiprocessing may have loaded
    probe = (
        "import sys; from olog.cli import main; "
        f"rc = main({list(argv)!r}); "
        "loaded = {'numpy', 'multiprocessing'} & set(sys.modules); "
        "assert not loaded, f'rejected after loading {loaded}'; "
        "sys.exit(rc)"
    )
    started = time.perf_counter()
    run = _python("-c", probe, timeout=10)
    elapsed = time.perf_counter() - started
    assert run.returncode == 2, run.stderr
    assert run.stderr.startswith("error:")
    assert "Traceback" not in run.stderr
    assert elapsed < 1.0
    return run


def test_verify_rejects_oversized_space_before_any_work():
    # 3.6e13 instances: the count is checked before enumeration starts
    _assert_rejected_at_once("verify", "--alphabet", "100")


@pytest.mark.parametrize("size", ["100000", "1000000", "2000000"])
def test_verify_rejects_a_huge_space_by_its_instance_floor(size):
    # the exact count C(2*size, size) takes seconds to minutes to form and
    # has too many digits to print; (size+2)*(size+1) instances already
    # exceed the cap
    run = _assert_rejected_at_once("verify", "--max-len", size, "--alphabet", size, "--grid", "2")
    assert "exceed the cap" in run.stderr


def test_verify_rejects_a_space_over_the_cap_with_a_short_line():
    # 3002 * C(6000, 3000) passes the floor; its 1 808 digits are not printed
    run = _assert_rejected_at_once("verify", "--max-len", "3000", "--alphabet", "3000",
                                   "--grid", "2")
    assert run.stderr == "error: a 1808-digit number of instances exceeds the cap 10000000\n"
    assert len(run.stderr) < 200


def test_default_verify_forks_without_multiprocessing_or_numpy():
    probe = (
        "import os, sys; os.environ['OLOG_WORKERS'] = '2'; from olog.cli import main; "
        "assert main(['verify']) == 0; "
        "loaded = {'numpy', 'multiprocessing'} & set(sys.modules); "
        "assert not loaded, f'verify loaded {loaded}'"
    )
    run = _python("-c", probe)
    assert run.returncode == 0, run.stderr


def test_a_dead_sweep_worker_exits_2_with_one_error_line():
    # the search kills its own process on one instance of the child's share
    probe = (
        "import os, signal, sys\n"
        "from olog import checker\n"
        "from olog.algorithms import binary_search\n"
        "from olog.cli import main\n"
        "def killed_on_one(q, key):\n"
        "    if tuple(q) == (0, 1, 2) and key == 1:\n"
        "        os.kill(os.getpid(), signal.SIGKILL)\n"
        "    return binary_search(q, key)\n"
        "checker.binary_search = killed_on_one\n"
        "os.environ['OLOG_WORKERS'] = '2'\n"
        "sys.exit(main(['verify', '--max-len', '3', '--alphabet', '5', '--grid', '2']))\n"
    )
    started = time.perf_counter()
    run = _python("-c", probe, timeout=60)
    assert time.perf_counter() - started < 10
    assert run.returncode == 2, run.stderr
    assert run.stdout == ""
    assert run.stderr == (
        "error: sweep worker 1 of 2 was killed by signal 9 (SIGKILL); no verdict\n"
    )


def test_verify_rejects_long_sequences_before_any_work():
    # 60 003 instances, but 3 keys x 2.0e8 sequence elements
    _assert_rejected_at_once("verify", "--max-len", "20000", "--alphabet", "1")


def test_verify_rejects_a_forced_worker_count_over_the_ceiling(monkeypatch):
    monkeypatch.setenv("OLOG_WORKERS", "100000")
    _assert_rejected_at_once("verify")


def test_bench_rejects_a_list_over_the_total_work_cap_before_any_profile():
    # 400 sizes, each under the binary cap: 7.2e11 units of profile_work
    cap = 2**26
    _assert_rejected_at_once("bench", "--sizes", ",".join(map(str, range(cap - 399, cap + 1))))


def test_commands_load_only_their_modules_and_never_numpy():
    # Each command loads only the olog modules it runs. None loads numpy,
    # which olog does not depend on, multiprocessing (the sweep forks its
    # own workers) or dataclasses, and that includes every bench profile;
    # modules the interpreter's own start-up loaded are not counted. The
    # sweeps run at the automatic worker count.
    probe = (
        "import sys; before = set(sys.modules); from olog.cli import main; "
        "lazy = lambda: {'numpy', 'multiprocessing'} & set(sys.modules); "
        "olog = lambda: {m for m in sys.modules if m.split('.')[0] == 'olog'}; "
        "assert not lazy(), f'import olog.cli loaded {lazy()}'; "
        "assert main(['--help']) == 0; "
        "assert olog() == {'olog', 'olog.cli', 'olog.errors'}, f'--help loaded {olog()}'; "
        "assert 'json' not in set(sys.modules) - before, '--help loaded json'; "
        "rc = main(['trace', '--q', '1,2', '--key', '2']); "
        "assert not lazy(), f'trace loaded {lazy()}'; "
        "heavy = {'olog.checker', 'olog.complexity', 'olog.estimator', 'olog.kernels'}; "
        "assert not heavy & olog(), f'trace loaded {heavy & olog()}'; "
        "assert main(['bound', '--grid', '64']) == 0; "
        "assert main(['verify', '--max-len', '2', '--alphabet', '2', '--grid', '64']) == 0; "
        "assert not lazy(), f'bound or a small verify loaded {lazy()}'; "
        "assert main(['bench', '--sizes', '16:4096:x4']) == 0; "
        "assert main(['bench', '--sizes', '1,16,256,4096']) == 0; "
        "assert not lazy(), f'a small binary bench loaded {lazy()}'; "
        "assert main(['bench']) == 0; "
        "assert not lazy(), f'the default bench loaded {lazy()}'; "
        "assert main(['bench', '--algo', 'linear']) == 0; "
        "assert main(['bench', '--algo', 'linear', '--sizes', '1,16,256,4096']) == 0; "
        "assert not lazy(), f'a linear bench loaded {lazy()}'; "
        "assert 'dataclasses' not in set(sys.modules) - before, 'a command loaded dataclasses'; "
        "assert 'olog.kernels' not in olog(), 'a command loaded the perfbench shim'; "
        "sys.exit(rc)"
    )
    run = _python("-c", probe)
    assert run.returncode == 0, run.stderr


# The olog modules each command loads, the package and olog.cli included:
# what -X importtime lists for a call, and what sys.modules holds after it.
_BASE = {"olog", "olog.cli", "olog.errors"}
LOADS = {
    "--help": _BASE,
    "trace": _BASE | {"olog.algorithms", "olog.costmodel", "olog.intmath"},
    "bench": _BASE | {"olog.estimator", "olog.intmath"},
    "bound": _BASE | {"olog.complexity", "olog.intmath"},
    "verify": _BASE | {"olog.algorithms", "olog.checker", "olog.complexity",
                       "olog.costmodel", "olog.intmath"},
}
_LEDGER_ARGS = {
    "--help": ["--help"],
    "trace": ["trace", "--q", "1,2", "--key", "2"],
    "bench": ["bench", "--sizes", "16:4096:x4"],
    "bound": ["bound", "--grid", "64"],
    "verify": ["verify", "--max-len", "1", "--alphabet", "1", "--grid", "16"],
}


@pytest.mark.parametrize("command", sorted(LOADS))
def test_importtime_accounts_for_every_module_a_command_loads(command):
    # olog imports its own modules by dotted name, through the interpreter's
    # import statement, so -X importtime times each one the command loads;
    # its stderr lines end in "|   <indent>module name"
    run = _python("-X", "importtime", "-m", "olog", *_LEDGER_ARGS[command])
    assert run.returncode == 0, run.stderr
    timed = {line.rsplit("|", 1)[1].strip() for line in run.stderr.splitlines()
             if line.startswith("import time:")}
    assert {m for m in timed if m.split(".")[0] == "olog"} == LOADS[command]
    probe = (
        "import sys; from olog.cli import main; "
        f"assert main({_LEDGER_ARGS[command]!r}) == 0; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'olog'), file=sys.stderr)"
    )
    run = _python("-c", probe)
    assert run.returncode == 0, run.stderr
    assert run.stderr.strip() == str(sorted(LOADS[command]))


def test_bench_loads_neither_the_checker_nor_the_witness_derivation():
    # nor the search, the cost model or the kernels shim: every profile is
    # a closed form or the width recurrence
    probe = (
        "import sys; from olog.cli import main; "
        "assert main(['bench', '--sizes', '16:4096:x4']) == 0; "
        "assert main(['bench', '--sizes', '1,16,256,4096']) == 0; "
        "assert main(['bench']) == 0; "
        "assert main(['bench', '--algo', 'linear']) == 0; "
        "extra = {'olog.algorithms', 'olog.checker', 'olog.complexity', 'olog.costmodel', "
        "'olog.kernels'}; "
        "extra &= set(sys.modules); "
        "assert not extra, f'bench loaded {extra}'"
    )
    run = _python("-c", probe)
    assert run.returncode == 0, run.stderr


def test_bench_rejects_a_size_over_the_cap_before_any_profile():
    # 16..16384 are within the linear cap, 65536 is not: no profile runs
    probe = (
        "import sys\n"
        "from olog import estimator\n"
        "from olog.cli import main\n"
        "def no_profile(n):\n"
        "    raise AssertionError('a profile ran')\n"
        "estimator.linear_max_steps = estimator.binary_max_steps = no_profile\n"
        "sys.exit(main(['bench', '--algo', 'linear', '--sizes', '16:1048576:x4']))\n"
    )
    run = _python("-c", probe)
    assert run.returncode == 2, run.stderr
    assert run.stderr.startswith("error: linear profile size")


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
    (ru_maxrss is in kB on Linux)."""
    run = _python("-c", _RSS_PROBE, sys.executable, "-m", "olog", *argv, workers=workers)
    out, _, status = run.stdout.rstrip("\n").rpartition("\n")
    rc, rss_kb = map(int, status.split())
    assert rc == 0, run.stderr
    return out, rss_kb / 1024


def _peak_rss_mb(*argv):
    return _run_with_peak_rss(*argv)[1]


# argv and pinned counts of the spaces verify must report alike under the
# sequential sweep, two forked workers and three, whose strides over the
# groups are uneven on two CPUs
_SPACES = {
    "default": ([], {"complete_to": 5}),
    "wide": (["--max-len", "5", "--alphabet", "12", "--grid", "2"], {"instances_checked": 86632}),
    "long": (["--max-len", "2000", "--alphabet", "1", "--grid", "2"], {"instances_checked": 6003}),
}


@functools.cache
def _verify_child(space, workers):
    """The JSON report of ``olog verify`` on the space under the worker
    count, without wall_time_ms, and the child's peak RSS in MB; each
    space and count runs once per session."""
    argv, _ = _SPACES[space]
    out, rss = _run_with_peak_rss("verify", *argv, "--format", "json", workers=workers)
    report = json.loads(out)
    del report["wall_time_ms"]
    return report, rss


@pytest.mark.parametrize("space", sorted(_SPACES))
def test_verify_reports_the_same_pass_under_0_2_and_3_workers(space):
    _, pinned = _SPACES[space]
    reports = [_verify_child(space, workers)[0] for workers in ("0", "2", "3")]
    assert reports[0]["all_passed"]
    assert {key: reports[0][key] for key in pinned} == pinned
    assert reports[1] == reports[0] and reports[2] == reports[0]
    if space == "long":
        # 6 003 instances over 2.0e6 sequence elements are streamed: held
        # as a list, they took 39 MB against 17 MB for the default space
        for workers in ("0", "2", "3"):
            long, default = (_verify_child(s, workers)[1] for s in ("long", "default"))
            assert long <= 1.5 * default, workers


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
    for workers in ("0", "2"):
        monkeypatch.setenv("OLOG_WORKERS", workers)
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


def test_bound_csv(capsys):
    assert main(["bound", "--grid", "256", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "step,from,rel,to,checked_to,ok"
    assert len(lines) == 6


def _chain_with_step5_ending_at(c):
    from olog.complexity import CalcStep, canonical_chain
    from olog.intmath import Expr, Relation, Term

    *steps, s5 = canonical_chain()
    end = Relation(s5.relation.lhs, "<=", Expr((Term(c, 1, 0),), 0))
    return lambda: (*steps, CalcStep(end, s5.n_min, s5.why))


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_bound_reports_a_failing_chain_in_every_format(fmt, monkeypatch, capsys):
    # step 5 weakened to 3*ilog2(n) + 3 <= 3*ilog2(n): false from n=2 on
    from olog import complexity

    monkeypatch.setattr(complexity, "canonical_chain", _chain_with_step5_ending_at(3))
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


def test_bound_prints_the_witness_its_chain_ends_at(monkeypatch, capsys):
    from olog import complexity

    monkeypatch.setattr(complexity, "canonical_chain", _chain_with_step5_ending_at(7))
    assert main(["bound", "--grid", "64"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("witness: c=7, n0=2 ")
    assert "FAIL" not in out


@pytest.mark.parametrize("grid", ["1", "-3", "4294967297"])
def test_verify_and_bound_reject_a_grid_with_one_error_line(grid):
    # both check the grid in derive_log_witness, before any other work:
    # the 40/40 space, over the instance cap, is not counted first
    for argv in (["verify"], ["verify", "--max-len", "40", "--alphabet", "40"], ["bound"]):
        run = _python("-m", "olog", *argv, "--grid", grid, timeout=10)
        assert (run.returncode, run.stdout) == (2, "")
        assert run.stderr == (
            f"error: grid must be in [2, 2**32] (2 is the witness threshold), got {grid}\n"
        )


def test_bench_binary_json(capsys):
    assert main(["bench", "--sizes", "16:1048576:x4", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, _schema("bench_report.schema.json"))
    jsonschema.validate(payload["classification"], _schema("classification.schema.json"))
    assert payload["algorithm"] == "binary_search"
    assert payload["classification"]["verdict"] == "Logarithmic"


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


# the worst count over the keys -1..n of q = [0, n): the checked search's
# for binary, the full scan for linear
def _binary_worst(n):
    q = SortedSeq(range(n))
    return max(binary_search(q, key).t for key in range(-1, n + 1))


_PER_KEY_WORST = {"binary": _binary_worst, "linear": lambda n: n}


@pytest.mark.parametrize("algo", sorted(_PER_KEY_WORST))
def test_bench_samples_are_the_per_key_worst(algo, capsys):
    assert main(["bench", "--algo", algo, "--sizes", "1,16,256,4096", "--format", "json"]) == 0
    samples = json.loads(capsys.readouterr().out)["samples"]
    assert [s["n"] for s in samples] == [1, 16, 256, 4096]
    assert all(s["t_max"] == _PER_KEY_WORST[algo](s["n"]) for s in samples)


def test_bench_linear_control(capsys):
    assert main(["bench", "--algo", "linear", "--sizes", "16:16384:x4"]) == 0
    out = capsys.readouterr().out
    assert "classification: Linear" in out


def test_bench_linear_default_sizes(capsys):
    assert main(["bench", "--algo", "linear"]) == 0
    assert "classification: Linear" in capsys.readouterr().out


def test_bench_csv(capsys):
    assert main(["bench", "--sizes", "16:4096:x4", "--format", "csv"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert lines[0] == "n,t_max"
    assert lines[1].startswith("16,")
    assert "classification:" in captured.err


def test_bench_span_error(capsys):
    assert main(["bench", "--sizes", "8"]) == 2


def test_trace_known_instance(capsys):
    assert main(["trace", "--q", "1,3,5,7", "--key", "7"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert len(lines) == 4  # header + 2 iterations + summary
    assert lines[-1] == "r=3 t=2 budget=5"


def test_trace_empty_sequence(capsys):
    assert main(["trace", "--q", "", "--key", "5"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[-1] == "r=-1 t=0 budget=1"
    assert len(out) == 2  # header + summary only, zero iterations


def test_trace_json_lines(capsys):
    assert main(["trace", "--q", "1,3,5,7", "--key", "7", "--format", "json"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    schema = _schema("trace_line.schema.json")
    parsed = [json.loads(line) for line in lines]
    for line in parsed:
        jsonschema.validate(line, schema)
    assert parsed[0] == {"lo": 0, "hi": 4, "mid": 2, "t": 1, "tbs_remaining": 1}
    assert parsed[-1] == {"r": 3, "t": 2, "budget": 5}


# olog trace output, byte for byte; the tbs_remaining column is the cost
# of the range each iteration leaves, read from one walk of tbs
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
    ("", 3, "text"): "  lo   hi  mid    t  tbs_remaining  margin\nr=-1 t=0 budget=1\n",
    ("", 3, "json"): '{"r": -1, "t": 0, "budget": 1}\n',
}


@pytest.mark.parametrize("q,key,fmt", sorted(TRACE_OUTPUT))
def test_trace_output_is_pinned(q, key, fmt, capsys):
    assert main(["trace", "--q", q, "--key", str(key), "--format", fmt]) == 0
    assert capsys.readouterr().out == TRACE_OUTPUT[q, key, fmt]


# hand-stepped instances: (q, key, r, t)
@pytest.mark.parametrize(
    "q,key,r,t", [("", 5, -1, 0), ("1,3,5,7", 7, 3, 2), ("1,3,5,7", 4, -1, 2), ("9", 9, 0, 1)]
)
def test_trace_runs_the_checked_search(q, key, r, t, capsys):
    # the checking mode changes nothing: r and t are the plain run's, and
    # one record is printed per iteration
    assert main(["trace", "--q", q, "--key", str(key), "--format", "json"]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert (lines[-1]["r"], lines[-1]["t"]) == (r, t)
    assert [line["t"] for line in lines[:-1]] == list(range(1, t + 1))


def test_trace_rejects_unsorted(capsys):
    assert main(["trace", "--q", "3,1", "--key", "1"]) == 2


def test_trace_rejects_garbage(capsys):
    assert main(["trace", "--q", "1,two,3", "--key", "1"]) == 2


def test_trace_rejects_a_double_dash(capsys):
    # argparse on Python 3.11 hands --q=-- over as an empty list
    assert main(["trace", "--q=--", "--key", "0"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_a_negative_first_value_goes_after_an_equals_sign():
    # argparse reads "--q -5,-3" as --q with no value followed by an option
    # "-5,-3", so a list that starts with a minus is passed as --q=-5,-3
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
    spaced = _python("-m", "olog", "trace", "--q", "-5,-3", "--key", "-3")
    assert spaced.returncode == 2
    assert "argument --q: expected one argument" in spaced.stderr
    shown = " ".join(_python("-m", "olog", "trace", "--help").stdout.split())
    assert "--q=-5,-3 if the first is negative" in shown


def test_trace_has_no_csv_format(capsys):
    assert main(["trace", "--q", "1,2", "--key", "2", "--format", "csv"]) == 2
    assert "invalid choice: 'csv'" in capsys.readouterr().err


def test_output_to_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    assert main(["verify", "--max-len", "2", "--alphabet", "2", "--grid", "4",
                 "--format", "json", "--output", str(target)]) == 0
    payload = json.loads(target.read_text())
    assert payload["all_passed"] is True


_WORK = {
    "verify": ("olog.checker", "verify_all"),
    "bound": ("olog.complexity", "derive_log_witness"),
    "bench": ("olog.estimator", "bench_steps"),
    "trace": ("olog.algorithms", "binary_search"),
}


@pytest.mark.parametrize("command", sorted(_WORK))
@pytest.mark.parametrize("where", ["missing_dir", "directory"])
def test_unwritable_output_exits_2_before_any_work(command, where, tmp_path, monkeypatch, capsys):
    module, work = _WORK[command]

    def no_work(*args, **kwargs):
        raise AssertionError(f"{work} ran before --output was opened")

    monkeypatch.setattr(importlib.import_module(module), work, no_work)
    target = tmp_path / "missing" / "x.json" if where == "missing_dir" else tmp_path
    argv = [command, "--output", str(target)]
    if command == "trace":
        argv += ["--q", "1,2", "--key", "2"]
    assert main(argv) == 2
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


# one quick successful run per command
_QUICK = {
    "verify": ["--max-len", "2", "--alphabet", "2", "--grid", "4"],
    "bound": ["--grid", "4"],
    "bench": ["--sizes", "16:4096:x4"],
    "trace": ["--q", "1,2", "--key", "2"],
}


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
    rfd, wfd = os.pipe()
    os.close(rfd)  # the reader is gone before olog writes
    try:
        argv = ["verify", "--max-len", "1", "--alphabet", "1", "--grid", "2", "--format", "csv"]
        run = _python("-m", "olog", *argv, timeout=30, stdout=wfd)
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
    # test_verify_and_bound_reject_a_grid_with_one_error_line pin 0 and 2
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


def test_unknown_command_exits_2():
    assert main(["frobnicate"]) == 2
