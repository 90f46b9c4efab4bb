import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import olog
from olog.cli import main, parse_sizes
from olog.errors import PreconditionError

SCHEMAS = Path(olog.__file__).parent / "schemas"
SRC = Path(olog.__file__).parent.parent


def _python(*args, timeout=60):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=timeout
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
    assert sum(1 for line in out.splitlines() if line.endswith(" pass")) == 9
    assert "all passed" in out


def test_verify_json_schema(capsys):
    assert main(["verify", "--max-len", "3", "--alphabet", "2", "--grid", "64",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, _schema("check_report.schema.json"))
    assert payload["all_passed"] is True


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


def test_verify_rejects_grid_over_cap_before_any_work():
    # the grid is validated before enumeration, so this is quick
    run = _python("-m", "olog", "verify", "--grid", "5000000000", timeout=10)
    assert run.returncode == 2
    assert run.stderr.startswith("error:")
    assert "Traceback" not in run.stderr


def test_commands_without_profiles_leave_numpy_unloaded():
    probe = (
        "import sys; from olog.cli import main; "
        "assert 'numpy' not in sys.modules, 'import olog.cli loaded numpy'; "
        "rc = main(['trace', '--q', '1,2', '--key', '2']); "
        "assert 'numpy' not in sys.modules, 'trace loaded numpy'; "
        "sys.exit(rc)"
    )
    run = _python("-c", probe)
    assert run.returncode == 0, run.stderr


def test_verify_exits_1_when_a_property_fails(monkeypatch, capsys):
    import olog.checker as checker_mod
    from olog.algorithms import broken_binary_search

    real = checker_mod.verify_all
    monkeypatch.setattr(
        checker_mod,
        "verify_all",
        lambda space, grid, **kw: real(space, grid, search_fn=broken_binary_search, **kw),
    )
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
    assert main(["bound", "--grid", "1024", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, _schema("calc_trace.schema.json"))
    assert payload["witness"] == {"c": 6, "n0": 2}
    assert len(payload["steps"]) == 5
    assert all(s["ok"] for s in payload["steps"])
    assert all(s["checked_to"] == 1024 for s in payload["steps"])


def test_bound_csv(capsys):
    assert main(["bound", "--grid", "256", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "step,from,rel,to,checked_to,ok"
    assert len(lines) == 6


def test_bound_rejects_tiny_grid(capsys):
    assert main(["bound", "--grid", "1"]) == 2


def test_bench_binary_json(capsys):
    assert main(["bench", "--sizes", "16:1048576:x4", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, _schema("bench_report.schema.json"))
    jsonschema.validate(payload["classification"], _schema("classification.schema.json"))
    assert payload["algorithm"] == "binary_search"
    assert payload["classification"]["verdict"] == "Logarithmic"


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


def test_trace_rejects_unsorted(capsys):
    assert main(["trace", "--q", "3,1", "--key", "1"]) == 2


def test_trace_rejects_garbage(capsys):
    assert main(["trace", "--q", "1,two,3", "--key", "1"]) == 2


def test_output_to_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    assert main(["verify", "--max-len", "2", "--alphabet", "2", "--grid", "4",
                 "--format", "json", "--output", str(target)]) == 0
    payload = json.loads(target.read_text())
    assert payload["all_passed"] is True


def test_unknown_command_exits_2():
    assert main(["frobnicate"]) == 2
