"""Every CLI input gets a verdict or a configuration error, quickly.

The commands run in-process through ``cli.main`` over small argument
values: no exception may escape, the exit code is 0, 1 or 2, and each
example finishes in under 2 s. Sizes stay small so that no example can
allocate without bound: verify spaces up to max-len 4 over 4 letters,
bench sizes up to 4096. Each example also draws ``--output``: stdout, a
writable file, or a path that cannot be opened for writing (exit 2).
"""

import contextlib
import io
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from olog.cli import main

# the time limit is asserted per example in _run
FUZZ = settings(max_examples=30, deadline=None)

formats = st.sampled_from(["text", "json", "csv"])
grids = st.integers(min_value=-1, max_value=2**33)
UNWRITABLE = ("missing_dir", "directory")
outputs = st.sampled_from(["stdout", "file", *UNWRITABLE])


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz-output")


def _run(argv, output, out_dir):
    """Run ``olog argv --output ...`` and return the exit code."""
    target = {"stdout": "-", "file": out_dir / "out.txt",
              "missing_dir": out_dir / "missing" / "out.txt", "directory": out_dir}[output]
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main([*argv, "--output", str(target)])
    assert time.perf_counter() - started < 2.0
    assert rc in (0, 1, 2), (argv, rc)
    assert "Traceback" not in err.getvalue()
    if output != "stdout":
        assert out.getvalue() == ""
    if output in UNWRITABLE:
        assert rc == 2, (argv, output)
    return rc


@FUZZ
@given(
    max_len=st.integers(min_value=0, max_value=4),
    alphabet=st.integers(min_value=0, max_value=4),
    grid=grids,
    fmt=formats,
    output=outputs,
)
@example(max_len=3, alphabet=2, grid=64, fmt="text", output="stdout")
def test_verify_fuzz(max_len, alphabet, grid, fmt, output, out_dir):
    rc = _run(["verify", "--max-len", str(max_len), "--alphabet", str(alphabet),
               "--grid", str(grid), "--format", fmt], output, out_dir)
    # the correct search passes wherever the configuration is valid
    valid = max_len >= 1 and alphabet >= 1 and 2 <= grid <= 2**32 and output not in UNWRITABLE
    assert rc == (0 if valid else 2)


@FUZZ
@given(grid=grids, fmt=formats, output=outputs)
def test_bound_fuzz(grid, fmt, output, out_dir):
    rc = _run(["bound", "--grid", str(grid), "--format", fmt], output, out_dir)
    assert rc == (0 if 2 <= grid <= 2**32 and output not in UNWRITABLE else 2)


size_lists = st.one_of(
    st.lists(st.integers(min_value=-2, max_value=4096), min_size=1, max_size=6).map(
        lambda sizes: ",".join(map(str, sizes))
    ),
    st.tuples(
        st.integers(min_value=-2, max_value=4096),
        st.integers(min_value=-2, max_value=4096),
        st.integers(min_value=-1, max_value=5),
    ).map(lambda spec: f"{spec[0]}:{spec[1]}:x{spec[2]}"),
    # free-form text, but every number in it stays within 4096
    st.lists(
        st.tuples(st.integers(min_value=-2, max_value=4096), st.sampled_from(",:x- ")),
        max_size=4,
    ).map(lambda parts: "".join(f"{n}{sep}" for n, sep in parts)),
)


@FUZZ
@given(algo=st.sampled_from(["binary", "linear"]), sizes=size_lists, fmt=formats, output=outputs)
def test_bench_fuzz(algo, sizes, fmt, output, out_dir):
    _run(["bench", "--algo", algo, f"--sizes={sizes}", "--format", fmt], output, out_dir)


@FUZZ
@given(
    items=st.lists(st.integers(min_value=-5, max_value=5), max_size=8),
    key=st.integers(min_value=-6, max_value=6),
    fmt=formats,
    output=outputs,
)
def test_trace_fuzz(items, key, fmt, output, out_dir):
    rc = _run(["trace", f"--q={','.join(map(str, items))}", "--key", str(key), "--format", fmt],
              output, out_dir)
    # trace prints text or json; --format csv is a usage error
    ok = items == sorted(items) and output not in UNWRITABLE and fmt != "csv"
    assert rc == (0 if ok else 2)


@FUZZ
@given(q=st.text(alphabet="0123456789,- ", max_size=12), key=st.integers(-6, 6), output=outputs)
def test_trace_text_fuzz(q, key, output, out_dir):
    _run(["trace", f"--q={q}", "--key", str(key)], output, out_dir)
