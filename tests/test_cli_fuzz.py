"""Every CLI input gets a verdict or a configuration error, quickly.

The commands run in-process through ``cli.main`` over small argument
values: no exception may escape, the exit code is 0, 1 or 2, and each
example finishes in under 2 s. Sizes stay small so that no example can
allocate without bound: verify spaces up to max-len 4 over 4 letters,
bench sizes up to 4096.
"""

import contextlib
import io
import time

from hypothesis import given, settings, strategies as st

from olog.cli import main

# the time limit is asserted per example in _run
FUZZ = settings(max_examples=30, deadline=None)

formats = st.sampled_from(["text", "json", "csv"])
grids = st.integers(min_value=-1, max_value=2**33)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert time.perf_counter() - started < 2.0
    assert rc in (0, 1, 2), (argv, rc)
    assert "Traceback" not in err.getvalue()
    return rc


@FUZZ
@given(
    max_len=st.integers(min_value=0, max_value=4),
    alphabet=st.integers(min_value=0, max_value=4),
    grid=grids,
    fmt=formats,
)
def test_verify_fuzz(max_len, alphabet, grid, fmt):
    rc = _run(["verify", "--max-len", str(max_len), "--alphabet", str(alphabet),
               "--grid", str(grid), "--format", fmt])
    # the correct search passes wherever the configuration is valid
    valid = max_len >= 1 and alphabet >= 1 and 2 <= grid <= 2**32
    assert rc == (0 if valid else 2)


@FUZZ
@given(grid=grids, fmt=formats)
def test_bound_fuzz(grid, fmt):
    assert _run(["bound", "--grid", str(grid), "--format", fmt]) == (0 if 2 <= grid <= 2**32 else 2)


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
@given(algo=st.sampled_from(["binary", "linear"]), sizes=size_lists, fmt=formats)
def test_bench_fuzz(algo, sizes, fmt):
    _run(["bench", "--algo", algo, f"--sizes={sizes}", "--format", fmt])


@FUZZ
@given(
    items=st.lists(st.integers(min_value=-5, max_value=5), max_size=8),
    key=st.integers(min_value=-6, max_value=6),
    fmt=formats,
)
def test_trace_fuzz(items, key, fmt):
    rc = _run(["trace", f"--q={','.join(map(str, items))}", "--key", str(key), "--format", fmt])
    assert rc == (0 if items == sorted(items) else 2)


@FUZZ
@given(q=st.text(alphabet="0123456789,- ", max_size=12), key=st.integers(-6, 6))
def test_trace_text_fuzz(q, key):
    _run(["trace", f"--q={q}", "--key", str(key)])
