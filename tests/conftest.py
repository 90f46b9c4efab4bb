import os

# Every test chooses the sweep's worker count itself: the automatic count,
# unless it forces one through OLOG_WORKERS (monkeypatch.setenv, or the
# environment it hands a child). Dropped here, before any fixture is
# built, the caller's value reaches neither an in-process sweep, the
# module-scoped reports included, nor a `python -m olog` child, which
# inherits os.environ; so one run gives the same verdicts whatever the
# caller set.
os.environ.pop("OLOG_WORKERS", None)
