"""The tests' one way to pin the sweep's worker count.

olog has no option for the count: ``checker._pool_workers`` picks it. A
test that needs a given count replaces that function, in process through
``pin`` and in a child interpreter through the ``prelude`` source.
"""

from olog import checker


def pin(monkeypatch, workers: int) -> None:
    """Pin the count in this process until the test ends or pins another."""
    monkeypatch.setattr(checker, "_pool_workers", lambda space: workers)


def prelude(workers: int) -> str:
    """Python source that pins the count in a child, run before olog's work."""
    return f"from olog import checker; checker._pool_workers = lambda space: {workers}\n"


def verify_under(monkeypatch, workers, space, grid):
    """``verify_all`` with the count pinned at ``workers``."""
    pin(monkeypatch, workers)
    return checker.verify_all(space, grid)
