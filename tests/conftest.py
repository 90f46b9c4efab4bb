"""Fixtures shared by the test modules."""

import time

import pytest

from olog.checker import InstanceSpace, verify_all


@pytest.fixture(scope="session")
def default_verify_report():
    """(report, elapsed seconds) of ``verify_all`` on the default space and
    grid, (8, 6) to 2**20, run once per session: no other test sweeps that
    space. Acceptance C2 holds the elapsed time to its runtime budget."""
    started = time.perf_counter()
    report = verify_all(InstanceSpace(max_len=8, alphabet=6), grid=2**20)
    return report, time.perf_counter() - started
