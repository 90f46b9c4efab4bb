"""Shim for ``perfbench``, which reads these names here until ROADMAP item 1.

Each name is the object of its home module (``checker``, ``estimator``,
``intmath``), so a wrapper swapped in for every olog global that is it
reaches the home's call sites too. No olog module imports this one.
"""

import sys

from olog.checker import verify_sweep
from olog.estimator import binary_max_steps, linear_max_steps
from olog.intmath import first_failure as calc_step_scan
from olog.intmath import scan_monotonic as ilog2_scan_monotonic

__all__ = ["BACKEND", "backends", "binary_max_steps", "calc_step_scan",
           "ilog2_scan_monotonic", "linear_max_steps", "verify_sweep"]

BACKEND = "python"


def backends() -> dict:
    """Name -> implementation module; ``perfbench`` probes it."""
    return {BACKEND: sys.modules[__name__]}
