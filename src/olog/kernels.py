"""Kernel backend selection: compiled extension if available, else Python.

The compiled core (``olog._ckernel``, built from Cython) and the
pure-Python/numpy fallback (``olog._pykernels``) implement the same
instance kernels with the same semantics; whichever loads wins. Set
``OLOG_KERNEL=python`` or ``OLOG_KERNEL=compiled`` to force one;
``benchmarks/compare_kernels.py`` uses that to race them.
"""

from __future__ import annotations

import os

from olog import _pykernels, intmath
from olog.errors import PreconditionError

try:
    from olog import _ckernel
except ImportError:
    _ckernel = None

_forced = os.environ.get("OLOG_KERNEL")
if _forced == "python":
    _impl = _pykernels
elif _forced == "compiled":
    if _ckernel is None:
        raise ImportError(
            "OLOG_KERNEL=compiled but the compiled kernel is not built; "
            "run `pip install -e .` or `python setup.py build_ext --inplace`"
        )
    _impl = _ckernel
elif _forced is None:
    _impl = _ckernel if _ckernel is not None else _pykernels
else:
    raise ImportError(f"OLOG_KERNEL must be 'python' or 'compiled', not {_forced!r}")

BACKEND = "compiled" if _impl is _ckernel else "python"

# Grid claims are no backend's business: intmath checks them by dyadic
# blocks. perfbench/tracer.py times the P8 and P9 checks under these names.
ilog2_scan_monotonic = intmath.scan_monotonic
calc_step_scan = intmath.first_failure

# Adversarial profiles run the whole key family; these caps keep the
# worst case (O(n log n) and O(n^2) work respectively) at desk scale.
BINARY_PROFILE_MAX_N = 2**26
LINEAR_PROFILE_MAX_N = 2**14


def backends() -> dict:
    """Name -> raw implementation module, for parity tests and benchmarks."""
    found = {"python": _pykernels}
    if _ckernel is not None:
        found["compiled"] = _ckernel
    return found


def search_steps(seq, key: int) -> tuple[int, int]:
    r, t = _impl.search_steps(seq, key)
    return int(r), int(t)


def binary_max_steps(n: int) -> int:
    if not 1 <= n <= BINARY_PROFILE_MAX_N:
        raise PreconditionError(
            f"binary profile size must be in [1, {BINARY_PROFILE_MAX_N}], got {n}"
        )
    return int(_impl.binary_max_steps(n))


def linear_max_steps(n: int) -> int:
    if not 1 <= n <= LINEAR_PROFILE_MAX_N:
        raise PreconditionError(
            f"linear profile size must be in [1, {LINEAR_PROFILE_MAX_N}], got {n}"
        )
    return int(_impl.linear_max_steps(n))


def verify_sweep(seqs, key_lo: int, key_hi: int, search_fn=None) -> dict:
    """Dispatch the instance sweep; a custom search forces the Python route."""
    if search_fn is not None:
        return _pykernels.verify_sweep(seqs, key_lo, key_hi, search_fn)
    return _impl.verify_sweep(seqs, key_lo, key_hi)
