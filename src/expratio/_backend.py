"""The kernel namespace: the NumPy kernels of ``_kernels_py``, the only backend.

``evaluate`` and ``oracle`` bind it as their module attribute ``kernels`` and
call ``log_abs_h``, ``eval_h`` and ``fd_log_deriv`` through it, so a
profiler can swap those bindings for wrappers.
"""

from __future__ import annotations

from . import _kernels_py

kernels = _kernels_py


def backend_name() -> str:
    return kernels.BACKEND


def available_backends():
    """Every kernel module by backend name (read by the benchmark)."""
    return {kernels.BACKEND: kernels}
