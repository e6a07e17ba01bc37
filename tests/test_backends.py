"""The kernel-backend contract the benchmark's tracer and worker rely on."""

import importlib

import pytest

import expratio
from expratio import _kernels_py, evaluate, oracle
from expratio._backend import available_backends


def test_numpy_kernel_is_the_only_backend():
    assert expratio.backend_name() == "python"
    assert available_backends() == {"python": _kernels_py}
    for module in (evaluate, oracle):
        for name in ("BACKEND", "log_abs_h", "eval_h", "fd_log_deriv"):
            assert hasattr(module.kernels, name), (module.__name__, name)
    with pytest.raises(ImportError):
        importlib.import_module("expratio._kernels")
