import ctypes
import glob
import os

import numpy as np
import pytest
from hypothesis import settings

# CI runs with --hypothesis-profile=ci: the same examples on every run, and no
# per-example deadline, so a property test cannot flake on a slow runner.
settings.register_profile("ci", derandomize=True, deadline=None)


def openblas_corename() -> str:
    """The kernel set OpenBLAS chose at load time (SkylakeX, Haswell, ...),
    read from the library bundled with NumPy."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_", "openblas_get_corename"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_char_p
                return fn().decode()
    return "unknown"


def pytest_report_header(config):
    """The SIMD level the run computes at: the golden digests of the model
    and training tests hold at one level only."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:  # NumPy 1.x
        from numpy.core._multiarray_umath import __cpu_features__ as features
    # NumPy's AVX-512 dispatch groups; with either off, NumPy runs other loops
    groups = ", ".join(f"{name} {'on' if features.get(name) else 'off'}" for name in ("X86_V4", "AVX512_ICL"))
    return f"SIMD level: OpenBLAS core {openblas_corename()}; NumPy {groups}"


@pytest.fixture
def two_threads(monkeypatch):
    """Every job pair that can run on two threads does, whatever its size and
    the CPUs this process may use: both directions of a bidirectional GRU
    pass, the two block ranges of any Adam update of two blocks or more, and
    the two GEMMs of an affine backward that needs both gradients. Returns
    the list of worker threads started by ``numgrad.run_pair``, in order."""
    from nprl import model as M
    from nprl import numgrad as ng

    started = []

    class Counted(ng.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(M, "TWO_THREAD_WORK", 0)
    monkeypatch.setattr(ng, "ADAM_SPLIT", 0)
    monkeypatch.setattr(ng, "AFFINE_SPLIT", 0)
    monkeypatch.setattr(ng, "Thread", Counted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return started
