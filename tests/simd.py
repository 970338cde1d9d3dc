"""The SIMD level a test process computes at, and the lookup of golden
digests by level.

A level is the pair (OpenBLAS core, NumPy dispatch groups): the kernel set
OpenBLAS chose at load time and whether NumPy's AVX2 and AVX-512 ufunc loops
run. Another kernel sums a GEMM in another order and another loop
rounds ``tanh`` or ``exp`` differently, so a digest of float64 results holds
at one level only. ``OPENBLAS_CORETYPE`` and ``NPY_DISABLE_CPU_FEATURES``
set a lower level for a whole process; both are read when the libraries
load.
"""

import ctypes
import glob
import os
from functools import cache

import numpy as np
import pytest

# NumPy 2's dispatch groups above its x86-64-v2 baseline that hold float64
# loops; each of them moves a digest (AVX512_SPR adds float16 loops only).
# NPY_DISABLE_CPU_FEATURES ignores older group names silently
DISPATCH_GROUPS = ("X86_V3", "X86_V4", "AVX512_ICL")


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


@cache
def simd_level() -> tuple[str, str]:
    """(OpenBLAS core, which of NumPy's dispatch groups are on) of this
    process."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:  # NumPy 1.x
        from numpy.core._multiarray_umath import __cpu_features__ as features
    groups = ", ".join(f"{name} {'on' if features.get(name) else 'off'}" for name in DISPATCH_GROUPS)
    return openblas_corename(), groups


def describe(level: tuple[str, str]) -> str:
    return f"OpenBLAS core {level[0]}; NumPy {level[1]}"


# the levels the digests were taken at, all on one AVX-512 Xeon: its
# defaults; NumPy's AVX-512 loops off (NPY_DISABLE_CPU_FEATURES="X86_V4
# AVX512_ICL"); and OPENBLAS_CORETYPE and NPY_DISABLE_CPU_FEATURES set to
# what a CPU without AVX-512 (Haswell) or also without AVX2 (Sandybridge,
# Prescott; add X86_V3 to the disabled groups) runs.
# OPENBLAS_CORETYPE=Prescott loads the kernels OpenBLAS 0.3.31 names Katmai
SKYLAKEX = ("SkylakeX", "X86_V3 on, X86_V4 on, AVX512_ICL on")
SKYLAKEX_AVX2 = ("SkylakeX", "X86_V3 on, X86_V4 off, AVX512_ICL off")
HASWELL = ("Haswell", "X86_V3 on, X86_V4 off, AVX512_ICL off")
SANDYBRIDGE = ("Sandybridge", "X86_V3 off, X86_V4 off, AVX512_ICL off")
KATMAI = ("Katmai", "X86_V3 off, X86_V4 off, AVX512_ICL off")


def golden(table: dict):
    """The entry of ``table`` (level -> digests) for this process's level;
    fails the test, naming the level, when the table has none."""
    level = simd_level()
    if level not in table:
        pytest.fail(
            f"no golden digest for the SIMD level {describe(level)}; digests were taken at: "
            + "; ".join(describe(known) for known in table)
        )
    return table[level]
