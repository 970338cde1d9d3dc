"""The environment stamp recorded with every benchmark result."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
from pathlib import Path

import numpy as np

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_info() -> tuple[str, int | None]:
    """BLAS library name and version, and the thread count it runs with."""
    deps = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    name = f"{deps.get('name', 'unknown')} {deps.get('version', '')}".strip()
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return name, int(fn())
    return name, None


def src_lines(root: Path) -> int:
    return sum(
        len(path.read_text().splitlines()) for path in sorted((root / "src" / "nprl").rglob("*.py"))
    )


def environment(root: Path) -> dict:
    blas, threads = blas_info()
    return {
        "commit": git_commit(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "src_nprl_lines": src_lines(root),
    }
