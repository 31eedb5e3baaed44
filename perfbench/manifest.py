"""Print the run manifest as one JSON object.

Usage: PYTHONPATH=src python3 perfbench/manifest.py

Runs as a child of the benchmark with the same interpreter and environment
as the CLI runs it times, so the numpy, BLAS and thread figures are the
ones the measured processes saw. Numbers from different machines, BLAS
builds or kernel backends must not be compared silently.
"""

import ctypes
import json
import os
import platform
import subprocess
import sys

import numpy as np

import fedfraud
from fedfraud import kernels

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_info():
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version")}


def blas_threads():
    """Thread count the loaded OpenBLAS is configured with, or None when it
    cannot be asked (another BLAS, or no OpenBLAS library mapped)."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        mapped = {line.split()[-1] for line in fh if len(line.split()) == 6}
    libs = sorted(p for p in mapped if "openblas" in os.path.basename(p).lower())
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_revision(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, timeout=10,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def manifest(root):
    backend = getattr(kernels, "backend", None)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "kernel_backend": backend() if backend is not None else None,
        "fedfraud": getattr(fedfraud, "__version__", None),
        "git_revision": git_revision(root),
    }


if __name__ == "__main__":
    print(json.dumps(manifest(os.getcwd()), sort_keys=True))
    sys.exit(0)
