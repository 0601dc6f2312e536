"""Read-only machine facts recorded with every run."""

from __future__ import annotations

import ctypes
import os
import platform
import sys


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def load_snapshot() -> dict:
    """CPU steal ticks from /proc/stat and the /proc/loadavg line."""
    steal = None
    for line in _read("/proc/stat").splitlines():
        if line.startswith("cpu "):
            fields = line.split()
            if len(fields) > 8:
                steal = int(fields[8])
            break
    return {"steal_ticks": steal, "loadavg": _read("/proc/loadavg").strip()}


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor()


def _blas_threads() -> int | None:
    """Ask the OpenBLAS library loaded into this process for its pool size."""
    libs = sorted({ln.split()[-1] for ln in _read("/proc/self/maps").splitlines()
                   if "openblas" in ln.lower() and ln.split()[-1].startswith("/")})
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def machine() -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
