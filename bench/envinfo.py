"""Machine and environment record written with every benchmark result."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy as np
import scipy

def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _cache_sizes() -> dict[str, str]:
    """Cache sizes of CPU 0 by level and type, as the kernel reports them."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
        sizes[f"l{level}{suffix}_cache"] = size
    return sizes


def _openblas() -> tuple[str, int]:
    """OpenBLAS build string and thread count from the library numpy loaded."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if config is None or threads is None:
                    continue
                config.argtypes, config.restype = [], ctypes.c_char_p
                threads.argtypes, threads.restype = [], ctypes.c_int
                return config().decode(), int(threads())
    return "unknown", int(os.environ.get("OPENBLAS_NUM_THREADS", "0") or 0)


def machine_record() -> dict:
    nproc = len(os.sched_getaffinity(0))
    blas, blas_threads = _openblas()
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        **_cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
        "blas_threads": blas_threads,
        "blas_threads_within_nproc": 0 < blas_threads <= nproc,
    }
