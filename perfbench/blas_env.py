"""Print, as JSON, the numeric environment a lipbound process runs in.

Core count, Python/numpy/scipy versions, and for every OpenBLAS library
loaded once numpy and scipy.linalg are imported (numpy and scipy each
bundle their own) its configuration string and the thread count in force.
"""

import ctypes
import json
import os
import platform
import sys

import numpy
import scipy
import scipy.linalg  # noqa: F401  (loads scipy's own OpenBLAS)


def _symbol(lib, stem: str):
    for prefix in ("", "scipy_"):
        for suffix in ("", "64_"):
            fn = getattr(lib, f"{prefix}openblas_{stem}{suffix}", None)
            if fn is not None:
                return fn
    return None


def openblas_libraries() -> list:
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return []
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        threads, config = _symbol(lib, "get_num_threads"), _symbol(lib, "get_config")
        entry = {"library": os.path.basename(path)}
        if threads is not None:
            threads.restype = ctypes.c_int
            threads.argtypes = []
            entry["threads"] = threads()
        if config is not None:
            config.restype = ctypes.c_char_p
            config.argtypes = []
            entry["config"] = config().decode()
        found.append(entry)
    return found


def main() -> None:
    print(json.dumps({
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas_libraries(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                     if k in os.environ},
        "platform": sys.platform,
    }, sort_keys=True))


if __name__ == "__main__":
    main()
