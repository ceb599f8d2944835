"""Process counters, the reference kernel, a memory-bandwidth probe and the
environment record."""

import os
import platform
import resource
import statistics
import time

import numpy as np

# Last-level cache of the machine the benchmark was written on (lscpu: one
# 105 MiB L3).  Each probe array is four times that.
L3_BYTES = 105 * 2**20
COPY_ARRAY_BYTES = 4 * L3_BYTES

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "NUMBA_NUM_THREADS",
               "PHASEMIX_NO_NUMBA")


def rusage():
    """(user s, sys s, minor faults) of this process so far."""
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime, r.ru_stime, r.ru_minflt


def peak_rss_mb() -> float:
    """Peak resident set of this process in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


# Median CPU time of `reference_cpu_s` on the machine the benchmark was
# written on; `call_cpu_ref_s` is a call's CPU time rescaled to this speed.
REF_NOMINAL_S = 0.17


def reference_cpu_s() -> float:
    """CPU seconds of a fixed numpy kernel: exp and arithmetic on a
    512 KiB array (in L2) and on a 16 MiB one (in L3).  Timed between the
    workload's calls, it tracks how fast the host runs us at the moment:
    clock speed and the share of cache and core that other guests leave."""
    small = np.linspace(0.0, 1.0, 1 << 16)
    large = np.linspace(0.0, 1.0, 1 << 21)
    small_out = np.zeros_like(small)
    large_out = np.zeros_like(large)
    c0 = time.process_time()
    for _ in range(300):
        np.exp(small, out=small_out)
        np.multiply(small_out, small, out=small_out)
    for _ in range(20):
        np.exp(large, out=large_out)
        np.add(large_out, large, out=large_out)
    return time.process_time() - c0


def copy_bandwidth() -> float:
    """Median GB/s of `np.copyto` between two arrays of COPY_ARRAY_BYTES
    each, counting the bytes read plus the bytes written."""
    src = np.ones(COPY_ARRAY_BYTES // 8)
    dst = np.zeros_like(src)
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - t0)
    return 2.0 * src.nbytes / statistics.median(times) / 1e9


def environment() -> dict:
    import scipy
    from phasemix import _accel
    try:
        import numba
        numba_version = numba.__version__
    except ImportError:
        numba_version = None   # no numba figures are reported without it
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba": numba_version,
        "phasemix_use_numba": _accel.USE_NUMBA,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "l3_bytes_assumed": L3_BYTES,
        "copy_array_bytes": COPY_ARRAY_BYTES,
    }
