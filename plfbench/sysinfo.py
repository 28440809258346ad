"""What the host and the process looked like: environment, leaks, device I/O.

Everything here reads ``/proc`` or files of the checkout; nothing spawns a
process, so the child count it reports is the workload's own.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import resource


def proc_counts() -> dict[str, int]:
    """Open fds, threads and live child processes of this process."""
    children = 0
    for path in glob.glob(f"/proc/{os.getpid()}/task/*/children"):
        with open(path) as fh:
            children += len(fh.read().split())
    return {
        "fds": len(os.listdir("/proc/self/fd")),
        "threads": len(os.listdir("/proc/self/task")),
        "children": children,
    }


def device_io() -> dict[str, int]:
    """``read_bytes``/``write_bytes`` from ``/proc/self/io``: bytes this
    process made the block layer move (page-cache hits move none)."""
    out = {}
    with open("/proc/self/io") as fh:
        for line in fh:
            key, _, value = line.partition(":")
            if key in ("read_bytes", "write_bytes"):
                out[key] = int(value)
    return out


def peak_rss_mib() -> float:
    """Peak resident set of this process so far (``ru_maxrss`` is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_threads() -> int | None:
    """The thread count OpenBLAS reports, read through its C API."""
    import numpy

    libdir = os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def git_commit(root: str) -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                sha, _, name = line.strip().partition(" ")
                if name == ref:
                    return sha
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(root: str) -> dict[str, object]:
    import numpy

    cpu = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": git_commit(root),
    }
