"""What mimir asks of the process: its heap policy, its worker count and its helper threads.

This is the only module that calls into C or starts a thread.

Heap policy: every training step builds a whole graph and frees it again.
With glibc's defaults, freeing it trims the heap and the next step faults
the same pages back in (17,534 minor faults per mid32 pre-training step on
glibc 2.36, against 4 with the policy). Importing this module therefore
sets, once, glibc's mmap threshold to 32 MiB (the ceiling of glibc's own
dynamic threshold on 64-bit) and its trim threshold to the largest value,
so a step reuses the pages the last one freed and RSS stays at its peak.
It also caps glibc at one malloc arena: a helper thread would otherwise
get an arena of its own, whose pages no other thread reuses, and a
pre-training step that runs helpers peaked at 311-322 MB of RSS against
245-257 MB with the one arena. The policy does nothing off glibc, or when
the environment already tunes malloc (any ``MALLOC_`` variable, such as
``MALLOC_ARENA_MAX`` or ``MALLOC_TRIM_THRESHOLD_``, or a ``glibc.malloc.``
entry in ``GLIBC_TUNABLES``).

The policy is an import side effect rather than a step of ``cli.main``
because library users and the benchmark's workloads import ``mimir.train``
and ``mimir.model`` and never call ``cli.main``. Applied only there, it
would leave those processes with the faults above, and finetune-tiny16 ran
at 230.6 img/s without it against 255.0 with it. ``autodiff`` imports this
module after numpy, so importing any mimir module that builds graphs
applies the policy.
"""

from __future__ import annotations

import ctypes
import functools
import os
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable

import numpy as np

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8

# OpenBLAS's thread-count function, as numpy's bundled build and as a plain build name it
_BLAS_THREADS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads")


@functools.cache
def _c_function(*names: str) -> Callable[..., int] | None:
    """The first of ``names`` that the process or numpy's bundled OpenBLAS exports, or None.

    ctypes passes Python ints as C ints and reads a C int back, which fits
    each function looked up here.
    """
    bundled = (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")
    for library in [None, *map(str, bundled)]:
        for name in names:
            try:
                return getattr(ctypes.CDLL(library), name)
            except (OSError, AttributeError):
                continue
    return None


def _keep_freed_heap() -> bool:
    """Apply the heap policy of the module docstring; True if glibc took it."""
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        return False
    if not (libc or "").startswith("glibc"):
        return False
    if (any(key.startswith("MALLOC_") for key in os.environ)
            or "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", "")):
        return False
    mallopt = _c_function("mallopt")
    # a refused mmap threshold leaves glibc's state untouched, so the trim
    # threshold is set only after it; the trim threshold alone would turn
    # off the dynamic mmap threshold and fault far more
    return (mallopt(_M_MMAP_THRESHOLD, 32 << 20) == 1
            and mallopt(_M_TRIM_THRESHOLD, 2**31 - 1) == 1
            and mallopt(_M_ARENA_MAX, 1) == 1)


_keep_freed_heap()


def workers() -> int:
    """Threads a split pass may use: one per group of cores that one BLAS call uses.

    On a 2-core VM a pooled 64-image mid32 forward took 260-308 ms against
    463-479 ms serial with one BLAS thread, but 522-564 ms against 452 ms
    with two, so helpers run only on cores that BLAS leaves idle.
    """
    query = _c_function(*_BLAS_THREADS)
    blas = None if query is None else query()
    if not blas or not hasattr(os, "sched_getaffinity"):
        return 1
    return max(1, len(os.sched_getaffinity(0)) // blas)


def _pin_off(cpu: int) -> None:
    """Keep the calling thread to the CPUs the process may use, except ``cpu``.

    A no-op for an unknown ``cpu`` (below 0) or if no other CPU is left.
    """
    if cpu < 0:
        return
    try:
        others = os.sched_getaffinity(0) - {cpu}
        if others:
            os.sched_setaffinity(0, others)
    except OSError:
        pass


def run_shares(task: Callable[[int], object], count: int) -> list:
    """``task(i)`` for every share i < ``count``, which is at least 2: the first on the
    calling thread, the others on helpers.

    The ``count - 1`` helper threads live for this call and are pinned off
    the CPU the caller runs on. Where the kernel never moves a running
    thread (a cpuset without load balancing), a helper that starts on the
    caller's CPU shares it for good: a GEMM helper did so for a whole
    process in 5 of 10 processes, for a speed-up of 0.99-1.04 against
    1.92-1.99 in the others. Pinned, 9 of 10 processes read 1.92-2.04.

    Every share runs to its end before this returns or raises; the error of
    the first failing share is raised.
    """
    getcpu = _c_function("sched_getcpu")
    cpu = getcpu() if getcpu is not None and hasattr(os, "sched_setaffinity") else -1
    # leaving the block joins the helpers, also when the caller's share raises
    with ThreadPoolExecutor(count - 1, thread_name_prefix="mimir-shard", initializer=_pin_off,
                            initargs=(cpu,)) as pool:
        futures = [pool.submit(task, i) for i in range(1, count)]
        first = task(0)
    return [first] + [future.result() for future in futures]
