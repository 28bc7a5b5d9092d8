"""Symmetric eigen routines, and tasks on the CPUs that a single-threaded BLAS leaves idle.

The eigen routines work on dense symmetric matrices and order eigenvalues
descending by algebraic value, so positive directions always come first.
"""

from __future__ import annotations

import collections
import contextlib
import ctypes
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, NamedTuple

import numpy as np

# eigenvalues with |v| <= DEFAULT_PINV_TOL * max|v| are treated as zero when inverting;
# the fit makes every other relative cut (singular values, signature, feature factor) here too
DEFAULT_PINV_TOL = 1e-12
# the zero band for signature classification scales with the matrix dimension
SIGNATURE_TOL_PER_DIM = 1e-8
# thread-count getters of OpenBLAS: numpy's wheel build, a 64-bit-index build, a plain build
_OPENBLAS_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


class EigenPair(NamedTuple):
    vectors: np.ndarray  # n x k, orthonormal columns
    values: np.ndarray  # length k, descending


class Signature(NamedTuple):
    p: int  # positive eigenvalues
    q: int  # negative eigenvalues
    z: int  # near-zero eigenvalues


def sym_eig(m: np.ndarray) -> EigenPair:
    """Full eigendecomposition of a symmetric matrix, values descending."""
    m = np.asarray(m, dtype=np.float64)
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    values, vectors = np.linalg.eigh((m + m.T) / 2.0)
    order = np.argsort(values)[::-1]
    return EigenPair(vectors[:, order], values[order])


def pinv_sym(m: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudo-inverse of a symmetric matrix.

    Eigenvalues with ``|v| <= DEFAULT_PINV_TOL * max|v|`` are inverted to
    zero.  An all-zero matrix maps to the zero matrix.
    """
    vectors, values = sym_eig(m)
    scale = np.abs(values).max() if values.size else 0.0
    if scale == 0.0:
        return np.zeros_like(np.asarray(m, dtype=np.float64))
    inv = np.where(np.abs(values) > DEFAULT_PINV_TOL * scale, 1.0, 0.0)
    nonzero = values != 0
    inv[nonzero] = inv[nonzero] / values[nonzero]
    out = (vectors * inv) @ vectors.T
    return (out + out.T) / 2.0


def signature_of(values: np.ndarray, rel_tol: float | None = None) -> Signature:
    """Count positive, negative and near-zero eigenvalues.

    The zero band is ``tau = rel_tol * max|v|`` with ``rel_tol`` defaulting
    to ``1e-8 * len(values)``; tau is 0 when all values vanish.
    """
    values = np.asarray(values, dtype=np.float64)
    if rel_tol is None:
        rel_tol = SIGNATURE_TOL_PER_DIM * len(values)
    scale = np.abs(values).max() if values.size else 0.0
    tau = rel_tol * scale
    p = int((values > tau).sum())
    q = int((values < -tau).sum())
    return Signature(p, q, len(values) - p - q)


def _workers(tasks: int, blas_threads: int | None) -> int:
    """Threads for ``tasks`` tasks: one per usable CPU and task when the BLAS runs on one thread.

    Any other BLAS thread count, or an unknown one, gives one worker and
    serial tasks: on 2 CPUs a fold pool next to a 2-thread OpenBLAS ran at
    0.67x of serial folds, and no other multi-threaded case has been measured.
    """
    if blas_threads != 1:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    return min(tasks, cpus)


def _blas_threads() -> int | None:
    """The largest thread count of the OpenBLAS builds in this process, or None.

    The count is read, never set, and read on each call because OpenBLAS
    can change it at run time.  None when no OpenBLAS reports a count.
    """
    try:
        counts = [getter() for getter in _openblas_getters()]
    except OSError:
        return None
    return max(counts) if counts and min(counts) >= 1 else None


@functools.cache
def _openblas_getters() -> tuple:
    """The thread-count getter of each OpenBLAS mapped into this process."""
    with open("/proc/self/maps") as fh:
        paths = {line.split(None, 5)[5].strip() for line in fh if "openblas" in line.lower()}
    getters = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        name = next((name for name in _OPENBLAS_GETTERS if hasattr(lib, name)), None)
        if name is not None:
            getter = getattr(lib, name)
            getter.argtypes, getter.restype = [], ctypes.c_int
            getters.append(getter)
    return tuple(getters)


def _run_in_order(task: Callable, items: list, workers: int) -> list:
    """``task(item)`` for every item, in item order, on ``workers`` threads.

    The calling thread runs tasks itself, next to ``workers - 1`` helper
    threads that the process keeps between calls, so a call starts no thread
    and the caller is not woken once per task.  Each thread takes the next
    item not yet taken; when the threads take every usable CPU, each runs on
    a CPU of its own for the call (``_thread_cpus``).  Once the caller finds
    no item left, a helper's share that has not started is cancelled, so the
    call waits only for running tasks, never behind other work on the pool,
    as when it runs on a helper or beside another call.  A thread skips an
    item after one whose task has raised.  The call returns once every task
    has run or been skipped, and raises the failure first in item order,
    which serial tasks would raise too: every item before it has run.
    """
    todo = collections.deque(enumerate(items))  # popleft is atomic: each task runs once
    results: list = [None] * len(items)
    lock = threading.Lock()
    first_failed, failure = len(items), None  # the lowest index whose task raised, its error

    def drain(cpu: int | None) -> None:
        nonlocal first_failed, failure
        with _pinned(cpu):
            while True:
                try:
                    index, item = todo.popleft()
                except IndexError:
                    return
                if index > first_failed:  # unlocked: a stale read at worst runs one more task
                    continue
                try:
                    results[index] = task(item)
                except BaseException as exc:  # raised below, once every thread is done
                    with lock:
                        if index < first_failed:
                            first_failed, failure = index, exc

    cpus = _thread_cpus(workers)
    helpers = []
    if workers > 1:
        pool = _helper_pool(workers - 1, os.getpid())
        helpers = [pool.submit(drain, cpu) for cpu in cpus[1:]]
    try:
        drain(cpus[0])
    finally:
        helpers = [helper for helper in helpers if not helper.cancel()]
        wait(helpers)
    for helper in helpers:
        helper.result()
    if failure is not None:
        raise failure
    return results


def _thread_cpus(workers: int) -> list:
    """The CPU each of ``workers`` task threads runs on, or None to leave it to the OS.

    Threads that take every usable CPU get one each.  Left to the scheduler,
    two fold threads on a 2-CPU VM sometimes shared one CPU for whole calls
    while the other idled, as slow as serial folds.  With fewer threads than
    CPUs, or more, the scheduler places them.
    """
    try:
        usable = sorted(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        usable = []
    if workers < 2 or len(usable) != workers:
        return [None] * workers
    return usable


@contextlib.contextmanager
def _pinned(cpu: int | None):
    """Run the block with the calling thread on ``cpu`` alone, then give its CPUs back."""
    if cpu is None:
        yield
        return
    usable = os.sched_getaffinity(0)
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:  # the CPU left the process's set since it was read
        usable = None
    try:
        yield
    finally:
        if usable is not None:
            os.sched_setaffinity(0, usable)


@functools.cache
def _helper_pool(threads: int, pid: int) -> ThreadPoolExecutor:
    """``threads`` helper threads, kept for the life of process ``pid``.

    Keyed by the process id because a forked child inherits the pool but not
    its threads.  Idle helpers wait on the pool's queue and use no CPU.
    """
    return ThreadPoolExecutor(threads, thread_name_prefix="proxkern-helper")
