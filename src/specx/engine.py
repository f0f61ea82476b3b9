"""The sweep engine: run(batch, tasks, workers) runs tasks in this process
and its children and returns their measurements in task order. A task is a
tuple whose first item is its batch key; a batch is any function (tasks) ->
one measurement per task, called with a run of consecutive tasks of one
key. The engine knows nothing of what a task or a key stands for."""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
import pickle
import threading
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np

__all__ = ["WorkerDied", "one_blas_thread", "run"]


class WorkerDied(RuntimeError):
    """A sweep's child process exited without sending back its trials."""


@functools.cache
def _openblas_thread_control():
    """(get, set) thread-count functions of the OpenBLAS bundled with NumPy.

    None when NumPy ships no such library or it lacks the symbols. Looked up
    on first use rather than at import, so importing specx stays cheap.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so*")):
        try:
            lib = ctypes.CDLL(str(path))
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


# glibc's mallopt(3) parameters for the freed memory kept at the top of the
# heap and for the size from which a block is mmapped, and the value a sweep
# sets both to
_M_TOP_PAD = -2
_M_MMAP_THRESHOLD = -3
_TOP_PAD = 16 << 20


@functools.cache
def _pad_heap() -> bool:
    """Set glibc's M_TOP_PAD and M_MMAP_THRESHOLD to _TOP_PAD, once per
    process, and keep them, as glibc's environment tunables would: a
    batch's freed stacks stay at the top of the heap instead of faulting in
    again, and every block that fits in the pad comes from the heap. Returns
    whether the pad took; without glibc's mallopt, False and the allocator
    is left as it is.

    Nothing sets them back: setting either one switches off glibc's dynamic
    mmap threshold for good, so a restore would leave the caller mmapping,
    and faulting in, every block above 128 KiB.
    """
    try:
        libc = ctypes.CDLL(None)
        libc.gnu_get_libc_version  # glibc's own
        mallopt = libc.mallopt
    except (OSError, AttributeError, TypeError):
        return False
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return all([mallopt(param, _TOP_PAD) == 1 for param in (_M_TOP_PAD, _M_MMAP_THRESHOLD)])


def _cap_blas():
    """Cap NumPy's BLAS at one thread; returns what restores the caller's
    count. Without the OpenBLAS bundled with NumPy, threading is left as it is."""
    control = _openblas_thread_control()
    if control is None:
        return lambda: None
    get, set_ = control
    saved = get()
    set_(1)
    return functools.partial(set_, saved)


class _HeldSetting(contextlib.ContextDecorator):
    """A process-wide setting held while any of its scopes is open, used as
    a context manager or a decorator. Scopes may nest, or overlap in several
    threads: a count of open scopes, kept under a lock, lets only the first
    to open apply the setting, apply() -> undo, and only the last to close
    undo it, whatever order they close in. A forked child inherits the
    setting and the count, and never opens a scope. It suits a setting that
    apply() can read back and undo exactly, as BLAS's thread count
    (one_blas_thread); glibc's heap pad cannot be, and is kept (_pad_heap)."""

    def __init__(self, apply) -> None:
        self._apply = apply
        self._lock = threading.Lock()
        self._open = 0
        self._undo = None

    def __enter__(self) -> None:
        with self._lock:
            if self._open == 0:
                self._undo = self._apply()
            self._open += 1

    def __exit__(self, *exc) -> None:
        with self._lock:
            self._open -= 1
            if self._open == 0:
                self._undo()


# A specx run uses one BLAS thread: its matrices are tiny, so a second
# thread only costs the wake-up of an idle one and contends with the other
# processes for cores. The single-shot runs, sweep and run hold this scope;
# a kernel called on its own keeps the caller's BLAS settings.
one_blas_thread = _HeldSetting(_cap_blas)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Failure(NamedTuple):
    """The first failing trial of a process: its index in the task list."""

    index: int
    exc: BaseException


# The tasks of one key go to the batch function at most this many at a
# time: the stacked kernels gain little beyond 10 to 20 trials, and this
# bounds their stacked arrays.
_MAX_BATCH = 32


def _run_ends(tasks: list[tuple]) -> list[int]:
    """ends[j]: the end of the run of consecutive same-key tasks holding task j."""
    ends = list(range(1, len(tasks) + 1))
    for j in range(len(tasks) - 2, -1, -1):
        if tasks[j][0] == tasks[j + 1][0]:
            ends[j] = ends[j + 1]
    return ends


def _claim(ends: list[int], w: int, cursor, lock) -> tuple[int, int]:
    """Claim the next tasks from the shared cursor, within the run of same-key
    tasks it stands in (ends, _run_ends). The run's unclaimed tasks go out
    in the fewest near-equal claims of at most _MAX_BATCH, so a claim holds
    ceil(run / ceil(run / _MAX_BATCH)) of them, and never more than
    ceil(unclaimed / w), so claims shrink near the end. Returns its [lo, hi)
    bounds, empty once every task is claimed."""
    with lock:
        lo = cursor.value
        if lo == len(ends):
            return lo, lo
        run = ends[lo] - lo
        size = min(math.ceil(run / math.ceil(run / _MAX_BATCH)), math.ceil((len(ends) - lo) / w))
        cursor.value = hi = lo + size
    return lo, hi


class _WatchedLock(NamedTuple):
    """The claim lock as the caller takes it: a child killed holding it never
    releases it, so each second of waiting raises WorkerDied for a failed child."""

    lock: Any
    children: list

    def __enter__(self) -> None:
        while not self.lock.acquire(timeout=1.0):
            if dead := [child for child in self.children if child.exitcode not in (None, 0)]:
                raise WorkerDied(f"{dead[0].name} exited with code {dead[0].exitcode} "
                                 "while the claim lock was held")

    def __exit__(self, *exc) -> None:
        self.lock.release()


def _run_share(batch, tasks: list[tuple], w: int, cursor, lock) -> list[tuple] | _Failure:
    """Claim runs of same-key tasks until none is left, running each as one
    batch(claimed tasks) call that returns a measurement per task. Returns a
    (start index, measurements) pair per claim, or the first failure: a
    raising batch's tasks re-run one at a time in task order, and the first
    to raise is pinned at its task index once the cursor is moved to the
    end, so that no process claims more work."""
    runs, ends = [], _run_ends(tasks)
    while True:
        lo, hi = _claim(ends, w, cursor, lock)
        if lo == hi:
            return runs
        claimed = tasks[lo:hi]
        try:
            runs.append((lo, batch(claimed)))
        except Exception:
            measured: list[Any] = []
            for task in claimed:
                try:
                    measured += batch([task])
                except Exception as exc:
                    with lock:
                        cursor.value = len(tasks)
                    return _Failure(lo + len(measured), exc)
            runs.append((lo, measured))


def _child_share(batch, tasks: list[tuple], w: int, cursor, lock, conn) -> None:
    """Body of a child: send its claims' outcome through conn. An exception
    that does not survive pickling travels as a RuntimeError with its repr."""
    outcome = _run_share(batch, tasks, w, cursor, lock)
    if isinstance(outcome, _Failure):
        try:
            pickle.loads(pickle.dumps(outcome.exc))
        except Exception:
            outcome = _Failure(outcome.index, RuntimeError(repr(outcome.exc)))
    conn.send(outcome)
    conn.close()


def _unforked_share(job, w: int, cursor, lock, conn) -> None:
    """Body of a child that was not forked: cap BLAS at one thread and pad
    the heap (_pad_heap), as a forked child inherits both, unpickle (batch,
    tasks) from the job pipe as it arrives, then run _child_share."""
    _cap_blas()
    _pad_heap()
    with job, open(job.fileno(), "rb", closefd=False) as stream:
        batch, tasks = pickle.load(stream)
    _child_share(batch, tasks, w, cursor, lock, conn)


def _run_split(batch, tasks: list[tuple], w: int) -> list[Any]:
    """Run tasks in this process and w - 1 children, each claiming runs of
    them from one shared cursor (_run_share) and sending its outcome through
    a one-way pipe. At w = 1 the cursor is a plain counter, no child starts
    and multiprocessing is not imported.

    The children, the cursor, its lock and the pipes come from one explicit
    context: that of the start method the caller set, else the platform's
    default. The caller's start method is left unset, so the caller can still
    set it after a sweep.

    A forked child inherits batch and tasks. Any other child starts with
    only the cursor, the lock and its pipes, and the caller then writes
    (batch, tasks), pickled once, into a job pipe whose read end only that
    child holds (_unforked_share): a child that dies reading it breaks the
    pipe, and the write raises WorkerDied instead of waiting for ever."""
    if w > 1:
        import multiprocessing
        ctx = multiprocessing.get_context(
            multiprocessing.get_start_method(allow_none=True)
            or multiprocessing.get_all_start_methods()[0]
        )
        cursor, lock = ctx.RawValue("q", 0), ctx.Lock()
        forked = ctx.get_start_method() == "fork"
    else:
        cursor, lock = ctypes.c_longlong(0), contextlib.nullcontext()
    children, jobs = [], []
    try:
        for k in range(1, w):
            recv, send = ctx.Pipe(duplex=False)
            if forked:
                target, args = _child_share, (batch, tasks, w, cursor, lock, send)
            else:
                job_recv, job_send = ctx.Pipe(duplex=False)
                jobs.append(job_send)
                target, args = _unforked_share, (job_recv, w, cursor, lock, send)
            child = ctx.Process(target=target, name=f"specx-share-{k}", args=args)
            try:
                child.start()
            except BrokenPipeError:  # forkserver: it died reading its payload
                recv.close()
                raise WorkerDied(f"{child.name} died while it was started") from None
            finally:
                send.close()
                if not forked:
                    job_recv.close()
            children.append((child, recv))
        if jobs:
            job = pickle.dumps((batch, tasks))
            for (child, _), job_send in zip(children, jobs):
                try:
                    with job_send, open(job_send.fileno(), "wb", closefd=False) as stream:
                        stream.write(job)
                except BrokenPipeError:
                    raise WorkerDied(f"{child.name} died while it was started") from None
        if children:
            lock = _WatchedLock(lock, [child for child, _ in children])
        outcomes = [_run_share(batch, tasks, w, cursor, lock)]
        for child, recv in children:
            try:
                outcomes.append(recv.recv())
            except EOFError:
                child.join()
                raise WorkerDied(
                    f"{child.name} exited with code {child.exitcode} before sending its trials"
                ) from None
    except BaseException:
        for child, _ in children:
            child.terminate()
        raise
    finally:
        for child, recv in children:
            child.join()
            recv.close()
        for job_send in jobs:
            job_send.close()
    failures = [o for o in outcomes if isinstance(o, _Failure)]
    if failures:
        raise min(failures, key=lambda f: f.index).exc
    measured: list[Any] = [None] * len(tasks)
    for runs in outcomes:
        for lo, got in runs:
            measured[lo : lo + len(got)] = got
    return measured


def run(batch, tasks: list[tuple], workers: int) -> list[Any]:
    """Run batch over tasks, each a tuple whose first item is its batch key,
    and return one measurement per task in task order, whatever the workers.
    batch(claimed) takes consecutive tasks of one key and returns one
    measurement per task; tasks that share what their batch builds should
    share a key and be listed together.

    This process and w - 1 children, w = min(workers, tasks, usable CPUs)
    and at least 1, claim runs of same-key tasks from one shared cursor
    until none is left (_run_split). No claim crosses a key; a key's
    unclaimed run goes out in the fewest near-equal claims of at most
    _MAX_BATCH, and no claim exceeds ceil(unclaimed / w) (_claim). A failing
    task raises the failure with the lowest task index, the one a serial
    run of the tasks one by one raises: a raising batch's tasks re-run one
    at a time, and the cursor only moves forward, so every task before a
    failure was claimed, and runs, before the failing process ends the
    claims. A child that exits without sending, dies while it starts, or
    is killed holding the cursor's lock (_WatchedLock) raises WorkerDied.
    Every started child is joined before this returns or raises, and an
    interrupt terminates them first.

    The run holds the one_blas_thread scope, so NumPy's BLAS is capped at
    one thread meanwhile, in this process and so in every child it forks,
    as the matrices are tiny; a child started any other way sets the cap
    itself (_unforked_share). The caller's count is restored on return or
    raise, by the last of any overlapping or nested scopes to close (a
    sweep's own, or runs in other threads). Without the OpenBLAS bundled
    with NumPy, threading is left as it is.

    Before its first batch the run pads glibc's heap, in this process and
    so in every child it forks, and a child started any other way pads its
    own (_pad_heap). The pad is set once per process and kept after the
    run: up to _TOP_PAD of freed memory stays mapped, and the next sweep
    finds its heap ready. Without glibc's mallopt the allocator is left as
    it is.
    """
    w = max(1, min(workers, len(tasks), _usable_cpus()))
    _pad_heap()
    with one_blas_thread:
        return _run_split(batch, tasks, w)
