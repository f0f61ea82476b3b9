"""The sweep engine: run(batch, tasks, workers) runs (point_idx, trial)
tasks in this process and its children and returns their measurements in
task order. A batch is any function (point_idx, trials) -> one measurement
per trial; the engine knows nothing of what a trial does."""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
import pickle
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np

__all__ = ["WorkerDied", "run"]


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


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Failure(NamedTuple):
    """The first failing trial of a process: its index in the task list."""

    index: int
    exc: BaseException


# A sweep point's trials go to its batch function at most this many at a
# time: the batched pursuit gains little beyond 10 to 20 trials, and this
# bounds its stacked arrays.
_MAX_BATCH = 32


def _claim(tasks: list[tuple], w: int, cursor, lock) -> tuple[int, int]:
    """Claim the next run of same-point tasks from the shared cursor: at most
    _MAX_BATCH and ceil(unclaimed / w) of them, so claims shrink near the
    end. Returns its [lo, hi) bounds, empty once every task is claimed."""
    with lock:
        lo = hi = cursor.value
        cap = lo + min(_MAX_BATCH, math.ceil((len(tasks) - lo) / w))
        while hi < cap and tasks[hi][0] == tasks[lo][0]:
            hi += 1
        cursor.value = hi
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
    """Claim runs of (point_idx, trial) tasks until none is left, running each
    as one batch(point_idx, trials) call that returns a measurement dict per
    trial. Returns a (start index, measurements) pair per claim, or the first
    failure: a raising batch's trials re-run one at a time in task order, and
    the first to raise is pinned at its task index once the cursor is moved
    to the end, so that no process claims more work."""
    runs = []
    while True:
        lo, hi = _claim(tasks, w, cursor, lock)
        if lo == hi:
            return runs
        point_idx, trials = tasks[lo][0], [trial for _, trial in tasks[lo:hi]]
        try:
            runs.append((lo, batch(point_idx, trials)))
        except Exception:
            measured: list[Any] = []
            for trial in trials:
                try:
                    measured += batch(point_idx, [trial])
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
    """Body of a child that was not forked: cap BLAS at one thread, as a
    forked child inherits the cap, unpickle (batch, tasks) from the job
    pipe as it arrives, then run _child_share."""
    control = _openblas_thread_control()
    if control is not None:
        control[1](1)
    with job, open(job.fileno(), "rb", closefd=False) as stream:
        batch, tasks = pickle.load(stream)
    _child_share(batch, tasks, w, cursor, lock, conn)


def _run_split(batch, tasks: list[tuple], w: int) -> list[Any]:
    """Run tasks in this process and w - 1 children, each claiming runs of
    them from one shared cursor (_run_share) and sending its outcome through
    a one-way pipe. At w = 1 the cursor is a plain counter, no child starts
    and multiprocessing is not imported.

    A forked child inherits batch and tasks. Any other child starts with
    only the cursor, the lock and its pipes, and the caller then writes
    (batch, tasks), pickled once, into a job pipe whose read end only that
    child holds (_unforked_share): a child that dies reading it breaks the
    pipe, and the write raises WorkerDied instead of waiting for ever."""
    if w > 1:
        import multiprocessing
        cursor, lock = multiprocessing.RawValue("q", 0), multiprocessing.Lock()
        forked = multiprocessing.get_start_method() == "fork"
    else:
        cursor, lock = ctypes.c_longlong(0), contextlib.nullcontext()
    children, jobs = [], []
    try:
        for k in range(1, w):
            recv, send = multiprocessing.Pipe(duplex=False)
            if forked:
                target, args = _child_share, (batch, tasks, w, cursor, lock, send)
            else:
                job_recv, job_send = multiprocessing.Pipe(duplex=False)
                jobs.append(job_send)
                target, args = _unforked_share, (job_recv, w, cursor, lock, send)
            child = multiprocessing.Process(target=target, name=f"specx-share-{k}", args=args)
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
    """Run batch over (point_idx, trial) tasks, listed point by point, and
    return one measurement per task in task order, whatever the workers.

    This process and w - 1 children, w = min(workers, tasks, usable CPUs)
    and at least 1, claim runs of at most _MAX_BATCH and ceil(unclaimed / w)
    same-point tasks from one shared cursor until none is left (_run_split).
    A failing trial raises the failure with the lowest task index, the one a
    serial run of the trials one by one raises: a raising batch's trials
    re-run one at a time, and the cursor only moves forward, so every task
    before a failure was claimed, and runs, before the failing process ends
    the claims. A child that exits without sending, dies while it starts, or
    is killed holding the cursor's lock (_WatchedLock) raises WorkerDied.
    Every started child is joined before this returns or raises, and an
    interrupt terminates them first.

    NumPy's BLAS is capped at one thread meanwhile, in this process and so
    in every child it forks, as the matrices are tiny; a child started any
    other way sets the cap itself (_unforked_share). The caller's count is
    restored on return or raise. Without the OpenBLAS bundled with NumPy,
    threading is left as it is.
    """
    w = max(1, min(workers, len(tasks), _usable_cpus()))
    get, set_ = _openblas_thread_control() or (lambda: None, lambda threads: None)
    saved = get()
    set_(1)
    try:
        return _run_split(batch, tasks, w)
    finally:
        set_(saved)
