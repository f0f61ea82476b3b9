"""The sweep engine on toy batches: no scenario, no config."""

import multiprocessing
import os
import platform
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from specx import engine

# the heap pad's fault counts need glibc's mallopt; asked of the interpreter's
# libc, so that deciding does not pad this process
needs_glibc = pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="no glibc mallopt")


def toy_tasks(sizes):
    """(point_idx, trial) tasks of points with the given trial counts, each
    point its own batch key."""
    return [(i, t) for i, n in enumerate(sizes) for t in range(n)]


def caller_claims_first(monkeypatch):
    """Holds a child's first claim from the shared cursor until the calling
    process has made its own, so a 2-process split's first two claims go to
    the caller and then the child, whatever the start-up timing."""
    claimed = multiprocessing.Event()
    claim = engine._claim

    def ordered_claim(*args):
        if multiprocessing.parent_process() is not None:
            claimed.wait(timeout=30)
            return claim(*args)
        out = claim(*args)
        claimed.set()
        return out

    monkeypatch.setattr(engine, "_claim", ordered_claim)


def test_run_caps_blas_threads_and_restores_them():
    control = engine._openblas_thread_control()
    if control is None:
        pytest.skip("NumPy's BLAS exposes no thread control")
    get, set_ = control
    tasks = toy_tasks((2,))
    saved = get()
    set_(2)
    try:
        def batch(claimed):
            return [{"threads": get()} for _ in claimed]

        assert engine.run(batch, tasks, 1) == [{"threads": 1}] * 2
        assert get() == 2

        seen = []

        def failing(claimed):
            seen.append(get())
            raise RuntimeError("trial failed")

        with pytest.raises(RuntimeError, match="trial failed"):
            engine.run(failing, tasks, 1)
        assert seen == [1, 1]  # the batch, then its first trial on its own
        assert get() == 2
    finally:
        set_(saved)


def test_run_without_blas_thread_control(monkeypatch):
    tasks = toy_tasks((3, 2))

    def batch(claimed):
        return [{"task": task} for task in claimed]

    monkeypatch.setattr(engine, "_openblas_thread_control", lambda: None)
    assert engine.run(batch, tasks, 1) == [{"task": task} for task in tasks]


def test_run_pads_the_heap_top_for_the_run(monkeypatch):
    """The pad is set before the first batch and is still set after the
    last, also when a batch raises: nothing sets it back."""
    events = []
    monkeypatch.setattr(engine, "_pad_heap", lambda: events.append("pad") or True)

    def batch(claimed):
        events.append("batch")
        return [{} for _ in claimed]

    engine.run(batch, toy_tasks((2, 1)), 1)
    assert events == ["pad", "batch", "batch"]

    events.clear()

    def failing(claimed):
        events.append("batch")
        raise RuntimeError("trial failed")

    with pytest.raises(RuntimeError, match="trial failed"):
        engine.run(failing, toy_tasks((2,)), 1)
    assert events == ["pad", "batch", "batch"]  # the batch, then its first trial


def test_run_without_heap_pad_control(monkeypatch):
    """Without glibc's mallopt the pad does not take, and a run measures
    what a padded one does."""
    def no_libc(name):
        raise OSError(name)

    with monkeypatch.context() as patched:
        patched.setattr(engine.ctypes, "CDLL", no_libc)
        assert engine._pad_heap.__wrapped__() is False
    tasks = toy_tasks((3, 2))

    def batch(claimed):
        rng = np.random.default_rng(len(claimed))
        a, b = rng.standard_normal((len(claimed), 6, 4)), rng.standard_normal((len(claimed), 6))
        return [np.linalg.lstsq(a_k, b_k, rcond=None)[0].tolist() for a_k, b_k in zip(a, b)]

    padded = engine.run(batch, tasks, 1)
    monkeypatch.setattr(engine, "_pad_heap", lambda: False)
    assert engine.run(batch, tasks, 1) == padded


def test_overlapping_runs_restore_the_callers_settings_once(monkeypatch):
    """Run A starts, run B starts in another thread, and A returns first:
    B's batch still runs on one BLAS thread and a padded heap, and only B,
    the last to return, restores the caller's 2 threads; the heap stays
    padded."""
    threads, padded = [2], [False]
    monkeypatch.setattr(engine, "_openblas_thread_control",
                        lambda: (lambda: threads[0], lambda n: threads.__setitem__(0, n)))
    monkeypatch.setattr(engine, "_pad_heap", lambda: padded.__setitem__(0, True) or True)
    a_ran, b_ran, a_done = threading.Event(), threading.Event(), threading.Event()
    seen = {}

    def batch_a(claimed):
        a_ran.set()
        assert b_ran.wait(timeout=30)
        return [None for _ in claimed]

    def batch_b(claimed):
        b_ran.set()
        assert a_done.wait(timeout=30)
        seen["b"] = threads[0], padded[0]
        return [None for _ in claimed]

    def run_a():
        engine.run(batch_a, [(0, 0)], 1)
        a_done.set()

    a = threading.Thread(target=run_a)
    a.start()
    assert a_ran.wait(timeout=30)
    b = threading.Thread(target=engine.run, args=(batch_b, [(0, 0)], 1))
    b.start()
    for thread in (a, b):
        thread.join(timeout=30)
        assert not thread.is_alive()
    assert seen == {"b": (1, True)}
    assert (threads[0], padded[0]) == (2, True)


def test_numpys_bundled_openblas_has_thread_control():
    """Where NumPy reports its bundled scipy-openblas, the cap finds it: a
    NumPy that renamed the library or its symbols would otherwise drop the
    cap without a word, and every test of the cap would skip."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if blas.get("name") != "scipy-openblas":
        pytest.skip(f"NumPy's BLAS is {blas.get('name')!r}")
    assert engine._openblas_thread_control() is not None


_HEAP_FAULTS = """
import resource, sys
import numpy as np
from specx import engine

if sys.argv[1] == "off":
    engine._pad_heap = lambda: False
faults = []


def batch(claimed):
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
    # 40 arrays of 96 kB, each below glibc's mmap threshold, freed on return
    arrays = [np.ones(12_000) for _ in range(40)]
    return [float(sum(a[0] for a in arrays)) for _ in claimed]


engine.run(batch, [(key, 0) for key in range(20)], 1)
faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
print(faults[-1] - faults[1])
"""


@needs_glibc
def test_padded_heap_stops_batches_faulting_freed_memory_back_in():
    """A batch that allocates and frees about 4 MB takes, after the first
    batch, at least 5 times fewer minor page faults with the heap top
    padded than without: unpadded, glibc trims the freed memory back to the
    kernel after each batch and the next one faults it in again."""
    faults = {}
    for side in ("on", "off"):
        proc = run_python(_HEAP_FAULTS, 60, side)
        assert proc.returncode == 0, proc.stderr
        faults[side] = int(proc.stdout)
    assert faults["off"] >= 5 * faults["on"], faults


_PINNED_FAULTS = """
import resource, sys
import numpy as np
from specx import engine

if sys.argv[1] == "freed":
    # mmapped at glibc's default threshold; freeing it raises the dynamic threshold to 2 MiB
    block = np.ones(1 << 18)
    del block
faults = []


def batch(claimed):
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
    # 4 arrays of 1 MiB, each above glibc's default mmap threshold, freed on return
    arrays = [np.ones(1 << 17) for _ in range(4)]
    return [float(sum(a[0] for a in arrays)) for _ in claimed]


engine.run(batch, [(key, 0) for key in range(20)], 1)
faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
print(faults[-1] - faults[1])
"""


@needs_glibc
def test_padded_heap_serves_blocks_above_the_default_mmap_threshold():
    """Batches that allocate and free 1 MiB arrays fault them in once, in
    the first batch, whether or not the caller freed a 2 MiB block before
    the run: the pad pins glibc's mmap threshold, so the arrays come from
    the padded heap instead of being mmapped, and faulted in, on every
    batch, as they are at the default threshold that M_TOP_PAD alone
    freezes."""
    faults = {}
    for before in ("fresh", "freed"):
        proc = run_python(_PINNED_FAULTS, 60, before)
        assert proc.returncode == 0, proc.stderr
        faults[before] = int(proc.stdout)
    # one array faulted in again is 256 pages
    assert max(faults.values()) < 64, faults


_CALLER_FAULTS = """
import resource
import numpy as np
from specx import engine

engine.run(lambda claimed: [None for _ in claimed], [(0, 0)], 1)
# 1 MiB, above glibc's default mmap threshold, allocated and freed: once to
# fault it in, then 200 times counted
np.ones(1 << 17)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(200):
    np.ones(1 << 17)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@needs_glibc
def test_caller_allocates_without_faults_after_a_run():
    """After a run, the caller's 200 allocate-and-free rounds of a 1 MiB
    array fault in no page once the first has: the pad is kept, so the
    array comes from the heap. Setting the pad freezes glibc's mmap
    threshold, so a restore to its 128 KiB default mmapped and faulted in
    every one of them, 256 pages each."""
    proc = run_python(_CALLER_FAULTS, 60)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 64, proc.stdout


def test_run_of_no_tasks_returns_no_measurements():
    assert engine.run(lambda claimed: [], [], 4) == []


def test_child_failure_that_does_not_pickle_raises_its_repr(two_cpus, monkeypatch):
    """The child claims task 2 and fails on it with an exception that
    cannot be pickled (a lambda attribute); it comes back as a RuntimeError
    holding its repr, not as WorkerDied."""
    caller_claims_first(monkeypatch)
    child_began = multiprocessing.Event()

    def batch(claimed):
        if multiprocessing.parent_process() is None:
            child_began.wait(timeout=30)
            return [{} for _ in claimed]
        child_began.set()
        exc = RuntimeError(f"task {claimed[0][1]}")
        exc.hook = lambda: None
        raise exc

    with pytest.raises(RuntimeError) as raised:
        engine.run(batch, toy_tasks((4,)), 2)
    assert type(raised.value) is RuntimeError
    assert str(raised.value) == "RuntimeError('task 2')"
    assert multiprocessing.active_children() == []


def test_slow_caller_leaves_the_rest_to_the_child(two_cpus, monkeypatch):
    """The calling process claims first; while its batch runs, its child
    claims every other run, in shrinking claims."""
    caller_claims_first(monkeypatch)
    tasks = toy_tasks((5, 5, 5))
    child_done = multiprocessing.Event()

    def batch(claimed):
        if multiprocessing.parent_process() is None:
            child_done.wait(timeout=30)
        elif claimed[-1] == tasks[-1]:
            child_done.set()
        return [{"pid": os.getpid(), "claim": len(claimed)} for _ in claimed]

    measured = engine._run_split(batch, tasks, 2)
    assert child_done.is_set()
    caller = [m["pid"] == os.getpid() for m in measured]
    assert caller == [True] * 5 + [False] * 10
    assert [m["claim"] for m in measured] == [5] * 10 + [3] * 3 + [1, 1]
    assert multiprocessing.active_children() == []


class _SignalledFailure(engine._Failure):
    """A process's pinned failure that also sets pinned, an Event: a process
    builds it only after it has moved the cursor to the end."""

    pinned = None

    def __new__(cls, index, exc):
        cls.pinned.set()
        return super().__new__(cls, index, exc)


# failing tasks of one 8-trial point -> the process whose failure is raised.
# The caller claims tasks 0-3 and waits until its child has claimed 4 and 5;
# the child's batches wait until the caller has pinned its failure. So the
# caller fails at 1, and then no process claims 6 or 7 any more, or, having
# also claimed 6 and then 7, at 7.
@pytest.mark.parametrize(
    "failing, where", [({1}, "caller"), ({1, 4}, "caller"), ({5, 7}, "child")]
)
def test_lowest_failing_index_wins_in_caller_or_child(two_cpus, monkeypatch, failing, where):
    caller_claims_first(monkeypatch)
    tasks = toy_tasks((8,))
    child_began, caller_pinned = multiprocessing.Event(), multiprocessing.Event()
    failed_in, ran = multiprocessing.Array("q", len(tasks)), multiprocessing.Array("b", len(tasks))
    monkeypatch.setattr(_SignalledFailure, "pinned", caller_pinned)
    monkeypatch.setattr(engine, "_Failure", _SignalledFailure)

    def batch(claimed):
        trials = [t for _, t in claimed]
        for t in trials:
            ran[t] = 1
        if multiprocessing.parent_process() is not None:
            child_began.set()
            caller_pinned.wait(timeout=30)
        else:
            child_began.wait(timeout=30)
        bad = failing.intersection(trials)
        if bad:
            failed_in[min(bad)] = os.getpid()
            raise RuntimeError(f"task {min(bad)}")
        return [{} for _ in trials]

    with pytest.raises(RuntimeError, match=f"^task {min(failing)}$"):
        engine._run_split(batch, tasks, 2)
    pids = {j: failed_in[j] for j in failing}
    assert 0 not in pids.values() and len(set(pids.values())) == len(failing)
    assert (pids[min(failing)] == os.getpid()) == (where == "caller")
    assert ran[:] == [1] * 6 + [int(where == "child")] * 2
    assert multiprocessing.active_children() == []


def test_more_processes_than_cores_claim_each_task_once():
    """Four processes on two cores hammer one cursor with empty batches:
    each task still runs exactly once and comes back in its place."""
    tasks = toy_tasks((1,) * 40 + (37,) * 6 + (3,) * 20)
    index = {task: j for j, task in enumerate(tasks)}
    for _ in range(20):
        runs = multiprocessing.Array("i", len(tasks))

        def batch(claimed):
            for task in claimed:
                with runs.get_lock():
                    runs[index[task]] += 1
            return [{"task": task} for task in claimed]

        assert engine._run_split(batch, tasks, 4) == [{"task": task} for task in tasks]
        assert runs[:] == [1] * len(tasks)
        assert multiprocessing.active_children() == []


def run_python(code, timeout, *args):
    """Run code in a fresh interpreter that imports this specx, with args as
    its sys.argv[1:]."""
    src = str(Path(engine.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          timeout=timeout, env={**os.environ, "PYTHONPATH": path})


def run_script(tmp_path, code, timeout):
    """Run code as a script file in a fresh interpreter that imports this
    specx, so that spawned children can import the script's functions."""
    script = tmp_path / "script.py"
    script.write_text(code)
    src = str(Path(engine.__file__).resolve().parents[1])
    env = {
        k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    }
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          timeout=timeout, env=env, cwd=tmp_path)


_BLAS_THREADS = """
import multiprocessing, os, pathlib, time
from specx import engine

CHILD_RAN = pathlib.Path("child-ran")


def threads(claimed):
    # the caller's trials wait until the child has run one, so both run some
    if multiprocessing.parent_process() is not None:
        CHILD_RAN.touch()
    else:
        deadline = time.monotonic() + 30
        while not CHILD_RAN.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
    return [(os.getpid(), engine._openblas_thread_control()[0]()) for _ in claimed]


if __name__ == "__main__":
    engine._usable_cpus = lambda: 2
    engine._openblas_thread_control()[1](2)
    for method in ("fork", "spawn", "forkserver"):
        multiprocessing.set_start_method(method, force=True)
        CHILD_RAN.unlink(missing_ok=True)
        seen = engine.run(threads, [(point, 0) for point in range(8)], 2)
        in_child = {count for pid, count in seen if pid != os.getpid()}
        print(method, sorted({count for _, count in seen}), bool(in_child))
    print(engine._openblas_thread_control()[0]())
"""


def test_every_start_method_runs_trials_on_one_blas_thread(tmp_path):
    """A child that was spawned or started by the fork server caps BLAS at
    one thread before its first claim, as a forked child inherits the cap;
    each trial reads its process's thread count, and the caller's count of
    2 is restored after each run."""
    if engine._openblas_thread_control() is None:
        pytest.skip("NumPy's BLAS exposes no thread control")
    proc = run_script(tmp_path, _BLAS_THREADS, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "fork [1] True\nspawn [1] True\nforkserver [1] True\n2\n"


_HEAP_PAD = """
import multiprocessing, os, pathlib, time
from specx import engine

CHILD_RAN = pathlib.Path("child-ran")
PADDED = False


def set_padded(value):
    global PADDED
    PADDED = value


# at the top level, so that a spawned child, which imports this script, sees it too
engine._pad_heap = lambda: set_padded(True) or True


def padded(claimed):
    # the caller's trials wait until the child has run one, so both run some
    if multiprocessing.parent_process() is not None:
        CHILD_RAN.touch()
    else:
        deadline = time.monotonic() + 30
        while not CHILD_RAN.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
    return [(os.getpid(), PADDED) for _ in claimed]


if __name__ == "__main__":
    engine._usable_cpus = lambda: 2
    for method in ("fork", "spawn", "forkserver"):
        multiprocessing.set_start_method(method, force=True)
        CHILD_RAN.unlink(missing_ok=True)
        seen = engine.run(padded, [(point, 0) for point in range(8)], 2)
        in_child = {pad for pid, pad in seen if pid != os.getpid()}
        print(method, sorted({pad for _, pad in seen}), in_child, PADDED)
"""


def test_every_start_method_runs_trials_on_a_padded_heap(tmp_path):
    """A child that was spawned or started by the fork server pads the heap
    top itself before its first claim, as a forked child inherits the pad;
    the caller's heap stays padded after each run."""
    proc = run_script(tmp_path, _HEAP_PAD, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "".join(
        f"{method} [True] {{True}} True\n" for method in ("fork", "spawn", "forkserver")
    )


_UNPICKLABLE_PAYLOAD = """
import functools, multiprocessing, operator, sys, tempfile
from specx import WorkerDied, cli, engine


class FailsToUnpickle:
    def __reduce__(self):
        return operator.truediv, (1, 0)


def with_bad_payload(batch):
    # the child dies unpickling the first argument while the caller still
    # writes the second, 2 MiB, into its job pipe
    return functools.partial(len, FailsToUnpickle(), bytes(2 << 20), batch)


if __name__ == "__main__":
    engine._usable_cpus = lambda: 2
    run = engine.run
    for method in ("spawn", "forkserver"):
        multiprocessing.set_start_method(method, force=True)
        try:
            engine._run_split(with_bad_payload(None), [(0, 0), (0, 1)], 2)
        except WorkerDied as exc:
            print(method, exc)
        engine.run = lambda batch, tasks, workers: run(with_bad_payload(batch), tasks, workers)
        with tempfile.TemporaryDirectory() as out:
            code = cli.main(["sweep", "--config", "desk", "--axis", "snr", "--trials", "2",
                             "--workers", "2", "--out", out])
        engine.run = run
        print(method, code, multiprocessing.active_children())
"""


def test_child_dying_on_its_payload_raises_worker_died_under_every_start_method(tmp_path):
    """Under spawn and forkserver a child starts without the batch and
    unpickles it from a pipe whose read end only it holds; a child that dies
    doing so breaks the pipe while the caller writes, which raises
    WorkerDied instead of hanging, and the CLI exits 3 on it."""
    proc = run_script(tmp_path, _UNPICKLABLE_PAYLOAD, timeout=60)
    assert proc.returncode == 0, proc.stderr
    died = "specx-share-1 died while it was started"
    assert proc.stdout == (
        f"spawn {died}\nspawn 3 []\nforkserver {died}\nforkserver 3 []\n"
    )
    assert proc.stderr.count(f"error: a sweep worker died: {died}\n") == 2


_FORKSERVER_START_FAILURE = """
import functools, multiprocessing, operator
from specx import WorkerDied, engine

class FailsToUnpickle:
    def __reduce__(self):
        return operator.truediv, (1, 0)

multiprocessing.set_start_method("forkserver")
# the child dies unpickling the first argument while the caller still
# writes the second, 2 MiB, into its pipe
batch = functools.partial(len, FailsToUnpickle(), bytes(2 << 20))
try:
    engine._run_split(batch, [(0, 0), (0, 1)], 2)
except WorkerDied as exc:
    print(exc)
print(multiprocessing.active_children())
"""


def test_child_dying_at_forkserver_start_raises_worker_died():
    """Under forkserver a child that dies while it unpickles its payload
    breaks the pipe the caller writes the payload into; that raises
    WorkerDied naming the child, which the CLI reports with exit code 3."""
    proc = run_python(_FORKSERVER_START_FAILURE, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "specx-share-1 died while it was started\n[]\n"


_CHILD_DIES_HOLDING_THE_LOCK = """
import multiprocessing, os
from specx import WorkerDied, engine

multiprocessing.set_start_method("fork")
caller, claim, held = os.getpid(), engine._claim, multiprocessing.Event()

def dying_claim(ends, w, cursor, lock):
    if os.getpid() != caller:  # the child takes the lock and never releases it
        lock.acquire()
        held.set()
        os._exit(7)
    return claim(ends, w, cursor, lock)

def batch(claimed):
    held.wait(30)  # the caller's next claim comes after the child died
    return [{} for _ in claimed]

engine._claim = dying_claim
try:
    engine._run_split(batch, [(0, t) for t in range(4)], 2)
except WorkerDied as exc:
    print(exc)
print(multiprocessing.active_children())
"""


def test_child_dying_with_the_claim_lock_raises_worker_died():
    """A child that exits while it holds the claim lock never releases it;
    the caller's next claim raises WorkerDied naming the child instead of
    waiting on the lock for ever."""
    proc = run_python(_CHILD_DIES_HOLDING_THE_LOCK, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "specx-share-1 exited with code 7 while the claim lock was held\n[]\n"
    )


_START_METHOD_LEFT_UNSET = """
import dataclasses, multiprocessing
from specx import engine, load_config, sweep

engine._usable_cpus = lambda: 2
desk = load_config("desk")
cfg = dataclasses.replace(desk, sweep=dataclasses.replace(desk.sweep, snr_db=(0.0, 10.0),
                                                          n_trials=2))
assert sweep(cfg, "snr", workers=2) == sweep(cfg, "snr", workers=1)
print(multiprocessing.get_start_method(allow_none=True))
multiprocessing.set_start_method("spawn")
print(multiprocessing.get_start_method())
"""


def test_parallel_sweep_leaves_the_start_method_unset(tmp_path):
    """A 2-worker sweep takes its children from an explicit context, so the
    caller's start method is still unset afterwards and can be set."""
    proc = run_script(tmp_path, _START_METHOD_LEFT_UNSET, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "None\nspawn\n"
