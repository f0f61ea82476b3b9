"""The sweep engine on toy batches: no scenario, no config."""

import multiprocessing

import pytest

from specx import engine


def toy_tasks(sizes):
    """(point_idx, trial) tasks of points with the given trial counts."""
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
        def batch(point_idx, trials):
            return [{"threads": get()} for _ in trials]

        assert engine.run(batch, tasks, 1) == [{"threads": 1}] * 2
        assert get() == 2

        seen = []

        def failing(point_idx, trials):
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

    def batch(point_idx, trials):
        return [{"task": (point_idx, t)} for t in trials]

    monkeypatch.setattr(engine, "_openblas_thread_control", lambda: None)
    assert engine.run(batch, tasks, 1) == [{"task": task} for task in tasks]


def test_run_of_no_tasks_returns_no_measurements():
    assert engine.run(lambda point_idx, trials: [], [], 4) == []


def test_child_failure_that_does_not_pickle_raises_its_repr(two_cpus, monkeypatch):
    """The child claims task 2 and fails on it with an exception that
    cannot be pickled (a lambda attribute); it comes back as a RuntimeError
    holding its repr, not as WorkerDied."""
    caller_claims_first(monkeypatch)
    child_began = multiprocessing.Event()

    def batch(point_idx, trials):
        if multiprocessing.parent_process() is None:
            child_began.wait(timeout=30)
            return [{} for _ in trials]
        child_began.set()
        exc = RuntimeError(f"task {trials[0]}")
        exc.hook = lambda: None
        raise exc

    with pytest.raises(RuntimeError) as raised:
        engine.run(batch, toy_tasks((4,)), 2)
    assert type(raised.value) is RuntimeError
    assert str(raised.value) == "RuntimeError('task 2')"
    assert multiprocessing.active_children() == []
