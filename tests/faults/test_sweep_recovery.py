"""Worker-crash recovery: a SIGKILLed pool worker must not change a
sweep's rows, only its wall clock.

The deterministic fault plan kills exactly one worker (``once_file``
guarantees the re-dispatched chunk survives), and the recovered sweep's
table is asserted *bit-identical* to the unfaulted reference — the
recovery machinery re-dispatches lost work, it never re-orders or
drops rows. Recovery is always on, so the tests build runners with no
recovery settings, and run every sweep that could hang under a
watchdog so a lost chunk fails the test instead of stalling the suite.
"""

import multiprocessing
import os
import signal
import threading

import pytest

from repro.experiments import get_sweep
from repro.experiments.jobs import Job
from repro.experiments.pool import WorkerPoolManager
from repro.experiments.runner import (
    JobExecutionError,
    Runner,
    _MEMORY_CACHE,
    recovery_counts,
)
from repro.experiments.spec import SweepSpec
from repro.testing import faults

SPEC = SweepSpec(models=("alexnet", "mobilenet"), schemes=("np", "bp"))
WATCHDOG_S = 60.0


@pytest.fixture(autouse=True)
def _clean():
    faults.clear()
    _MEMORY_CACHE.clear()
    yield
    faults.clear_env()
    _MEMORY_CACHE.clear()


def _reference():
    with Runner(workers=2, chunksize=1) as runner:
        return runner.run(SPEC).to_json()


def _within(seconds, fn):
    """``fn()`` on a daemon thread; fails if it is still running after
    ``seconds`` instead of hanging the suite."""
    outcome = {}

    def target():
        try:
            outcome["value"] = fn()
        except BaseException as error:  # re-raised on the test thread
            outcome["error"] = error

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"still running after {seconds:g} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


def test_sigkilled_worker_mid_sweep_rows_bit_identical(tmp_path):
    """The ISSUE's required scenario: SIGKILL one pool worker mid-sweep,
    sweep completes, rows bit-identical to the unfaulted run."""
    reference = _reference()
    _MEMORY_CACHE.clear()
    before = recovery_counts()
    faults.install_env({"points": [
        {"site": "worker.chunk", "at": 1, "action": "kill",
         "once_file": str(tmp_path / "killed.once")}]})
    try:
        with Runner(workers=2, chunksize=1) as runner:
            recovered = runner.run(SPEC).to_json()
    finally:
        faults.clear_env()
    assert recovered == reference
    after = recovery_counts()
    assert after["worker_restarts"] > before["worker_restarts"]
    assert after["chunk_retries"] > before["chunk_retries"]
    assert os.path.exists(tmp_path / "killed.once")


def test_default_runner_recovers_sigkilled_worker(tmp_path):
    """Recovery needs no settings: an argument-free ``Runner(workers=2)``
    (fork pool) whose worker is killed mid-chunk finishes the sweep
    with the unfaulted rows."""
    reference = _reference()
    _MEMORY_CACHE.clear()
    faults.install_env({"points": [
        {"site": "worker.chunk", "at": 2, "action": "kill",
         "once_file": str(tmp_path / "killed.once")}]})

    def sweep():
        with Runner(workers=2) as runner:
            return runner.run(SPEC).to_json()

    try:
        recovered = _within(WATCHDOG_S, sweep)
    finally:
        faults.clear_env()
    assert recovered == reference
    assert os.path.exists(tmp_path / "killed.once")


def test_sigkilled_worker_of_borrowed_forkserver_pool():
    """The service's start method: one worker of a warmed, borrowed
    ``forkserver`` pool is SIGKILLed (from here — forkserver workers do
    not inherit a fault plan installed after the fork server started);
    the next sweep on it rebuilds the pool once and returns the
    unfaulted rows."""
    reference = _reference()
    _MEMORY_CACHE.clear()
    before = recovery_counts()
    existing = {child.pid for child in multiprocessing.active_children()}
    with WorkerPoolManager(context="forkserver") as manager:
        manager.pool(2)
        victim = next(child for child in multiprocessing.active_children()
                      if child.pid not in existing)
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(WATCHDOG_S)
        assert not victim.is_alive()

        def sweep():
            with Runner(workers=2, pool_manager=manager) as runner:
                return runner.run(SPEC).to_json()

        recovered = _within(WATCHDOG_S, sweep)
    assert recovered == reference
    assert recovery_counts()["worker_restarts"] == before["worker_restarts"] + 1


def test_job_error_leaves_concurrent_flight_running():
    """A job error is data, not a broken pool: two flights share one
    borrowed ``forkserver`` manager, as under ``repro serve``; the one
    whose job raises fails alone, and the other finishes on the same
    pool with the serial rows."""
    good = get_sweep("fig3-inference").jobs()
    bad = [good[0], Job.make("accel_run", model="alexnet", zoo="auto",
                             scheme="np", scheme_params={}, batch=1,
                             training=False, config={"bogus": 1})]
    with Runner(workers=1) as runner:
        expected = runner.run(good).to_json()
    _MEMORY_CACHE.clear()
    errors = []
    with WorkerPoolManager(context="forkserver") as manager:
        manager.pool(2)

        def failing_flight():
            try:
                Runner(workers=2, chunksize=1, pool_manager=manager).run(bad)
            except JobExecutionError as error:
                errors.append(error)

        def good_flight():
            runner = Runner(workers=2, chunksize=1, pool_manager=manager)
            return runner.run(good).to_json()

        failing = threading.Thread(target=failing_flight, daemon=True)
        failing.start()
        rows = _within(WATCHDOG_S, good_flight)
        failing.join(WATCHDOG_S)
        assert not failing.is_alive()
    assert rows == expected
    assert [error.job for error in errors] == [bad[1]]
    assert "unsupported config overrides" in errors[0].cause


def test_retry_budget_exhaustion_raises_with_completed_rows(tmp_path):
    """A chunk that dies on *every* dispatch eventually surfaces as
    JobExecutionError naming a job of the lost chunk — after exactly
    the fixed two redispatches — with the completed chunks' rows
    preserved for caching."""
    faults.install_env({"points": [
        {"site": "worker.chunk", "at": 0, "action": "raise",
         "times": None}]})
    try:
        with Runner(workers=2, chunksize=1) as runner:
            with pytest.raises(JobExecutionError) as excinfo:
                runner.run(SPEC)
    finally:
        faults.clear_env()
    assert "worker lost or failed outside a job" in str(excinfo.value)
    assert "after 2 redispatch(es)" in str(excinfo.value)
    assert excinfo.value.job == SPEC.jobs()[0]
    assert sorted(position for position, _ in excinfo.value.completed) == [1, 2, 3]


def test_serial_path_untouched_by_worker_faults():
    """The workers<=1 path never crosses a process boundary, so a
    worker-site plan is inert there (sanity: fault scoping is real)."""
    reference = _reference()
    _MEMORY_CACHE.clear()
    faults.install({"points": [
        {"site": "worker.chunk", "action": "kill"}]})
    try:
        with Runner(workers=1) as runner:
            rows = runner.run(SPEC).to_json()
    finally:
        faults.clear()
    assert rows == reference
