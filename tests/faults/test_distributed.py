"""Partition-tolerance chaos tests for distributed sweep execution.

The acceptance scenario: a sweep sharded across multiple workers where
one worker is SIGKILLed mid-lease (a real subprocess, killed by the
fault harness the instant it holds a fresh lease) and another is
partitioned (every heartbeat dropped, its result delayed past the
lease term) must still complete, and the assembled table must be
**bit-identical** to the same sweep through a local ``Runner.run`` —
plus the late result from the lease-expired-then-returned worker must
be detected as a duplicate and dropped with the metric incremented.

All network faults are injected in-process via the ``dist.*`` sites
(worker-scoped as ``<site>@<name>``), so every interleaving here is
deterministic up to scheduling noise the protocol must absorb anyway.
"""

import json
import os
import signal
import subprocess
import sys
import threading

import pytest

from repro.distributed import SweepCoordinator, Worker, WorkerConfig
from repro.experiments.runner import Runner, _MEMORY_CACHE
from repro.experiments.spec import SweepSpec
from repro.experiments.table import ResultTable
from repro.testing import faults

from conftest import wait_for

SPEC = SweepSpec(models=("alexnet", "mobilenet"), schemes=("np", "bp"))
SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))), "src")


@pytest.fixture(autouse=True)
def _clean():
    faults.clear()
    _MEMORY_CACHE.clear()
    yield
    faults.clear_env()
    _MEMORY_CACHE.clear()


def _reference(jobs):
    with Runner(workers=2, cache=None) as runner:
        reference = runner.run(jobs).to_json()
    _MEMORY_CACHE.clear()
    return reference


def _table(rows_per_job) -> str:
    table = ResultTable()
    for rows in rows_per_job:
        table.extend(rows)
    return table.to_json()


def _start_worker(url, name, fault_delay=0.1):
    """Run a Worker on a daemon thread; returns (thread, outcome dict)."""
    outcome = {}

    def work():
        try:
            worker = Worker(WorkerConfig(url=url, name=name, workers=1,
                                         log=False, fault_delay=fault_delay,
                                         reconnect_timeout=20.0))
            outcome["exit"] = worker.run()
        except BaseException as error:  # noqa: BLE001 — recorded for asserts
            outcome["error"] = error

    thread = threading.Thread(target=work, name=f"worker-{name}", daemon=True)
    thread.start()
    return thread, outcome


def test_chaos_sigkill_and_partition_bit_identical(tmp_path):
    """The ISSUE's acceptance scenario, end to end over real HTTP."""
    jobs = SPEC.jobs()
    reference = _reference(jobs)

    coordinator = SweepCoordinator(jobs, cache=None, local_workers=1,
                                   unit_jobs=1, lease_seconds=1.0,
                                   wait_workers=120.0)
    state = coordinator.state
    try:
        # -- worker 1: a real subprocess SIGKILLed mid-lease -------------
        # the fault plan kills it at dist.unit[0] — after the lease is
        # granted, before any heartbeat — so it dies holding the unit
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        env["REPRO_FAULT_PLAN"] = json.dumps({"points": [
            {"site": "dist.unit@dead", "at": 0, "action": "kill"}]})
        dead = subprocess.Popen(
            [sys.executable, "-m", "repro", "work", coordinator.url,
             "--name", "dead", "--workers", "1"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            assert dead.wait(timeout=60) == -signal.SIGKILL
        finally:
            if dead.poll() is None:
                dead.kill()
        leased_by_dead = state.counters["leases_granted"]
        assert leased_by_dead >= 1, "dead worker never held a lease"

        # -- worker 2: partitioned — heartbeats dropped, result held
        # past the lease term, so its unit expires, is re-dispatched,
        # and its eventual answer arrives as a (verified) duplicate
        faults.install({"points": [
            {"site": "dist.heartbeat@flaky", "action": "drop",
             "times": None},
            {"site": "dist.result@flaky", "at": 0, "action": "delay"}]})
        flaky_thread, flaky = _start_worker(coordinator.url, "flaky",
                                            fault_delay=3.0)
        wait_for(lambda: state.counters["leases_granted"] > leased_by_dead,
                 interval=0.05)

        # -- worker 3: healthy; sweeps up everything the others forfeit
        healthy_thread, healthy = _start_worker(coordinator.url, "healthy")

        # completion first, then the partitioned worker's late result
        wait_for(lambda: state.done, timeout=60.0, interval=0.05)
        flaky_thread.join(timeout=60.0)
        healthy_thread.join(timeout=60.0)
        assert not flaky_thread.is_alive() and not healthy_thread.is_alive()
        assert flaky.get("exit") == 0, flaky.get("error")
        assert healthy.get("exit") == 0, healthy.get("error")
    finally:
        faults.clear()

    rows_per_job = coordinator.run()  # already done: assembles + closes
    assert _table(rows_per_job) == reference, \
        "distributed rows are not bit-identical to the local run"

    counters = state.counters
    # the SIGKILLed and the partitioned worker both forfeited a lease
    assert counters["lease_expirations"] >= 2
    assert state.snapshot()["redispatches"] >= 1
    # the lease-expired-then-returned worker's duplicate was detected
    assert counters["duplicate_results_dropped"] >= 1
    assert counters["duplicate_result_mismatches"] == 0
    assert counters["invalid_results"] == 0
    assert counters["units_completed"] == len(jobs)


def test_severed_result_ack_retries_to_duplicate():
    """The lost-ack case: the coordinator processes the commit but the
    response never reaches the worker. At-least-once retry must land as
    a verified duplicate, which the worker treats as success."""
    jobs = SPEC.jobs()[:2]
    reference = _reference(jobs)

    coordinator = SweepCoordinator(jobs, cache=None, local_workers=1,
                                   unit_jobs=2, lease_seconds=5.0,
                                   wait_workers=120.0)
    state = coordinator.state
    faults.install({"points": [
        {"site": "dist.result@lossy", "at": 0, "action": "sever"}]})
    try:
        thread, outcome = _start_worker(coordinator.url, "lossy")
        wait_for(lambda: state.done, timeout=60.0, interval=0.05)
        thread.join(timeout=60.0)
        assert outcome.get("exit") == 0, outcome.get("error")
    finally:
        faults.clear()

    assert _table(coordinator.run()) == reference
    assert state.counters["results_total"] == 2  # original + retry
    assert state.counters["duplicate_results_dropped"] == 1
    assert state.counters["units_completed"] == 1


def test_zero_workers_falls_back_to_local_pool():
    """Graceful degradation: no worker ever connects, the sweep still
    completes (local pool through the same lease/commit path) and is
    bit-identical to a plain local run."""
    jobs = SPEC.jobs()
    reference = _reference(jobs)

    coordinator = SweepCoordinator(jobs, cache=None, local_workers=2,
                                   unit_jobs=2, wait_workers=0.0)
    rows_per_job = coordinator.run()
    assert _table(rows_per_job) == reference
    counters = coordinator.state.counters
    assert counters["units_local"] == counters["units_completed"] == 2
    assert coordinator.state.live_remote_workers() == 0


def test_dropped_lease_requests_back_off_and_recover():
    """A worker whose first lease requests never reach the coordinator
    reconnects with backoff and still completes the sweep."""
    jobs = SPEC.jobs()[:2]
    reference = _reference(jobs)

    coordinator = SweepCoordinator(jobs, cache=None, local_workers=1,
                                   unit_jobs=1, lease_seconds=5.0,
                                   wait_workers=120.0)
    faults.install({"points": [
        {"site": "dist.lease@shaky", "at": 0, "action": "drop"},
        {"site": "dist.lease@shaky", "at": 1, "action": "drop"}]})
    try:
        thread, outcome = _start_worker(coordinator.url, "shaky")
        wait_for(lambda: coordinator.state.done, timeout=60.0, interval=0.05)
        thread.join(timeout=60.0)
        assert outcome.get("exit") == 0, outcome.get("error")
    finally:
        faults.clear()
    assert _table(coordinator.run()) == reference
    assert coordinator.state.counters["units_completed"] == 2
