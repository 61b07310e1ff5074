"""Chaos tests for distributed *pipeline* execution: checkpoint
migration under real process death.

Three acceptance scenarios, each against a real ``repro work``
subprocess over real HTTP:

* **SIGKILL at a seam** — the fault plan kills the worker at its
  second envelope upload, so exactly one envelope migrated before the
  process died holding the lease. After the lease term a survivor must
  resume *from that envelope* (``resumed_units`` ≥ 1) and finish with
  rows bit-identical to an uninterrupted local run.
* **Corruption in flight** — the first upload is damaged on the wire;
  the coordinator must reject it (HTTP 400, nothing stored) and the
  successor falls back to the start of the unit — slower, never wrong.
* **SIGTERM drain** — a real signal to a real ``repro work`` process
  (sent by itself at a fixed chunk seam, through the fault plan) parks
  the pipeline at the next seam, uploads the final envelope,
  deregisters, and exits 0; the successor resumes from the drained
  worker's envelope without waiting out the lease term.
"""

import json
import os
import signal
import subprocess
import sys
import threading

import pytest

from repro.distributed import SweepCoordinator, Worker, WorkerConfig
from repro.experiments.executors import pipeline_rows
from repro.experiments.jobs import Job, canonical_json
from repro.experiments.runner import _MEMORY_CACHE
from repro.testing import faults

PARAMS = {"workload": "streaming", "nbytes": 1 << 16, "chunk_requests": 32,
          "schemes": ["np", "bp"]}
SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))), "src")


@pytest.fixture(autouse=True)
def _clean():
    faults.clear()
    _MEMORY_CACHE.clear()
    yield
    faults.clear_env()
    _MEMORY_CACHE.clear()


def pipeline_job():
    return Job("pipeline_run", canonical_json(PARAMS))


def _spawn_cli_worker(url, name, plan=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop(faults.ENV_VAR, None)
    if plan is not None:
        env[faults.ENV_VAR] = json.dumps(plan)
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "work", url, "--name", name,
         "--workers", "1", "--no-cache"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def _start_survivor(url, name="survivor"):
    outcome = {}

    def work():
        worker = Worker(WorkerConfig(url=url, name=name, log=False,
                                     reconnect_timeout=30.0))
        outcome["exit"] = worker.run()

    thread = threading.Thread(target=work, daemon=True)
    thread.start()
    return thread, outcome


def test_sigkill_mid_unit_survivor_resumes_from_migrated_envelope():
    reference = pipeline_rows(dict(PARAMS))
    _MEMORY_CACHE.clear()

    coordinator = SweepCoordinator([pipeline_job()], cache=None,
                                   lease_seconds=1.0, wait_workers=120.0,
                                   checkpoint_every=1)
    state = coordinator.state
    victim = _spawn_cli_worker(coordinator.url, "victim", plan={"points": [
        {"site": "dist.checkpoint@victim", "at": 1, "action": "kill"}]})
    try:
        assert victim.wait(timeout=120) == -signal.SIGKILL
    finally:
        if victim.poll() is None:
            victim.kill()
    # it died *after* the first envelope landed — mid-unit, for sure
    assert state.counters["checkpoints_migrated"] >= 1
    assert state.counters["units_completed"] == 0

    thread, outcome = _start_survivor(coordinator.url)
    rows_per_job = coordinator.run()
    thread.join(timeout=60.0)
    assert outcome.get("exit") == 0

    assert rows_per_job[0] == reference, \
        "resumed rows are not bit-identical to the uninterrupted run"
    counters = state.counters
    assert counters["resumed_units"] >= 1
    assert counters["lease_expirations"] >= 1
    assert counters["checkpoint_rejects"] == 0


def test_corrupt_envelope_rejected_successor_restarts_unit():
    reference = pipeline_rows(dict(PARAMS))
    _MEMORY_CACHE.clear()

    coordinator = SweepCoordinator([pipeline_job()], cache=None,
                                   lease_seconds=1.0, wait_workers=120.0,
                                   checkpoint_every=1)
    state = coordinator.state
    victim = _spawn_cli_worker(coordinator.url, "victim", plan={"points": [
        {"site": "dist.checkpoint@victim", "at": 0, "action": "corrupt"},
        {"site": "dist.checkpoint@victim", "at": 1, "action": "kill"}]})
    try:
        assert victim.wait(timeout=120) == -signal.SIGKILL
    finally:
        if victim.poll() is None:
            victim.kill()
    # the damaged envelope was rejected and nothing was stored
    assert state.counters["checkpoint_rejects"] >= 1
    assert state.counters["checkpoints_migrated"] == 0

    thread, outcome = _start_survivor(coordinator.url)
    rows_per_job = coordinator.run()
    thread.join(timeout=60.0)
    assert outcome.get("exit") == 0

    # slower — the successor started from scratch — but never wrong
    assert rows_per_job[0] == reference
    assert state.counters["resumed_units"] == 0
    assert state.counters["units_completed"] == 1


def test_sigterm_drain_parks_at_seam_and_successor_resumes():
    reference = pipeline_rows(dict(PARAMS))
    _MEMORY_CACHE.clear()

    # a 60 s lease term: only the drain's deregister (which releases the
    # lease immediately) can make the unit re-grantable within the test
    coordinator = SweepCoordinator([pipeline_job()], cache=None,
                                   lease_seconds=60.0, wait_workers=120.0,
                                   checkpoint_every=1)
    state = coordinator.state
    # the drainee sends itself a real SIGTERM as it starts its second
    # chunk, after the first envelope migrated: its handler then parks
    # the unit at the next seam, never racing the unit's end
    drainee = _spawn_cli_worker(coordinator.url, "drainee", plan={"points": [
        {"site": "pipeline.chunk", "at": 1, "action": "sigterm"}]})
    try:
        assert drainee.wait(timeout=120) == 0
    finally:
        if drainee.poll() is None:
            drainee.kill()
    counters = state.counters
    assert counters["checkpoints_migrated"] >= 1
    assert counters["workers_deregistered"] == 1
    assert counters["units_completed"] == 0  # parked, not finished

    thread, outcome = _start_survivor(coordinator.url)
    rows_per_job = coordinator.run()
    thread.join(timeout=60.0)
    assert outcome.get("exit") == 0

    assert rows_per_job[0] == reference
    assert state.counters["resumed_units"] >= 1
    assert state.counters["lease_expirations"] == 0  # released, not expired
