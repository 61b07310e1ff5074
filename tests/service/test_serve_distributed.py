"""``repro serve --distributed``: flights fanned through an embedded
coordinator, with the local pool as the zero-worker floor and a
journal per flight under the checkpoint directory.

Five contracts:

* **Local fallback** — with no worker connected a distributed service
  still answers sweep and pipeline flights, bit-identical to the
  direct APIs, and the spent per-flight journals are discarded.
* **Real worker** — a ``Worker`` parked against the fixed distributed
  port (reconnect budget disabled) joins the flight's coordinator and
  serves its units; the streamed result is unchanged.
* **Journal resume** — a journal left in the checkpoint directory by a
  daemon that died mid-flight is rebuilt into a flight at startup from
  the request riding in its header, recomputed without a client
  attached, and its rows land in the shared caches.
* **Quarantine** — an unreadable journal is set aside as ``.corrupt``
  at startup (counted) instead of wedging the daemon.
* **Cadence** — ``--checkpoint-every N`` reaches the grants of a
  distributed flight's pipeline units; without it they migrate every
  ``DEFAULT_CHECKPOINT_EVERY`` chunks.
"""

import asyncio
import os
import socket
import threading

import pytest

import repro.experiments.runner as runner_module
from repro import perf
from repro.distributed import (
    DEFAULT_CHECKPOINT_EVERY,
    Journal,
    Worker,
    WorkerConfig,
)
from repro.distributed.protocol import unit_key
from repro.experiments import Runner, SweepSpec
from repro.experiments.cache import code_fingerprint
from repro.experiments.executors import pipeline_rows
from repro.service import ReproService, ServeConfig, ServiceClient
from repro.service.protocol import parse_job_request

from conftest import wait_for

SWEEP_SPEC = {"models": ["alexnet", "mobilenet"], "schemes": ["np", "bp"]}
SWEEP_JOB = {"kind": "sweep", "spec": SWEEP_SPEC}
PIPELINE_JOB = {"kind": "pipeline", "workload": "streaming",
                "schemes": ["np"], "chunk_requests": 1 << 12,
                "params": {"nbytes": 1 << 20}}


@pytest.fixture
def fresh_memory_cache():
    previous = perf.fast_enabled()
    perf.set_fast(True)
    runner_module._MEMORY_CACHE.clear()
    yield runner_module._MEMORY_CACHE
    runner_module._MEMORY_CACHE.clear()
    perf.set_fast(previous)
    perf.clear_caches()


def start_service(**overrides):
    config = ServeConfig(port=0, workers=2, cache=False,
                         distributed=True, **overrides)
    service = ReproService(config)
    ready = threading.Event()
    thread = threading.Thread(
        target=lambda: asyncio.run(service.serve_forever(ready)), daemon=True)
    thread.start()
    assert ready.wait(15), "service failed to come up"
    client = ServiceClient("127.0.0.1", service.port, timeout=120)
    return service, client, thread


def stop_service(service, thread):
    service.request_shutdown()
    thread.join(15)


def free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def direct_pipeline_rows():
    rows = pipeline_rows({
        "workload": PIPELINE_JOB["workload"],
        "schemes": PIPELINE_JOB["schemes"],
        "chunk_requests": PIPELINE_JOB["chunk_requests"],
        **PIPELINE_JOB["params"]})
    runner_module._MEMORY_CACHE.clear()
    return rows


def test_zero_workers_falls_back_to_local_pool(fresh_memory_cache, tmp_path):
    service, client, thread = start_service(
        dist_port=0, checkpoint_dir=str(tmp_path))
    try:
        events = []
        streamed = client.run(SWEEP_JOB, on_event=events.append)
        direct = Runner(workers=2).run(
            SweepSpec(models=tuple(SWEEP_SPEC["models"]),
                      schemes=tuple(SWEEP_SPEC["schemes"])))
        assert streamed["table"]["rows"] == direct.rows

        # the flight announced its coordinator before executing
        announce = [e for e in events if e["event"] == "distributed"]
        assert len(announce) == 1
        assert announce[0]["epoch"] == 0
        assert announce[0]["replayed_units"] == 0

        runner_module._MEMORY_CACHE.clear()
        result = client.run(PIPELINE_JOB)
        assert result["rows"] == direct_pipeline_rows()

        assert service.metrics.get("distributed_flights_total") == 2
        # both flights delivered: their spent journals are gone
        assert not [name for name in os.listdir(tmp_path)
                    if name.endswith(".journal")]
    finally:
        stop_service(service, thread)


def test_parked_worker_serves_the_flight(fresh_memory_cache, tmp_path):
    port = free_port()
    outcome = {}

    def work():
        # budget 0: park against the (not yet listening) distributed
        # port forever — the fleet posture for a serve daemon
        worker = Worker(WorkerConfig(url=f"http://127.0.0.1:{port}",
                                     name="parked", workers=1, log=False,
                                     reconnect_timeout=0.0))
        outcome["worker"] = worker
        outcome["exit"] = worker.run()

    worker_thread = threading.Thread(target=work, daemon=True)
    worker_thread.start()
    wait_for(lambda: "worker" in outcome, timeout=10.0)

    service, client, thread = start_service(
        dist_port=port, dist_wait_workers=60.0,
        checkpoint_dir=str(tmp_path))
    try:
        streamed = client.run(SWEEP_JOB)
        direct = Runner(workers=2).run(
            SweepSpec(models=tuple(SWEEP_SPEC["models"]),
                      schemes=tuple(SWEEP_SPEC["schemes"])))
        assert streamed["table"]["rows"] == direct.rows
        # --dist-wait-workers held the local pool back, so the parked
        # worker must have registered and served every unit
        assert outcome["worker"].units_done >= 1
        # and "done" ended the flight, not the worker: it stays parked
        assert worker_thread.is_alive()
    finally:
        outcome["worker"].drain()
        stop_service(service, thread)
        worker_thread.join(20)


def test_journaled_flight_resumes_on_startup(fresh_memory_cache, tmp_path):
    # manufacture what a daemon killed mid-flight leaves behind: a
    # journal whose durable header carries the resubmittable request
    request = parse_job_request(PIPELINE_JOB)
    job = request.jobs()[0]
    fingerprint = code_fingerprint()
    key = request.key(fingerprint)
    path = os.path.join(str(tmp_path), key + ".journal")
    journal, replayed = Journal.recover(
        path, fingerprint, [unit_key([job], fingerprint)],
        meta={"request": request.resubmit_body()})
    journal.close()
    assert replayed is None  # fresh journal, durable header written

    service, client, thread = start_service(
        dist_port=0, checkpoint_dir=str(tmp_path))
    try:
        assert service.metrics.get("flights_resumed_total") == 1
        # the ownerless flight completes and its journal is spent
        wait_for(lambda: not os.path.exists(path), timeout=60.0)
        wait_for(lambda: service.metrics.get("completed_total") == 1,
                 timeout=30.0)
        assert service.metrics.get("distributed_flights_total") == 1

        # its rows landed in the memory cache: a client asking for the
        # same request is answered without recomputing
        result = client.run(PIPELINE_JOB)
        assert result["cached"] is True
        assert result["rows"] == direct_pipeline_rows()
    finally:
        stop_service(service, thread)


def test_unreadable_journal_quarantined_on_startup(fresh_memory_cache,
                                                   tmp_path):
    path = os.path.join(str(tmp_path), "deadbeef.journal")
    with open(path, "wb") as handle:
        handle.write(b"\xff not a journal\n")

    service, client, thread = start_service(
        dist_port=0, checkpoint_dir=str(tmp_path))
    try:
        assert service.metrics.get("journals_quarantined_total") == 1
        assert not os.path.exists(path)
        assert os.path.exists(path + ".corrupt")
        # the daemon is healthy: flights still execute
        result = client.run(PIPELINE_JOB)
        assert result["rows"] == direct_pipeline_rows()
    finally:
        stop_service(service, thread)


@pytest.mark.parametrize("every, granted",
                         [(1, 1), (0, DEFAULT_CHECKPOINT_EVERY)])
def test_checkpoint_every_reaches_the_grants(fresh_memory_cache, tmp_path,
                                             monkeypatch, every, granted):
    from repro.distributed.coordinator import CoordinatorState

    grants = []
    lease = CoordinatorState.lease

    def recording(state, worker):
        reply = lease(state, worker)
        if reply["event"] == "lease":
            grants.append(reply)
        return reply

    monkeypatch.setattr(CoordinatorState, "lease", recording)
    service, client, thread = start_service(
        dist_port=0, checkpoint_dir=str(tmp_path), checkpoint_every=every)
    try:
        assert client.run(PIPELINE_JOB)["rows"] == direct_pipeline_rows()
        assert [grant["checkpoint_every"] for grant in grants] == [granted]
    finally:
        stop_service(service, thread)
