"""Seamless pipeline flights run on the worker pool.

A pipeline whose trace fits one chunk has no seam: nothing to stream,
cancel or checkpoint at before its result. ``repro serve`` therefore
computes it with the shared pool, like a sweep job, instead of on its
flight thread, where the pipeline's Python loops would hold the
interpreter lock the event loop and the sweep hand-offs need. A
multi-chunk flight stays on its thread and streams every seam.
"""

import asyncio
import threading

import pytest

import repro.experiments.runner as runner_module
from repro import perf
from repro.experiments.executors import pipeline_rows
from repro.service import ReproService, ServeConfig, ServiceClient

from conftest import wait_for

#: 2048 random requests: one chunk at the default chunk size
RANDOM_JOB = {"kind": "pipeline", "workload": "random",
              "schemes": ["np", "guardnn-ci", "bp"],
              "params": {"n_requests": 2048, "span_bytes": 1 << 28,
                         "seed": 11}}
#: 1 MB of streaming requests (16384): one chunk at the default size
STREAMING_JOB = {"kind": "pipeline", "workload": "streaming",
                 "schemes": ["np", "bp"], "params": {"nbytes": 1 << 20}}
#: the same stream in four 4096-request chunks
MULTI_CHUNK_JOB = {"kind": "pipeline", "workload": "streaming",
                   "schemes": ["np", "bp"], "chunk_requests": 1 << 12,
                   "params": {"nbytes": 1 << 20}}
#: ~2M requests in 128 chunks: holds the only flight slot until its
#: stream closes, and never reaches the pool itself
BLOCKER_JOB = {"kind": "pipeline", "workload": "streaming",
               "schemes": ["np"], "chunk_requests": 1 << 14,
               "params": {"nbytes": 128 << 20}}


@pytest.fixture
def served():
    previous = perf.fast_enabled()
    perf.set_fast(True)
    runner_module._MEMORY_CACHE.clear()
    service = ReproService(ServeConfig(port=0, workers=2, cache=False,
                                       max_running=1))
    ready = threading.Event()
    thread = threading.Thread(
        target=lambda: asyncio.run(service.serve_forever(ready)), daemon=True)
    thread.start()
    assert ready.wait(15), "service failed to come up"
    yield service, ServiceClient("127.0.0.1", service.port, timeout=120)
    service.request_shutdown()
    thread.join(15)
    runner_module._MEMORY_CACHE.clear()
    perf.set_fast(previous)
    perf.clear_caches()


def spy_on_pool(service):
    """Record every pool the service's manager lends from now on (the
    pre-bind warm-up has already happened)."""
    lent = []
    lend = service.pool_manager.pool

    def pool(workers):
        lent.append(workers)
        return lend(workers)

    service.pool_manager.pool = pool
    return lent


def direct_rows(job):
    params = {"workload": job["workload"], "schemes": job["schemes"],
              **job["params"]}
    if "chunk_requests" in job:
        params["chunk_requests"] = job["chunk_requests"]
    return pipeline_rows(params)


def run_collecting_progress(client, job):
    progress = []
    result = client.run(job, on_event=lambda event: progress.append(event)
                        if event["event"] == "progress" else None)
    return result, progress


@pytest.mark.parametrize("job", [RANDOM_JOB, STREAMING_JOB],
                         ids=["random", "streaming"])
def test_seamless_flight_runs_on_the_pool_with_direct_rows(served, job):
    service, client = served
    lent = spy_on_pool(service)
    result, _ = run_collecting_progress(client, job)
    assert result["rows"] == direct_rows(job)
    assert result["cached"] is False
    assert lent == [service.workers]


@pytest.mark.parametrize("job, requests", [(RANDOM_JOB, 2048),
                                           (STREAMING_JOB, 16384)],
                         ids=["random", "streaming"])
def test_seamless_flight_emits_one_progress_event(served, job, requests):
    _, client = served
    _, progress = run_collecting_progress(client, job)
    assert [(event["chunk"], event["requests_done"], event["total_requests"])
            for event in progress] == [(1, requests, requests)]


def test_flight_cancelled_before_start_never_reaches_the_pool(served):
    service, client = served
    lent = spy_on_pool(service)
    blocker = client.submit(BLOCKER_JOB)
    assert next(blocker)["event"] == "accepted"
    wait_for(lambda: service.admission.gauges()["running"] == 1)
    queued = client.submit(RANDOM_JOB)
    key = next(queued)["key"]
    queued.close()  # its only subscriber leaves while it waits
    wait_for(lambda: service.coalescer.peek(key).cancel.is_set())
    blocker.close()
    wait_for(lambda: service.metrics.get("cancelled_total") == 2)
    assert service.metrics.get("executions_total") == 1  # the blocker
    assert lent == []


def test_multi_chunk_flight_streams_every_chunk_on_its_thread(served):
    service, client = served
    lent = spy_on_pool(service)
    result, progress = run_collecting_progress(client, MULTI_CHUNK_JOB)
    assert result["rows"] == direct_rows(MULTI_CHUNK_JOB)
    assert [event["chunk"] for event in progress] == [1, 2, 3, 4]
    assert [event["requests_done"] for event in progress] == [
        4096, 8192, 12288, 16384]
    assert lent == []
