"""Service integration tests: a real ``ReproService`` bound to an
ephemeral port on a background event-loop thread, driven over actual
sockets by the stdlib client.

Determinism notes: every concurrency-sensitive test pins
``max_running=1`` and parks a long streaming-pipeline "blocker" flight
in the single executor slot, so subsequently submitted flights are
guaranteed to overlap in the queue (coalescing, rejection) or to be
observably running (cancellation) without sleeping for luck.
"""

import asyncio
import http.client
import json
import socket
import threading

import pytest

import repro.experiments.runner as runner_module
from repro import perf
from repro.experiments import Runner, SweepSpec
from repro.experiments.executors import pipeline_rows
from repro.service import (
    ReproService,
    ServeConfig,
    ServiceClient,
    ServiceRejected,
)

from conftest import wait_for

SWEEP_SPEC = {"models": ["alexnet", "mobilenet"], "schemes": ["np", "bp"]}
SWEEP_JOB = {"kind": "sweep", "spec": SWEEP_SPEC}
PIPELINE_JOB = {"kind": "pipeline", "workload": "streaming",
                "schemes": ["np", "guardnn-ci"], "chunk_requests": 1 << 12,
                "params": {"nbytes": 1 << 20}}
#: long enough (~2M requests, 128 chunks) to still be running while a
#: test submits follow-up jobs; cancelled at a chunk boundary when its
#: stream is closed, so tests never wait for it to finish
BLOCKER_JOB = {"kind": "pipeline", "workload": "streaming",
               "schemes": ["np"], "chunk_requests": 1 << 14,
               "params": {"nbytes": 128 << 20}}


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
    config = ServeConfig(port=0, workers=2, cache=False, **overrides)
    service = ReproService(config)
    ready = threading.Event()
    thread = threading.Thread(
        target=lambda: asyncio.run(service.serve_forever(ready)), daemon=True)
    thread.start()
    assert ready.wait(15), "service failed to come up"
    client = ServiceClient("127.0.0.1", service.port, timeout=120)
    return service, client, thread


@pytest.fixture
def service_and_client(fresh_memory_cache):
    service, client, thread = start_service(max_running=1, max_queued=8)
    yield service, client
    service.request_shutdown()
    thread.join(15)


def drain(events):
    terminal = None
    for event in events:
        if event["event"] in ("result", "error", "cancelled"):
            terminal = event
    return terminal


class TestBitIdenticalResults:
    def test_sweep_matches_direct_runner(self, service_and_client):
        _, client = service_and_client
        streamed = client.run(SWEEP_JOB)
        direct = Runner(workers=2).run(
            SweepSpec(models=tuple(SWEEP_SPEC["models"]),
                      schemes=tuple(SWEEP_SPEC["schemes"])))
        assert streamed["table"]["rows"] == direct.rows
        assert streamed["table"]["columns"] == direct.columns

    def test_sweep_partials_reassemble_to_result(self, service_and_client):
        _, client = service_and_client
        partial_rows = []
        result = client.run(
            SWEEP_JOB,
            on_event=lambda e: partial_rows.extend(e["rows"])
            if e["event"] == "rows" else None)
        assert partial_rows == result["table"]["rows"]

    def test_pipeline_matches_direct_rows(self, service_and_client):
        _, client = service_and_client
        progress = []
        result = client.run(
            PIPELINE_JOB,
            on_event=lambda e: progress.append(e)
            if e["event"] == "progress" else None)
        direct = pipeline_rows({
            "workload": PIPELINE_JOB["workload"],
            "schemes": PIPELINE_JOB["schemes"],
            "chunk_requests": PIPELINE_JOB["chunk_requests"],
            **PIPELINE_JOB["params"]})
        assert result["rows"] == direct
        assert result["cached"] is False
        # 1 MiB / 64 B = 16384 requests in 4096-request chunks
        assert [p["chunk"] for p in progress] == [1, 2, 3, 4]
        assert progress[-1]["requests_done"] == progress[-1]["total_requests"]

    def test_repeat_pipeline_served_from_cache(self, service_and_client):
        _, client = service_and_client
        first = client.run(PIPELINE_JOB)
        second = client.run(PIPELINE_JOB)
        assert second["cached"] is True
        assert second["rows"] == first["rows"]


class TestCoalescing:
    def test_concurrent_identical_sweeps_execute_once(self, service_and_client):
        service, client = service_and_client
        blocker = client.submit(BLOCKER_JOB)
        assert next(blocker)["event"] == "accepted"
        try:
            stream_a = client.submit(SWEEP_JOB)
            accepted_a = next(stream_a)
            stream_b = client.submit(SWEEP_JOB)
            accepted_b = next(stream_b)
            assert accepted_a["coalesced"] is False
            assert accepted_b["coalesced"] is True
            assert accepted_a["key"] == accepted_b["key"]
        finally:
            blocker.close()  # free the slot so the sweep can run
        result_a, result_b = drain(stream_a), drain(stream_b)
        assert result_a == result_b
        assert result_a["event"] == "result"
        assert service.metrics.get("coalesced_total") == 1
        # blocker + one shared sweep flight — not one per subscriber
        assert service.metrics.get("executions_total") == 2

    def test_coalesced_subscriber_sees_replayed_prefix(self, service_and_client):
        service, client = service_and_client
        blocker = client.submit(BLOCKER_JOB)
        assert next(blocker)["event"] == "accepted"
        try:
            stream_a = client.submit(SWEEP_JOB)
            next(stream_a)
            stream_b = client.submit(SWEEP_JOB)
            next(stream_b)
        finally:
            blocker.close()
        # both subscribers observe the identical full event sequence
        events_a = [e for e in stream_a]
        events_b = [e for e in stream_b]
        assert events_a == events_b

    def test_different_jobs_do_not_coalesce(self, service_and_client):
        _, client = service_and_client
        stream_a = client.submit(SWEEP_JOB)
        key_a = next(stream_a)["key"]
        other = {"kind": "sweep",
                 "spec": {**SWEEP_SPEC, "schemes": ["np"]}}
        stream_b = client.submit(other)
        accepted_b = next(stream_b)
        assert accepted_b["key"] != key_a
        assert accepted_b["coalesced"] is False
        assert drain(stream_a)["event"] == "result"
        assert drain(stream_b)["event"] == "result"


class TestAdmissionControl:
    def test_saturated_service_rejects_with_retry_after(self, fresh_memory_cache):
        service, client, thread = start_service(max_running=1, max_queued=0)
        try:
            blocker = client.submit(BLOCKER_JOB)
            assert next(blocker)["event"] == "accepted"
            # the blocker must hold the slot (not just the queue) before
            # a zero-length queue can demonstrably shed load
            wait_for(lambda: service.admission.gauges()["running"] == 1,
                     timeout=20.0)
            with pytest.raises(ServiceRejected) as rejected:
                client.run(SWEEP_JOB)
            assert rejected.value.retry_after >= 1
            assert rejected.value.body["error"] == "saturated"
            assert service.metrics.get("rejected_total") == 1
            blocker.close()
            # capacity frees once the cancellation lands; the same job
            # is then admitted
            wait_for(lambda: service.admission.gauges()["running"] == 0,
                     timeout=20.0)
            assert client.run(SWEEP_JOB)["event"] == "result"
        finally:
            service.request_shutdown()
            thread.join(15)

    def test_coalesced_submission_bypasses_admission(self, fresh_memory_cache):
        service, client, thread = start_service(max_running=1, max_queued=0)
        try:
            blocker = client.submit(BLOCKER_JOB)
            assert next(blocker)["event"] == "accepted"
            wait_for(lambda: service.admission.gauges()["running"] == 1,
                     timeout=20.0)
            # identical to the running flight: joins it instead of
            # consuming (unavailable) capacity
            twin = client.submit(BLOCKER_JOB)
            assert next(twin)["coalesced"] is True
            twin.close()
            blocker.close()
            # both subscribers gone: let the cancellation land before
            # the fixture tears the loop down under the worker thread
            wait_for(lambda: service.metrics.get("cancelled_total") == 1,
                     timeout=20.0)
        finally:
            service.request_shutdown()
            thread.join(15)


class TestCancellation:
    def test_disconnect_cancels_and_releases_slot(self, service_and_client):
        service, client = service_and_client
        blocker = client.submit(BLOCKER_JOB)
        assert next(blocker)["event"] == "accepted"
        wait_for(lambda: service.admission.gauges()["running"] == 1,
                 timeout=20.0)
        blocker.close()  # last subscriber gone -> cooperative cancel
        wait_for(lambda: service.metrics.get("cancelled_total") == 1,
                 timeout=20.0)
        wait_for(lambda: service.admission.gauges()["running"] == 0,
                 timeout=20.0)
        assert service.coalescer.inflight == 0
        # the slot is genuinely reusable
        assert client.run(SWEEP_JOB)["event"] == "result"

    def test_cancelled_flight_is_not_a_failure(self, service_and_client):
        service, client = service_and_client
        blocker = client.submit(BLOCKER_JOB)
        assert next(blocker)["event"] == "accepted"
        wait_for(lambda: service.admission.gauges()["running"] == 1,
                 timeout=20.0)
        blocker.close()
        wait_for(lambda: service.metrics.get("cancelled_total") == 1,
                 timeout=20.0)
        assert service.metrics.get("failed_total") == 0


class TestMetricsEndpoint:
    def test_counters_match_traffic(self, service_and_client):
        _, client = service_and_client
        client.run(SWEEP_JOB)
        client.run(PIPELINE_JOB)
        client.run(PIPELINE_JOB)  # in-memory cache hit, still a flight
        snapshot = client.metrics()
        counters = snapshot["counters"]
        assert counters["requests_total"] == 3
        assert counters["admitted_total"] == 3
        assert counters["executions_total"] == 3
        assert counters["completed_total"] == 3
        assert counters["failed_total"] == 0
        assert counters["rejected_total"] == 0
        assert counters["events_streamed_total"] >= 3 * 2  # accepted + result
        assert counters["rows_streamed_total"] > 0
        assert snapshot["latency"]["count"] == 3
        assert snapshot["latency"]["p99_s"] >= snapshot["latency"]["p50_s"]
        assert snapshot["gauges"]["running"] == 0
        assert snapshot["gauges"]["inflight"] == 0
        assert snapshot["protocol_version"] == 1

    def test_bad_request_is_counted_not_fatal(self, service_and_client):
        _, client = service_and_client
        with pytest.raises(RuntimeError, match="400"):
            list(client.submit({"kind": "sweep", "preset": "nope"}))
        snapshot = client.metrics()
        assert snapshot["counters"]["bad_requests_total"] == 1
        assert snapshot["counters"]["admitted_total"] == 0
        # the daemon survives to serve a well-formed job
        assert client.run(SWEEP_JOB)["event"] == "result"

    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_malformed_content_length_is_a_counted_400(self, length,
                                                       service_and_client):
        service, client = service_and_client
        with socket.create_connection(("127.0.0.1", service.port),
                                      timeout=10) as sock:
            sock.sendall((f"POST /v1/jobs HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                          f"Content-Length: {length}\r\n\r\n").encode())
            response = http.client.HTTPResponse(sock)
            response.begin()
            body = json.loads(response.read())
        assert response.status == 400
        assert "Content-Length" in body["error"]
        snapshot = client.metrics()
        assert snapshot["counters"]["bad_requests_total"] == 1
        assert snapshot["counters"]["admitted_total"] == 0

    def test_health_endpoint(self, service_and_client):
        _, client = service_and_client
        assert client.health() is True
