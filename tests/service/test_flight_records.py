"""One record for durable flights: whichever mode wrote a flight's
journal, any daemon re-admits it at startup, and a flight that ends
with rows retires it.

Every flight, local or distributed, leaves its coordinator's
``<key>.journal`` under the checkpoint directory: committed units, the
latest chunk-seam envelope, and the resubmittable request in its
header's meta, so the startup scan rebuilds it into a flight in either
mode. The journal is deleted once the flight has rows, wherever they
came from (the result cache, the pool, the flight thread or a remote
worker), and an unreadable one is set aside as ``.corrupt`` instead of
being resumed.
"""

import asyncio
import os
import threading

import pytest

import repro.experiments.runner as runner_module
from repro import perf
from repro.distributed import Journal
from repro.distributed.protocol import unit_key
from repro.experiments.cache import code_fingerprint
from repro.experiments.executors import pipeline_rows
from repro.mem.pipeline import PipelineCheckpointed
from repro.service import ReproService, ServeConfig, ServiceClient
from repro.service.protocol import parse_job_request

from conftest import wait_for

#: 16384 requests in four chunks: a multi-chunk flight, so it streams
#: from its flight thread and has seams to checkpoint at
PIPELINE_JOB = {"kind": "pipeline", "workload": "streaming",
                "schemes": ["np"], "chunk_requests": 1 << 12,
                "params": {"nbytes": 1 << 20}}
REQUEST = parse_job_request(PIPELINE_JOB)


@pytest.fixture(autouse=True)
def fresh_memory_cache():
    previous = perf.fast_enabled()
    perf.set_fast(True)
    runner_module._MEMORY_CACHE.clear()
    yield
    runner_module._MEMORY_CACHE.clear()
    perf.set_fast(previous)
    perf.clear_caches()


def start_service(**overrides):
    overrides.setdefault("cache", False)
    config = ServeConfig(port=0, workers=2, **overrides)
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


def record_path(directory):
    return os.path.join(directory, REQUEST.key(code_fingerprint()) + ".journal")


def reference_rows():
    return pipeline_rows(dict(REQUEST.jobs()[0].params))


def write_checkpoint_record(directory):
    """What a local-mode daemon leaves when a drain parks the flight
    after two of its four chunks: a journal with the request in its
    header's meta and the seam envelope as its last record."""
    polls = []

    def park():
        polls.append(None)
        return len(polls) == 3

    envelopes = []
    with pytest.raises(PipelineCheckpointed):
        pipeline_rows(dict(REQUEST.jobs()[0].params),
                      on_checkpoint=lambda state, *_: envelopes.append(state),
                      checkpoint_request=park)
    fingerprint = code_fingerprint()
    path = record_path(directory)
    journal, _ = Journal.recover(
        path, fingerprint, [unit_key(REQUEST.jobs(), fingerprint)],
        meta={"request": REQUEST.resubmit_body()})
    journal.append_checkpoint(0, envelopes[-1]["cursor"], envelopes[-1])
    journal.close()
    return path


def test_distributed_daemon_resumes_local_checkpoint_and_deletes_it(tmp_path):
    path = write_checkpoint_record(str(tmp_path))
    service, client, thread = start_service(
        checkpoint_dir=str(tmp_path), distributed=True, dist_port=0)
    try:
        assert service.metrics.get("flights_resumed_total") == 1
        wait_for(lambda: service.metrics.get("completed_total") == 1,
                 timeout=60.0)
        assert service.metrics.get("distributed_flights_total") == 1
        assert not os.path.exists(path)
        result = client.run(PIPELINE_JOB)
        assert result["cached"] is True
        assert result["rows"] == reference_rows()
    finally:
        stop_service(service, thread)

    service, client, thread = start_service(
        checkpoint_dir=str(tmp_path), distributed=True, dist_port=0)
    try:
        assert service.metrics.get("admitted_total") == 0
        assert service.metrics.get("flights_resumed_total") == 0
    finally:
        stop_service(service, thread)


def test_local_daemon_readmits_journal_and_deletes_it(tmp_path):
    fingerprint = code_fingerprint()
    path = record_path(str(tmp_path))
    journal, _ = Journal.recover(
        path, fingerprint, [unit_key(REQUEST.jobs(), fingerprint)],
        meta={"request": REQUEST.resubmit_body()})
    journal.close()

    service, client, thread = start_service(checkpoint_dir=str(tmp_path))
    try:
        assert service.metrics.get("flights_resumed_total") == 1
        wait_for(lambda: service.metrics.get("completed_total") == 1,
                 timeout=60.0)
        assert service.metrics.get("distributed_flights_total") == 0
        assert not os.path.exists(path)
        result = client.run(PIPELINE_JOB)
        assert result["cached"] is True
        assert result["rows"] == reference_rows()
    finally:
        stop_service(service, thread)


def test_cache_hit_flight_deletes_its_checkpoint(tmp_path):
    service, client, thread = start_service(checkpoint_dir=str(tmp_path))
    try:
        computed = client.run(PIPELINE_JOB)
        assert computed["cached"] is False
        path = write_checkpoint_record(str(tmp_path))
        recalled = client.run(PIPELINE_JOB)
        assert recalled["cached"] is True
        assert recalled["rows"] == computed["rows"]
        assert not os.path.exists(path)
    finally:
        stop_service(service, thread)


def test_flight_retires_its_records_after_leaving_the_coalescer(tmp_path):
    """A request that sees a flight's record gone must not join that
    flight: the records go only once the flight table has let it go."""
    service, client, thread = start_service(checkpoint_dir=str(tmp_path))
    registered = []
    retire = service._retire

    def recording(key):
        registered.append(service._flights.get(key))
        retire(key)

    service._retire = recording
    try:
        assert client.run(PIPELINE_JOB)["rows"] == reference_rows()
        wait_for(lambda: registered)
        assert registered == [None]
    finally:
        stop_service(service, thread)


@pytest.mark.parametrize("content", [
    '{"type": "head\n{"type": "commit"}\n',      # mid-file damage
    '{"type": "header", "journal": 1, "finger',  # torn header
], ids=["mid-file", "torn-header"])
def test_corrupt_checkpoint_on_submit_is_quarantined(tmp_path, content):
    service, client, thread = start_service(checkpoint_dir=str(tmp_path))
    try:
        path = record_path(str(tmp_path))
        with open(path, "w") as handle:
            handle.write(content)
        events = []
        result = client.run(PIPELINE_JOB, on_event=events.append)
        assert os.path.exists(path + ".corrupt")
        assert not os.path.exists(path)
        assert service.metrics.get("journals_quarantined_total") == 1

        # recomputed from request zero, not resumed
        assert not [e for e in events if e["event"] == "resumed"]
        progress = [e for e in events if e["event"] == "progress"]
        assert progress[0]["chunk"] == 1
        assert progress[0]["requests_done"] == PIPELINE_JOB["chunk_requests"]
        assert result["rows"] == reference_rows()
    finally:
        stop_service(service, thread)


@pytest.mark.parametrize("distributed", [False, True],
                         ids=["local", "distributed"])
def test_flight_probes_and_fills_the_result_cache_once(tmp_path, distributed):
    """The flight's coordinator is the one that reads and writes the
    result cache: one probe (a miss) and one put per job, in either
    mode."""
    extra = {"distributed": True, "dist_port": 0} if distributed else {}
    service, client, thread = start_service(
        cache=True, cache_dir=str(tmp_path / "cache"),
        checkpoint_dir=str(tmp_path / "records"), **extra)
    try:
        result = client.run(PIPELINE_JOB)
        assert result["cached"] is False
        assert result["rows"] == reference_rows()
        counters = service.cache.counters
        assert (counters["misses"], counters["puts"]) == (1, 1)
    finally:
        stop_service(service, thread)
