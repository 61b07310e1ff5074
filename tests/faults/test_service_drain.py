"""Service durability: graceful drain checkpoints in-flight pipelines,
and a restarted daemon resumes them unprompted.

The drain protocol under test: SIGTERM/SIGINT (here triggered directly
via ``_begin_drain`` on the loop thread — the handler the signals are
bound to) flips the daemon into draining mode, where new submissions
get ``503 + Retry-After`` while in-flight pipelines are asked to
checkpoint at their next chunk seam. A fresh daemon pointed at the
same checkpoint directory re-admits the interrupted flight at startup,
finishes it from the cursor, and lands the rows in the shared caches —
so the client that retries after the restart sees the same bits an
uninterrupted run would have produced. Local and distributed flights
keep the same record, a coordinator journal, so a daemon of either mode
continues the other's parked flight from its seam.
"""

import asyncio
import os
import threading

import pytest

import repro.experiments.runner as runner_module
from repro import perf
from repro.experiments.executors import pipeline_rows
from repro.service import ReproService, ServeConfig, ServiceClient

from conftest import wait_for

#: ~1M streaming requests in 64 chunks: long enough that a drain
#: triggered after the first progress event always lands mid-flight,
#: short enough that the resumed remainder finishes in test time
DRAIN_JOB = {"kind": "pipeline", "workload": "streaming",
             "schemes": ["np"], "chunk_requests": 1 << 14,
             "params": {"nbytes": 64 << 20}}
#: never finished by any test: parked to hold the draining state open
BLOCKER_JOB = {"kind": "pipeline", "workload": "streaming",
               "schemes": ["np"], "chunk_requests": 1 << 14,
               "params": {"nbytes": 512 << 20}}


@pytest.fixture(autouse=True)
def fresh_memory_cache():
    previous = perf.fast_enabled()
    perf.set_fast(True)
    runner_module._MEMORY_CACHE.clear()
    yield
    runner_module._MEMORY_CACHE.clear()
    perf.set_fast(previous)
    perf.clear_caches()


def start_service(before=None, **overrides):
    """A daemon on its own loop thread; ``before(service)`` runs before
    it starts serving, so it sees the startup scan's flights too."""
    overrides.setdefault("cache", False)
    config = ServeConfig(port=0, workers=2, **overrides)
    service = ReproService(config)
    if before is not None:
        before(service)
    ready = threading.Event()
    thread = threading.Thread(
        target=lambda: asyncio.run(service.serve_forever(ready)), daemon=True)
    thread.start()
    assert ready.wait(15), "service failed to come up"
    client = ServiceClient("127.0.0.1", service.port, timeout=120)
    return service, client, thread


def trigger_drain(service):
    """What the SIGTERM handler does, minus the signal (the test
    process can't take a real SIGTERM without killing pytest)."""
    service._loop.call_soon_threadsafe(service._begin_drain)
    wait_for(lambda: service._draining, timeout=10.0)


def read_until(events, name):
    seen = []
    for event in events:
        seen.append(event)
        if event["event"] == name:
            return seen
    raise AssertionError(f"stream ended without a {name!r} event: {seen}")


def test_draining_rejects_new_jobs_with_503():
    """While draining, the front door sheds with 503 + Retry-After;
    the parked flight keeps streaming to its existing subscriber."""
    service, client, thread = start_service(max_running=1, drain_grace=60.0)
    events = client.submit(BLOCKER_JOB)
    try:
        read_until(events, "progress")
        before = client.metrics()["counters"]["rejected_total"]
        trigger_drain(service)
        assert client.metrics()["gauges"]["draining"] is True
        with pytest.raises(RuntimeError, match="503.*draining"):
            client.submit(DRAIN_JOB)
        assert client.metrics()["counters"]["rejected_total"] == before + 1
    finally:
        # hanging up on the blocker cancels it at the next chunk seam;
        # with no checkpoint_dir the drain then completes immediately
        events.close()
    thread.join(20)
    assert not thread.is_alive(), "drain did not shut the service down"


def test_drain_checkpoints_flight_then_restart_resumes_it(tmp_path):
    """The full durability loop: drain mid-pipeline -> terminal
    ``checkpointed`` event + envelope on disk -> fresh daemon on the
    same checkpoint_dir resumes the flight at startup -> a client
    retry is served the bit-identical rows from cache."""
    ckpt_dir = str(tmp_path / "ckpt")
    cache_dir = str(tmp_path / "cache")
    os.makedirs(ckpt_dir)

    service, client, thread = start_service(
        checkpoint_dir=ckpt_dir, drain_grace=60.0,
        cache=True, cache_dir=cache_dir)
    events = client.submit(DRAIN_JOB)
    seen = read_until(events, "progress")
    key = seen[0]["key"]
    trigger_drain(service)
    terminal = read_until(events, "checkpointed")[-1]

    ckpt_path = os.path.join(ckpt_dir, key + ".journal")
    assert terminal["checkpoint"] == ckpt_path
    assert os.path.exists(ckpt_path)
    assert 0 < terminal["requests_done"] < (64 << 20) // 64
    thread.join(20)
    assert not thread.is_alive(), "drain did not shut the service down"

    # --- restart: same checkpoint_dir, same cache ---
    runner_module._MEMORY_CACHE.clear()
    service2, client2, thread2 = start_service(
        checkpoint_dir=ckpt_dir, cache=True, cache_dir=cache_dir)
    try:
        # the startup scan re-admitted the flight with no client asking
        wait_for(lambda: client2.metrics()["counters"]["admitted_total"] >= 1)
        # ... and it resumed from the envelope rather than recomputing
        wait_for(lambda: client2.metrics()["counters"]
                 ["flights_resumed_total"] >= 1)
        # a completed flight retires its checkpoint
        wait_for(lambda: not os.path.exists(ckpt_path), timeout=60.0)

        result = client2.run(DRAIN_JOB)
        assert result["cached"] is True
        reference = pipeline_rows({
            "workload": DRAIN_JOB["workload"],
            "schemes": DRAIN_JOB["schemes"],
            "chunk_requests": DRAIN_JOB["chunk_requests"],
            **DRAIN_JOB["params"]})
        assert result["rows"] == reference
    finally:
        service2.request_shutdown()
        thread2.join(15)


def test_stale_checkpoint_from_other_fingerprint_is_dropped(tmp_path):
    """A checkpoint whose filename doesn't match the key recomputed
    from the current code fingerprint (i.e. written by a different
    build) is unlinked at startup, never resumed: bit-identity only
    holds within one build."""
    from repro.distributed import Journal
    from repro.experiments.cache import code_fingerprint

    ckpt_dir = str(tmp_path)
    stale = os.path.join(ckpt_dir, "0" * 64 + ".journal")
    journal, _ = Journal.recover(stale, code_fingerprint(), [], meta={
        "job": {"kind": "pipeline",
                "params": {"workload": "streaming",
                           "schemes": ["np"],
                           "chunk_requests": 1 << 12,
                           "nbytes": 1 << 20}}})
    journal.close()
    service, client, thread = start_service(checkpoint_dir=ckpt_dir)
    try:
        wait_for(lambda: not os.path.exists(stale), timeout=10.0)
        assert client.metrics()["counters"]["flights_resumed_total"] == 0
        assert client.metrics()["counters"]["admitted_total"] == 0
    finally:
        service.request_shutdown()
        thread.join(15)


def test_unreadable_checkpoint_is_quarantined_at_startup(tmp_path):
    """A corrupt/truncated/future-version checkpoint in the scan
    directory is renamed to ``.corrupt`` at startup — preserved as
    evidence, never re-parsed on the next restart, and never partially
    resumed — while the daemon comes up healthy."""
    ckpt_dir = str(tmp_path)
    torn = os.path.join(ckpt_dir, "a" * 64 + ".journal")
    with open(torn, "w") as handle:
        handle.write('{"type": "header", "journal": 1, "finger')  # torn write
    future = os.path.join(ckpt_dir, "b" * 64 + ".journal")
    with open(future, "w") as handle:
        handle.write('{"type": "header", "journal": 999, "epoch": 0, '
                     '"unit_keys": [], "meta": {}}\n')

    service, client, thread = start_service(checkpoint_dir=ckpt_dir)
    try:
        assert client.health()
        assert os.path.exists(torn + ".corrupt")
        assert os.path.exists(future + ".corrupt")
        assert not os.path.exists(torn)
        assert not os.path.exists(future)
        assert client.metrics()["counters"]["flights_resumed_total"] == 0
    finally:
        service.request_shutdown()
        thread.join(15)


def record_finished_flights(service, streams):
    """Append every finished flight's event stream (its replay buffer,
    terminal event last) to ``streams`` — the only witness of a
    clientless flight."""
    finish = service._finish_flight

    def recording(flight, final, latency):
        finish(flight, final, latency)
        streams.append(list(flight.events))

    service._finish_flight = recording


@pytest.mark.parametrize("first", [False, True],
                         ids=["local-then-distributed",
                              "distributed-then-local"])
def test_parked_flight_resumes_from_its_seam_in_the_other_mode(tmp_path,
                                                               first):
    """A flight drained under one mode is re-admitted by a daemon of the
    other mode with no workers, which continues from the journaled seam
    — not from request zero — and finishes bit-identical."""
    ckpt_dir = str(tmp_path)

    def mode(distributed):
        return {"distributed": True, "dist_port": 0} if distributed else {}

    service, client, thread = start_service(
        checkpoint_dir=ckpt_dir, drain_grace=60.0, **mode(first))
    events = client.submit(DRAIN_JOB)
    read_until(events, "progress")
    trigger_drain(service)
    parked = read_until(events, "checkpointed")[-1]
    thread.join(20)
    assert not thread.is_alive(), "drain did not shut the service down"
    seam = parked["requests_done"]
    assert 0 < seam < (64 << 20) // 64
    assert parked["checkpoint"].endswith(".journal")

    runner_module._MEMORY_CACHE.clear()
    streams = []
    service2, client2, thread2 = start_service(
        before=lambda daemon: record_finished_flights(daemon, streams),
        checkpoint_dir=ckpt_dir, **mode(not first))
    try:
        wait_for(lambda: streams, timeout=60.0)
        (stream,) = streams
        resumed = [e for e in stream if e["event"] == "resumed"]
        progress = [e for e in stream if e["event"] == "progress"]
        assert [e["requests_done"] for e in resumed] == [seam]
        assert progress[0]["requests_done"] == seam + DRAIN_JOB["chunk_requests"]
        assert progress[0]["chunk"] > 1
        assert stream[-1]["event"] == "result"
        assert stream[-1]["rows"] == pipeline_rows({
            "workload": DRAIN_JOB["workload"],
            "schemes": DRAIN_JOB["schemes"],
            "chunk_requests": DRAIN_JOB["chunk_requests"],
            **DRAIN_JOB["params"]})
        wait_for(lambda: not os.path.exists(parked["checkpoint"]))
    finally:
        service2.request_shutdown()
        thread2.join(15)
