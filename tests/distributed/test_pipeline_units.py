"""Pipeline work units end to end, in process: singleton sharding, the
coordinator-computed fingerprint pinned against the real pipeline's,
checkpoint migration through real HTTP, mid-unit failover resume (by a
worker or by the coordinator's local fallback), the worker's
local-cache provenance, a worker refusing another build's lease, the
end of a run reaching a napping worker, and graceful drain."""

import os
import threading

import pytest

from repro.distributed import (
    DEFAULT_CHECKPOINT_EVERY,
    SweepCoordinator,
    Worker,
    WorkerConfig,
)
from repro.distributed.client import CoordinatorClient
from repro.experiments.cache import ResultCache
from repro.experiments.executors import pipeline_fingerprint, pipeline_rows
from repro.experiments.jobs import Job, canonical_json
from repro.experiments.runner import _MEMORY_CACHE
from repro.testing import faults

from conftest import wait_for

PARAMS = {"workload": "streaming", "nbytes": 1 << 14, "chunk_requests": 32,
          "schemes": ["np", "bp"]}


@pytest.fixture(autouse=True)
def clean_memory_cache():
    _MEMORY_CACHE.clear()
    yield
    _MEMORY_CACHE.clear()


def pipeline_job(params=None):
    return Job("pipeline_run", canonical_json(params or PARAMS))


def _start_worker(url, name, cache_dir=None):
    worker = Worker(WorkerConfig(url=url, name=name, log=False,
                                 reconnect_timeout=15.0,
                                 cache_dir=cache_dir))
    thread = threading.Thread(target=worker.run, daemon=True)
    thread.start()
    return worker, thread


class TestFingerprintPin:
    def test_matches_the_real_pipeline(self):
        """The coordinator validates envelopes against
        ``pipeline_fingerprint(params)`` computed *without* building a
        pipeline; the pipeline stamps envelopes with its own
        ``fingerprint()``. These must agree or every migration would be
        rejected as a different computation."""
        from repro.experiments.executors import _pipeline_config
        from repro.mem.pipeline import TracePipeline

        for params in (PARAMS,
                       {"workload": "random", "n_requests": 256,
                        "span_bytes": 1 << 20, "seed": 7,
                        "schemes": ["np"], "chunk_requests": 64},
                       {"workload": "bp-metadata", "nbytes": 1 << 12}):
            _, schemes, chunk_requests, spec = _pipeline_config(dict(params))
            real = TracePipeline(spec, schemes=schemes,
                                 chunk_requests=chunk_requests).fingerprint()
            assert pipeline_fingerprint(dict(params)) == real


class TestUnitSharding:
    def test_pipeline_jobs_become_singleton_units(self):
        sweep_jobs = [Job("accel_run", canonical_json({"i": i}))
                      for i in range(4)]
        jobs = sweep_jobs[:2] + [pipeline_job()] + sweep_jobs[2:]
        coordinator = SweepCoordinator(jobs, cache=None, unit_jobs=8,
                                       wait_workers=60.0)
        try:
            assert coordinator._unit_indices == [[0, 1], [2], [3, 4]]
            assert [u.pipeline for u in coordinator.state._units] == \
                [False, True, False]
            assert coordinator.state._units[1].fingerprint == \
                pipeline_fingerprint(PARAMS)
        finally:
            coordinator.close()


class TestEndToEnd:
    def test_worker_runs_unit_with_migration_rows_bit_identical(self):
        local = pipeline_rows(dict(PARAMS))
        _MEMORY_CACHE.clear()
        coordinator = SweepCoordinator([pipeline_job()], cache=None,
                                       wait_workers=60.0, lease_seconds=5.0,
                                       checkpoint_every=2)
        worker, thread = _start_worker(coordinator.url, "w1")
        rows_per_job = coordinator.run()
        thread.join(timeout=10.0)
        assert rows_per_job[0] == local
        counters = coordinator.state.counters
        assert counters["checkpoints_migrated"] >= 1
        assert counters["resumed_units"] == 0  # nobody died

    def test_sigkilled_holder_successor_resumes_mid_unit(self):
        """Simulated SIGKILL: the first holder uploads two envelopes
        through real HTTP and goes silent; after the lease term the
        re-grant carries the latest envelope and a real worker resumes
        — final rows bit-identical to an uninterrupted local run."""
        local = pipeline_rows(dict(PARAMS))
        _MEMORY_CACHE.clear()
        coordinator = SweepCoordinator([pipeline_job()], cache=None,
                                       wait_workers=60.0, lease_seconds=1.0,
                                       checkpoint_every=1)
        client = CoordinatorClient(coordinator.url)
        victim = client.register("victim")["worker"]
        lease = client.lease(victim)
        assert lease["pipeline"] is True

        class Died(Exception):
            pass

        uploads = []

        def upload(state, chunks, requests_done):
            client.checkpoint(victim, lease["unit"], lease["key"],
                              lease["lease"], state)
            uploads.append(requests_done)
            if len(uploads) == 2:
                raise Died()  # the process is gone; nothing renews

        with pytest.raises(Died):
            pipeline_rows(dict(PARAMS), checkpoint_every=1,
                          on_checkpoint=upload)
        # past the 1 s lease term, on the coordinator's clock
        clock = coordinator.state.clock
        coordinator.state.clock = lambda: clock() + 1.2

        _MEMORY_CACHE.clear()
        worker, thread = _start_worker(coordinator.url, "survivor")
        rows_per_job = coordinator.run()
        thread.join(timeout=10.0)
        assert rows_per_job[0] == local
        # expiry is lazy: the survivor's lease request observed it
        assert coordinator.state.counters["lease_expirations"] >= 1
        assert coordinator.state.counters["resumed_units"] >= 1
        assert worker.units_resumed == 1

    def test_local_fallback_resumes_from_migrated_envelope(self):
        """The last remote worker migrates the seam-2 envelope of a
        4-chunk unit and leaves; the coordinator's own fallback resumes
        from the envelope its grant carries. A fault planted at chunk 0
        fires only if the unit restarts from request zero."""
        params = {"workload": "streaming", "nbytes": 1 << 20,
                  "chunk_requests": 4096, "schemes": ["np", "bp"]}
        local = pipeline_rows(dict(params))
        _MEMORY_CACHE.clear()
        coordinator = SweepCoordinator([pipeline_job(params)], cache=None,
                                       local_workers=1, lease_seconds=30.0,
                                       checkpoint_every=2)
        client = CoordinatorClient(coordinator.url)
        holder = client.register("holder")["worker"]
        lease = client.lease(holder)

        class Left(Exception):
            pass

        def upload(state, chunks, requests_done):
            client.checkpoint(holder, lease["unit"], lease["key"],
                              lease["lease"], state)
            raise Left()

        with pytest.raises(Left):
            pipeline_rows(dict(params), checkpoint_every=2,
                          on_checkpoint=upload)
        client.deregister(holder)
        faults.install({"points": [
            {"site": "pipeline.chunk", "at": 0, "action": "raise"}]})
        try:
            rows_per_job = coordinator.run()
        finally:
            faults.clear()
        assert rows_per_job[0] == local
        assert coordinator.state.counters["resumed_units"] == 1

    def test_warm_coordinator_serves_unit_from_shared_cache(self, tmp_path):
        cache_dir = str(tmp_path / "shared")
        local = pipeline_rows(dict(PARAMS))
        _MEMORY_CACHE.clear()
        cold = SweepCoordinator([pipeline_job()], cache=ResultCache(cache_dir),
                                wait_workers=60.0, lease_seconds=5.0)
        worker, thread = _start_worker(cold.url, "w1")
        assert cold.run()[0] == local
        thread.join(timeout=10.0)

        _MEMORY_CACHE.clear()
        warm = SweepCoordinator([pipeline_job()], cache=ResultCache(cache_dir),
                                wait_workers=60.0, lease_seconds=5.0)
        client = CoordinatorClient(warm.url)
        wid = client.register("w2")["worker"]
        assert client.lease(wid)["event"] == "done"  # nothing to dispatch
        assert warm.run()[0] == local
        counters = warm.state.counters
        assert counters["cache_served_units"] == 1
        assert counters["leases_granted"] == 0

    def test_warm_local_coordinator_writes_no_journal(self, tmp_path):
        """A run the result cache answers in full has nothing to make
        durable: the cache is probed when the coordinator is built, and
        the journal is never created."""
        cache_dir = str(tmp_path / "shared")
        local = SweepCoordinator([pipeline_job()], port=None,
                                 cache=ResultCache(cache_dir)).run()[0]
        _MEMORY_CACHE.clear()
        path = str(tmp_path / "warm.journal")
        warm = SweepCoordinator([pipeline_job()], port=None,
                                cache=ResultCache(cache_dir),
                                journal_path=path)
        assert not os.path.exists(path)
        assert warm.run()[0] == local
        assert not os.path.exists(path)
        counters = warm.state.counters
        assert counters["cache_served_units"] == 1
        assert counters["lease_requests_total"] == 0

    def test_worker_local_cache_hit_commits_cache_hit_provenance(self,
                                                                 tmp_path):
        worker_cache = str(tmp_path / "worker")
        local = pipeline_rows(dict(PARAMS))
        _MEMORY_CACHE.clear()
        first = SweepCoordinator([pipeline_job()], cache=None,
                                 wait_workers=60.0, lease_seconds=5.0)
        worker, thread = _start_worker(first.url, "w1", cache_dir=worker_cache)
        assert first.run()[0] == local
        thread.join(timeout=10.0)

        # same unit again: the coordinator has no cache, so it leases —
        # but the worker's own cache answers without recompute
        _MEMORY_CACHE.clear()
        second = SweepCoordinator([pipeline_job()], cache=None,
                                  wait_workers=60.0, lease_seconds=5.0)
        worker2, thread2 = _start_worker(second.url, "w2",
                                         cache_dir=worker_cache)
        assert second.run()[0] == local
        thread2.join(timeout=10.0)
        assert second.state.counters["worker_cache_commits"] == 1
        assert second.state.counters["checkpoints_migrated"] == 0


class TestBuildMismatch:
    def test_worker_refuses_lease_from_another_build(self, tmp_path):
        """Unit keys hash the coordinator's code fingerprint: a worker
        that cannot reproduce a lease's key computes nothing, deregisters
        and exits 1, even with no reconnect budget."""
        coordinator = SweepCoordinator(
            [pipeline_job()], wait_workers=60.0, lease_seconds=5.0,
            cache=ResultCache(str(tmp_path), fingerprint="another-build"))
        try:
            worker = Worker(WorkerConfig(url=coordinator.url, name="other",
                                         log=False, reconnect_timeout=0))
            results = {}
            thread = threading.Thread(
                target=lambda: results.update(code=worker.run()),
                daemon=True)
            thread.start()
            thread.join(timeout=10.0)
            assert results.get("code") == 1
            counters = coordinator.state.counters
            assert counters["results_total"] == 0
            assert counters["workers_deregistered"] == 1
        finally:
            coordinator.close()


class TestRunEnd:
    def test_napping_worker_hears_done_and_exits_zero(self):
        """A worker napping in ``wait`` when the last unit commits
        still hears ``done``: ``run()`` keeps serving until it has, so
        the worker exits 0 instead of finding the port closed and
        spending its reconnect budget on a run that is over."""
        local = pipeline_rows(dict(PARAMS))
        _MEMORY_CACHE.clear()
        coordinator = SweepCoordinator([pipeline_job()], cache=None,
                                       wait_workers=60.0, lease_seconds=5.0)
        client = CoordinatorClient(coordinator.url)
        holder = client.register("holder")["worker"]
        lease = client.lease(holder)
        assert lease["event"] == "lease"

        results = {}
        worker = Worker(WorkerConfig(url=coordinator.url, name="napper",
                                     log=False, reconnect_timeout=15.0))
        thread = threading.Thread(
            target=lambda: results.update(code=worker.run()), daemon=True)
        thread.start()
        assert wait_for(lambda: coordinator.state.counters
                        ["lease_requests_total"] >= 2,
                        timeout=10.0)  # napper got "wait"
        client.result(holder, lease["unit"], lease["key"], lease["lease"],
                      rows=[local])
        client.deregister(holder)
        assert coordinator.run()[0] == local
        thread.join(timeout=5.0)
        assert results.get("code") == 0


class TestGracefulDrain:
    def test_drain_between_leases_deregisters_and_exits_zero(self):
        jobs = [Job("accel_run", canonical_json(
            {"model": "alexnet", "scheme": "np"}))]
        coordinator = SweepCoordinator(jobs, cache=None, wait_workers=60.0,
                                       lease_seconds=5.0)
        try:
            # park a worker in the wait loop by taking the only unit
            client = CoordinatorClient(coordinator.url)
            holder = client.register("holder")["worker"]
            assert client.lease(holder)["event"] == "lease"

            results = {}
            worker = Worker(WorkerConfig(url=coordinator.url, name="drainee",
                                         log=False, reconnect_timeout=15.0))
            thread = threading.Thread(
                target=lambda: results.update(code=worker.run()), daemon=True)
            thread.start()
            assert wait_for(lambda: coordinator.state.counters
                            ["lease_requests_total"] >= 2, timeout=10.0)
            worker.drain()
            thread.join(timeout=10.0)
            assert results.get("code") == 0
            assert coordinator.state.counters["workers_deregistered"] == 1
        finally:
            coordinator.state.failure = {"executor": "-", "params": "{}",
                                         "cause": "test teardown"}
            coordinator.close()

    def test_drain_mid_pipeline_unit_parks_at_seam_and_releases_lease(self):
        """A drained pipeline worker uploads a final envelope at the
        next chunk seam, deregisters (releasing the lease immediately),
        and exits 0; the successor resumes from that envelope."""
        local = pipeline_rows(dict(PARAMS))
        _MEMORY_CACHE.clear()
        coordinator = SweepCoordinator([pipeline_job()], cache=None,
                                       wait_workers=60.0, lease_seconds=30.0,
                                       checkpoint_every=1)
        worker = Worker(WorkerConfig(url=coordinator.url, name="drainee",
                                     log=False, reconnect_timeout=15.0))
        # drain the moment the first envelope lands — hooked into the
        # upload itself so the flag is already set when the worker
        # reaches the next seam (draining from this thread after
        # polling the counter would race a fast unit to completion)
        upload = worker.client.checkpoint

        def drain_after_upload(*args, **kwargs):
            reply = upload(*args, **kwargs)
            worker.drain()
            return reply

        worker.client.checkpoint = drain_after_upload
        results = {}
        thread = threading.Thread(
            target=lambda: results.update(code=worker.run()), daemon=True)
        thread.start()
        assert wait_for(lambda: coordinator.state.counters
                        ["checkpoints_migrated"] >= 1, timeout=10.0)
        thread.join(timeout=10.0)
        assert results.get("code") == 0
        counters = coordinator.state.counters
        assert counters["workers_deregistered"] == 1
        assert counters["units_completed"] == 0  # parked, not finished

        # with a 30s lease term, only the drain's release makes the
        # unit re-grantable now — and the grant carries the envelope
        _MEMORY_CACHE.clear()
        survivor, thread2 = _start_worker(coordinator.url, "survivor")
        rows_per_job = coordinator.run()
        thread2.join(timeout=10.0)
        assert rows_per_job[0] == local
        assert coordinator.state.counters["resumed_units"] >= 1
