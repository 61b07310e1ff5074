"""Runner: deterministic ordering, worker-count independence, the
two-level cache, the persistent pool, and (on real multi-core hardware)
the parallel speedup."""

import os
import time

import pytest

import repro.experiments.runner as runner_module
from repro import perf
from repro.experiments import (
    Job,
    ResultCache,
    Runner,
    SweepSpec,
    execute_job,
    get_sweep,
    run_sweep,
)

SPEC = SweepSpec(models=("alexnet", "mobilenet", "googlenet"),
                 schemes=("np", "guardnn-ci", "bp"),
                 modes=("inference", "training"))


@pytest.fixture
def no_memory_cache(monkeypatch):
    """Bypass the in-memory first-level cache so the on-disk layer's
    hit/miss accounting is observable in isolation."""
    monkeypatch.setattr(runner_module, "_memory_get", lambda job: None)
    monkeypatch.setattr(runner_module, "_memory_put", lambda job, rows: None)


@pytest.fixture
def fresh_memory_cache():
    """An empty in-memory first level with the fast path forced on (the
    layer is deliberately inert in scalar mode, so these tests would be
    vacuous under REPRO_SCALAR=1)."""
    from repro import perf

    previous = perf.fast_enabled()
    perf.set_fast(True)
    runner_module._MEMORY_CACHE.clear()
    yield runner_module._MEMORY_CACHE
    runner_module._MEMORY_CACHE.clear()
    perf.set_fast(previous)
    perf.clear_caches()


class TestOrdering:
    def test_rows_follow_job_order(self):
        table = Runner().run(SPEC)
        keys = [(r["mode"], r["model"], r["scheme_key"]) for r in table.rows]
        expected = [( "training" if j.params["training"] else "inference",
                      j.params["model"], j.params["scheme"]) for j in SPEC.jobs()]
        assert keys == expected

    def test_multi_row_executors_flatten_in_place(self):
        jobs = [Job.make("tcb_report"), Job.make("asic_overhead", engines=86)]
        table = Runner().run(jobs)
        assert table.rows[-1]["engines"] == 86
        assert len(table) > 2  # tcb_report contributed several rows


class TestWorkerIndependence:
    def test_results_identical_across_worker_counts(self):
        serial = Runner(workers=1).run(SPEC)
        parallel = Runner(workers=3).run(SPEC)
        assert serial == parallel

    def test_worker_count_does_not_leak_into_rows(self):
        table = Runner(workers=2).run(SweepSpec(models=("alexnet",), schemes=("np",)))
        assert "workers" not in table.columns


class TestCacheIntegration:
    def test_second_run_is_all_hits_and_identical(self, tmp_path, no_memory_cache):
        cache = ResultCache(str(tmp_path))
        first = Runner(cache=cache).run(SPEC)
        assert cache.misses == len(SPEC.jobs())
        cache2 = ResultCache(str(tmp_path))
        second = Runner(cache=cache2).run(SPEC)
        assert (cache2.hits, cache2.misses) == (len(SPEC.jobs()), 0)
        assert first == second

    def test_partial_overlap_only_computes_new_jobs(self, tmp_path, no_memory_cache):
        cache = ResultCache(str(tmp_path))
        Runner(cache=cache).run(SweepSpec(models=("alexnet",), schemes=("np", "bp")))
        cache2 = ResultCache(str(tmp_path))
        Runner(cache=cache2).run(
            SweepSpec(models=("alexnet",), schemes=("np", "bp", "guardnn-ci")))
        assert (cache2.hits, cache2.misses) == (2, 1)

    def test_parallel_run_populates_cache(self, tmp_path, no_memory_cache):
        cache = ResultCache(str(tmp_path))
        Runner(workers=2, cache=cache).run(SPEC)
        cache2 = ResultCache(str(tmp_path))
        table = Runner(workers=1, cache=cache2).run(SPEC)
        assert cache2.misses == 0
        assert len(table) == len(SPEC.jobs())

    def test_run_sweep_cache_true_uses_default_dir(self, tmp_path, monkeypatch,
                                                   fresh_memory_cache):
        monkeypatch.setenv("REPRO_SWEEP_CACHE_DIR", str(tmp_path))
        run_sweep("asic-overhead", cache=True)
        assert any(name.endswith(".json")
                   for _, _, files in os.walk(str(tmp_path)) for name in files)


class TestMemoryCache:
    """The in-memory first level in front of the on-disk ResultCache."""

    def test_repeat_run_skips_disk_and_recompute(self, tmp_path, fresh_memory_cache):
        spec = SweepSpec(models=("alexnet",), schemes=("np", "bp"))
        cache = ResultCache(str(tmp_path))
        runner = Runner(cache=cache)
        first = runner.run(spec)
        assert cache.misses == 2
        second = runner.run(spec)
        assert first == second
        assert (cache.hits, cache.misses) == (0, 2)  # disk never consulted again

    def test_served_rows_are_copies(self, fresh_memory_cache):
        spec = SweepSpec(models=("alexnet",), schemes=("np",))
        runner = Runner()
        first = runner.run(spec)
        first.rows[0]["total_cycles"] = -1
        second = runner.run(spec)
        assert second.rows[0]["total_cycles"] != -1

    def test_scalar_mode_bypasses_and_clears(self, fresh_memory_cache):
        from repro import perf

        runner = Runner()
        spec = SweepSpec(models=("alexnet",), schemes=("np",))
        runner.run(spec)
        assert fresh_memory_cache
        with perf.scalar_mode():
            assert not fresh_memory_cache  # dropped on mode switch
            runner.run(spec)
            assert not fresh_memory_cache  # and not repopulated

    def test_memory_and_disk_agree(self, tmp_path, fresh_memory_cache):
        spec = SweepSpec(models=("mobilenet",), schemes=("np", "guardnn-ci"))
        cache = ResultCache(str(tmp_path))
        from_compute = Runner(cache=cache).run(spec)
        from_memory = Runner(cache=cache).run(spec)
        fresh_memory_cache.clear()
        cache2 = ResultCache(str(tmp_path))
        from_disk = Runner(cache=cache2).run(spec)
        assert from_compute == from_memory == from_disk


class TestPersistentPool:
    def test_pool_is_reused_across_runs(self, fresh_memory_cache):
        with Runner(workers=2) as runner:
            runner.run(SweepSpec(models=("alexnet",), schemes=("np", "bp")))
            pool = runner._pool
            assert pool is not None
            fresh_memory_cache.clear()  # force re-execution, same pool
            runner.run(SweepSpec(models=("alexnet",), schemes=("np", "bp")))
            assert runner._pool is pool
        assert runner._pool is None  # context exit tears it down

    def test_chunk_payload_roundtrip(self):
        """What a pool worker ships back for a chunk unpickles to each
        job's rows, key order included (ResultTable infers its columns
        from it)."""
        import pickle

        jobs = [Job.make("accel_run", model="alexnet", scheme="bp"),
                Job.make("pipeline_run", workload="streaming",
                         nbytes=1 << 12, schemes=["np"])]
        chunk = (0, tuple(job.executor for job in jobs),
                 tuple(job.params_json for job in jobs), perf.fast_enabled())
        rows_per_job, error = pickle.loads(
            pickle.dumps(runner_module._run_chunk(chunk)))
        assert error is None
        expected = [execute_job(job) for job in jobs]
        assert rows_per_job == expected
        assert [list(r) for rows in rows_per_job for r in rows] == \
            [list(r) for rows in expected for r in rows]


@pytest.mark.slow
class TestParallelSpeedup:
    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 4,
                        reason="needs >= 4 usable CPUs to demonstrate speedup")
    def test_four_workers_at_least_2x_serial_on_extended_zoo(self):
        """The ISSUE acceptance criterion, gated on hardware that can
        physically exhibit it."""
        jobs = get_sweep("extended-zoo-full").jobs()
        t0 = time.perf_counter()
        serial = Runner(workers=1).run(jobs)
        t_serial = time.perf_counter() - t0
        t0 = time.perf_counter()
        parallel = Runner(workers=4).run(jobs)
        t_parallel = time.perf_counter() - t0
        assert parallel == serial
        assert t_serial / t_parallel >= 2.0
