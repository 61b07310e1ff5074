"""Regression tests for the runner hardening pass that rode along with
``repro serve``: validated ``REPRO_SWEEP_WORKERS``, oldest-first LRU
eviction in the in-memory cache, and failure identity + partial-result
preservation when a job blows up inside a batch."""

import sys
import threading
import time

import pytest

import repro.experiments.runner as runner_module
from repro import perf
from repro.experiments import Job, ResultCache, Runner
from repro.experiments.jobs import executor
from repro.experiments.runner import (
    JobExecutionError,
    _memory_get,
    _memory_put,
    default_workers,
    recall_rows,
    remember_rows,
)


@executor("hardening_probe")
def _hardening_probe(params):
    """Deterministic toy executor; raises on demand so both the serial
    and the forked-pool failure paths can be exercised."""
    if params.get("boom"):
        raise ValueError(f"job {params['x']} exploded")
    return {"x": params["x"], "doubled": params["x"] * 2}


def probe(x, boom=False):
    return Job.make("hardening_probe", x=x, boom=boom)


class YieldingJob(Job):
    """A job whose hash lets other threads run: a ``Job`` hashes in
    Python, so a dict lookup can be cut short by another thread, and
    the yield makes that happen at every lookup."""

    def __hash__(self):
        time.sleep(0)  # releases the interpreter lock
        return super().__hash__()


@pytest.fixture
def fresh_memory_cache():
    previous = perf.fast_enabled()
    perf.set_fast(True)
    runner_module._MEMORY_CACHE.clear()
    yield runner_module._MEMORY_CACHE
    runner_module._MEMORY_CACHE.clear()
    perf.set_fast(previous)
    perf.clear_caches()


class TestDefaultWorkersEnv:
    def test_non_integer_is_actionable_config_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "abc")
        with pytest.raises(ValueError, match="REPRO_SWEEP_WORKERS='abc'"):
            default_workers()

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_non_positive_is_rejected(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", value)
        with pytest.raises(ValueError, match="REPRO_SWEEP_WORKERS"):
            default_workers()

    def test_whitespace_tolerated(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "  3  ")
        assert default_workers() == 3

    @pytest.mark.parametrize("clear", [True, False])
    def test_unset_or_empty_falls_back_to_cpu_default(self, monkeypatch, clear):
        if clear:
            monkeypatch.delenv("REPRO_SWEEP_WORKERS", raising=False)
        else:
            monkeypatch.setenv("REPRO_SWEEP_WORKERS", "")
        workers = default_workers()
        assert 1 <= workers <= runner_module._MAX_DEFAULT_WORKERS


class TestMemoryCacheLRU:
    def test_overflow_evicts_oldest_not_everything(self, fresh_memory_cache,
                                                   monkeypatch):
        monkeypatch.setattr(runner_module, "_MEMORY_CACHE_LIMIT", 4)
        jobs = [probe(i) for i in range(5)]
        for job in jobs:
            _memory_put(job, [{"x": job.params["x"]}])
        assert len(fresh_memory_cache) == 4
        assert _memory_get(jobs[0]) is None          # oldest evicted
        for job in jobs[1:]:                          # the rest survive
            assert _memory_get(job) is not None

    def test_lookup_touch_keeps_hot_entry_alive(self, fresh_memory_cache,
                                                monkeypatch):
        monkeypatch.setattr(runner_module, "_MEMORY_CACHE_LIMIT", 4)
        jobs = [probe(i) for i in range(4)]
        for job in jobs:
            _memory_put(job, [{"x": job.params["x"]}])
        assert _memory_get(jobs[0]) is not None       # touch the oldest
        _memory_put(probe(99), [{"x": 99}])           # forces one eviction
        assert _memory_get(jobs[0]) is not None       # hot entry survived
        assert _memory_get(jobs[1]) is None           # next-oldest paid

    def test_refreshing_existing_key_does_not_evict(self, fresh_memory_cache,
                                                    monkeypatch):
        monkeypatch.setattr(runner_module, "_MEMORY_CACHE_LIMIT", 2)
        _memory_put(probe(0), [{"x": 0}])
        _memory_put(probe(1), [{"x": 1}])
        _memory_put(probe(0), [{"x": 0, "fresh": True}])
        assert len(fresh_memory_cache) == 2
        assert _memory_get(probe(1)) is not None
        assert _memory_get(probe(0))[0]["fresh"] is True

    def test_threads_recall_and_remember_without_racing(
            self, fresh_memory_cache, monkeypatch):
        """``repro serve`` flights recall and remember rows on several
        threads at once: a touch or an eviction that interleaves with
        another thread's must not lose the key it just looked up, nor
        grow the cache past its limit."""
        monkeypatch.setattr(runner_module, "_MEMORY_CACHE_LIMIT", 6)
        jobs = [YieldingJob.make("hardening_probe", x=i) for i in range(8)]
        for job in jobs:
            remember_rows(job, [{"x": job.params["x"]}])
        errors = []
        start = threading.Barrier(4)

        def hammer(offset):
            try:
                start.wait(timeout=10)
                for step in range(200):
                    job = jobs[(step + offset) % len(jobs)]
                    if step % 4 == 3:
                        remember_rows(job, [{"x": job.params["x"]}])
                    else:
                        rows = recall_rows(job)
                        assert rows in (None, [{"x": job.params["x"]}])
            except Exception as error:  # reported by the main thread
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(offset,))
                       for offset in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(fresh_memory_cache) <= 6


class TestJobFailureIdentity:
    def test_serial_failure_names_the_job(self, fresh_memory_cache):
        jobs = [probe(0), probe(1), probe(2, boom=True), probe(3)]
        with pytest.raises(JobExecutionError) as excinfo:
            Runner(workers=1).run(jobs)
        error = excinfo.value
        assert error.job == jobs[2]
        assert "hardening_probe" in str(error)
        assert "exploded" in error.cause
        # everything that ran before the failure is preserved
        assert [position for position, _ in error.completed] == [0, 1]

    def test_serial_completed_rows_are_persisted(self, fresh_memory_cache,
                                                 tmp_path):
        cache = ResultCache(tmp_path)
        jobs = [probe(0), probe(1), probe(2, boom=True)]
        with pytest.raises(JobExecutionError):
            Runner(workers=1, cache=cache).run(jobs)
        for job in jobs[:2]:
            assert _memory_get(job) is not None
            assert cache.get(job) is not None
        assert cache.get(jobs[2]) is None

    def test_parallel_failure_names_the_job(self, fresh_memory_cache):
        jobs = [probe(0), probe(1, boom=True), probe(2), probe(3)]
        runner = Runner(workers=2, chunksize=1)
        with pytest.raises(JobExecutionError) as excinfo:
            runner.run(jobs)
        error = excinfo.value
        assert error.job == jobs[1]
        # one-job chunks: every other chunk completed despite the failure
        assert sorted(position for position, _ in error.completed) == [0, 2, 3]
        rows = dict(error.completed)
        assert rows[2] == [{"x": 2, "doubled": 4}]

    def test_parallel_failure_keeps_pool(self, fresh_memory_cache):
        runner = Runner(workers=2, chunksize=1)
        try:
            with pytest.raises(JobExecutionError):
                runner.run([probe(10), probe(11, boom=True)])
            # the worker caught the job's exception: the pool is healthy
            # and stays up for the next batch
            pool = runner._pool
            assert pool is not None
            table = runner.run([probe(12), probe(13)])
            assert [row["x"] for row in table.rows] == [12, 13]
            assert runner._pool is pool
        finally:
            runner.close()

    def test_retry_skips_preserved_rows(self, monkeypatch, tmp_path):
        # bypass the in-memory level so the on-disk persistence of the
        # pre-failure rows is what serves the retry
        monkeypatch.setattr(runner_module, "_memory_get", lambda job: None)
        monkeypatch.setattr(runner_module, "_memory_put", lambda job, rows: None)
        cache = ResultCache(str(tmp_path))
        jobs = [probe(20), probe(21, boom=True), probe(22)]
        runner = Runner(workers=1, cache=cache)
        with pytest.raises(JobExecutionError):
            runner.run(jobs)
        hits_before = cache.hits
        table = runner.run([jobs[0], probe(21), jobs[2]])
        assert [row["x"] for row in table.rows] == [20, 21, 22]
        # the preserved pre-failure job came back from cache, not
        # recomputation (serial execution stops at the failing job, so
        # the one job that ran before it is what was preserved)
        assert cache.hits == hits_before + 1
