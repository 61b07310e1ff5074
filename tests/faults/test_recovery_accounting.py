"""`recovery_counts()` accounting: the counters that `repro serve` and
the distributed tier export must be *exact* under deterministic fault
plans, and must survive pool rebuilds and runner teardowns — they are
process-wide facts about recoveries, not per-runner state.

Exactness needs care with process pools: a forked pool worker inherits
the plan with `fired=0`, so any plan used here pins faults with
`once_file` (at-most-once across processes) and uses single-chunk
layouts so one kill maps to exactly one rebuild and one re-dispatched
chunk.
"""

import pytest

from repro.experiments.runner import (
    Runner,
    _MEMORY_CACHE,
    note_recovery,
    recovery_counts,
)
from repro.experiments.spec import SweepSpec
from repro.testing import faults

JOBS = SweepSpec(models=("alexnet",), schemes=("np", "bp")).jobs()


@pytest.fixture(autouse=True)
def _clean():
    faults.clear()
    _MEMORY_CACHE.clear()
    yield
    faults.clear_env()
    _MEMORY_CACHE.clear()


class TestSnapshotSemantics:
    def test_snapshot_is_a_copy(self):
        snap = recovery_counts()
        snap["worker_restarts"] += 1000
        assert recovery_counts()["worker_restarts"] != snap["worker_restarts"]

    def test_note_recovery_accumulates_and_creates_keys(self):
        before = recovery_counts()
        note_recovery("worker_restarts")
        note_recovery("chunk_retries", 3)
        note_recovery("test_only_key", 2)
        after = recovery_counts()
        assert after["worker_restarts"] == before["worker_restarts"] + 1
        assert after["chunk_retries"] == before["chunk_retries"] + 3
        assert after["test_only_key"] == before.get("test_only_key", 0) + 2


class TestExactUnderKilledWorker:
    def test_one_kill_counts_one_restart_one_retry(self, tmp_path):
        """One SIGKILLed worker on a single-chunk dispatch is exactly
        one pool rebuild + one re-dispatched chunk — not two, not a
        count that depends on pool width or chunk interleaving."""
        before = recovery_counts()
        faults.install_env({"points": [
            {"site": "worker.chunk", "at": 0, "action": "kill",
             "once_file": str(tmp_path / "kill.once")}]})
        try:
            with Runner(workers=2, chunksize=len(JOBS)) as runner:
                table = runner.run(JOBS)
        finally:
            faults.clear_env()
        assert len(table) == len(JOBS)
        after = recovery_counts()
        assert after["worker_restarts"] == before["worker_restarts"] + 1
        assert after["chunk_retries"] == before["chunk_retries"] + 1

    def test_two_kills_count_two_restarts(self, tmp_path):
        """Sequential kills across *separate* sweeps accumulate — the
        counters are monotone across pool rebuilds and runner lifetimes."""
        before = recovery_counts()
        for attempt in range(2):
            _MEMORY_CACHE.clear()
            faults.install_env({"points": [
                {"site": "worker.chunk", "at": 0, "action": "kill",
                 "once_file": str(tmp_path / f"kill-{attempt}.once")}]})
            try:
                with Runner(workers=2, chunksize=len(JOBS)) as runner:
                    runner.run(JOBS)
            finally:
                faults.clear_env()
        after = recovery_counts()
        assert after["worker_restarts"] == before["worker_restarts"] + 2
        assert after["chunk_retries"] == before["chunk_retries"] + 2


class TestSurvivesPoolRebuilds:
    def test_counts_survive_runner_close_and_new_runner(self, tmp_path):
        """Tearing the pool down (close + fresh Runner) must not reset
        the counters — a service rebuilding pools between flights still
        reports every historical recovery."""
        before = recovery_counts()
        faults.install_env({"points": [
            {"site": "worker.chunk", "at": 0, "action": "kill",
             "once_file": str(tmp_path / "kill.once")}]})
        try:
            with Runner(workers=2, chunksize=len(JOBS)) as runner:
                runner.run(JOBS)
        finally:
            faults.clear_env()
        mid = recovery_counts()
        assert mid["worker_restarts"] == before["worker_restarts"] + 1

        # a brand-new runner (new pool manager, clean sweep) sees the
        # same counters and adds nothing without a fault
        _MEMORY_CACHE.clear()
        with Runner(workers=2, chunksize=len(JOBS)) as runner:
            runner.run(JOBS)
        after = recovery_counts()
        assert after["worker_restarts"] == mid["worker_restarts"]
        assert after["chunk_retries"] == mid["chunk_retries"]
