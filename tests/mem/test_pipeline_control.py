"""Regression tests for the pipeline control seams the service relies
on: per-chunk progress callbacks, cooperative cancellation at chunk
boundaries (a progress hook raising :class:`PipelineCancelled`), the
one-shot guard, and NaN (not a silent 0.0) for a slowdown against an
empty baseline."""

import math
from types import SimpleNamespace

import pytest

from repro.mem.pipeline import PipelineCancelled, PipelineResult, TracePipeline
from repro.workloads import build_trace_spec

#: 1 MiB at the 64 B default stride = 16384 requests; 4096-request
#: chunks give exactly 4 chunk boundaries to observe
SPEC_PARAMS = {"nbytes": 1 << 20}
CHUNK = 4096


def make_pipeline(schemes=("np",)):
    return TracePipeline(build_trace_spec("streaming", **SPEC_PARAMS),
                         schemes=schemes, chunk_requests=CHUNK)


def result_with_cycles(cycles):
    return PipelineResult(scheme="np",
                          result=SimpleNamespace(cycles=cycles),
                          source_requests=0, chunks=0, chunk_requests=CHUNK)


class TestSlowdown:
    def test_zero_cycle_baseline_is_nan_not_zero(self):
        slow = result_with_cycles(1000).slowdown_vs(result_with_cycles(0))
        assert math.isnan(slow)

    def test_normal_ratio(self):
        assert result_with_cycles(300).slowdown_vs(
            result_with_cycles(100)) == pytest.approx(3.0)


class TestProgressCallback:
    def test_chunk_indices_are_one_based_and_complete(self):
        seen = []
        make_pipeline().run(
            on_chunk=lambda chunk, done, total: seen.append((chunk, done, total)))
        assert [chunk for chunk, _, _ in seen] == [1, 2, 3, 4]
        done = [d for _, d, _ in seen]
        assert done == sorted(done)
        assert seen[-1][1] == seen[-1][2]  # requests_done reaches total


def cancel_after(chunks_fed, limit):
    """An ``on_chunk`` hook that records each chunk and cancels the run
    at the seam after chunk ``limit``."""
    def on_chunk(chunk, done, total):
        chunks_fed.append(chunk)
        if chunk >= limit:
            raise PipelineCancelled(f"cancelled after {chunk} chunks")
    return on_chunk


class TestCancellation:
    def test_on_chunk_cancels_at_chunk_boundary(self):
        chunks_fed = []
        with pytest.raises(PipelineCancelled, match="after 2 chunks"):
            make_pipeline().run(on_chunk=cancel_after(chunks_fed, 2))
        assert chunks_fed == [1, 2]  # no chunk generated past the stop

    def test_never_stopping_runs_to_completion(self):
        results = make_pipeline(("np", "guardnn-ci")).run(
            on_chunk=cancel_after([], 5))
        assert set(results) == {"np", "guardnn-ci"}
        assert all(r.chunks == 4 for r in results.values())
        assert all(r.cycles > 0 for r in results.values())


class TestOneShotGuard:
    def test_second_run_is_refused(self):
        pipeline = make_pipeline()
        pipeline.run()
        with pytest.raises(RuntimeError, match="already ran"):
            pipeline.run()

    def test_cancelled_run_also_consumes_the_pipeline(self):
        pipeline = make_pipeline()
        with pytest.raises(PipelineCancelled):
            pipeline.run(on_chunk=cancel_after([], 1))
        with pytest.raises(RuntimeError, match="already ran"):
            pipeline.run()
