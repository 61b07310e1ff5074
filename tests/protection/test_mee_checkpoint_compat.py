"""Checkpoints written by the speculative MEE rewriter still resume.

``data/bp_numpy_cache.ckpt.json`` was written at the second seam of a
chunked BP run over a random trace by the build whose MEE fast lane
kept its metadata cache in dense numpy arrays and rewrote each chunk by
speculation. Both cache classes serialize one canonical form (per set,
``[tag, dirty]`` pairs oldest first, plus the stats), and the rewriter
now keeps the ``OrderedDict`` cache in both modes, so the envelope must
resume bit-identically, in either mode, to the run it came from.
"""

import os

import pytest

from repro import perf
from repro.checkpoint import load_checkpoint
from repro.mem.pipeline import TracePipeline
from repro.workloads import RandomSpec

FIXTURE = os.path.join(os.path.dirname(__file__), "data",
                       "bp_numpy_cache.ckpt.json")

#: the uninterrupted run's outcome, as the writing build computed it
UNINTERRUPTED = {
    "cycles": 686469,
    "bursts": 28102,
    "dram": {"row_hits": 4452, "row_misses": 1184, "row_conflicts": 22466,
             "refreshes": 73},
    "mee_cache": (4091, 17895, 16871, 5798),
    "metadata_bytes": 1536384,
}


def _pipeline():
    return TracePipeline(RandomSpec(4096, 64 << 20, seed=7),
                         schemes=("bp",), chunk_requests=1024)


def _outcome(pipeline, **run):
    result = pipeline.run(**run)["bp"].result
    stats = pipeline.rewriters["bp"].cache.stats
    return {"cycles": result.cycles, "bursts": result.bursts,
            "dram": dict(pipeline.controllers["bp"].dram.stats),
            "mee_cache": (stats.hits, stats.misses, stats.evictions,
                          stats.dirty_evictions),
            "metadata_bytes": result.stats.metadata_bytes}


def test_fixture_is_a_mid_stream_envelope_with_a_full_cache():
    state = load_checkpoint(FIXTURE, kind="trace-pipeline")
    assert (state["chunks"], state["cursor"]) == (2, 2048)
    cache = state["schemes"]["bp"]["rewriter"]["cache"]
    assert sum(map(len, cache["sets"])) == cache["num_sets"] * cache["ways"]
    assert any(dirty for entries in cache["sets"] for _, dirty in entries)


@pytest.mark.parametrize("fast", [True, False], ids=["fast", "scalar"])
def test_old_envelope_resumes_to_the_uninterrupted_run(fast):
    previous = perf.fast_enabled()
    perf.set_fast(fast)
    try:
        assert _outcome(_pipeline()) == UNINTERRUPTED
        assert _outcome(_pipeline(), resume_from=FIXTURE) == UNINTERRUPTED
    finally:
        perf.set_fast(previous)
