"""Checkpoints written by an earlier FR-FCFS loop still resume.

A pipeline fingerprint pins the trace spec, the schemes and the chunk
size, not the code, so the API's ``resume_from`` loads envelopes that
an older build wrote. Both front doors refuse them: ``repro pipeline
--resume`` compares the build in the envelope's meta, and ``repro serve
--checkpoint-dir`` keys its records by the code fingerprint.
``data/bp_session_residue.ckpt.json`` was written at the third seam of
a chunked BP run by the leftovers-list controller loop. Its session
carries 31 bursts of window residue (out-of-order leftovers ahead of
the FIFO tail), 594 row hits serviced in runs but not yet counted in
the DRAM stats (``run_hits``), and that loop's cached
``leftover_hit_possible`` flag.
"""

import os

from repro.checkpoint import load_checkpoint
from repro.mem.controller import MemoryController
from repro.mem.pipeline import TracePipeline
from repro.workloads import StreamingSpec

FIXTURE = os.path.join(os.path.dirname(__file__), "data",
                       "bp_session_residue.ckpt.json")

#: the uninterrupted run's outcome, as the writing build computed it
UNINTERRUPTED = {
    "cycles": 15900,
    "bursts": 3152,
    "dram": {"row_hits": 3075, "row_misses": 19, "row_conflicts": 58,
             "refreshes": 1},
}


def _pipeline():
    return TracePipeline(StreamingSpec(128 << 10, write_fraction=0.4),
                         schemes=("bp",), chunk_requests=257)


def _outcome(pipeline, **run):
    result = pipeline.run(**run)["bp"].result
    return {"cycles": result.cycles, "bursts": result.bursts,
            "dram": dict(pipeline.controllers["bp"].dram.stats)}


def test_fixture_is_a_mid_stream_envelope_with_residue():
    session = load_checkpoint(FIXTURE, kind="trace-pipeline")["schemes"]["bp"]["session"]
    assert len(session["carry_write"]) == 31
    assert session["run_hits"] == 594
    assert session["leftover_hit_possible"] is False


def test_old_envelope_resumes_to_the_uninterrupted_run():
    uninterrupted = _outcome(_pipeline())
    assert uninterrupted == UNINTERRUPTED
    assert _outcome(_pipeline(), resume_from=FIXTURE) == UNINTERRUPTED


def test_old_envelope_folds_run_hits_into_dram_stats():
    """Loading the session alone already counts every issued burst:
    the envelope's pending ``run_hits`` land in ``row_hits``."""
    session_state = load_checkpoint(FIXTURE)["schemes"]["bp"]["session"]
    controller = MemoryController()
    controller.session().load_state(session_state)
    stats = controller.dram.stats
    assert stats["row_hits"] == session_state["dram"]["stats"]["row_hits"] + 594
    assert (stats["row_hits"] + stats["row_misses"] + stats["row_conflicts"]
            == session_state["bursts"])
