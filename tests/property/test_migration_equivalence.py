"""Checkpoint *migration* equivalence: a successor that resumes from
an envelope another process uploaded mid-unit must produce rows — and
the ``rows_digest`` the coordinator verifies commits against — that
are bit-identical to a run that was never interrupted.

This is the distributed sibling of
``tests/property/test_checkpoint_equivalence.py``: there the envelope
travels through a file on disk; here it travels through the
``on_checkpoint`` hook exactly as the worker uploads it to the
coordinator's ``/v1/checkpoint`` — a plain dict, no file in between.
If the dict form drifted from the disk form (a stale field, a mutation
by the first run after capture), failover would stop being
deterministic and duplicate-commit verification would start rejecting
correct successors.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.distributed.protocol import rows_digest
from repro.experiments.executors import pipeline_rows
from repro.mem.pipeline import PipelineCheckpointed

SCHEME_SETS = (["np"], ["np", "bp"], ["np", "guardnn-ci"],
               ["np", "guardnn-c", "guardnn-ci"])

params_strategy = st.one_of(
    st.fixed_dictionaries({
        "workload": st.just("streaming"),
        "nbytes": st.integers(1, 24).map(lambda n: n * 1024),
        "write_fraction": st.sampled_from([0.0, 0.25, 0.5]),
        "schemes": st.sampled_from(SCHEME_SETS),
        "chunk_requests": st.sampled_from([8, 32, 128]),
    }),
    st.fixed_dictionaries({
        "workload": st.just("random"),
        "n_requests": st.integers(16, 400),
        "span_bytes": st.sampled_from([1 << 16, 1 << 20]),
        "seed": st.integers(0, 3),
        "schemes": st.sampled_from(SCHEME_SETS),
        "chunk_requests": st.sampled_from([8, 64]),
    }),
)


def _interrupt_then_resume(params, stop_after):
    """Run until ``stop_after`` envelopes have been captured, tear the
    run down, and resume a fresh run from the *last captured dict* —
    returning its rows, or None if the run finished before the
    interruption point (too few chunks to stop)."""
    envelopes = []

    def capture(state, chunks, requests_done):
        envelopes.append(dict(state))

    count = [0]

    def stop(*_args):
        count[0] += 1
        return count[0] >= stop_after

    try:
        pipeline_rows(dict(params), checkpoint_every=1,
                      on_checkpoint=capture, checkpoint_request=stop)
    except PipelineCheckpointed:
        assert envelopes, "interrupted without a captured envelope"
        return pipeline_rows(dict(params), resume_from=dict(envelopes[-1]))
    return None


@settings(max_examples=20, deadline=None)
@given(params=params_strategy, stop_after=st.integers(1, 6))
def test_resume_from_migrated_envelope_is_bit_identical(params, stop_after):
    reference = pipeline_rows(dict(params))
    resumed = _interrupt_then_resume(params, stop_after)
    if resumed is None:
        # finished before the interruption point: nothing to migrate,
        # but determinism itself must still hold
        resumed = pipeline_rows(dict(params))
    assert resumed == reference
    assert rows_digest([resumed]) == rows_digest([reference])


@settings(max_examples=10, deadline=None)
@given(params=params_strategy)
def test_every_seam_resumes_to_the_same_digest(params):
    """Whichever seam the first holder died at — first envelope, last,
    anywhere between — the successor's committed digest is the same.
    The coordinator's duplicate-commit verification depends on this:
    a straggler's late commit and a resumed successor's commit must
    be byte-equal."""
    reference = pipeline_rows(dict(params))
    digest = rows_digest([reference])

    envelopes = []
    pipeline_rows(dict(params), checkpoint_every=1,
                  on_checkpoint=lambda s, c, d: envelopes.append(dict(s)))
    # sample at most 3 seams (first, middle, last) to bound runtime
    picks = sorted({0, len(envelopes) // 2, len(envelopes) - 1}) \
        if envelopes else []
    for seam in picks:
        resumed = pipeline_rows(dict(params),
                                resume_from=dict(envelopes[seam]))
        assert resumed == reference
        assert rows_digest([resumed]) == digest


def test_envelope_capture_does_not_alter_the_run():
    """The capture hook itself is not allowed to perturb results: a run
    that uploads an envelope at every seam finishes with the same rows
    as one that never checkpoints."""
    params = {"workload": "streaming", "nbytes": 1 << 14,
              "chunk_requests": 32, "schemes": ["np", "bp"]}
    plain = pipeline_rows(dict(params))
    seen = []
    hooked = pipeline_rows(dict(params), checkpoint_every=1,
                           on_checkpoint=lambda s, c, d: seen.append(c))
    assert hooked == plain
    assert seen, "no envelope captured at checkpoint_every=1"
