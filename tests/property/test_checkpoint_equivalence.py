"""Checkpoint/resume equivalence: interrupted == uninterrupted, bit
for bit.

The checkpoint contract extends the chunking contract one level up: a
pipeline run that is checkpointed at an arbitrary chunk seam, torn
down, and resumed from its envelope in a *fresh* pipeline must
reproduce the uninterrupted run exactly — cycles, bursts, per-kind
traffic, DRAM bank statistics, carried rewriter cache state, all of
it. Each envelope goes through JSON text first, as a journal record
does. These tests pin that contract across every trace generator,
scheme, and chunk size the equivalence suite already sweeps, plus the
envelope validation around it (fingerprint pinning, version checks,
cursor seams).
"""

import itertools
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.accel.zoo_ext import LlmGeometry
from repro.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointError,
    atomic_write_text,
    validate_envelope,
)
from repro.mem.pipeline import PipelineCheckpointed, TracePipeline
from repro.workloads import BpMetadataSpec, RandomSpec, StreamingSpec
from repro.workloads.llm import LlmDecodeSpec

SCHEMES = ("np", "guardnn-ci", "bp")

#: the fingerprint the validation tests pin envelopes to
FINGERPRINT = {"spec": {"type": "streaming"}, "chunk_requests": 64}


def keep_latest(kept):
    """An ``on_checkpoint`` hook that keeps the latest envelope in
    ``kept[0]``, round-tripped through JSON as the journal stores it."""
    def keep(envelope, chunks, requests_done):
        kept[:] = [json.loads(json.dumps(envelope))]
    return keep


def envelope(**fields):
    return {"version": CHECKPOINT_VERSION, "kind": "trace-pipeline",
            "fingerprint": FINGERPRINT, "cursor": 0, **fields}


TINY_LM = LlmGeometry("tiny-lm", d_model=64, layers=2, heads=2, d_ff=128,
                      vocab=512, max_seq=64)

spec_strategy = st.one_of(
    st.builds(StreamingSpec,
              nbytes=st.integers(1, 60).map(lambda n: n * 1024),
              write_fraction=st.sampled_from([0.0, 0.25, 0.4, 1.0])),
    st.builds(RandomSpec,
              n_requests=st.integers(1, 900),
              span_bytes=st.sampled_from([1 << 16, 1 << 22]),
              seed=st.integers(0, 5),
              write_fraction=st.sampled_from([0.0, 0.3, 0.5])),
    st.builds(BpMetadataSpec, nbytes=st.integers(1, 40).map(lambda n: n * 1024)),
    st.builds(LlmDecodeSpec, geometry=st.just(TINY_LM),
              layers=st.integers(1, 2), tokens=st.integers(1, 2),
              context=st.integers(1, 32)),
)


def _summary(results):
    out = {}
    for name, outcome in results.items():
        timing = outcome.result
        out[name] = (timing.cycles, timing.bursts, timing.requests,
                     timing.stats.read_bytes, timing.stats.write_bytes)
    return out


def _fresh(spec, schemes, chunk):
    if isinstance(spec, StreamingSpec):
        clone = StreamingSpec(spec.nbytes, base=spec.base,
                              write_fraction=spec.write_fraction,
                              stride=spec.stride)
    elif isinstance(spec, RandomSpec):
        clone = RandomSpec(spec.total_requests, spec.span_bytes,
                           seed=spec.seed, write_fraction=spec.write_fraction,
                           stride=spec.stride)
    elif isinstance(spec, BpMetadataSpec):
        clone = BpMetadataSpec(spec.nbytes, base=spec.base,
                               meta_base=spec.meta_base)
    else:
        clone = LlmDecodeSpec(spec.geometry, tokens=spec.tokens,
                              context=spec.context, layers=spec.layers,
                              elem_bytes=spec.elem_bytes, stride=spec.stride,
                              seed=spec.seed)
    return TracePipeline(clone, schemes=schemes, chunk_requests=chunk)


@settings(max_examples=15, deadline=None)
@given(spec=spec_strategy, scheme=st.sampled_from(SCHEMES),
       chunk=st.integers(1, 2048), stop_after=st.integers(1, 8))
def test_resume_is_bit_identical(spec, scheme, chunk, stop_after):
    """Checkpoint after an arbitrary chunk, resume in a fresh pipeline,
    and the final timings equal the uninterrupted run exactly — the
    interruption point is unobservable."""
    chunk = min(chunk, max(spec.total_requests, 1))
    kept = []

    reference = _summary(_fresh(spec, (scheme,), chunk).run())

    count = [0]

    def stop(*_args):
        count[0] += 1
        return count[0] >= stop_after

    first = _fresh(spec, (scheme,), chunk)
    try:
        first.run(on_checkpoint=keep_latest(kept), checkpoint_request=stop)
    except PipelineCheckpointed:
        resumed = _fresh(spec, (scheme,), chunk)
        results = resumed.run(resume_from=kept[0])
    else:
        # the run finished before the threshold (few chunks): nothing
        # was interrupted, so it must itself equal the reference
        results = _fresh(spec, (scheme,), chunk).run()
    assert _summary(results) == reference


@settings(max_examples=8, deadline=None)
@given(spec=spec_strategy, chunk=st.integers(16, 1024),
       every=st.integers(1, 4))
def test_periodic_checkpoints_resume_identically(spec, chunk, every):
    """A run writing periodic checkpoints finishes with the same result
    as one that never checkpoints, and resuming from the *last* written
    checkpoint reproduces it too (multi-scheme shared pass)."""
    chunk = min(chunk, max(spec.total_requests, 1))
    kept = []
    schemes = ("np", "guardnn-c", "bp")

    reference = _summary(_fresh(spec, schemes, chunk).run())
    written = []
    checkpointing = _fresh(spec, schemes, chunk)
    keep = keep_latest(kept)

    def on_checkpoint(envelope, chunks, done):
        keep(envelope, chunks, done)
        written.append((chunks, done))

    results = checkpointing.run(checkpoint_every=every,
                                on_checkpoint=on_checkpoint)
    assert _summary(results) == reference

    if written:
        resumed = _fresh(spec, schemes, chunk).run(resume_from=kept[0])
        assert _summary(resumed) == reference


def test_checkpoint_rejects_wrong_fingerprint():
    """A checkpoint resumes only the computation that wrote it: change
    the spec, the scheme set, or the chunk size and the load refuses."""
    kept = []
    spec = StreamingSpec(1 << 15, write_fraction=0.25)
    try:
        TracePipeline(spec, schemes=("np",), chunk_requests=64).run(
            on_checkpoint=keep_latest(kept),
            checkpoint_request=lambda *a: True)
    except PipelineCheckpointed:
        pass
    for wrong in (
        TracePipeline(StreamingSpec(1 << 16, write_fraction=0.25),
                      schemes=("np",), chunk_requests=64),
        TracePipeline(StreamingSpec(1 << 15, write_fraction=0.25),
                      schemes=("bp",), chunk_requests=64),
        TracePipeline(StreamingSpec(1 << 15, write_fraction=0.25),
                      schemes=("np",), chunk_requests=128),
    ):
        with pytest.raises(CheckpointError):
            wrong.run(resume_from=kept[0])


def test_checkpoint_envelope_validation():
    """One validator checks every envelope: an object, this build's
    version, the one kind, the expected fingerprint, and an integer
    cursor ≥ 0. A path where an envelope belongs is refused too."""
    assert validate_envelope(envelope(), FINGERPRINT) == envelope()
    for bad in ("run.ckpt", [envelope()],
                envelope(version=CHECKPOINT_VERSION + 1),
                envelope(kind="something-else"),
                envelope(fingerprint=dict(FINGERPRINT, chunk_requests=128)),
                envelope(cursor="5"), envelope(cursor=-1),
                {k: v for k, v in envelope().items() if k != "cursor"}):
        with pytest.raises(CheckpointError):
            validate_envelope(bad, FINGERPRINT)
    pipeline = TracePipeline(StreamingSpec(1 << 14), schemes=("np",),
                             chunk_requests=64)
    with pytest.raises(CheckpointError):
        pipeline.run(resume_from="run.ckpt")


def test_checkpoint_rejects_any_future_version():
    """Forward compatibility is refusal, not best-effort parsing: an
    envelope stamped by *any* newer writer — next version or far
    future — must be rejected with a clear error naming the version,
    never partially loaded."""
    for future in (CHECKPOINT_VERSION + 1, CHECKPOINT_VERSION + 7, 999999):
        stored = json.loads(json.dumps(envelope(
            version=future, cursor=3, state={"from": "a newer writer"})))
        with pytest.raises(CheckpointError) as error:
            validate_envelope(stored, FINGERPRINT)
        assert str(future) in str(error.value) or "version" in str(error.value)


def test_checkpoint_unknown_fields_at_current_version_ok():
    """Same-version envelopes with *extra* fields (a same-version
    writer recording more) load fine — versioning gates structure
    changes, not additive metadata."""
    stored = json.loads(json.dumps(envelope(
        cursor=2, novel_field={"nested": True}, another=[1, 2])))
    loaded = validate_envelope(stored, FINGERPRINT)
    assert loaded["cursor"] == 2
    assert loaded["novel_field"] == {"nested": True}


def test_atomic_write_text_is_atomic(tmp_path):
    """Publishing a new file over an old one leaves no temp debris and
    the file always holds one whole payload (the tmp+rename
    discipline the result cache and journal compaction use)."""
    path = str(tmp_path / "atomic.json")
    for i in range(3):
        atomic_write_text(path, json.dumps({"i": i}))
        with open(path) as handle:
            assert json.load(handle)["i"] == i
    leftovers = [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]
    assert leftovers == []


def test_checkpoint_requires_a_path():
    spec = StreamingSpec(1 << 14)
    pipeline = TracePipeline(spec, schemes=("np",), chunk_requests=64)
    with pytest.raises(ValueError):
        pipeline.run(checkpoint_every=2)
    with pytest.raises(ValueError):
        pipeline.run(checkpoint_request=lambda *a: False)


#: a three-distinct-stream pipeline job, parked after its second chunk
#: by :func:`_parked_envelope`
DAMAGE_PARAMS = {"workload": "streaming", "nbytes": 1 << 14,
                 "chunk_requests": 32, "schemes": ["np", "guardnn-ci", "bp"]}


def _parked_envelope():
    from repro.experiments.executors import pipeline_rows

    kept = []
    polls = itertools.count()
    with pytest.raises(PipelineCheckpointed):
        pipeline_rows(dict(DAMAGE_PARAMS), on_checkpoint=keep_latest(kept),
                      checkpoint_request=lambda: next(polls) == 2)
    return kept[0]


#: structural damage to an envelope's body, which the header checks
#: pass: (what the error names, how the envelope is damaged)
BODY_DAMAGE = {
    "missing scheme": ("'bp' state", lambda e: e["schemes"].pop("bp")),
    "missing session field": (
        "'np' state", lambda e: e["schemes"]["np"]["session"].pop("cycle")),
    "non-integer session field": (
        "'guardnn-ci' state", lambda e: e["schemes"]["guardnn-ci"]["session"]
        .update(cycle="many")),
    "short bank list": (
        "'bp' state",
        lambda e: e["schemes"]["bp"]["session"]["dram"]["banks"].pop()),
    "null rewriter state": (
        "'guardnn-ci' state",
        lambda e: e["schemes"]["guardnn-ci"].update(rewriter=None)),
    "schemes as a list": (
        "'np' state", lambda e: e.update(schemes=list(e["schemes"].values()))),
    "missing chunk count": ("chunk count", lambda e: e.pop("chunks")),
}


@pytest.mark.parametrize("damage", sorted(BODY_DAMAGE))
def test_damaged_envelope_body_is_a_checkpoint_error(damage):
    """Damage inside the body passes the header checks; restoring it
    raises :class:`CheckpointError` naming the scheme (or the chunk
    count), not the ``KeyError``, ``TypeError`` or ``ValueError``
    underneath."""
    from repro.experiments.executors import pipeline_rows

    names, damage_it = BODY_DAMAGE[damage]
    envelope = _parked_envelope()
    damage_it(envelope)
    with pytest.raises(CheckpointError, match=names):
        pipeline_rows(dict(DAMAGE_PARAMS), resume_from=envelope)


def test_damaged_envelope_restarts_a_pipeline_unit():
    """A unit leased with a damaged envelope restarts from request zero
    and commits the rows of an uninterrupted run."""
    from repro.distributed.coordinator import run_pipeline_unit
    from repro.experiments.executors import pipeline_rows
    from repro.experiments.jobs import Job, canonical_json

    envelope = _parked_envelope()
    envelope["schemes"]["bp"]["session"]["dram"]["banks"].pop()
    resumed = []
    rows = run_pipeline_unit(
        {"checkpoint": envelope}, Job("pipeline_run",
                                      canonical_json(DAMAGE_PARAMS)),
        upload=lambda state: None, on_resume=resumed.append)
    assert resumed == [envelope]
    assert rows == pipeline_rows(dict(DAMAGE_PARAMS))
