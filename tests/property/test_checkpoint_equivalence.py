"""Checkpoint/resume equivalence: interrupted == uninterrupted, bit
for bit.

The checkpoint contract extends the chunking contract one level up: a
pipeline run that is checkpointed at an arbitrary chunk seam, torn
down, and resumed from disk in a *fresh* pipeline must reproduce the
uninterrupted run exactly — cycles, bursts, per-kind traffic, DRAM
bank statistics, carried cache/Merkle/counter state, all of it. These
tests pin that contract across every trace generator, scheme, and
chunk size the equivalence suite already sweeps, plus the envelope
validation around it (fingerprint pinning, version checks, cursor
seams).
"""

import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.accel.zoo_ext import LlmGeometry
from repro.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from repro.mem.pipeline import PipelineCheckpointed, TracePipeline
from repro.workloads import BpMetadataSpec, RandomSpec, StreamingSpec
from repro.workloads.llm import LlmDecodeSpec

SCHEMES = ("np", "guardnn-ci", "bp")


def save_to(path):
    """An ``on_checkpoint`` hook that publishes each envelope at ``path``."""
    return lambda envelope, chunks, requests_done: save_checkpoint(path,
                                                                   envelope)

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
def test_resume_is_bit_identical(tmp_path_factory, spec, scheme, chunk,
                                 stop_after):
    """Checkpoint after an arbitrary chunk, resume in a fresh pipeline,
    and the final timings equal the uninterrupted run exactly — the
    interruption point is unobservable."""
    tmp_path = tmp_path_factory.mktemp("ckpt")
    chunk = min(chunk, max(spec.total_requests, 1))
    path = str(tmp_path / "run.ckpt")

    reference = _summary(_fresh(spec, (scheme,), chunk).run())

    count = [0]

    def stop(*_args):
        count[0] += 1
        return count[0] >= stop_after

    first = _fresh(spec, (scheme,), chunk)
    try:
        first.run(on_checkpoint=save_to(path), checkpoint_request=stop)
    except PipelineCheckpointed:
        resumed = _fresh(spec, (scheme,), chunk)
        results = resumed.run(resume_from=path)
    else:
        # the run finished before the threshold (few chunks): nothing
        # was interrupted, so it must itself equal the reference
        results = _fresh(spec, (scheme,), chunk).run()
    assert _summary(results) == reference


@settings(max_examples=8, deadline=None)
@given(spec=spec_strategy, chunk=st.integers(16, 1024),
       every=st.integers(1, 4))
def test_periodic_checkpoints_resume_identically(tmp_path_factory, spec,
                                                 chunk, every):
    """A run writing periodic checkpoints finishes with the same result
    as one that never checkpoints, and resuming from the *last* written
    checkpoint reproduces it too (multi-scheme shared pass)."""
    tmp_path = tmp_path_factory.mktemp("ckpt")
    chunk = min(chunk, max(spec.total_requests, 1))
    path = str(tmp_path / "periodic.ckpt")
    schemes = ("np", "guardnn-c", "bp")

    reference = _summary(_fresh(spec, schemes, chunk).run())
    written = []
    checkpointing = _fresh(spec, schemes, chunk)
    def on_checkpoint(envelope, chunks, done):
        save_checkpoint(path, envelope)
        written.append((chunks, done))

    results = checkpointing.run(checkpoint_every=every,
                                on_checkpoint=on_checkpoint)
    assert _summary(results) == reference

    if written:
        resumed = _fresh(spec, schemes, chunk).run(resume_from=path)
        assert _summary(resumed) == reference


def test_checkpoint_rejects_wrong_fingerprint(tmp_path):
    """A checkpoint resumes only the computation that wrote it: change
    the spec, the scheme set, or the chunk size and the load refuses."""
    path = str(tmp_path / "pin.ckpt")
    spec = StreamingSpec(1 << 15, write_fraction=0.25)
    try:
        TracePipeline(spec, schemes=("np",), chunk_requests=64).run(
            on_checkpoint=save_to(path), checkpoint_request=lambda *a: True)
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
            wrong.run(resume_from=path)


def test_checkpoint_envelope_validation(tmp_path):
    missing = str(tmp_path / "nope.ckpt")
    with pytest.raises(CheckpointError):
        load_checkpoint(missing)

    corrupt = tmp_path / "bad.ckpt"
    corrupt.write_text("{not json")
    with pytest.raises(CheckpointError):
        load_checkpoint(str(corrupt))

    wrong_version = tmp_path / "old.ckpt"
    wrong_version.write_text(json.dumps(
        {"version": CHECKPOINT_VERSION + 1, "kind": "trace-pipeline"}))
    with pytest.raises(CheckpointError):
        load_checkpoint(str(wrong_version))

    wrong_kind = str(tmp_path / "kind.ckpt")
    save_checkpoint(wrong_kind, {"kind": "something-else"})
    with pytest.raises(CheckpointError):
        load_checkpoint(wrong_kind, kind="trace-pipeline")
    assert load_checkpoint(wrong_kind)["kind"] == "something-else"


def test_checkpoint_rejects_any_future_version(tmp_path):
    """Forward compatibility is refusal, not best-effort parsing: an
    envelope stamped by *any* newer writer — next version or far
    future — must be rejected with a clear error naming the version,
    never partially loaded."""
    for future in (CHECKPOINT_VERSION + 1, CHECKPOINT_VERSION + 7, 999999):
        path = tmp_path / f"future-{future}.ckpt"
        path.write_text(json.dumps({
            "version": future, "kind": "trace-pipeline",
            "state": {"cursor": 3, "from": "a newer writer"}}))
        with pytest.raises(CheckpointError) as error:
            load_checkpoint(str(path), kind="trace-pipeline")
        assert str(future) in str(error.value) or "version" in str(error.value)


def test_checkpoint_truncated_at_every_prefix_rejected(tmp_path):
    """A torn write (host crash mid-publish without the fsync+rename
    discipline) must never half-load: every strict byte prefix of a
    valid envelope raises CheckpointError — there is no prefix length
    at which a partial checkpoint silently parses as a shorter one."""
    path = str(tmp_path / "whole.ckpt")
    save_checkpoint(path, {"kind": "trace-pipeline",
                           "state": {"cursor": 5, "rows": [1, 2, 3]}})
    with open(path, "rb") as handle:
        payload = handle.read()
    truncated = str(tmp_path / "torn.ckpt")
    for cut in range(len(payload)):
        with open(truncated, "wb") as handle:
            handle.write(payload[:cut])
        with pytest.raises(CheckpointError):
            load_checkpoint(truncated, kind="trace-pipeline")
    # sanity: the full payload still loads
    with open(truncated, "wb") as handle:
        handle.write(payload)
    assert load_checkpoint(truncated)["state"]["cursor"] == 5


def test_checkpoint_unknown_fields_at_current_version_ok(tmp_path):
    """Same-version envelopes with *extra* fields (a same-version
    writer recording more) load fine — versioning gates structure
    changes, not additive metadata."""
    path = str(tmp_path / "extra.ckpt")
    save_checkpoint(path, {"kind": "trace-pipeline",
                           "state": {"cursor": 2},
                           "novel_field": {"nested": True},
                           "another": [1, 2]})
    loaded = load_checkpoint(path, kind="trace-pipeline")
    assert loaded["state"]["cursor"] == 2
    assert loaded["novel_field"] == {"nested": True}


def test_save_checkpoint_is_atomic(tmp_path):
    """Publishing a new checkpoint over an old one leaves no temp
    debris and the file always parses (the tmp+rename discipline)."""
    path = str(tmp_path / "atomic.ckpt")
    for i in range(3):
        save_checkpoint(path, {"kind": "trace-pipeline", "i": i})
        assert load_checkpoint(path)["i"] == i
    leftovers = [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]
    assert leftovers == []


def test_checkpoint_requires_a_path():
    spec = StreamingSpec(1 << 14)
    pipeline = TracePipeline(spec, schemes=("np",), chunk_requests=64)
    with pytest.raises(ValueError):
        pipeline.run(checkpoint_every=2)
    with pytest.raises(ValueError):
        pipeline.run(checkpoint_request=lambda *a: False)
