"""Streaming-pipeline equivalence: chunked == monolithic, bit for bit.

The :class:`~repro.mem.pipeline.TracePipeline` promises that fusing
generate → rewrite → time per chunk changes *nothing* observable:
cycles, bursts, per-kind traffic, DRAM bank statistics, and the
metadata-cache state all match a monolithic run over the whole trace,
for every chunk size — including seams that split a coalesced
same-VN-unit hit-run or a DRAM row-hit run mid-way. These tests pin
that contract, plus the generator-level contracts underneath it
(vectorized batch == scalar objects; slicing never changes a stream).
"""

import contextlib
import itertools
import json
import random
import threading
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import native, perf
from repro.mem import pipeline as pipeline_module
from repro.mem.batch import RequestBatch
from repro.mem.controller import MemoryController
from repro.mem.layout import AddressLayout
from repro.mem.pipeline import (DEFAULT_CHUNK_REQUESTS, PipelineCancelled,
                                PipelineCheckpointed, TracePipeline,
                                run_materialized)
from repro.testing import faults
from repro.mem.trace import MemoryRequest
from repro.protection.trace_rewriter import build_trace_rewriter
from repro.workloads import (
    BpMetadataSpec,
    RandomSpec,
    StreamingSpec,
    build_trace_spec,
)
from repro.workloads.generators import (
    bp_metadata_batch,
    bp_metadata_trace,
    random_batch,
    random_trace,
    streaming_batch,
    streaming_trace,
)
from repro.accel.zoo_ext import LlmGeometry
from repro.workloads.llm import LlmDecodeSpec, llm_decode_spec

SCHEMES = ("np", "guardnn-ci", "bp")

#: a test-sized decoder geometry: the same address-map structure as
#: gpt2-xl (embedding table / per-layer weights / KV rings) at a size
#: hypothesis can afford hundreds of end-to-end runs of
TINY_LM = LlmGeometry("tiny-lm", d_model=64, layers=2, heads=2, d_ff=128,
                      vocab=512, max_seq=64)

spec_strategy = st.one_of(
    st.builds(StreamingSpec,
              nbytes=st.integers(1, 80).map(lambda n: n * 1024),
              write_fraction=st.sampled_from([0.0, 0.25, 0.3, 0.4, 0.7, 1.0])),
    st.builds(RandomSpec,
              n_requests=st.integers(1, 1200),
              span_bytes=st.sampled_from([1 << 16, 1 << 22, 1 << 26]),
              seed=st.integers(0, 5),
              write_fraction=st.sampled_from([0.0, 0.3, 0.5])),
    st.builds(BpMetadataSpec, nbytes=st.integers(1, 60).map(lambda n: n * 1024)),
    st.builds(LlmDecodeSpec, geometry=st.just(TINY_LM),
              layers=st.integers(1, 2), tokens=st.integers(1, 3),
              context=st.integers(1, 32)),
)


def _run(spec, scheme, chunk_requests):
    pipeline = TracePipeline(spec, schemes=(scheme,),
                             chunk_requests=chunk_requests)
    outcome = pipeline.run()[scheme]
    rewriter = pipeline.rewriters[scheme]
    cache_state = rewriter.cache.flush() if scheme == "bp" else None
    return outcome, pipeline.controllers[scheme].dram.stats, cache_state


@settings(max_examples=25, deadline=None)
@given(spec=spec_strategy, scheme=st.sampled_from(SCHEMES),
       chunk=st.integers(1, 4096), data=st.data())
def test_chunked_pipeline_matches_monolithic(spec, scheme, chunk, data):
    """Any chunking of any generator under any scheme reproduces the
    monolithic run exactly — cycles, bursts, traffic, DRAM stats, and
    (for BP) the final metadata-cache contents."""
    chunk = min(chunk, max(spec.total_requests, 1))
    mono, mono_dram, mono_cache = _run(spec, scheme, 10 ** 9)
    part, part_dram, part_cache = _run(spec, scheme, chunk)
    assert (part.result.cycles, part.result.bursts, part.result.requests) == (
        mono.result.cycles, mono.result.bursts, mono.result.requests)
    assert part.result.stats.read_bytes == mono.result.stats.read_bytes
    assert part.result.stats.write_bytes == mono.result.stats.write_bytes
    assert part_dram == mono_dram
    assert part_cache == mono_cache


@settings(max_examples=10, deadline=None)
@given(spec=spec_strategy, scheme=st.sampled_from(SCHEMES))
def test_pipeline_matches_materialized_object_path(spec, scheme):
    """The streamed run equals the pre-pipeline path: materialize the
    whole object trace, rewrite it in one piece, time it in one piece."""
    streamed = TracePipeline(spec, schemes=(scheme,),
                             chunk_requests=257).run()[scheme].result
    materialized = run_materialized(spec, scheme)
    assert (streamed.cycles, streamed.bursts) == (
        materialized.cycles, materialized.bursts)
    assert streamed.stats.read_bytes == materialized.stats.read_bytes
    assert streamed.stats.write_bytes == materialized.stats.write_bytes


def test_chunk_seam_splits_coalesced_hit_run():
    """A seam straight through an 8-request VN-unit run (and through the
    DRAM row-hit runs it produces) must not perturb anything: chunk
    sizes prime to every run length, vs the monolithic run."""
    for chunk in (1, 3, 5, 7, 13, 67, 1021):
        spec = StreamingSpec(1 << 16, write_fraction=0.4)
        mono, mono_dram, mono_cache = _run(spec, "bp", 10 ** 9)
        part, part_dram, part_cache = _run(spec, "bp", chunk)
        assert (part.result.cycles, part.result.bursts) == (
            mono.result.cycles, mono.result.bursts), chunk
        assert part_dram == mono_dram, chunk
        assert part_cache == mono_cache, chunk


def test_multischeme_shared_pass_equals_solo_runs():
    """Forking one generated stream through several schemes gives each
    scheme exactly its solo-run result."""
    schemes = ("np", "guardnn-c", "guardnn-ci", "bp")
    pipeline = TracePipeline(StreamingSpec(1 << 16, write_fraction=0.25),
                             schemes=schemes, chunk_requests=509)
    assert pipeline.controllers["np"] is pipeline.controllers["guardnn-c"]
    shared = pipeline.run()
    for scheme in schemes:
        solo = TracePipeline(StreamingSpec(1 << 16, write_fraction=0.25),
                             schemes=(scheme,), chunk_requests=509).run()[scheme]
        assert (shared[scheme].result.cycles, shared[scheme].result.bursts) == (
            solo.result.cycles, solo.result.bursts), scheme


@pytest.mark.slow
def test_pipeline_memory_stays_bounded_by_chunk():
    """Peak traced allocation of a streaming run is O(chunk), not
    O(trace): a 32 MB stream (524 288 requests — tens of MB as request
    objects before rewriting even starts) passes through a 4096-request
    chunk pipeline within a few MB. (~37 s under tracemalloc, so it runs
    with the slow tier; scripts/pipeline_memcheck.py holds the LLM-scale
    ceiling without tracing.)"""
    import tracemalloc

    spec = StreamingSpec(1 << 25, write_fraction=0.3)
    materialized_floor = spec.total_requests * 56  # >= one slotted object each
    tracemalloc.start()
    try:
        TracePipeline(spec, schemes=("bp",), chunk_requests=1 << 12).run()
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 1024 * 1024, f"pipeline peak {peak} bytes is not O(chunk)"
    assert peak < materialized_floor / 3


def test_random_spec_draws_each_block_once(monkeypatch):
    """A pipeline reads a spec chunk by chunk: 32 k requests in
    2048-request chunks all lie in one 65,536-request block, which is
    drawn once, not once per chunk."""
    calls = []
    default_rng = np.random.default_rng

    def counted(seed):
        calls.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", counted)
    spec = RandomSpec(32768, 256 << 20, seed=5)
    chunks = list(spec.chunks(2048))
    assert len(chunks) == 16
    assert calls == [(5, 0)]


@settings(max_examples=20, deadline=None)
@given(spec=spec_strategy, splits=st.lists(st.integers(0, 1 << 16),
                                           min_size=0, max_size=6))
def test_spec_slicing_is_stream_stable(spec, splits):
    """``batch(0, n)`` equals the concatenation of its pieces for any
    split points — generation never depends on the chunking."""
    n = spec.total_requests
    points = sorted({min(p, n) for p in splits} | {0, n})
    parts = RequestBatch()
    for lo, hi in zip(points, points[1:]):
        parts.extend(spec.batch(lo, hi))
    assert parts == spec.batch(0, n)


#: queue depths the session test draws: the pick rule is bounded by
#: ``served + queue_depth``, so the degenerate windows matter as much as
#: the default 32
QUEUE_DEPTHS = (1, 2, 4, 32, 64)


@st.composite
def bp_interleave_trace(draw):
    """BP's same-bank metadata shape: 8 data bursts, then one VN and one
    MAC burst, all in one bank on three different rows — FR-FCFS leaves
    the metadata behind the data hits until it falls out of the window."""
    layout = AddressLayout()
    cpr = layout.columns_per_row
    bank = draw(st.integers(0, layout.banks - 1))
    data_row = draw(st.integers(0, 1 << 10))
    vn_row = draw(st.integers(1 << 11, 1 << 12))
    mac_row = draw(st.integers(1 << 13, 1 << 14))
    groups = draw(st.integers(1, 400))
    rng = random.Random(draw(st.integers(0, 1 << 16)))
    trace = []
    for group in range(groups):
        for k in range(8):
            burst = group * 8 + k
            trace.append(MemoryRequest(
                layout.compose(bank, data_row + burst // cpr, burst % cpr), 64,
                is_write=rng.random() < 0.3))
        for row in (vn_row, mac_row):
            trace.append(MemoryRequest(layout.compose(bank, row, group % cpr), 64,
                                       is_write=rng.random() < 0.5))
    return trace


@st.composite
def metadata_pingpong_trace(draw):
    """``llm-decode``'s BP shape: data bursts stream through rows of one
    bank; after every 8 of them one VN and one MAC burst go to two fixed
    rows of another bank, now and then with a tree burst on a third row
    of that bank. Metadata group walks interleave with the data bank's
    hits, and hits follow activations closely."""
    layout = AddressLayout()
    cpr = layout.columns_per_row
    data_bank, meta_bank = draw(st.lists(st.integers(0, layout.banks - 1),
                                         min_size=2, max_size=2, unique=True))
    data_row = draw(st.integers(0, 1 << 10))
    vn_row, mac_row, tree_row = draw(st.lists(st.integers(1 << 11, 1 << 14),
                                              min_size=3, max_size=3,
                                              unique=True))
    groups = draw(st.integers(1, 400))
    rng = random.Random(draw(st.integers(0, 1 << 16)))
    trace = []
    for group in range(groups):
        for k in range(8):
            burst = group * 8 + k
            trace.append(MemoryRequest(
                layout.compose(data_bank, data_row + burst // cpr, burst % cpr),
                64, is_write=rng.random() < 0.3))
        rows = (vn_row, mac_row, tree_row) if rng.random() < 0.1 else (vn_row, mac_row)
        for row in rows:
            trace.append(MemoryRequest(layout.compose(meta_bank, row, group % cpr),
                                       64, is_write=rng.random() < 0.5))
    return trace


@st.composite
def hot_rows_trace(draw):
    """Random bursts over a few rows spread across banks: open-row
    groups in several banks at once, and conflicts that cross refreshes
    while other banks still have hits waiting."""
    layout = AddressLayout()
    rows = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2)),
                         min_size=2, max_size=6, unique=True))
    n = draw(st.integers(1, 2000))
    rng = random.Random(draw(st.integers(0, 1 << 16)))
    return [MemoryRequest(layout.compose(*rng.choice(rows),
                                         rng.randrange(layout.columns_per_row)),
                          64 * rng.randint(1, 2), is_write=rng.random() < 0.3)
            for _ in range(n)]


@st.composite
def unaligned_trace(draw):
    """Requests of 1 B to 4 KB at any byte address of a few rows in
    every bank: most start or end mid-burst and span several bursts (a
    4 KB request up to 65), so a chunk seam can leave a request with
    its first bursts issued and its last ones carried in the window."""
    layout = AddressLayout()
    n = draw(st.integers(1, 300))
    rng = random.Random(draw(st.integers(0, 1 << 16)))
    span = 4 * layout.banks * layout.row_bytes
    return [MemoryRequest(rng.randrange(span), rng.randint(1, 4096),
                          is_write=rng.random() < 0.3)
            for _ in range(n)]


session_trace_strategy = st.one_of(
    spec_strategy.map(lambda spec: spec.batch().to_requests()),
    bp_interleave_trace(),
    metadata_pingpong_trace(),
    hot_rows_trace(),
    unaligned_trace(),
    # 160-320 KB streams run 2560-5120 row-hit bursts: long enough to
    # cross one or two refreshes (tREFI = 9360 cycles) mid-run
    st.builds(StreamingSpec,
              nbytes=st.integers(10, 20).map(lambda n: n << 14),
              write_fraction=st.sampled_from([0.0, 0.3, 1.0])
              ).map(lambda spec: spec.batch().to_requests()),
)


@settings(max_examples=20, deadline=None)
@given(trace=session_trace_strategy, depth=st.sampled_from(QUEUE_DEPTHS),
       splits=st.lists(st.integers(1, 4096), min_size=1, max_size=4))
def test_controller_session_matches_scalar_run_trace(trace, depth, splits):
    """A fast :class:`ControllerSession` fed in arbitrary pieces
    reproduces the scalar ``run_trace`` oracle exactly at every window
    depth — cycles, bursts, DRAM stats — and carries the same state
    across every seam as the scalar windowed session. After each feed,
    the DRAM stats count every burst issued so far."""
    with perf.scalar_mode():
        oracle_ctrl = MemoryController(queue_depth=depth)
        oracle = oracle_ctrl.run_trace(trace)

    def chunked(scalar):
        ctrl = MemoryController(queue_depth=depth)
        seams = []
        with perf.scalar_mode() if scalar else contextlib.nullcontext():
            session = ctrl.session()
            cursor = 0
            for size in splits + [len(trace)]:
                session.feed(RequestBatch.from_requests(trace[cursor:cursor + size]))
                cursor = min(cursor + size, len(trace))
                seams.append(session.state_dict())
            return session.finish(), ctrl.dram.stats, seams

    part, part_dram, part_seams = chunked(scalar=False)
    assert (part.cycles, part.requests, part.bursts) == (
        oracle.cycles, oracle.requests, oracle.bursts)
    assert part.stats.read_bytes == oracle.stats.read_bytes
    assert part.stats.write_bytes == oracle.stats.write_bytes
    assert part_dram == oracle_ctrl.dram.stats
    for seam in part_seams:
        counted = seam["dram"]["stats"]
        assert (counted["row_hits"] + counted["row_misses"]
                + counted["row_conflicts"]) == seam["bursts"]
    assert chunked(scalar=True)[2] == part_seams


@contextlib.contextmanager
def fast_mode():
    """The compiled lane, even on the scalar CI leg."""
    previous = perf.fast_enabled()
    perf.set_fast(True)
    try:
        yield
    finally:
        perf.set_fast(previous)


@pytest.mark.parametrize("depth", [1, 2, 32])
@settings(max_examples=10, deadline=None)
@given(trace=unaligned_trace())
def test_session_pauses_partway_through_a_request(depth, trace):
    """Unaligned multi-burst requests fed one per chunk: each seam
    pauses the window with fewer than ``depth`` bursts carried, often
    the last bursts of a request whose first ones are already issued.
    A fast session (forced on) and the scalar windowed session hold
    the same state after every feed and finish with the same result."""
    def run(mode):
        with mode():
            session = MemoryController(queue_depth=depth).session()
            seams = []
            for request in trace:
                session.feed(RequestBatch.from_requests([request]))
                seams.append(session.state_dict())
            result = session.finish()
        return seams, (result.cycles, result.requests, result.bursts,
                       result.stats.state_dict())

    fast = run(fast_mode)
    assert fast == run(perf.scalar_mode)
    for seam in fast[0]:
        assert len(seam["carry_bank"]) < depth


@settings(max_examples=15, deadline=None)
@given(trace=session_trace_strategy, depth=st.sampled_from(QUEUE_DEPTHS),
       plan=st.lists(st.tuples(st.integers(1, 600), st.booleans(), st.booleans()),
                     min_size=1, max_size=8))
def test_one_session_across_modes_matches_the_oracle(trace, depth, plan):
    """One session fed in pieces, each compiled (forced on) or under
    ``scalar_mode``, its ``state_dict`` taken at some seams only: the
    kernel's arrays stay current across consecutive compiled feeds and
    hand the state to the Python form and back. Every ``state_dict``
    taken equals a scalar session's fed the same pieces, and the
    result and DRAM stats equal the monolithic ``run_trace`` oracle's."""
    with perf.scalar_mode():
        oracle_ctrl = MemoryController(queue_depth=depth)
        oracle = oracle_ctrl.run_trace(trace)
    ctrl = MemoryController(queue_depth=depth)
    session = ctrl.session()
    with perf.scalar_mode():
        reference = MemoryController(queue_depth=depth).session()
    cursor = 0
    for size, compiled, checkpoint in plan + [(len(trace), True, False)]:
        batch = RequestBatch.from_requests(trace[cursor:cursor + size])
        cursor = min(cursor + size, len(trace))
        with fast_mode() if compiled else perf.scalar_mode():
            session.feed(batch)
        with perf.scalar_mode():
            reference.feed(batch)
        if checkpoint:
            assert session.state_dict() == reference.state_dict()
    with fast_mode():
        result = session.finish()
    assert (result.cycles, result.requests, result.bursts) == (
        oracle.cycles, oracle.requests, oracle.bursts)
    assert result.stats.state_dict() == oracle.stats.state_dict()
    assert ctrl.dram.state_dict() == oracle_ctrl.dram.state_dict()


@pytest.mark.slow
@pytest.mark.parametrize("trace, params, chunk", [
    ("random", {"n_requests": 32768, "span_bytes": 256 << 20}, 2048),
    ("gpt2", {"tokens": 1}, DEFAULT_CHUNK_REQUESTS),
], ids=["random-bp", "llm-decode"])
def test_controller_session_matches_scalar_on_benchmark_streams(trace, params,
                                                                chunk):
    """The benchmark's own streams (seed 3) under NP, GuardNN-CI and BP:
    a fast session and the scalar windowed session, fed the same
    rewritten chunks, hold the same state after every feed (bank state
    and seam residue on real traffic) and finish with the same result."""
    spec = build_trace_spec(trace, seed=3, **params)
    previous = perf.fast_enabled()
    perf.set_fast(True)
    try:
        for scheme in ("np", "guardnn-ci", "bp"):
            rewriter = build_trace_rewriter(scheme, end_address=spec.end_address)
            fast = MemoryController().session()
            oracle = MemoryController().session()

            def feed(batch):
                fast.feed(batch)
                with perf.scalar_mode():
                    oracle.feed(batch)
                assert fast.state_dict() == oracle.state_dict(), scheme

            total = spec.total_requests
            for start in range(0, total, chunk):
                batch = spec.batch(start, min(start + chunk, total))
                feed(batch if rewriter is None else rewriter.rewrite_batch(batch))
            if rewriter is not None:
                feed(rewriter.flush_batch())
            results = [fast.finish()]
            with perf.scalar_mode():
                results.append(oracle.finish())
            fast_result, oracle_result = (
                (r.cycles, r.requests, r.bursts, r.stats.state_dict())
                for r in results)
            assert fast_result == oracle_result, scheme
            assert (fast.controller.dram.state_dict()
                    == oracle.controller.dram.state_dict()), scheme
    finally:
        perf.set_fast(previous)


# -- scheme lanes -----------------------------------------------------------


#: CPUs the lane tests report to the pipeline: 4 gives a three-stream
#: run two helper threads on any host (when the kernels are loaded), 1
#: gives it none
LANES, ONE_LANE = 4, 1


def _cpus(count):
    return mock.patch.object(pipeline_module, "_cpus", lambda: count)


def _outcome(pipeline, results):
    """Everything a run leaves: per scheme its cycles, bursts, traffic,
    DRAM state and (BP) metadata-cache state."""
    return {name: (outcome.result.cycles, outcome.result.bursts,
                   outcome.result.requests, outcome.result.stats.state_dict(),
                   pipeline.controllers[name].dram.state_dict(),
                   pipeline.rewriters[name].cache.state_dict()
                   if name == "bp" else None)
            for name, outcome in results.items()}


def _lane_run(spec, schemes, chunk, cpus, mode, **hooks):
    pipeline = TracePipeline(spec, schemes=schemes, chunk_requests=chunk)
    with mode(), _cpus(cpus):
        results = pipeline.run(**hooks)
    return _outcome(pipeline, results)


@settings(max_examples=20, deadline=None)
@given(spec=spec_strategy, chunk=st.integers(1, 2048),
       schemes=st.lists(st.sampled_from(("np", "guardnn-c", "guardnn-ci", "bp")),
                        min_size=1, max_size=4, unique=True))
def test_lanes_match_one_lane_and_the_scalar_oracle(spec, chunk, schemes):
    """A run whose lanes go to helper threads equals a one-lane run and
    the scalar oracle: cycles, bursts, traffic, DRAM and MEE cache
    state, for any trace, chunk size and scheme subset."""
    chunk = min(chunk, max(spec.total_requests, 1))
    lanes = _lane_run(spec, schemes, chunk, LANES, fast_mode)
    assert lanes == _lane_run(spec, schemes, chunk, ONE_LANE, fast_mode)
    assert lanes == _lane_run(spec, schemes, chunk, LANES, perf.scalar_mode)


def _envelopes(spec, chunk, cpus, stop_at, how):
    """The envelopes a three-stream run hands ``on_checkpoint`` (as a
    journal stores them) when it is checkpointed every chunk, parked by
    ``checkpoint_request`` or cancelled by ``on_chunk`` at seam
    ``stop_at``, and how it ended."""
    kept = []
    polls = itertools.count()

    def cancel(chunks, done, total):
        if chunks == stop_at:
            raise PipelineCancelled("cancelled at a seam")

    hooks = {"on_checkpoint": lambda envelope, chunks, done: kept.append(
        json.loads(json.dumps(envelope))),
             "checkpoint_every": 0 if how == "park" else 1}
    if how == "park":
        hooks["checkpoint_request"] = lambda: next(polls) == stop_at
    elif how == "cancel":
        hooks["on_chunk"] = cancel
    try:
        ended = _lane_run(spec, SCHEMES, chunk, cpus, fast_mode, **hooks)
    except (PipelineCheckpointed, PipelineCancelled) as stopped:
        ended = type(stopped).__name__
    return kept, ended


@settings(max_examples=10, deadline=None)
@given(spec=spec_strategy, chunk=st.integers(64, 512), stop_at=st.integers(1, 6),
       how=st.sampled_from(["every", "park", "cancel"]))
def test_lanes_hand_seams_the_one_lane_envelopes(spec, chunk, stop_at, how):
    """Every lane joins before its chunk's seam: checkpoints, a
    ``checkpoint_request`` park and an ``on_chunk`` cancellation see
    the same envelopes, and end the same way, with lanes or without."""
    chunk = min(chunk, max(spec.total_requests, 1))
    assert (_envelopes(spec, chunk, LANES, stop_at, how)
            == _envelopes(spec, chunk, ONE_LANE, stop_at, how))


def _count_feeds(pipeline, fed, meet=None):
    """Count each stream's session feeds into ``fed``; with ``meet`` (a
    barrier), the named streams' first feeds wait for each other."""
    for name, controller in pipeline.controllers.items():
        open_session = controller.session

        def session(open_session=open_session, name=name):
            live = open_session()
            feed = live.feed

            def counted(batch):
                if meet is not None and name in meet[1] and not fed[name]:
                    meet[0].wait()
                feed(batch)
                fed[name] += 1

            live.feed = counted
            return live

        controller.session = session


@pytest.mark.parametrize("cpus", [LANES, ONE_LANE], ids=["lanes", "one-lane"])
def test_a_lane_fault_surfaces_after_the_chunk_s_other_lanes(cpus):
    """A rewriter fault in one lane is raised only once the chunk's
    other lanes have finished it, and no helper outlives the run."""
    spec = StreamingSpec(1 << 16, write_fraction=0.3)
    before = threading.active_count()
    faults.install({"points": [
        {"site": "rewriter.rewrite", "at": 1, "action": "raise"}]})
    try:
        pipeline = TracePipeline(spec, schemes=SCHEMES, chunk_requests=256)
        fed = Counter()
        _count_feeds(pipeline, fed)
        with fast_mode(), _cpus(cpus), pytest.raises(faults.FaultInjected):
            pipeline.run()
    finally:
        faults.clear()
    # the faulted lane fed its first chunk only; the others both chunks
    faulted = [name for name in SCHEMES if fed[name] == 1]
    assert len(faulted) == 1 and faulted[0] != "np"
    assert sorted(fed.values()) == [1, 2, 2]
    assert threading.active_count() == before


class _FailingAt:
    """A trace spec whose window starting at ``fail_at`` cannot be
    rendered."""

    def __init__(self, spec, fail_at):
        self._spec = spec
        self._fail_at = fail_at

    def __getattr__(self, name):
        return getattr(self._spec, name)

    def batch(self, start, stop):
        if start == self._fail_at:
            raise ValueError(f"cannot render request {start}")
        return self._spec.batch(start, stop)


@pytest.mark.parametrize("cpus", [LANES, ONE_LANE], ids=["lanes", "one-lane"])
def test_a_render_error_surfaces_when_its_chunk_starts(cpus):
    """The next chunk is rendered beside the current chunk's lanes, but
    an error met rendering it is raised when that chunk starts: every
    earlier chunk has reached ``on_chunk``."""
    spec = _FailingAt(StreamingSpec(1 << 16, write_fraction=0.3), 3 * 256)
    pipeline = TracePipeline(spec, schemes=SCHEMES, chunk_requests=256)
    seen = []
    with fast_mode(), _cpus(cpus), pytest.raises(ValueError, match="768"):
        pipeline.run(on_chunk=lambda chunks, done, total: seen.append(chunks))
    assert seen == [1, 2, 3]


def test_lanes_overlap_and_no_helper_outlives_the_run():
    """With the compiled kernels, two lanes of the first chunk run at
    the same time (each waits for the other), and after the run the
    thread count is what it was before."""
    if native.kernels() is None:
        pytest.skip("no compiled kernels: every lane runs on the caller")
    spec = StreamingSpec(1 << 16, write_fraction=0.3)
    before = threading.active_count()
    pipeline = TracePipeline(spec, schemes=SCHEMES, chunk_requests=256)
    fed = Counter()
    _count_feeds(pipeline, fed, (threading.Barrier(2, timeout=30),
                                 ("np", "bp")))
    with fast_mode(), _cpus(LANES):
        lanes = _outcome(pipeline, pipeline.run())
    assert threading.active_count() == before
    # four chunks each, and the rewritten streams' flushes
    assert fed == {"np": 4, "guardnn-ci": 5, "bp": 5}
    assert lanes == _lane_run(spec, SCHEMES, 256, ONE_LANE, fast_mode)


# -- generator-level contracts ---------------------------------------------


@settings(max_examples=25, deadline=None)
@given(nbytes=st.integers(0, 200).map(lambda n: n * 64),
       write_fraction=st.floats(0.0, 1.0, allow_nan=False),
       base=st.sampled_from([0, 4096, 1 << 30]))
def test_streaming_batch_matches_scalar_trace(nbytes, write_fraction, base):
    scalar = streaming_trace(nbytes, base=base, write_fraction=write_fraction)
    batch = streaming_batch(nbytes, base=base, write_fraction=write_fraction)
    assert batch.to_requests() == scalar


def test_streaming_write_cadence_is_exact():
    """Non-reciprocal fractions land exactly ``round(n * f)`` writes
    (the old ``int(1/f)`` cadence turned 0.3 into every-3rd = 33%)."""
    for fraction, expected in ((0.3, 300), (0.4, 400), (0.25, 250),
                               (0.75, 750), (1.0, 1000), (0.0, 0)):
        trace = streaming_trace(64 * 1000, write_fraction=fraction)
        assert sum(r.is_write for r in trace) == expected, fraction


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 1 << 32), n=st.integers(0, 600),
       write_fraction=st.sampled_from([0.0, 0.3, 0.5, 1.0]))
def test_random_generator_seeded_equivalence(seed, n, write_fraction):
    """Same seed, same trace: the scalar loop and the one-array-draw
    batch generator consume the rng stream identically."""
    scalar = random_trace(n, 1 << 22, np.random.default_rng(seed),
                          write_fraction=write_fraction)
    batch = random_batch(n, 1 << 22, np.random.default_rng(seed),
                         write_fraction=write_fraction)
    assert batch.to_requests() == scalar


@settings(max_examples=20, deadline=None)
@given(nbytes=st.integers(0, 12000))
def test_bp_metadata_batch_matches_scalar_trace(nbytes):
    assert bp_metadata_batch(nbytes).to_requests() == bp_metadata_trace(nbytes)


@settings(max_examples=10, deadline=None)
@given(layers=st.integers(1, 2), tokens=st.integers(1, 4),
       context=st.integers(1, 64), seed=st.integers(0, 9))
def test_llm_decode_vectorized_matches_scalar_mapping(layers, tokens, context,
                                                      seed):
    """The numpy index-arithmetic rendering equals the per-request
    scalar mapping (what ``REPRO_SCALAR=1`` runs)."""
    spec = LlmDecodeSpec(TINY_LM, layers=layers, tokens=tokens,
                         context=context, seed=seed)
    vectorized = spec.batch()
    with perf.scalar_mode():
        reference = spec.batch()
    assert vectorized == reference


@st.composite
def llm_windows(draw):
    """A tiny decode spec and a ``[start, stop)`` window of it: one
    request, a few (inside a segment, or across segment and token
    boundaries), or up to the whole trace. A 4-KB stride makes every
    segment 1-8 requests long, so a window of many tokens spans
    hundreds of pieces."""
    spec = LlmDecodeSpec(TINY_LM, layers=draw(st.integers(1, 2)),
                         tokens=draw(st.integers(1, 40)),
                         context=draw(st.integers(1, 16)),
                         seed=draw(st.integers(0, 9)),
                         stride=draw(st.sampled_from([64, 4096])))
    total = spec.total_requests
    start = draw(st.integers(0, total - 1))
    length = draw(st.one_of(st.just(1), st.integers(1, 40),
                            st.integers(1, total)))
    return spec, start, min(start + length, total)


@settings(max_examples=40, deadline=None)
@given(window=llm_windows())
def test_llm_decode_windows_match_scalar_mapping(window):
    """Any window of the numpy lane, which works per (token, segment)
    piece, equals the per-request ``_request_at`` lane that
    ``REPRO_SCALAR=1`` runs over the same window."""
    spec, start, stop = window
    with fast_mode():
        vectorized = spec.batch(start, stop)
    with perf.scalar_mode():
        reference = spec.batch(start, stop)
    assert vectorized == reference
    assert len(vectorized) == stop - start


def test_llm_decode_gpt2_chunks_match_scalar_mapping():
    """Two gpt2 tokens in the pipeline's 65,536-request chunks, against
    ``_request_at``: every request next to a chunk seam or a segment
    boundary equals it, and between those the lines run on by one."""
    spec = llm_decode_spec("gpt2", tokens=2, seed=3)
    chunk = DEFAULT_CHUNK_REQUESTS
    assert chunk == 1 << 16
    pieces = {token * spec.requests_per_token + int(bound)
              for token in range(spec.tokens) for bound in spec._bounds[:-1]}
    for start in range(0, spec.total_requests, chunk):
        stop = min(start + chunk, spec.total_requests)
        with fast_mode():
            batch = spec.batch(start, stop)
        edges = {start, stop} | {edge for edge in pieces if start < edge < stop}
        for i in sorted({i for edge in edges for i in (edge - 1, edge)
                         if start <= i < stop}):
            assert (int(batch.address[i - start]),
                    bool(batch.is_write[i - start])) == spec._request_at(i)
        jumps = np.flatnonzero(np.diff(batch.address) != spec.stride) + start + 1
        assert set(jumps.tolist()) <= edges
        assert (batch.size == spec.stride).all() and not batch.kind.any()


def test_llm_decode_real_geometry_slices():
    """The registered gpt2 geometry renders and slices consistently
    (one deterministic case at real size; the exhaustive sweeps use
    the tiny geometry above)."""
    spec = llm_decode_spec("gpt2", layers=1, tokens=1, context=64)
    n = spec.total_requests
    assert n == spec.requests_per_token
    parts = RequestBatch()
    for chunk in spec.chunks(10007):
        parts.extend(chunk)
    assert parts == spec.batch(0, n)


def test_build_trace_spec_registry():
    assert isinstance(build_trace_spec("streaming", nbytes=4096), StreamingSpec)
    assert isinstance(build_trace_spec("random", n_requests=4, span_bytes=4096),
                      RandomSpec)
    assert isinstance(build_trace_spec("bp-metadata", nbytes=4096),
                      BpMetadataSpec)
    assert build_trace_spec("gpt2", layers=1, context=4).total_requests > 0
    with pytest.raises(KeyError):
        build_trace_spec("lenet-5")
