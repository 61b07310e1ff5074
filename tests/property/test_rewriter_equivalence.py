"""Randomized equivalence: each trace rewriter's compiled lane is
bit-identical to its per-request scalar reference.

In fast mode
:meth:`~repro.protection.trace_rewriter.MeeTraceRewriter.rewrite_batch`
runs ``repro_mee_rewrite``, a C port of
:meth:`~repro.protection.trace_rewriter.MeeTraceRewriter.rewrite` that
walks the metadata cache request by request on the kernel's per-set
arrays, which stay current between calls. These tests hold it to the
scalar ``rewrite`` on the whole observable contract: the interleaved
output stream, the cache stats, and the cache state (LRU order and
dirty bits, via ``state_dict()``), across chunk boundaries, switches
between the two modes and the final flush.

:meth:`~repro.protection.trace_rewriter.GuardNNTraceRewriter.rewrite_batch`
runs ``repro_guardnn_rewrite``, a C port of
:meth:`~repro.protection.trace_rewriter.GuardNNTraceRewriter.rewrite`.
It is held to ``rewrite`` the same way: the stream, the
active-MAC-line state (``state_dict()``) and the flush output.
"""

from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from repro import perf
from repro.mem.batch import RequestBatch
from repro.mem.trace import MemoryRequest
from repro.protection.guardnn import GuardNNParams
from repro.protection.mee import MeeParams
from repro.protection import trace_rewriter
from repro.protection.trace_rewriter import GuardNNTraceRewriter, MeeTraceRewriter


@contextmanager
def fast_mode():
    """The batch fast lane, even on the scalar CI leg."""
    previous = perf.fast_enabled()
    perf.set_fast(True)
    try:
        yield
    finally:
        perf.set_fast(previous)


def stats_tuple(rewriter):
    s = rewriter.cache.stats
    return (s.hits, s.misses, s.evictions, s.dirty_evictions)


def assert_batches_match_scalar(make, chunks):
    """Feed ``chunks`` (lists of requests) through a fresh rewriter's
    batch path and their concatenation through another one's scalar
    path; everything observable must agree, before and after flush."""
    fast, scalar = make(), make()
    got = []
    with fast_mode():
        for chunk in chunks:
            got += fast.rewrite_batch(RequestBatch.from_requests(chunk)).to_requests()
    want = scalar.rewrite([req for chunk in chunks for req in chunk])
    assert got == want
    assert stats_tuple(fast) == stats_tuple(scalar)
    assert fast.state_dict() == scalar.state_dict()
    assert fast.flush_batch().to_requests() == scalar.flush()
    assert fast.state_dict() == scalar.state_dict()


#: (MeeParams, protected_bytes): the default engine; a 4-set cache that
#: evicts constantly, so lines come back after eviction; the same
#: small cache under a tree deep enough (8 levels: levels + 1 >= ways)
#: that a walk can evict the VN/MAC lines it just filled, where a run's
#: remaining requests must be replayed one by one; and a geometry where
#: no divisor is a power of two (384-B VN units, 768-B MAC lines, a
#: 6-set cache and a 13-level ternary tree), which the kernel divides
#: by where it shifts for the others
geometries = st.sampled_from([
    (MeeParams(), 1 << 30),
    (MeeParams(cache_bytes=2048), 1 << 30),
    (MeeParams(cache_bytes=2048), 1 << 36),
    (MeeParams(data_per_vn_line=384, data_per_mac_line=768, tree_arity=3,
               cache_bytes=3072), 1 << 30),
])

#: bursts of requests into one VN unit: a small hot pool of units (so
#: lines are re-touched, often after eviction) plus far ones; offsets
#: and sizes that stay inside the unit, straddle it, or span several
bursts = st.lists(
    st.tuples(
        st.one_of(st.integers(0, 40), st.integers(0, 1 << 21)),  # unit
        st.sampled_from([0, 8, 64, 448, 500]),                   # offset
        st.sampled_from([8, 64, 100, 512, 600, 1500, 4096]),     # size
        st.integers(1, 12),                                      # repeats
        st.integers(0, (1 << 12) - 1),                           # write bits
    ),
    min_size=1, max_size=40,
)


def expand(bursts_drawn):
    requests = []
    for unit, offset, size, repeats, write_bits in bursts_drawn:
        for i in range(repeats):
            requests.append(MemoryRequest(unit * 512 + offset, size,
                                          bool(write_bits >> i & 1)))
    return requests


@settings(max_examples=80, deadline=None)
@given(geometry=geometries, drawn=bursts, data=st.data())
def test_batch_fast_lane_matches_scalar_in_random_chunks(geometry, drawn, data):
    params, protected = geometry
    trace = expand(drawn)
    cuts = sorted(set(data.draw(st.lists(st.integers(0, len(trace)),
                                         max_size=4))))
    bounds = [0, *cuts, len(trace)]
    chunks = [trace[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    assert_batches_match_scalar(
        lambda: MeeTraceRewriter(params, protected_bytes=protected), chunks)


def test_deep_tree_replays_each_request_of_a_run():
    """``levels + 1 >= ways``: the walk after a VN miss may evict the
    VN/MAC lines it just filled, so a later request of the same VN unit
    can miss again. Streaming runs of 64-B requests with mixed writes,
    through the default cache and a 4-set one."""
    for params in (MeeParams(), MeeParams(cache_bytes=2048)):
        rewriter = MeeTraceRewriter(params, protected_bytes=1 << 36)
        assert len(rewriter.regions.tree_bases) + 1 >= rewriter.cache.ways
        trace = [MemoryRequest(i * 64, 64, i % 3 == 0) for i in range(4096)]
        trace += [MemoryRequest((i * 7919 % 4096) * 64, 64, i % 2 == 0)
                  for i in range(2048)]
        assert_batches_match_scalar(
            lambda: MeeTraceRewriter(params, protected_bytes=1 << 36),
            [trace[:3000], trace[3000:]])


@pytest.mark.parametrize("protected, levels", [(1 << 39, 29), (1 << 40, 30)])
def test_tree_depth_at_the_event_mask_limit(protected, levels):
    """A binary tree over a huge region, 29 and 30 levels deep (where
    an earlier lane's int64 event mask ran out): the compiled lane
    takes trees of any depth, and both match the scalar reference."""
    params = MeeParams(tree_arity=2, cache_bytes=2048)
    assert len(MeeTraceRewriter(params, protected_bytes=protected)
               .regions.tree_bases) == levels
    trace = [MemoryRequest((i * 7919 % 512) * 512 + (i % 8) * 64, 64,
                           i % 3 == 0) for i in range(1024)]
    assert_batches_match_scalar(
        lambda: MeeTraceRewriter(params, protected_bytes=protected),
        [trace[:700], trace[700:]])


def test_the_divisor_geometry_is_not_a_power_of_two():
    rewriter = MeeTraceRewriter(
        MeeParams(data_per_vn_line=384, data_per_mac_line=768, tree_arity=3,
                  cache_bytes=3072), protected_bytes=1 << 30)
    assert rewriter.cache.num_sets == 6
    assert len(rewriter.regions.tree_bases) == 13


@settings(max_examples=80, deadline=None)
@given(params=st.sampled_from([GuardNNParams(),
                               GuardNNParams(chunk_bytes=64, mac_bytes=16),
                               GuardNNParams(chunk_bytes=384)]),
       drawn=bursts, data=st.data())
def test_guardnn_fast_lane_matches_scalar_in_random_chunks(params, drawn, data):
    """GuardNN_CI's compiled lane, forced on, against its ``rewrite``
    oracle. ``bursts`` doubles as a 512-B chunk pattern: requests that
    stay inside a chunk, straddle one, or span several MAC lines (4096 B
    is 8 chunks, 96 B of tags; 64 chunks under the 64-B geometry),
    mixed reads and writes, cut at random seams (repeated cuts give
    empty chunks, adjacent ones one-request chunks)."""
    trace = expand(drawn)
    cuts = sorted(data.draw(st.lists(st.integers(0, len(trace)), max_size=6)))
    bounds = [0, *cuts, len(trace)]
    fast = GuardNNTraceRewriter(integrity=True, params=params)
    scalar = GuardNNTraceRewriter(integrity=True, params=params)
    got = []
    with fast_mode():
        for lo, hi in zip(bounds, bounds[1:]):
            got += fast.rewrite_batch(
                RequestBatch.from_requests(trace[lo:hi])).to_requests()
    assert got == scalar.rewrite(trace)
    assert fast.state_dict() == scalar.state_dict()
    assert fast.flush_batch().to_requests() == scalar.flush()
    assert fast.state_dict() == scalar.state_dict()


def test_batches_longer_than_a_kernel_slice(monkeypatch):
    """A batch longer than one kernel call's slice of requests runs as
    several calls that carry the rewriter's state between them. With
    7-request slices, both rewriters still match their oracles."""
    monkeypatch.setattr(trace_rewriter._KernelOutput, "SLICE", 7)
    trace = [MemoryRequest((i * 7919 % 4096) * 64 + (i % 3) * 8,
                           64 + (i % 5) * 300, i % 3 == 0) for i in range(1000)]
    assert_batches_match_scalar(
        lambda: MeeTraceRewriter(MeeParams(cache_bytes=2048)),
        [trace[:600], trace[600:]])
    fast = GuardNNTraceRewriter(integrity=True)
    scalar = GuardNNTraceRewriter(integrity=True)
    with fast_mode():
        got = (fast.rewrite_batch(RequestBatch.from_requests(trace[:600])).to_requests()
               + fast.rewrite_batch(RequestBatch.from_requests(trace[600:])).to_requests())
    assert got == scalar.rewrite(trace)
    assert fast.state_dict() == scalar.state_dict()


def test_one_rewriter_across_modes_and_checkpoints():
    """One MEE rewriter moves its cache between the kernel's arrays and
    the Python form: fast ``rewrite_batch``, then ``state_dict()`` and
    ``cache.contains``/``cache.stats``, a scalar ``rewrite_batch``,
    ``load_state`` of the first state and fast again. Its stream, stats
    and state equal the scalar oracle's at every step."""
    params = MeeParams(cache_bytes=2048)
    trace = [MemoryRequest((i * 7919 % 4096) * 64 + (i % 3) * 8,
                           64 + (i % 5) * 100, i % 3 == 0) for i in range(3000)]
    first, second, third = trace[:1000], trace[1000:2000], trace[2000:]
    rewriter, oracle = MeeTraceRewriter(params), MeeTraceRewriter(params)

    with fast_mode():
        got = rewriter.rewrite_batch(RequestBatch.from_requests(first)).to_requests()
    assert got == oracle.rewrite(first)
    saved = rewriter.state_dict()
    assert saved == oracle.state_dict()
    for address in {request.address for request in got}:
        assert rewriter.cache.contains(address) == oracle.cache.contains(address)
    assert stats_tuple(rewriter) == stats_tuple(oracle)

    with perf.scalar_mode():
        got = rewriter.rewrite_batch(RequestBatch.from_requests(second)).to_requests()
    assert got == oracle.rewrite(second)
    assert stats_tuple(rewriter) == stats_tuple(oracle)
    assert rewriter.state_dict() == oracle.state_dict()

    rewriter.load_state(saved)
    oracle.load_state(saved)
    with fast_mode():
        got = rewriter.rewrite_batch(RequestBatch.from_requests(third)).to_requests()
    assert got == oracle.rewrite(third)
    assert stats_tuple(rewriter) == stats_tuple(oracle)
    assert rewriter.state_dict() == oracle.state_dict()
    assert rewriter.flush_batch().to_requests() == oracle.flush()


def test_output_growth_between_calls_across_modes():
    """Each rewriter's kernel output is remapped when a call needs more
    room than the last: its cached addresses must follow. One rewriter
    of each kind takes batches that grow its output, with a scalar call
    between, and matches its oracle throughout."""
    trace = [MemoryRequest((i * 7919 % 4096) * 512 + (i % 3) * 8,
                           64 + (i % 7) * 700, i % 3 == 0) for i in range(2600)]
    chunks = [(trace[:5], fast_mode), (trace[5:50], fast_mode),
              (trace[50:600], perf.scalar_mode), (trace[600:2600], fast_mode)]
    for make in (lambda: MeeTraceRewriter(MeeParams(cache_bytes=2048)),
                 lambda: GuardNNTraceRewriter(integrity=True)):
        rewriter, oracle = make(), make()
        capacities = []
        for chunk, mode in chunks:
            with mode():
                got = rewriter.rewrite_batch(RequestBatch.from_requests(chunk))
            capacities.append(rewriter._output.capacity)
            assert got.to_requests() == oracle.rewrite(chunk)
            assert rewriter.state_dict() == oracle.state_dict()
        assert capacities[0] < capacities[1] < capacities[3]
        assert rewriter.flush_batch().to_requests() == oracle.flush()


class TestMeeStreams:
    """Stream shapes that stress the batch fast lane: a long monotone
    stream, re-touches after eviction, and a warm cache carried across
    batches must all be bit-identical to the scalar reference
    rewriter."""

    @staticmethod
    def _assert_batch_matches(addresses_writes):
        trace = [MemoryRequest(a, 64, w) for a, w in addresses_writes]
        batch = RequestBatch.from_requests(trace)
        fast = MeeTraceRewriter()
        out = fast.rewrite_batch(batch)
        with perf.scalar_mode():
            reference = MeeTraceRewriter()
            ref = reference.rewrite(trace)
        assert out.to_requests() == ref
        assert fast.flush_batch().to_requests() == reference.flush()

    def test_monotone_stream_matches_scalar(self):
        self._assert_batch_matches(
            [(i * 64, i % 3 == 0) for i in range(4096)])

    def test_eviction_revisits_match_scalar(self):
        """Lines re-touched after eviction."""
        addresses = []
        for lap in range(6):
            for i in range(0, 3000, 7):
                addresses.append(((i * 512 * 37) % (1 << 26), i % 2 == 0))
        self._assert_batch_matches(addresses)

    def test_warm_cache_across_batches(self):
        """A second batch starts from non-cold state and must continue
        the same cache history."""
        first = [MemoryRequest(i * 64, 64, i % 2 == 0) for i in range(2048)]
        second = [MemoryRequest((2048 + i // 2) * 64, 64, i % 3 == 0)
                  for i in range(2048)]
        fast = MeeTraceRewriter()
        got = (fast.rewrite_batch(RequestBatch.from_requests(first)).to_requests()
               + fast.rewrite_batch(RequestBatch.from_requests(second)).to_requests()
               + fast.flush_batch().to_requests())
        with perf.scalar_mode():
            reference = MeeTraceRewriter()
            want = (reference.rewrite(first) + reference.rewrite(second)
                    + reference.flush())
        assert got == want
