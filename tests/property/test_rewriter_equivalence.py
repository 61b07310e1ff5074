"""Randomized equivalence: the MEE rewriter's batch fast lane is
bit-identical to its per-request scalar reference.

:meth:`~repro.protection.trace_rewriter.MeeTraceRewriter.rewrite_batch`
cuts a batch into items (one per run of requests inside one VN unit)
and replays each item's metadata-cache touches straight on the cache's
per-set ``OrderedDict``s, coalescing a run's remaining requests into one
LRU re-touch when the tree is shallow enough. These tests hold it to
the scalar :meth:`~repro.protection.trace_rewriter.MeeTraceRewriter.rewrite`
on the whole observable contract: the interleaved output stream, the
cache stats, and the cache state (LRU order and dirty bits, via
``state_dict()``), across chunk boundaries and the final flush.
"""

from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from repro import perf
from repro.mem.batch import RequestBatch
from repro.mem.trace import MemoryRequest
from repro.protection.mee import MeeParams
from repro.protection.trace_rewriter import MeeTraceRewriter


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
#: evicts constantly, so lines come back after eviction; and the same
#: small cache under a tree deep enough (8 levels: levels + 1 >= ways)
#: that a walk can evict the VN/MAC lines it just filled, where a run's
#: remaining requests must be replayed one by one
geometries = st.sampled_from([
    (MeeParams(), 1 << 30),
    (MeeParams(cache_bytes=2048), 1 << 30),
    (MeeParams(cache_bytes=2048), 1 << 36),
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
    VN/MAC lines it just filled, so every request of a run is its own
    item. Streaming runs of 64-B requests with mixed writes, through
    the default cache and a 4-set one."""
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
    """A binary tree over a huge region: 29 levels still fit the fast
    lane's int64 event mask (two bits per touch), 30 take the
    per-request loop; both match the scalar reference."""
    params = MeeParams(tree_arity=2, cache_bytes=2048)
    assert len(MeeTraceRewriter(params, protected_bytes=protected)
               .regions.tree_bases) == levels
    trace = [MemoryRequest((i * 7919 % 512) * 512 + (i % 8) * 64, 64,
                           i % 3 == 0) for i in range(1024)]
    assert_batches_match_scalar(
        lambda: MeeTraceRewriter(params, protected_bytes=protected),
        [trace[:700], trace[700:]])


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
