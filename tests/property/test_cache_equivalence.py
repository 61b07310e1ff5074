"""Randomized equivalence: the vectorized cache engine is bit-identical
to the ``OrderedDict`` reference.

:class:`~repro.mem.cache_fast.FastSetAssociativeCache` re-implements the
VN/MAC metadata cache as dense numpy state with a batched
``access_many`` kernel (see ``docs/PERFORMANCE.md``). These tests drive
random mixed read/write address streams through both implementations and
assert the full observable contract: per-access hit/miss and writeback
results, aggregate stats, line residency, dirty state (via ``flush``
ordering), and the ``retouch`` coalescing path.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mem.cache import SetAssociativeCache
from repro.mem.cache_fast import FastSetAssociativeCache

#: geometries spanning one-set, direct-ish, and realistically sized
#: caches (line 64 B fixed — the metadata line size everywhere)
geometries = st.sampled_from([
    (64 * 2, 64, 2),      # one set, 2 ways: maximal collision pressure
    (64 * 8, 64, 8),      # one set, 8 ways (the MEE associativity)
    (64 * 4 * 4, 64, 4),  # 4 sets x 4 ways
    (64 * 8 * 16, 64, 8),  # 16 sets x 8 ways
])

#: (line_index, is_write) streams over a small line space so sets
#: collide, lines re-touch after eviction, and dirty lines churn
streams = st.lists(
    st.tuples(st.integers(0, 63), st.booleans()),
    min_size=0, max_size=300,
)


def both(geometry):
    size, line, ways = geometry
    return (SetAssociativeCache(size, line, ways),
            FastSetAssociativeCache(size, line, ways))


def assert_same_state(reference, fast, line_space=64, line_bytes=64):
    """Residency and dirty state agree line for line; flush order
    agrees exactly (sets ascending, LRU-oldest first)."""
    for line in range(line_space):
        address = line * line_bytes
        assert fast.contains(address) == reference.contains(address), line
    assert fast.flush() == reference.flush()


def stats_tuple(cache):
    s = cache.stats
    return (s.hits, s.misses, s.evictions, s.dirty_evictions)


@settings(max_examples=60, deadline=None)
@given(geometry=geometries, stream=streams)
def test_scalar_access_matches_reference(geometry, stream):
    reference, fast = both(geometry)
    for line, is_write in stream:
        address = line * geometry[1]
        assert fast.access(address, is_write) == reference.access(address, is_write)
    assert stats_tuple(fast) == stats_tuple(reference)
    assert_same_state(reference, fast, line_bytes=geometry[1])


@settings(max_examples=60, deadline=None)
@given(geometry=geometries, stream=streams)
def test_access_many_matches_sequential_reference(geometry, stream):
    reference, fast = both(geometry)
    addresses = np.array([line * geometry[1] for line, _ in stream],
                         dtype=np.int64)
    writes = np.array([w for _, w in stream], dtype=bool)
    hits, writebacks = fast.access_many(addresses, writes)
    expected = [reference.access(int(a), bool(w))
                for a, w in zip(addresses, writes)]
    assert hits.tolist() == [hit for hit, _ in expected]
    assert writebacks.tolist() == [
        -1 if wb is None else wb for _, wb in expected]
    assert stats_tuple(fast) == stats_tuple(reference)
    assert_same_state(reference, fast, line_bytes=geometry[1])


@settings(max_examples=60, deadline=None)
@given(geometry=geometries, stream=streams,
       data=st.data())
def test_interleaved_access_retouch_matches_reference(geometry, stream, data):
    """Mixed scalar accesses and retouches (the batch rewriters' hit-run
    coalescing): a retouch replays guaranteed hits of a line the caller
    just touched."""
    reference, fast = both(geometry)
    for line, is_write in stream:
        address = line * geometry[1]
        assert fast.access(address, is_write) == reference.access(address, is_write)
        if data.draw(st.booleans()):
            count = data.draw(st.integers(1, 9))
            retouch_write = data.draw(st.booleans())
            reference.retouch(address, retouch_write, count)
            fast.retouch(address, retouch_write, count)
    assert stats_tuple(fast) == stats_tuple(reference)
    assert_same_state(reference, fast, line_bytes=geometry[1])


@settings(max_examples=40, deadline=None)
@given(geometry=geometries, first=streams, second=streams)
def test_mixed_batched_and_scalar_calls_share_state(geometry, first, second):
    """A batch, then scalar accesses, then another batch — the LRU clock
    and stats stay coherent across call styles."""
    reference, fast = both(geometry)
    for chunk, batched in ((first, True), (second, False), (first, True)):
        if batched:
            addresses = np.array([line * geometry[1] for line, _ in chunk],
                                 dtype=np.int64)
            writes = np.array([w for _, w in chunk], dtype=bool)
            hits, writebacks = fast.access_many(addresses, writes)
            expected = [reference.access(int(a), bool(w))
                        for a, w in zip(addresses, writes)]
            assert hits.tolist() == [h for h, _ in expected]
            assert writebacks.tolist() == [
                -1 if wb is None else wb for _, wb in expected]
        else:
            for line, is_write in chunk:
                address = line * geometry[1]
                assert (fast.access(address, is_write)
                        == reference.access(address, is_write))
    assert stats_tuple(fast) == stats_tuple(reference)
    assert_same_state(reference, fast, line_bytes=geometry[1])


class TestKernelBasics:
    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            FastSetAssociativeCache(100, 64, 4)

    def test_empty_batch(self):
        fast = FastSetAssociativeCache(4096, 64, 4)
        hits, writebacks = fast.access_many(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=bool))
        assert len(hits) == 0 and len(writebacks) == 0
        assert stats_tuple(fast) == (0, 0, 0, 0)

    def test_contains_many_is_pure(self):
        fast = FastSetAssociativeCache(4096, 64, 4)
        fast.access(0, True)
        fast.access(64, False)
        probe = np.array([0, 64, 128], dtype=np.int64)
        assert fast.contains_many(probe).tolist() == [True, True, False]
        assert stats_tuple(fast) == (0, 2, 0, 0)

    def test_writeback_order_within_one_batch(self):
        """Dirty evictions surface at the exact access that caused them,
        in stream order — one set, 2 ways, three conflicting lines."""
        fast = FastSetAssociativeCache(64 * 2, 64, 2)
        reference = SetAssociativeCache(64 * 2, 64, 2)
        addresses = np.array([0, 64, 128, 192, 0], dtype=np.int64)
        writes = np.array([True, True, False, False, False], dtype=bool)
        hits, writebacks = fast.access_many(addresses, writes)
        expected = [reference.access(int(a), bool(w))
                    for a, w in zip(addresses, writes)]
        assert writebacks.tolist() == [
            -1 if wb is None else wb for _, wb in expected]
        assert writebacks[2] == 0 and writebacks[3] == 64
