"""Set-associative write-back cache with LRU replacement.

This is the VN/MAC metadata cache of the baseline memory-protection
engine (Intel-MEE-style). The paper attributes BP's traffic increase to
"more frequent cache evictions in the VN/MAC cache" (Section III-C); this
model is what produces that behaviour in our baseline scheme.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    dirty_evictions: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class SetAssociativeCache:
    """Cache of fixed-size lines addressed by byte address.

    ``access`` returns ``(hit, evicted_dirty_line_address)`` so the caller
    can generate the fill read and writeback traffic itself — the cache
    model stays purely about state, the protection scheme owns traffic
    accounting.
    """

    def __init__(self, size_bytes: int, line_bytes: int = 64, ways: int = 8):
        if size_bytes % (line_bytes * ways) != 0:
            raise ValueError("size must be a multiple of line_bytes * ways")
        self.line_bytes = line_bytes
        self.ways = ways
        self.num_sets = size_bytes // (line_bytes * ways)
        if self.num_sets == 0:
            raise ValueError("cache too small for requested associativity")
        # each set: OrderedDict tag -> dirty flag; order = LRU (oldest
        # first). MeeTraceRewriter's batch lane runs ``access`` inline on
        # these dicts, so a change here or to ``access`` changes both
        # (tests/property/test_rewriter_equivalence.py holds them equal)
        self._sets = [OrderedDict() for _ in range(self.num_sets)]
        self.stats = CacheStats()

    def _locate(self, address: int):
        line = address // self.line_bytes
        return line % self.num_sets, line // self.num_sets

    def access(self, address: int, is_write: bool):
        """Touch the line containing ``address``.

        Returns ``(hit, writeback_address)`` where ``writeback_address``
        is the byte address of a dirty line evicted to make room, or
        ``None``.
        """
        set_idx, tag = self._locate(address)
        cache_set = self._sets[set_idx]
        writeback = None
        if tag in cache_set:
            self.stats.hits += 1
            cache_set.move_to_end(tag)
            if is_write:
                cache_set[tag] = True
            return True, None

        self.stats.misses += 1
        if len(cache_set) >= self.ways:
            evicted_tag, dirty = cache_set.popitem(last=False)
            self.stats.evictions += 1
            if dirty:
                self.stats.dirty_evictions += 1
                evicted_line = evicted_tag * self.num_sets + set_idx
                writeback = evicted_line * self.line_bytes
        cache_set[tag] = is_write
        return False, writeback

    def contains(self, address: int) -> bool:
        set_idx, tag = self._locate(address)
        return tag in self._sets[set_idx]

    def flush(self):
        """Drop everything; returns addresses of dirty lines (for
        writeback accounting)."""
        dirty_addresses = []
        for set_idx, cache_set in enumerate(self._sets):
            for tag, dirty in cache_set.items():
                if dirty:
                    line = tag * self.num_sets + set_idx
                    dirty_addresses.append(line * self.line_bytes)
            cache_set.clear()
        return dirty_addresses

    # -- checkpointing -----------------------------------------------------
    #
    # The serialized form is, per set, a list of ``[tag, dirty]`` pairs in
    # LRU order (oldest first), plus the stats counters. Only the
    # *relative* recency order within a set is observable (victim choice
    # and flush order), so a loaded cache behaves bit-identically to the
    # one that was saved.

    def state_dict(self) -> dict:
        return {
            "line_bytes": self.line_bytes,
            "ways": self.ways,
            "num_sets": self.num_sets,
            "sets": [[[int(tag), bool(dirty)] for tag, dirty in cache_set.items()]
                     for cache_set in self._sets],
            "stats": {"hits": self.stats.hits, "misses": self.stats.misses,
                      "evictions": self.stats.evictions,
                      "dirty_evictions": self.stats.dirty_evictions},
        }

    def _check_geometry(self, state: dict) -> None:
        for key in ("line_bytes", "ways", "num_sets"):
            if state[key] != getattr(self, key):
                raise ValueError(
                    f"cache geometry mismatch: checkpoint {key}={state[key]}, "
                    f"cache has {getattr(self, key)}")

    def load_state(self, state: dict) -> None:
        self._check_geometry(state)
        for cache_set, entries in zip(self._sets, state["sets"]):
            cache_set.clear()
            for tag, dirty in entries:
                cache_set[int(tag)] = bool(dirty)
        stats = state["stats"]
        self.stats = CacheStats(hits=stats["hits"], misses=stats["misses"],
                                evictions=stats["evictions"],
                                dirty_evictions=stats["dirty_evictions"])
