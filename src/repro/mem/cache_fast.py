"""Vectorized set-associative cache engine: a numpy twin of
:class:`~repro.mem.cache.SetAssociativeCache`.

It is off the MEE trace rewriter's path: the rewriter runs its state
machine once, in stream order, over the ``OrderedDict`` cache, which
costs less than repeated whole-batch waves (``docs/PERFORMANCE.md``
says why). The engine stays for its equivalence suite
(``tests/property/test_cache_equivalence.py``), its kernel benchmarks,
and because the repository benchmark's traced run counts its
``simulate``/``access`` calls; it can go once those counters stop
reading it.

The reference keeps each set as an ``OrderedDict`` and pays a Python
dict operation per touch. This engine keeps the whole cache as three
dense ``(num_sets, ways)`` numpy arrays:

* ``tags``  — the stored line tag per way (int64; ``-1`` = free, which
  no real tag can equal, so tag comparison needs no validity mask);
* ``dirty`` — write-back state (bool);
* ``stamp`` — last-touch time (int64, strictly increasing): the way
  with the smallest stamp *is* the replacement victim, so the
  ``OrderedDict`` LRU ordering is replaced by an argmin. Free ways hold
  ``way_index - 2**62``, below every real timestamp and ordered by way,
  so one argmin yields "first free way, else LRU victim" directly (and
  ``stamp >= 0`` doubles as the occupancy mask).

``access`` / ``retouch`` / ``contains`` / ``flush`` keep the scalar
API (drop-in for the reference), and :meth:`access_many` is the batched
kernel: it resolves same-set dependency chains by *segmenting the
batch on set-index collisions* — collision rank ``r`` of every set is
processed in one numpy pass (accesses to distinct sets commute), so a
batch with at most ``k`` touches of any single set costs ``k``
vectorized waves instead of ``n`` Python iterations.

Bit-identical contract (asserted by
``tests/property/test_cache_equivalence.py``): stats, hit/miss
sequence, eviction order, writeback addresses, residency, dirty state
and ``retouch`` semantics all match the ``OrderedDict`` reference for
any access stream.
"""

from __future__ import annotations

import numpy as np

from repro.mem.cache import CacheStats

#: stamp floor for free ways: ``way - _FREE_BASE`` sorts every free way
#: below every real (non-negative) timestamp, lowest way first
_FREE_BASE = 1 << 62


class FastSetAssociativeCache:
    """Numpy twin of :class:`~repro.mem.cache.SetAssociativeCache`.

    State lives in dense arrays; single-access calls pay a small numpy
    toll (they let the tests drive one object through either API),
    while :meth:`access_many` amortizes the whole batch.
    """

    __slots__ = ("line_bytes", "ways", "num_sets", "tags", "dirty",
                 "stamp", "stats", "_clock")

    def __init__(self, size_bytes: int, line_bytes: int = 64, ways: int = 8):
        if size_bytes % (line_bytes * ways) != 0:
            raise ValueError("size must be a multiple of line_bytes * ways")
        self.line_bytes = line_bytes
        self.ways = ways
        self.num_sets = size_bytes // (line_bytes * ways)
        if self.num_sets == 0:
            raise ValueError("cache too small for requested associativity")
        self.tags = np.full((self.num_sets, ways), -1, dtype=np.int64)
        self.dirty = np.zeros((self.num_sets, ways), dtype=bool)
        self.stamp = np.broadcast_to(
            np.arange(ways, dtype=np.int64) - _FREE_BASE,
            (self.num_sets, ways)).copy()
        self.stats = CacheStats()
        self._clock = 0

    # -- scalar-compatible API --------------------------------------------

    def _locate(self, address: int):
        line = address // self.line_bytes
        return line % self.num_sets, line // self.num_sets

    def access(self, address: int, is_write: bool):
        """Touch one line; same returns as the scalar reference:
        ``(hit, writeback_address_or_None)``."""
        set_idx, tag = self._locate(address)
        row_tags = self.tags[set_idx]
        match = row_tags == tag
        way = int(match.argmax())
        if match[way]:
            self.stats.hits += 1
            self.stamp[set_idx, way] = self._clock
            self._clock += 1
            if is_write:
                self.dirty[set_idx, way] = True
            return True, None

        self.stats.misses += 1
        writeback = None
        victim = int(self.stamp[set_idx].argmin())
        if self.stamp[set_idx, victim] >= 0:  # occupied: a real eviction
            self.stats.evictions += 1
            if self.dirty[set_idx, victim]:
                self.stats.dirty_evictions += 1
                evicted_line = int(row_tags[victim]) * self.num_sets + set_idx
                writeback = evicted_line * self.line_bytes
        self.tags[set_idx, victim] = tag
        self.dirty[set_idx, victim] = bool(is_write)
        self.stamp[set_idx, victim] = self._clock
        self._clock += 1
        return False, writeback

    def retouch(self, address: int, is_write: bool, accesses: int) -> None:
        """Replay ``accesses`` guaranteed-hit touches of a resident line
        in one step (one LRU move + a dirty OR), mirroring the scalar
        reference's :meth:`~repro.mem.cache.SetAssociativeCache.retouch`."""
        set_idx, tag = self._locate(address)
        way = int((self.tags[set_idx] == tag).argmax())
        self.stamp[set_idx, way] = self._clock
        self._clock += 1
        if is_write:
            self.dirty[set_idx, way] = True
        self.stats.hits += accesses

    def contains(self, address: int) -> bool:
        set_idx, tag = self._locate(address)
        return bool((self.tags[set_idx] == tag).any())

    def any_resident(self) -> bool:
        """True when at least one line is cached (cheap cold check)."""
        return bool((self.stamp >= 0).any())

    def flush(self):
        """Drop everything; returns dirty line addresses in the scalar
        reference's order: sets ascending, LRU (oldest) first within a
        set."""
        sets, ways = np.nonzero(self.dirty)
        addresses = []
        if sets.size:
            stamps = self.stamp[sets, ways]
            order = np.lexsort((stamps, sets))
            lines = self.tags[sets, ways][order] * self.num_sets + sets[order]
            addresses = (lines * self.line_bytes).tolist()
        self.tags.fill(-1)
        self.dirty.fill(False)
        self.stamp[...] = np.arange(self.ways, dtype=np.int64) - _FREE_BASE
        return addresses

    # -- batched kernel ----------------------------------------------------

    def contains_many(self, addresses: np.ndarray) -> np.ndarray:
        """Vectorized residency probe (no state change, no stats)."""
        line = addresses // self.line_bytes
        sets = line % self.num_sets
        tags = line // self.num_sets
        return (self.tags[sets] == tags[:, None]).any(axis=1)

    def access_many(self, addresses, is_write):
        """Batched :meth:`access`: one call touches every address in
        stream order. Returns ``(hits, writebacks)`` — a bool array and
        an int64 array where ``-1`` means no dirty eviction, otherwise
        the byte address of the line written back by that access
        (identical, access for access, to a scalar ``access`` loop)."""
        addresses = np.ascontiguousarray(addresses, dtype=np.int64)
        is_write = np.asarray(is_write, dtype=bool)
        n = len(addresses)
        hits = np.empty(n, dtype=bool)
        writebacks = np.full(n, -1, dtype=np.int64)
        if n:
            stamps = self._clock + np.arange(n, dtype=np.int64)
            self.simulate(addresses, is_write, stamps, hits, writebacks)
            self._clock += n
        return hits, writebacks

    def simulate(self, addresses, is_write, stamps, hits, writebacks) -> None:
        """The wave kernel behind :meth:`access_many`.

        ``stamps`` assigns each access its LRU timestamp explicitly so a
        caller can fold guaranteed-hit ``retouch`` replays into the
        original touch by *inflating* its stamp to the replay's stream
        position; stamps must be unique non-negative values starting at
        :attr:`_clock` (the caller advances the clock past its slot
        range on commit) and preserve per-set victim ordering.
        ``writebacks`` must come in filled with ``-1``; it and ``hits``
        are filled in place.

        Segmentation: accesses are grouped by set index; wave ``r``
        applies the ``r``-th access of every set in one vectorized pass.
        Within a wave all sets are distinct, so the accesses commute and
        dense-array updates are exact.
        """
        n = len(addresses)
        line = addresses // self.line_bytes
        sets = line % self.num_sets
        tag = line // self.num_sets

        by_set = np.argsort(sets, kind="stable")  # per-set chronological
        sets_sorted = sets[by_set]
        boundary = np.empty(n, dtype=bool)
        boundary[0] = True
        np.not_equal(sets_sorted[1:], sets_sorted[:-1], out=boundary[1:])
        group_start = np.flatnonzero(boundary)
        group_len = np.diff(np.append(group_start, n))
        # collision rank of every access within its set; a stable sort
        # by rank lays each wave out as one contiguous slice
        rank = np.arange(n) - np.repeat(group_start, group_len)
        sel_all = by_set[np.argsort(rank, kind="stable")]
        wave_len = np.bincount(rank)

        s_all = sets[sel_all]
        t_all = tag[sel_all]
        w_all = is_write[sel_all]
        stamp_in = stamps[sel_all]

        tags_a, dirty_a, stamp_a = self.tags, self.dirty, self.stamp
        num_sets, line_bytes = self.num_sets, self.line_bytes
        free_before = int((stamp_a < 0).sum())

        lo = 0
        for count in wave_len:
            hi = lo + count
            sel = sel_all[lo:hi]
            s = s_all[lo:hi]
            t = t_all[lo:hi]
            match = tags_a[s] == t[:, None]  # free ways hold tag -1
            is_hit = match.any(axis=1)
            # free ways stamp below all timestamps, lowest way first,
            # so one argmin is "first free way, else LRU victim"
            way = np.where(is_hit, match.argmax(axis=1),
                           stamp_a[s].argmin(axis=1))
            old_dirty = dirty_a[s, way]
            hits[sel] = is_hit
            dirty_ev = ~is_hit & old_dirty
            if dirty_ev.any():
                ev_sets = s[dirty_ev]
                ev_tags = tags_a[ev_sets, way[dirty_ev]]
                writebacks[sel[dirty_ev]] = (
                    ev_tags * num_sets + ev_sets) * line_bytes
            tags_a[s, way] = t
            dirty_a[s, way] = (old_dirty & is_hit) | w_all[lo:hi]
            stamp_a[s, way] = stamp_in[lo:hi]
            lo = hi

        hit_total = int(hits[:n].sum())
        miss_total = n - hit_total
        self.stats.hits += hit_total
        self.stats.misses += miss_total
        # every miss either claims a free way or evicts a resident line
        self.stats.evictions += miss_total - (
            free_before - int((stamp_a < 0).sum()))
        self.stats.dirty_evictions += int((writebacks[:n] >= 0).sum())

    # -- checkpointing -----------------------------------------------------

    def state_dict(self) -> dict:
        """Canonical implementation-neutral state (same format as the
        scalar reference): per set, ``[tag, dirty]`` pairs in LRU order
        (oldest first). Stamps are not serialized — only their relative
        order is observable, and :meth:`load_state` reassigns a fresh
        monotone clock that preserves it."""
        sets_out = []
        for set_idx in range(self.num_sets):
            occupied = np.flatnonzero(self.stamp[set_idx] >= 0)
            order = occupied[np.argsort(self.stamp[set_idx, occupied])]
            sets_out.append([[int(self.tags[set_idx, way]),
                              bool(self.dirty[set_idx, way])] for way in order])
        return {
            "line_bytes": self.line_bytes,
            "ways": self.ways,
            "num_sets": self.num_sets,
            "sets": sets_out,
            "stats": {"hits": self.stats.hits, "misses": self.stats.misses,
                      "evictions": self.stats.evictions,
                      "dirty_evictions": self.stats.dirty_evictions},
        }

    def load_state(self, state: dict) -> None:
        for key in ("line_bytes", "ways", "num_sets"):
            if state[key] != getattr(self, key):
                raise ValueError(
                    f"cache geometry mismatch: checkpoint {key}={state[key]}, "
                    f"cache has {getattr(self, key)}")
        self.tags.fill(-1)
        self.dirty.fill(False)
        self.stamp[...] = np.arange(self.ways, dtype=np.int64) - _FREE_BASE
        clock = 0
        for set_idx, entries in enumerate(state["sets"]):
            # occupied entries take ways 0..k-1 with ascending stamps:
            # free ways (k..) still sort below and in way order, victims
            # follow LRU order, flush lexsort follows LRU order — every
            # observable behaviour matches the pre-checkpoint cache
            for way, (tag, dirty) in enumerate(entries):
                self.tags[set_idx, way] = int(tag)
                self.dirty[set_idx, way] = bool(dirty)
                self.stamp[set_idx, way] = clock
                clock += 1
        self._clock = clock
        stats = state["stats"]
        self.stats = CacheStats(hits=stats["hits"], misses=stats["misses"],
                                evictions=stats["evictions"],
                                dirty_evictions=stats["dirty_evictions"])

    # -- bookkeeping for callers that pre-assign stamps --------------------

    def credit_hits(self, count: int) -> None:
        """Account ``count`` guaranteed hits that were folded into
        already-simulated touches (the batched ``retouch`` bookkeeping:
        a hit run's replay adds hits without new accesses)."""
        self.stats.hits += count
