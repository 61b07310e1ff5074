"""Event-driven protection: rewrite a data request stream into the full
protected stream, request by request.

The analytic scheme models in :mod:`repro.protection.mee` /
:mod:`repro.protection.guardnn` compute metadata traffic with closed
forms. This module is the *mechanistic* counterpart: it walks an actual
:class:`~repro.mem.trace.MemoryRequest` stream, runs the baseline's
VN/MAC/tree lookups through a real set-associative cache, and emits the
exact interleaved request sequence a memory-protection engine would put
on the bus. The integration tests cross-validate the two models; the
rewritten traces can also be timed on the event-driven DDR4 controller.

Each rewriter implements its state machine twice: ``rewrite``, the
per-request reference over ``MemoryRequest`` objects, and one numpy
lane behind ``rewrite_batch`` (MEE's lane walks its metadata cache in
a compiled kernel, see :mod:`repro.native`). The :mod:`repro.perf` mode
picks between them: fast mode takes the lane, scalar mode
(``REPRO_SCALAR=1``) runs ``rewrite`` itself, as does MEE for a tree
too deep for its lane or without a compiled kernel.

Address map: metadata regions live above ``metadata_base`` —
VN lines, then MAC lines, then tree levels — mirroring how MEE carves
out a protected-metadata range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List

import numpy as _np

from repro import native, perf
from repro.testing import faults
from repro.mem.batch import MAC_CODE, TREE_CODE, VN_CODE, RequestBatch
from repro.mem.cache import SetAssociativeCache
from repro.mem.trace import MemoryRequest, RequestKind
from repro.protection.guardnn import GuardNNParams
from repro.protection.mee import MeeParams


#: where both rewriters lay out their metadata by default (16 GiB)
METADATA_BASE = 1 << 34


def protected_region_bytes(end_address: int) -> int:
    """The BP protected region for data addresses below ``end_address``:
    the smallest power of two covering them, and never below 1 GiB, so
    every trace below 1 GiB keeps the layout it always had. Data that
    reaches :data:`METADATA_BASE` would alias the metadata regions and
    is refused with a ``ValueError``."""
    if end_address > METADATA_BASE:
        raise ValueError(
            f"trace addresses end at {end_address:#x}, past the metadata "
            f"base {METADATA_BASE:#x}; data and metadata would alias")
    region = 1 << 30
    while region < end_address:
        region <<= 1
    return region


def build_trace_rewriter(name: str, end_address: int = 0, **params):
    """Mechanistic rewriter for a scheme short name (the same names as
    :data:`repro.protection.SCHEME_FACTORIES`).

    ``np`` and ``guardnn-c`` leave the request stream untouched (AES-CTR
    confidentiality adds no transfers), so they return ``None``;
    ``guardnn-ci`` adds MAC-line traffic, ``bp`` the full MEE
    VN/MAC/tree walk. ``end_address`` bounds the data addresses the
    rewriter will see: ``bp`` protects a region covering it (see
    :func:`protected_region_bytes`). ``params`` forward to the scheme's
    parameter dataclass. Rewriters carry their state (active MAC line,
    metadata cache) across calls, so one instance rewrites a chunked
    stream exactly as it would the whole trace.
    """
    if name in ("np", "guardnn-c"):
        if params:
            raise ValueError(f"scheme {name!r} takes no rewriter parameters")
        return None
    if name not in ("guardnn-ci", "bp"):
        raise KeyError(
            f"unknown scheme {name!r}; known: bp, guardnn-c, guardnn-ci, np")
    # both rewriters put their metadata at METADATA_BASE, so this also
    # refuses GuardNN_CI data that would alias its MAC lines
    protected_bytes = protected_region_bytes(end_address)
    if name == "guardnn-ci":
        return GuardNNTraceRewriter(integrity=True, params=GuardNNParams(**params))
    return MeeTraceRewriter(params=MeeParams(**params),
                            protected_bytes=protected_bytes)


def _run_starts(key, coalescable):
    """Start indices of maximal runs of entries that share a metadata
    key and may be coalesced; entries with ``coalescable`` False become
    singleton runs. The SoA pre-pass of both rewriters: one vectorized
    sweep replaces the per-request Python span/line arithmetic. Returns
    an ``(n_runs,)`` int index array (callers gather per-run attributes
    from it, so nothing per-request ever crosses back into Python)."""
    n = len(key)
    change = _np.empty(n, dtype=bool)
    change[0] = True
    _np.not_equal(key[1:], key[:-1], out=change[1:])
    change[1:] |= ~coalescable[1:] | ~coalescable[:-1]
    return _np.flatnonzero(change)


def _items(first, count):
    """Expand entry ``i`` into ``count[i]`` items, one per unit from
    ``first[i]`` on, in stream order. Returns ``(owner, unit)``: the
    entry each item came from and its unit number."""
    owner = _np.repeat(_np.arange(len(first)), count)
    unit = first[owner] + (
        _np.arange(len(owner)) - (_np.cumsum(count) - count)[owner])
    return owner, unit


def _scatter_assemble(out: RequestBatch, batch: RequestBatch, address, size,
                      is_write, ev_pos, ev_addr, ev_write, ev_kind,
                      line_bytes: int) -> None:
    """Interleave the verbatim input stream with positioned metadata
    events (event j rides directly after input request ``ev_pos[j]``)
    in one vectorized scatter instead of per-run array flushes. Event
    columns are numpy arrays: ``ev_write``/``ev_kind`` int8."""
    n = len(address)
    m = len(ev_pos)
    if not m:
        out.extend(batch)
        return
    total = n + m
    # event j lands after input ev_pos[j] and the j events before it;
    # the inputs fill the remaining slots in order
    dest_event = ev_pos + _np.arange(1, m + 1)
    is_event = _np.zeros(total, dtype=bool)
    is_event[dest_event] = True
    dest_input = _np.flatnonzero(~is_event)
    merged_address = _np.empty(total, dtype=_np.int64)
    merged_address[dest_input] = address
    merged_address[dest_event] = ev_addr
    merged_size = _np.full(total, line_bytes, dtype=_np.int64)
    merged_size[dest_input] = size
    merged_write = _np.empty(total, dtype=_np.int8)
    merged_write[dest_input] = is_write
    merged_write[dest_event] = ev_write
    merged_kind = _np.empty(total, dtype=_np.int8)
    merged_kind[dest_input] = _np.frombuffer(batch.kind, dtype=_np.int8)
    merged_kind[dest_event] = ev_kind
    # uint8 views: array.frombytes takes any byte buffer, no copy
    out.address.frombytes(merged_address.view(_np.uint8))
    out.size.frombytes(merged_size.view(_np.uint8))
    out.is_write.frombytes(merged_write.view(_np.uint8))
    out.kind.frombytes(merged_kind.view(_np.uint8))


class GuardNNTraceRewriter:
    """GuardNN_C/CI: confidentiality adds nothing to the stream; CI adds
    MAC-line transfers.

    Tags are ``mac_bytes`` each, packed into 64-B DRAM lines (~5 tags
    per line for the 12-B default). The IV engine holds the *active*
    MAC line in a register, so a sequential chunk stream fetches one
    64-B MAC line per ~5 chunks — and, on writes, streams the filled
    line back out when it retires. This is why GuardNN_CI's ~2.3% byte
    overhead translates to a similarly small cycle overhead instead of
    a per-chunk row-conflict penalty.
    """

    LINE_BYTES = 64

    def __init__(self, integrity: bool, params: GuardNNParams = GuardNNParams(),
                 metadata_base: int = METADATA_BASE):
        self.integrity = integrity
        self.params = params
        self.metadata_base = metadata_base
        self._active_line = None
        self._active_dirty = False
        self._rewrite_calls = 0

    # -- checkpointing -----------------------------------------------------

    def state_dict(self) -> dict:
        return {"active_line": self._active_line,
                "active_dirty": self._active_dirty}

    def load_state(self, state: dict) -> None:
        line = state["active_line"]
        self._active_line = None if line is None else int(line)
        self._active_dirty = bool(state["active_dirty"])

    def _mac_line(self, chunk_index: int) -> int:
        byte_offset = chunk_index * self.params.mac_bytes
        return self.metadata_base + (byte_offset // self.LINE_BYTES) * self.LINE_BYTES

    def _retire_active(self, out: List[MemoryRequest]) -> None:
        if self._active_line is not None and self._active_dirty:
            out.append(MemoryRequest(self._active_line, self.LINE_BYTES, True,
                                     RequestKind.MAC))
        self._active_dirty = False

    def rewrite(self, trace: Iterable[MemoryRequest]) -> List[MemoryRequest]:
        out: List[MemoryRequest] = []
        for req in trace:
            out.append(req)
            if not self.integrity:
                continue
            first = req.address // self.params.chunk_bytes
            last = (req.address + req.size - 1) // self.params.chunk_bytes
            for chunk in range(first, last + 1):
                line = self._mac_line(chunk)
                if line != self._active_line:
                    self._retire_active(out)
                    # reads must fetch the stored tags to verify against;
                    # writes produce fresh tags, so the engine
                    # write-allocates without a fill (streaming writes
                    # never read old MACs)
                    if not req.is_write:
                        out.append(MemoryRequest(line, self.LINE_BYTES, False,
                                                 RequestKind.MAC))
                    self._active_line = line
                if req.is_write:
                    self._active_dirty = True
        return out

    def flush(self) -> List[MemoryRequest]:
        """Retire the active MAC line at end of stream."""
        out: List[MemoryRequest] = []
        self._retire_active(out)
        self._active_line = None
        return out

    # -- structure-of-arrays fast lane ------------------------------------

    def rewrite_batch(self, batch: RequestBatch) -> RequestBatch:
        """Batch counterpart of :meth:`rewrite`: the same stream, emitted
        as a :class:`RequestBatch`, sharing the active-MAC-line state
        with it. In fast mode every non-empty batch takes the numpy lane
        (:meth:`_rewrite_batch_vec`); in scalar mode this runs the
        :meth:`rewrite` oracle itself."""
        if faults.enabled():
            faults.fire("rewriter.rewrite", self._rewrite_calls)
        self._rewrite_calls += 1
        if perf.fast_enabled() and len(batch):
            return self._rewrite_batch_vec(batch)
        return RequestBatch.from_requests(self.rewrite(batch))

    def _rewrite_batch_vec(self, batch: RequestBatch) -> RequestBatch:
        """The numpy lane. A request that spans several 512-B chunks
        becomes one item per chunk (the scalar machine's inner loop), so
        every item touches one MAC line. Same-line item runs collapse to
        a MAC-line-change event stream computed entirely in numpy, with
        each item's events right after its own request, and one scatter
        assembles the interleaved output."""
        out = RequestBatch()
        if not self.integrity:
            out.extend(batch)
            return out
        address = _np.frombuffer(batch.address, dtype=_np.int64)
        size = _np.frombuffer(batch.size, dtype=_np.int64)
        is_write = _np.frombuffer(batch.is_write, dtype=_np.int8)
        chunk_bytes = self.params.chunk_bytes
        chunk = address // chunk_bytes
        chunks = (address + size - 1) // chunk_bytes - chunk + 1
        owner = None  # item i is request i unless a request spans chunks
        item_write = is_write
        if chunks.max() > 1:
            owner, chunk = _items(chunk, chunks)
            item_write = is_write[owner]
        line_bytes = self.LINE_BYTES
        line = (self.metadata_base
                + chunk * self.params.mac_bytes // line_bytes * line_bytes)
        n = len(line)
        starts = _run_starts(line, _np.ones(n, dtype=bool))
        ends = _np.concatenate((starts[1:], [n]))
        m = len(starts)
        writes_before = _np.concatenate(([0], _np.cumsum(item_write != 0)))
        run_any_write = writes_before[ends] > writes_before[starts]
        run_line = line[starts]
        run_read_first = item_write[starts] == 0

        first = 0  # run 0 may just extend the carried active line
        if self._active_line is not None and run_line[0] == self._active_line:
            if run_any_write[0]:
                self._active_dirty = True
            first = 1
        if first >= m:
            out.extend(batch)
            return out
        # per line change: retire the previous line if dirty, then
        # fetch the new one when the run leads with a read
        span = m - first
        prev_dirty = _np.empty(span, dtype=bool)
        prev_line = _np.empty(span, dtype=_np.int64)
        prev_dirty[1:] = run_any_write[first:m - 1]
        prev_line[1:] = run_line[first:m - 1]
        prev_dirty[0] = self._active_line is not None and self._active_dirty
        prev_line[0] = self._active_line if self._active_line is not None else 0
        has_fill = run_read_first[first:]
        slot_mask = _np.empty(2 * span, dtype=bool)
        slot_mask[0::2] = prev_dirty  # the retire precedes the fetch
        slot_mask[1::2] = has_fill
        ev_slot = _np.flatnonzero(slot_mask)
        ev_run = ev_slot >> 1
        ev_is_wb = (ev_slot & 1) == 0
        pos = starts[first:]
        if owner is not None:
            pos = owner[pos]
        ev_pos = pos[ev_run]
        ev_addr = _np.where(ev_is_wb, prev_line[ev_run],
                            run_line[first:][ev_run])
        ev_write = ev_is_wb.astype(_np.int8)
        ev_kind = _np.full(len(ev_slot), MAC_CODE, dtype=_np.int8)
        self._active_line = int(run_line[-1])
        self._active_dirty = bool(run_any_write[-1])
        _scatter_assemble(out, batch, address, size, is_write,
                          ev_pos, ev_addr, ev_write, ev_kind, line_bytes)
        return out

    def flush_batch(self) -> RequestBatch:
        """Batch counterpart of :meth:`flush`."""
        return RequestBatch.from_requests(self.flush())


@dataclass
class _MeeRegions:
    """Where each metadata kind lives."""

    vn_base: int
    mac_base: int
    tree_bases: List[int]


class MeeTraceRewriter:
    """Baseline protection, mechanistically: per 64-B data line, find
    the covering VN line and MAC line; on a metadata-cache miss, fetch
    the line (a read request) and walk the counter tree upward until a
    cached level authenticates it; dirty evictions emit writebacks."""

    def __init__(self, params: MeeParams = MeeParams(),
                 protected_bytes: int = 1 << 30,
                 metadata_base: int = METADATA_BASE):
        self.params = params
        # the metadata cache in both modes: the scalar path calls its
        # ``access``, the batch fast lane runs the same state machine
        # compiled, on a copy of its per-set OrderedDicts
        self.cache = SetAssociativeCache(
            params.cache_bytes, params.line_bytes, ways=8)
        self.metadata_base = metadata_base
        self.regions = self._lay_out(protected_bytes)
        self._rewrite_calls = 0

    # -- checkpointing -----------------------------------------------------

    def state_dict(self) -> dict:
        """Carried state is exactly the metadata cache (the region
        layout is derived from constructor parameters). Both modes use
        one cache class, so a checkpoint written in fast mode resumes
        in scalar mode and vice versa."""
        return {"cache": self.cache.state_dict()}

    def load_state(self, state: dict) -> None:
        self.cache.load_state(state["cache"])

    def _lay_out(self, protected_bytes: int) -> _MeeRegions:
        p = self.params
        vn_lines = math.ceil(protected_bytes / p.data_per_vn_line)
        mac_lines = math.ceil(protected_bytes / p.data_per_mac_line)
        vn_base = self.metadata_base
        mac_base = vn_base + vn_lines * p.line_bytes
        tree_bases = []
        level_base = mac_base + mac_lines * p.line_bytes
        coverage = p.data_per_vn_line * p.tree_arity
        while coverage < protected_bytes:
            lines = math.ceil(protected_bytes / coverage)
            tree_bases.append(level_base)
            level_base += lines * p.line_bytes
            coverage *= p.tree_arity
        return _MeeRegions(vn_base, mac_base, tree_bases)

    def _vn_line(self, address: int) -> int:
        return self.regions.vn_base + (address // self.params.data_per_vn_line) * self.params.line_bytes

    def _mac_line(self, address: int) -> int:
        return self.regions.mac_base + (address // self.params.data_per_mac_line) * self.params.line_bytes

    def _tree_line(self, address: int, level: int) -> int:
        coverage = self.params.data_per_vn_line * self.params.tree_arity ** (level + 1)
        return self.regions.tree_bases[level] + (address // coverage) * self.params.line_bytes

    def _kind_of(self, meta_address: int) -> RequestKind:
        if meta_address < self.regions.mac_base:
            return RequestKind.VN
        if not self.regions.tree_bases or meta_address < self.regions.tree_bases[0]:
            return RequestKind.MAC
        return RequestKind.TREE

    def _touch(self, out: List[MemoryRequest], meta_address: int, is_write: bool,
               kind: RequestKind) -> bool:
        """Access one metadata line through the cache; emit fill +
        writeback requests. Returns True on hit."""
        hit, writeback = self.cache.access(meta_address, is_write)
        if writeback is not None:
            out.append(MemoryRequest(writeback, self.params.line_bytes, True,
                                     self._kind_of(writeback)))
        if not hit:
            out.append(MemoryRequest(meta_address, self.params.line_bytes, False, kind))
        return hit

    def rewrite(self, trace: Iterable[MemoryRequest]) -> List[MemoryRequest]:
        out: List[MemoryRequest] = []
        unit = self.params.data_per_vn_line  # one metadata line per unit
        for req in trace:
            out.append(req)
            first_unit = req.address // unit
            last_unit = (req.address + req.size - 1) // unit
            for u in range(first_unit, last_unit + 1):
                addr = u * unit
                # VN line (decrypt pad / increment on write)
                vn_hit = self._touch(out, self._vn_line(addr), req.is_write, RequestKind.VN)
                # MAC line (verify on read, update on write)
                self._touch(out, self._mac_line(addr), req.is_write, RequestKind.MAC)
                if not vn_hit:
                    # authenticate the fetched VN line: walk the tree
                    # upward until a level hits in the cache
                    for level in range(len(self.regions.tree_bases)):
                        if self._touch(out, self._tree_line(addr, level),
                                       req.is_write, RequestKind.TREE):
                            break
        return out

    def flush(self) -> List[MemoryRequest]:
        """Drain dirty metadata at end of run (writebacks)."""
        out = []
        for address in self.cache.flush():
            out.append(MemoryRequest(address, self.params.line_bytes, True,
                                     self._kind_of(address)))
        return out

    # -- structure-of-arrays fast lane ------------------------------------

    def rewrite_batch(self, batch: RequestBatch) -> RequestBatch:
        """Batch counterpart of :meth:`rewrite`: identical request
        sequence (same metadata-cache state machine), emitted straight
        into parallel arrays.

        In fast mode every non-empty batch takes the numpy lane
        (:meth:`_rewrite_batch_items`): VN-unit spans are precomputed
        for the whole batch (SoA), runs of requests inside one 512-B
        unit collapse (the run's first request drives the cache state
        machine, the rest are provably hits and reduce to one dirty-OR /
        LRU touch), and one compiled pass runs the state machine item
        by item. In scalar mode this runs the :meth:`rewrite` oracle
        itself, as does a tree too deep for the lane's event mask, or
        fast mode without a compiled kernel (see :mod:`repro.native`)."""
        if faults.enabled():
            faults.fire("rewriter.rewrite", self._rewrite_calls)
        self._rewrite_calls += 1
        # the numpy lane packs two event bits per touch (VN, MAC, one
        # per tree level) into one int64 mask per item
        if (perf.fast_enabled() and len(batch)
                and 2 * (len(self.regions.tree_bases) + 2) < 64):
            kernels = native.kernels()
            if kernels is not None:
                return self._rewrite_batch_items(batch, kernels)
        return RequestBatch.from_requests(self.rewrite(batch))

    def _rewrite_batch_items(self, batch: RequestBatch, kernels) -> RequestBatch:
        """Numpy pre-pass, one compiled pass over the cache in stream
        order, numpy assembly.

        The pre-pass cuts the batch into *items*, one per (run, VN
        unit). The kernel (``repro_mee_items`` in ``repro/native.c``)
        applies each item's touches (VN, MAC, and after a VN miss the
        tree walk) to the cache's sets, exactly as
        :meth:`~repro.mem.cache.SetAssociativeCache.access` would. Each
        item records one bitmask of its events (bit ``2k`` the
        writeback caused by touch ``k``, bit ``2k + 1`` its fill; touch
        0 is VN, 1 MAC, ``2 + l`` tree level ``l``) and each writeback
        appends its line to a side array. Numpy expands the masks into
        the positioned event columns of :func:`_scatter_assemble` and
        derives the cache stats from them.
        """
        n = len(batch)
        address = _np.frombuffer(batch.address, dtype=_np.int64)
        size = _np.frombuffer(batch.size, dtype=_np.int64)
        is_write = _np.frombuffer(batch.is_write, dtype=_np.int8)
        cache = self.cache
        num_sets = cache.num_sets
        ways = cache.ways
        line_bytes = self.params.line_bytes
        unit = self.params.data_per_vn_line
        per_mac = self.params.data_per_mac_line
        arity = self.params.tree_arity
        vn_base = self.regions.vn_base
        mac_base = self.regions.mac_base
        tree_bases = self.regions.tree_bases
        levels = len(tree_bases)

        # -- items: one per (run, VN unit) ---------------------------------
        first_unit = address // unit
        last_unit = (address + size - 1) // unit
        # after its VN touch an item touches at most levels + 1 other
        # lines; while that is fewer than ``ways``, neither VN nor MAC
        # can reach the LRU end of its set and be evicted, so a run's
        # remaining requests can only hit. Otherwise every request is
        # its own run.
        coalesce = levels + 1 < ways
        starts = _run_starts(first_unit, (first_unit == last_unit) & coalesce)
        ends = _np.append(starts[1:], n)
        writes_before = _np.concatenate(([0], _np.cumsum(is_write != 0)))
        run_first = first_unit[starts]
        item_run, item_unit = _items(run_first,
                                     last_unit[starts] - run_first + 1)
        n_items = len(item_unit)

        # -- the state machine, compiled -----------------------------------
        # A run's remaining requests re-touch VN and MAC (hits: one LRU
        # move each) and OR their writes into both dirty bits. No
        # eviction can observe those bits in between, so the item's own
        # VN/MAC touches store the whole run's write-OR (``run_write``);
        # its tree touches store the first request's write. The kernel
        # runs on a copy of the cache's sets, laid out as per-set LRU
        # arrays (oldest first), which is copied back after.
        sets = cache._sets
        count = _np.fromiter(map(len, sets), dtype=_np.int64, count=num_sets)
        resident = int(count.sum())
        slot = (_np.arange(resident)
                + _np.repeat(_np.arange(num_sets) * ways - (_np.cumsum(count) - count),
                             count))
        tags = _np.zeros(num_sets * ways, dtype=_np.int64)
        dirty = _np.zeros(num_sets * ways, dtype=bool)
        tags[slot] = [tag for lines in sets for tag in lines]
        dirty[slot] = [bit for lines in sets for bit in lines.values()]
        geometry = _np.array([vn_base // line_bytes, mac_base // line_bytes,
                              unit, per_mac, num_sets, ways, levels],
                             dtype=_np.int64)
        tree_line = _np.array([base // line_bytes for base in tree_bases],
                              dtype=_np.int64)
        tree_span = arity ** _np.arange(1, levels + 1, dtype=_np.int64)
        item_mask = _np.empty(n_items, dtype=_np.int64)
        wb_line = _np.empty(n_items * (levels + 2), dtype=_np.int64)
        writebacks = kernels.repro_mee_items(
            n_items, item_unit,
            is_write[starts][item_run],
            (writes_before[ends] > writes_before[starts])[item_run],
            (ends - starts - 1)[item_run], geometry, tree_line, tree_span,
            tags, dirty, count, item_mask, wb_line)
        if writebacks < 0:
            raise RuntimeError("MEE kernel: a coalesced run's VN or MAC line "
                               "left the cache")
        wb_line = wb_line[:writebacks]
        tag_rows = tags.reshape(num_sets, ways).tolist()
        dirty_rows = dirty.reshape(num_sets, ways).tolist()
        for lines, held, tag_row, dirty_row in zip(sets, count.tolist(),
                                                   tag_rows, dirty_rows):
            lines.clear()
            lines.update(zip(tag_row[:held], dirty_row[:held]))

        # -- stats. Misses are the fills, dirty evictions the writebacks,
        # evictions the fills into full sets. Hits: every item and every
        # coalesced request touches VN and MAC; take away the MAC fills,
        # and count a VN fill as the hit that ended its walk, unless the
        # walk filled every level.
        width = 2 * (levels + 2)
        # row-major: items in order, touches in order, a writeback
        # before the fill of the touch that caused it
        event = _np.flatnonzero(item_mask[:, None] & (1 << _np.arange(width)))
        misses = len(event) - len(wb_line)
        full_walk = sum(2 << (2 * touch) for touch in (0, *range(2, levels + 2)))
        stats = cache.stats
        stats.hits += (2 * (n_items + n - len(starts))
                       - int(_np.count_nonzero(item_mask & 8))
                       - int(_np.count_nonzero((item_mask & full_walk) == full_walk)))
        stats.misses += misses
        stats.evictions += misses - (int(count.sum()) - resident)
        stats.dirty_evictions += len(wb_line)

        # -- positioned events ---------------------------------------------
        out = RequestBatch()
        if not misses:
            out.extend(batch)
            return out
        item, bit = _np.divmod(event, width)
        touch = bit >> 1
        is_wb = (bit & 1) == 0
        ev_unit = item_unit[item]
        span = _np.concatenate(([1, 1], arity ** _np.arange(1, levels + 1)))
        bases = _np.array([vn_base, mac_base, *tree_bases], dtype=_np.int64)
        ev_addr = bases[touch] + _np.where(
            touch == 1, ev_unit * unit // per_mac, ev_unit) // span[touch] * line_bytes
        ev_kind = _np.minimum(touch, 2)
        if writebacks:
            wb_addr = wb_line * line_bytes
            ev_addr[is_wb] = wb_addr
            # a writeback's kind is the region of its address
            ev_kind[is_wb] = _np.searchsorted(bases[1:3], wb_addr, side="right")
        _scatter_assemble(out, batch, address, size, is_write,
                          starts[item_run[item]], ev_addr,
                          is_wb.astype(_np.int8),
                          _np.array([VN_CODE, MAC_CODE, TREE_CODE],
                                    dtype=_np.int8)[ev_kind], line_bytes)
        return out

    def flush_batch(self) -> RequestBatch:
        """Batch counterpart of :meth:`flush`."""
        return RequestBatch.from_requests(self.flush())
