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
per-request reference over ``MemoryRequest`` objects, and its
line-for-line port in C (``repro_guardnn_rewrite`` and
``repro_mee_rewrite`` in ``repro/native.c``, see :mod:`repro.native`),
which ``rewrite_batch`` runs in fast mode on the batch's columns. In
scalar mode (``REPRO_SCALAR=1``), or without a compiled kernel,
``rewrite_batch`` runs ``rewrite`` itself.

Address map: metadata regions live above ``metadata_base`` —
VN lines, then MAC lines, then tree levels — mirroring how MEE carves
out a protected-metadata range.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, List

import numpy as _np

from repro import native, perf
from repro.testing import faults
from repro.mem.batch import RequestBatch
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


class _KernelOutput:
    """Where a rewriter's kernel writes its interleaved stream: the four
    columns of a :class:`RequestBatch`, kept for the next call.

    A kernel call takes at most :attr:`SLICE` requests, and its output
    is sized for their worst case: every request, plus ``touches``
    requests for each ``unit``-byte block it covers (a request of ``s``
    bytes covers at most ``(s - 1) // unit + 2``). That bound is many
    times the usual output, so the columns share one anonymous memory
    mapping, where only the pages the kernel writes become resident.
    (numpy would advise arrays of 4 MB and up onto 2 MB huge pages, and
    each column's unwritten tail would count towards the process's
    memory.) The columns' addresses and capacity, the kernels' last
    five arguments, are taken whenever the mapping is replaced."""

    #: requests per kernel call, which caps the address space a call
    #: reserves whatever the chunk size (~48 MB for BP over 64-B
    #: requests and an 8-level tree)
    SLICE = 1 << 16

    def __init__(self, unit: int, touches: int):
        self.unit = unit
        self.touches = touches
        self.capacity = 0
        self.columns = ()
        self.arguments = ()

    def slices(self, batch: RequestBatch):
        """``batch``'s column addresses and length (the kernels' first
        five arguments) in slices of at most :attr:`SLICE` requests;
        when each is yielded, :attr:`arguments` has room for its worst
        case."""
        address, size, is_write, kind, n = native.batch_arguments(batch)
        for start in range(0, n, self.SLICE):
            length = min(self.SLICE, n - start)
            self._reserve(length + self.touches * (
                (int(batch.size[start:start + length].sum()) - length)
                // self.unit + 2 * length))
            yield (address + 8 * start, size + 8 * start, is_write + start,
                   kind + start, length)

    def _reserve(self, capacity: int) -> None:
        if capacity > self.capacity:
            import mmap  # fast mode only: kept out of the package import

            memory = mmap.mmap(-1, 18 * capacity)
            self.columns = tuple(
                _np.frombuffer(memory, dtype, capacity, offset * capacity)
                for dtype, offset in ((_np.int64, 0), (_np.int64, 8),
                                      (_np.int8, 16), (_np.int8, 17)))
            self.capacity = capacity
            # the old mapping goes with its columns: take the new addresses
            self.arguments = (*map(native.address_of, self.columns), capacity)

    def append_to(self, out: RequestBatch, length: int) -> None:
        """Copy the first ``length`` requests written onto ``out``, once:
        a non-empty ``out`` concatenates them, and an empty one, which
        takes its columns as they are, gets a copy (the next call
        overwrites these columns)."""
        written = (column[:length] for column in self.columns)
        out.extend(RequestBatch(*written) if len(out)
                   else RequestBatch(*(column.copy() for column in written)))


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
        # the kernel's geometry (``GN_*`` in repro/native.c) and the
        # active line and dirty bit it reads and writes back
        self._geometry = _np.array(
            [integrity, params.chunk_bytes, native.shift_of(params.chunk_bytes),
             params.mac_bytes, self.LINE_BYTES, native.shift_of(self.LINE_BYTES),
             metadata_base], dtype=_np.int64)
        self._active = _np.zeros(2, dtype=_np.int64)
        self._arguments = ()  # their addresses, taken on the first call
        # per 512-B chunk, the MAC line's retire and fetch at most
        self._output = _KernelOutput(params.chunk_bytes, 2)

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

    # -- the compiled lane ---------------------------------------------------

    def rewrite_batch(self, batch: RequestBatch) -> RequestBatch:
        """Batch counterpart of :meth:`rewrite`: the same stream, emitted
        as a :class:`RequestBatch`, sharing the active-MAC-line state
        with it. Fast mode runs the kernel ``repro_guardnn_rewrite``
        (:meth:`rewrite` in C); scalar mode, or fast mode without a
        compiled kernel, runs :meth:`rewrite` itself."""
        if faults.enabled():
            faults.fire("rewriter.rewrite", self._rewrite_calls)
        self._rewrite_calls += 1
        kernels = native.kernels() if perf.fast_enabled() and len(batch) else None
        if kernels is None:
            return RequestBatch.from_requests(self.rewrite(batch))
        if not self._arguments:
            self._arguments = (native.address_of(self._geometry),
                               native.address_of(self._active))
        out = RequestBatch()
        active = self._active
        active[0] = -1 if self._active_line is None else self._active_line
        active[1] = self._active_dirty
        for piece in self._output.slices(batch):
            length = kernels.repro_guardnn_rewrite(
                *piece, *self._arguments, *self._output.arguments)
            self._output.append_to(out, length)
        line, dirty = active.tolist()
        self._active_line = None if line < 0 else line
        self._active_dirty = bool(dirty)
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
        # the metadata cache in both modes. Its sets and stats have two
        # forms, of which exactly one is current: the cache's per-set
        # OrderedDicts (``_cache._sets``) and ``CacheStats``, which the
        # scalar path's ``access`` calls use, and the compiled kernel's
        # arrays (``_lines``), which stay current between fast-mode
        # calls; while they are, ``_sets`` is None. See :attr:`cache`.
        self._cache = SetAssociativeCache(
            params.cache_bytes, params.line_bytes, ways=8)
        self._lines = None
        self._arguments = ()  # the kernel's arrays' addresses
        self.metadata_base = metadata_base
        self.regions = self._lay_out(protected_bytes)
        self._rewrite_calls = 0
        # the kernel's geometry (``G_*`` in repro/native.c, each divisor
        # followed by its shift) and, per tree level, its first line and
        # the data bytes one line covers, with that divisor's shift
        shift_of = native.shift_of
        tree_bases = self.regions.tree_bases
        self._geometry = _np.array(
            [self.regions.vn_base, self.regions.mac_base,
             params.line_bytes, shift_of(params.line_bytes),
             params.data_per_vn_line, shift_of(params.data_per_vn_line),
             params.data_per_mac_line, shift_of(params.data_per_mac_line),
             self._cache.num_sets, shift_of(self._cache.num_sets),
             self._cache.ways, len(tree_bases)], dtype=_np.int64)
        covers = [params.data_per_vn_line * params.tree_arity ** (level + 1)
                  for level in range(len(tree_bases))]
        self._tree = _np.array(
            [(base, cover, shift_of(cover))
             for base, cover in zip(tree_bases, covers)],
            dtype=_np.int64).reshape(-1)
        # per 512-B VN unit, a writeback and a fill for VN, MAC and each
        # tree level at most
        self._output = _KernelOutput(params.data_per_vn_line,
                                     2 * (len(tree_bases) + 2))

    @property
    def cache(self) -> SetAssociativeCache:
        """The metadata cache, with its sets in their Python form (moved
        back from the kernel's arrays if those are current)."""
        self._use_sets()
        return self._cache

    def _use_sets(self) -> None:
        """Make the cache's OrderedDicts and ``CacheStats`` the current
        form of its sets and stats."""
        if self._lines is None:
            return
        tags, dirty, count, counters = (column.tolist() for column in self._lines)
        ways = self._cache.ways
        self._cache._sets = [
            OrderedDict(zip(tags[s * ways:s * ways + held],
                            dirty[s * ways:s * ways + held]))
            for s, held in enumerate(count)]
        stats = self._cache.stats
        (stats.hits, stats.misses, stats.evictions,
         stats.dirty_evictions) = counters
        self._lines = None
        self._arguments = ()

    def _use_lines(self) -> None:
        """Make the kernel's arrays the current form of the cache's
        sets and stats: per set, its lines' tags and dirty bits, oldest
        first, in ``ways`` slots, and how many lines it holds; then the
        four counters. Take the addresses the kernel is called with."""
        if self._lines is not None:
            return
        cache = self._cache
        ways = cache.ways
        tags = [0] * (cache.num_sets * ways)
        dirty = [False] * (cache.num_sets * ways)
        for s, lines in enumerate(cache._sets):
            tags[s * ways:s * ways + len(lines)] = lines
            dirty[s * ways:s * ways + len(lines)] = lines.values()
        stats = cache.stats
        self._lines = (_np.array(tags, dtype=_np.int64),
                       _np.array(dirty, dtype=bool),
                       _np.array([len(lines) for lines in cache._sets],
                                 dtype=_np.int64),
                       _np.array([stats.hits, stats.misses, stats.evictions,
                                  stats.dirty_evictions], dtype=_np.int64))
        cache._sets = None
        self._arguments = tuple(map(native.address_of,
                                    (self._geometry, self._tree, *self._lines)))

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
        hit, writeback = self._cache.access(meta_address, is_write)
        if writeback is not None:
            out.append(MemoryRequest(writeback, self.params.line_bytes, True,
                                     self._kind_of(writeback)))
        if not hit:
            out.append(MemoryRequest(meta_address, self.params.line_bytes, False, kind))
        return hit

    def rewrite(self, trace: Iterable[MemoryRequest]) -> List[MemoryRequest]:
        out: List[MemoryRequest] = []
        self._use_sets()
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

    # -- the compiled lane ---------------------------------------------------

    def rewrite_batch(self, batch: RequestBatch) -> RequestBatch:
        """Batch counterpart of :meth:`rewrite`: identical request
        sequence (same metadata-cache state machine), emitted straight
        into parallel arrays. Fast mode runs the kernel
        ``repro_mee_rewrite`` (:meth:`rewrite`, :meth:`_touch` and
        :meth:`SetAssociativeCache.access` in C) on the kernel's form of
        the cache's sets; scalar mode, or fast mode without a compiled
        kernel, runs :meth:`rewrite` itself."""
        if faults.enabled():
            faults.fire("rewriter.rewrite", self._rewrite_calls)
        self._rewrite_calls += 1
        if not len(batch):
            return RequestBatch()
        kernels = native.kernels() if perf.fast_enabled() else None
        if kernels is None:
            return RequestBatch.from_requests(self.rewrite(batch))
        self._use_lines()
        out = RequestBatch()
        for piece in self._output.slices(batch):
            length = kernels.repro_mee_rewrite(
                *piece, *self._arguments, *self._output.arguments)
            self._output.append_to(out, length)
        return out

    def flush_batch(self) -> RequestBatch:
        """Batch counterpart of :meth:`flush`."""
        return RequestBatch.from_requests(self.flush())
