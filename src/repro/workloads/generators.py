"""Synthetic memory traces and functional workloads.

Trace generators feed the DRAM microbenchmarks, the event-driven
validation runs, and the streaming :class:`~repro.mem.pipeline.TracePipeline`;
:func:`random_mlp_spec` builds the quantized MLPs the functional
(encrypt -> compute -> decrypt) tests execute.

Every trace pattern exists in two forms:

* a **list generator** building ``MemoryRequest`` objects one at a
  time (the original list-of-objects code, which the equivalence tests
  trust as the oracle);
* a **batch generator** emitting the identical stream as the numpy
  columns of a :class:`~repro.mem.batch.RequestBatch` — no per-request
  Python, no objects. It is the one batch lane: ``REPRO_SCALAR=1``
  runs it too, and the tests check it against the list generator.

The batch generators take an optional ``(start, stop)`` request-index
window, so the streaming pipeline can pull bounded chunks of an
arbitrarily long trace; slicing never changes the stream
(``batch(0, n) == batch(0, k) + batch(k, n)`` for every split, pinned
by the property suite). :class:`TraceSpec` wraps a parameterized
generator into that sliceable form.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.core.host import MlpSpec
from repro.mem.batch import MAC_CODE, VN_CODE, RequestBatch
from repro.mem.trace import MemoryRequest, RequestKind


def _check_write_fraction(write_fraction: float) -> None:
    if not 0.0 <= write_fraction <= 1.0:
        raise ValueError("write_fraction in [0, 1]")


def _write_flag(i: int, write_fraction: float) -> bool:
    """Exact write cadence: request ``i`` is a write iff the running
    write quota ``floor(i * f)`` advances at ``i`` (request 0 opens the
    stream with a write whenever ``f > 0``). For reciprocal fractions
    ``f = 1/k`` this lands writes at ``i % k == 0`` — the historical
    cadence — and for every other fraction the realized write rate is
    exactly ``f`` instead of ``1 / int(1/f)`` (0.3 used to degrade to
    every-3rd, i.e. 33%)."""
    if write_fraction <= 0.0:
        return False
    if i == 0:
        return True
    return math.floor(i * write_fraction) > math.floor((i - 1) * write_fraction)


def _write_mask(index: np.ndarray, write_fraction: float) -> np.ndarray:
    """Vectorized :func:`_write_flag` (same float64 arithmetic, so the
    two paths agree bit-for-bit on every index)."""
    if write_fraction <= 0.0:
        return np.zeros(len(index), dtype=bool)
    mask = np.floor(index * write_fraction) > np.floor((index - 1) * write_fraction)
    mask[index == 0] = True
    return mask


def streaming_trace(nbytes: int, base: int = 0, write_fraction: float = 0.3,
                    stride: int = 64) -> List[MemoryRequest]:
    """Sequential tensor streaming — a DNN accelerator's dominant
    pattern, with writes interleaved at exactly ``write_fraction``."""
    _check_write_fraction(write_fraction)
    return [
        MemoryRequest(base + i * stride, stride, _write_flag(i, write_fraction))
        for i in range(nbytes // stride)
    ]


def random_trace(n_requests: int, span_bytes: int, rng: np.random.Generator,
                 write_fraction: float = 0.3, stride: int = 64) -> List[MemoryRequest]:
    """Uniformly random accesses — the DLRM embedding-gather extreme.

    The address and write columns come from two whole-array draws (one
    ``integers``, one ``random``), so :func:`random_batch` consumes the
    identical rng stream: same seed, same trace, either path."""
    slots = rng.integers(0, span_bytes // stride, size=n_requests)
    writes = rng.random(n_requests) < write_fraction
    return [
        MemoryRequest(int(slot) * stride, stride, bool(is_write))
        for slot, is_write in zip(slots, writes)
    ]


def bp_metadata_trace(nbytes: int, base: int = 0,
                      meta_base: int = 1 << 28) -> List[MemoryRequest]:
    """Data stream with a VN and a MAC line fetch every 512 B from two
    distant metadata regions — the baseline-protection access pattern
    that costs DRAM row locality."""
    trace = []
    for i in range(nbytes // 64):
        trace.append(MemoryRequest(base + i * 64, 64, False))
        if i % 8 == 7:
            trace.append(MemoryRequest(meta_base + (i // 8) * 64, 64, False,
                                       RequestKind.VN))
            trace.append(MemoryRequest(meta_base + (1 << 20) + (i // 8) * 64, 64, False,
                                       RequestKind.MAC))
    return trace


# -- batch generators (numpy address arithmetic, sliceable) ----------------


def _resolve_window(total: int, start: int, stop: Optional[int]) -> tuple:
    if start < 0:
        raise ValueError("start must be non-negative")
    stop = total if stop is None else min(stop, total)
    return start, max(stop, start)


def streaming_batch(nbytes: int, base: int = 0, write_fraction: float = 0.3,
                    stride: int = 64, start: int = 0,
                    stop: Optional[int] = None) -> RequestBatch:
    """:func:`streaming_trace` emitted straight into a
    :class:`RequestBatch` (same request sequence, no objects); ``start``
    / ``stop`` select a request-index window of the same stream."""
    _check_write_fraction(write_fraction)
    start, stop = _resolve_window(nbytes // stride, start, stop)
    index = np.arange(start, stop, dtype=np.int64)
    return RequestBatch.from_arrays(
        base + index * stride, np.full(len(index), stride, dtype=np.int64),
        _write_mask(index, write_fraction))


def random_batch(n_requests: int, span_bytes: int, rng: np.random.Generator,
                 write_fraction: float = 0.3, stride: int = 64) -> RequestBatch:
    """:func:`random_trace` as a :class:`RequestBatch`: the same two
    whole-array draws, so an equal-seeded ``rng`` yields the identical
    trace (pinned by the seeded equivalence test). For a sliceable,
    chunk-stable random stream use :class:`RandomSpec`."""
    slots = rng.integers(0, span_bytes // stride, size=n_requests)
    writes = rng.random(n_requests) < write_fraction
    return RequestBatch.from_arrays(
        slots.astype(np.int64) * stride,
        np.full(n_requests, stride, dtype=np.int64), writes)


def bp_metadata_batch(nbytes: int, base: int = 0, meta_base: int = 1 << 28,
                      start: int = 0, stop: Optional[int] = None) -> RequestBatch:
    """:func:`bp_metadata_trace` as a :class:`RequestBatch`.

    The request-index space interleaves the metadata: each complete
    group of 8 data lines occupies 10 indices (8 data, then its VN and
    MAC line), trailing data past the last full group follows bare.
    """
    n_data = nbytes // 64
    groups = n_data // 8
    start, stop = _resolve_window(n_data + 2 * groups, start, stop)
    index = np.arange(start, stop, dtype=np.int64)
    in_pattern = index < groups * 10
    group = index // 10
    r = index - group * 10
    data_index = np.where(in_pattern, group * 8 + r, index - 2 * groups)
    address = base + data_index * 64
    is_vn = in_pattern & (r == 8)
    is_mac = in_pattern & (r == 9)
    address[is_vn] = meta_base + group[is_vn] * 64
    address[is_mac] = meta_base + (1 << 20) + group[is_mac] * 64
    kind = np.zeros(len(index), dtype=np.int8)
    kind[is_vn] = VN_CODE
    kind[is_mac] = MAC_CODE
    return RequestBatch.from_arrays(
        address, np.full(len(index), 64, dtype=np.int64),
        np.zeros(len(index), dtype=np.int8), kind)


def strided_trace(n_requests: int, stride: int, base: int = 0,
                  size: int = 64) -> List[MemoryRequest]:
    """Fixed-stride reads (im2col column walks, tiled tensor edges)."""
    return [MemoryRequest(base + i * stride, size, False) for i in range(n_requests)]


def tensor_stream_trace(tensor_bytes: Sequence[int], base: int = 0,
                        writes_last: bool = True) -> List[MemoryRequest]:
    """One layer's movement: stream each input tensor, then write the
    last one (the output). Returns requests tagged as DATA."""
    trace = []
    addr = base
    for index, size in enumerate(tensor_bytes):
        is_write = writes_last and index == len(tensor_bytes) - 1
        for offset in range(0, size, 64):
            chunk = min(64, size - offset)
            trace.append(MemoryRequest(addr + offset, chunk, is_write, RequestKind.DATA))
        addr += size
    return trace


# -- sliceable trace specs (the pipeline's sources) ------------------------


class TraceSpec:
    """A parameterized trace as a *sliceable description* instead of a
    materialized list: ``total_requests`` requests, any ``[start, stop)``
    window of which :meth:`batch` renders as a :class:`RequestBatch`.

    Slicing is stream-stable — the concatenation of any chunking equals
    the whole batch — which is what lets
    :class:`~repro.mem.pipeline.TracePipeline` run a multi-GB trace in
    O(chunk) memory. :meth:`materialize` renders the whole trace as
    ``MemoryRequest`` objects (the pre-pipeline path; it is the thing
    whose memory footprint the pipeline exists to avoid).
    """

    total_requests: int = 0

    def batch(self, start: int = 0, stop: Optional[int] = None) -> RequestBatch:
        raise NotImplementedError

    def chunks(self, chunk_requests: int) -> Iterator[RequestBatch]:
        """Yield the trace as successive batches of ``chunk_requests``."""
        if chunk_requests <= 0:
            raise ValueError("chunk_requests must be positive")
        for start in range(0, self.total_requests, chunk_requests):
            yield self.batch(start, min(start + chunk_requests, self.total_requests))

    def materialize(self) -> List[MemoryRequest]:
        return self.batch(0, self.total_requests).to_requests()

    @property
    def end_address(self) -> int:
        """One past the highest byte any request of the trace can touch:
        the extent a protection scheme's metadata must cover."""
        raise NotImplementedError

    def state_dict(self) -> dict:
        """Identity of the trace this spec describes (type + every
        constructor parameter). Specs are stateless — ``batch`` is pure
        — so this is a *fingerprint*, not mutable state: a checkpoint
        stores it and refuses to resume against a different trace."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.total_requests} requests>"


class StreamingSpec(TraceSpec):
    """Sliceable form of :func:`streaming_trace`."""

    def __init__(self, nbytes: int, base: int = 0, write_fraction: float = 0.3,
                 stride: int = 64):
        _check_write_fraction(write_fraction)
        self.nbytes = nbytes
        self.base = base
        self.write_fraction = write_fraction
        self.stride = stride
        self.total_requests = nbytes // stride

    def batch(self, start: int = 0, stop: Optional[int] = None) -> RequestBatch:
        return streaming_batch(self.nbytes, self.base, self.write_fraction,
                               self.stride, start=start, stop=stop)

    @property
    def end_address(self) -> int:
        return self.base + self.total_requests * self.stride

    def state_dict(self) -> dict:
        return {"type": "streaming", "nbytes": self.nbytes, "base": self.base,
                "write_fraction": self.write_fraction, "stride": self.stride}


class RandomSpec(TraceSpec):
    """Sliceable uniformly-random trace.

    Unlike :func:`random_batch` (which consumes a caller-owned rng
    sequentially), the spec derives randomness per fixed-size *block*
    from ``(seed, block_index)``, so ``batch(start, stop)`` is random
    access and the stream never depends on how the pipeline chunks it.
    The last block drawn is kept, so a pipeline that reads it chunk by
    chunk draws it once; it is not part of :meth:`state_dict`.
    """

    BLOCK = 1 << 16

    def __init__(self, n_requests: int, span_bytes: int, seed: int = 0,
                 write_fraction: float = 0.3, stride: int = 64):
        _check_write_fraction(write_fraction)
        if span_bytes < stride:
            raise ValueError("span_bytes must cover at least one stride")
        self.span_bytes = span_bytes
        self.seed = seed
        self.write_fraction = write_fraction
        self.stride = stride
        self.total_requests = n_requests
        self._drawn = (None, None, None)  # block index, slots, writes

    def _block_columns(self, block: int):
        drawn, slots, writes = self._drawn
        if drawn != block:
            length = min((block + 1) * self.BLOCK, self.total_requests) - block * self.BLOCK
            rng = np.random.default_rng((self.seed, block))
            slots = rng.integers(0, self.span_bytes // self.stride, size=length)
            writes = rng.random(length) < self.write_fraction
            self._drawn = (block, slots, writes)
        return slots, writes

    def batch(self, start: int = 0, stop: Optional[int] = None) -> RequestBatch:
        start, stop = _resolve_window(self.total_requests, start, stop)
        slot_parts, write_parts = [], []
        for block in range(start // self.BLOCK, (stop + self.BLOCK - 1) // self.BLOCK):
            slots, writes = self._block_columns(block)
            lo = block * self.BLOCK
            s, e = max(start - lo, 0), min(stop - lo, len(slots))
            slot_parts.append(slots[s:e])
            write_parts.append(writes[s:e])
        slots = np.concatenate(slot_parts) if slot_parts else np.empty(0, dtype=np.int64)
        writes = np.concatenate(write_parts) if write_parts else np.empty(0, dtype=bool)
        return RequestBatch.from_arrays(
            slots.astype(np.int64) * self.stride,
            np.full(len(slots), self.stride, dtype=np.int64), writes)

    @property
    def end_address(self) -> int:
        return self.span_bytes // self.stride * self.stride

    def state_dict(self) -> dict:
        return {"type": "random", "n_requests": self.total_requests,
                "span_bytes": self.span_bytes, "seed": self.seed,
                "write_fraction": self.write_fraction, "stride": self.stride}


class BpMetadataSpec(TraceSpec):
    """Sliceable form of :func:`bp_metadata_trace`."""

    def __init__(self, nbytes: int, base: int = 0, meta_base: int = 1 << 28):
        self.nbytes = nbytes
        self.base = base
        self.meta_base = meta_base
        n_data = nbytes // 64
        self.total_requests = n_data + 2 * (n_data // 8)

    def batch(self, start: int = 0, stop: Optional[int] = None) -> RequestBatch:
        return bp_metadata_batch(self.nbytes, self.base, self.meta_base,
                                 start=start, stop=stop)

    @property
    def end_address(self) -> int:
        n_data = self.nbytes // 64
        end = self.base + n_data * 64
        if n_data >= 8:  # the last MAC line fetched
            end = max(end, self.meta_base + (1 << 20) + n_data // 8 * 64)
        return end

    def state_dict(self) -> dict:
        return {"type": "bp-metadata", "nbytes": self.nbytes,
                "base": self.base, "meta_base": self.meta_base}


def random_mlp_spec(layer_sizes: Sequence[int], rng: np.random.Generator,
                    shift: int = 7) -> MlpSpec:
    """A random int8 MLP: ``layer_sizes`` like [64, 32, 16] builds two
    GEMM layers (64x32, 32x16) with small weights (to avoid saturating
    everything to the clip rails)."""
    if len(layer_sizes) < 2:
        raise ValueError("need at least input and output sizes")
    weights = [
        rng.integers(-20, 20, size=(layer_sizes[i], layer_sizes[i + 1]), dtype=np.int8)
        for i in range(len(layer_sizes) - 1)
    ]
    return MlpSpec(weights=weights, shift=shift)
