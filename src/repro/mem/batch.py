"""Structure-of-arrays request batches — the trace pipeline's fast lane.

A protected trace for one layer can run to hundreds of thousands of
requests; materializing each as a :class:`~repro.mem.trace.MemoryRequest`
dataclass costs an allocation, a ``__post_init__`` validation, and four
attribute lookups per consumer touch. :class:`RequestBatch` keeps the
same stream as four parallel primitive arrays (``address``, ``size``,
``is_write``, ``kind``), which the trace rewriters emit directly and the
DRAM controller consumes without ever constructing request objects.

The scalar object path remains fully supported: batches convert to and
from ``MemoryRequest`` lists, and iteration yields ``MemoryRequest``
objects, so a batch can stand in anywhere a trace list is accepted.
Accounting (:meth:`stats`) reproduces :class:`~repro.mem.trace.TraceStats`
per-kind byte bookkeeping bit-exactly — asserted by the equivalence
suite.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator, List

import numpy as _np

from repro.mem.trace import MemoryRequest, RequestKind, TraceStats

#: fixed kind <-> small-int code mapping used inside batches
KINDS = (RequestKind.DATA, RequestKind.VN, RequestKind.MAC, RequestKind.TREE)
KIND_CODE = {kind: code for code, kind in enumerate(KINDS)}

DATA_CODE = KIND_CODE[RequestKind.DATA]
VN_CODE = KIND_CODE[RequestKind.VN]
MAC_CODE = KIND_CODE[RequestKind.MAC]
TREE_CODE = KIND_CODE[RequestKind.TREE]


class RequestBatch:
    """A memory-request stream as four parallel arrays.

    ``address``/``size`` are signed 64-bit (``array('q')``);
    ``is_write``/``kind`` are signed bytes. Order is the request order —
    a batch is a trace, not a set.
    """

    __slots__ = ("address", "size", "is_write", "kind")

    def __init__(self):
        self.address = array("q")
        self.size = array("q")
        self.is_write = array("b")
        self.kind = array("b")

    # -- construction ------------------------------------------------------

    def append(self, address: int, size: int, is_write: bool,
               kind_code: int = DATA_CODE) -> None:
        """Append one request (same validation as ``MemoryRequest``)."""
        if address < 0:
            raise ValueError("address must be non-negative")
        if size <= 0:
            raise ValueError("size must be positive")
        self.address.append(address)
        self.size.append(size)
        self.is_write.append(1 if is_write else 0)
        self.kind.append(kind_code)

    @classmethod
    def from_requests(cls, requests: Iterable[MemoryRequest]) -> "RequestBatch":
        batch = cls()
        address = batch.address
        size = batch.size
        is_write = batch.is_write
        kind = batch.kind
        code = KIND_CODE
        for req in requests:
            address.append(req.address)
            size.append(req.size)
            is_write.append(1 if req.is_write else 0)
            kind.append(code[req.kind])
        return batch

    @classmethod
    def from_arrays(cls, address, size, is_write, kind=None) -> "RequestBatch":
        """Build a batch straight from numpy columns — the vectorized
        generators' zero-copy-ish entry point (one ``tobytes`` per
        column instead of one ``append`` per request).

        ``address``/``size`` are any integer arrays, ``is_write`` a
        bool/int array, ``kind`` an int8 kind-code array (``None`` for
        all-DATA). Validation matches :meth:`append` (and with it
        ``MemoryRequest.__post_init__``), applied batch-wide.
        """
        address = _np.ascontiguousarray(address, dtype=_np.int64)
        size = _np.ascontiguousarray(size, dtype=_np.int64)
        if address.size and int(address.min()) < 0:
            raise ValueError("address must be non-negative")
        if size.size and int(size.min()) <= 0:
            raise ValueError("size must be positive")
        batch = cls()
        batch.address.frombytes(address.tobytes())
        batch.size.frombytes(size.tobytes())
        batch.is_write.frombytes(
            _np.ascontiguousarray(is_write, dtype=_np.int8).tobytes())
        if kind is None:
            batch.kind.frombytes(bytes(len(address)))  # DATA_CODE == 0
        else:
            batch.kind.frombytes(
                _np.ascontiguousarray(kind, dtype=_np.int8).tobytes())
        return batch

    def extend(self, other: "RequestBatch") -> None:
        self.address.extend(other.address)
        self.size.extend(other.size)
        self.is_write.extend(other.is_write)
        self.kind.extend(other.kind)

    # -- conversion / inspection ------------------------------------------

    def __len__(self) -> int:
        return len(self.address)

    def request(self, i: int) -> MemoryRequest:
        return MemoryRequest(self.address[i], self.size[i],
                             bool(self.is_write[i]), KINDS[self.kind[i]])

    def __iter__(self) -> Iterator[MemoryRequest]:
        for address, size, is_write, kind in zip(
                self.address, self.size, self.is_write, self.kind):
            yield MemoryRequest(address, size, bool(is_write), KINDS[kind])

    def to_requests(self) -> List[MemoryRequest]:
        return list(self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RequestBatch):
            return NotImplemented
        return (self.address == other.address and self.size == other.size
                and self.is_write == other.is_write and self.kind == other.kind)

    def __repr__(self) -> str:
        return f"<RequestBatch {len(self)} requests>"

    # -- accounting --------------------------------------------------------

    def stats(self) -> TraceStats:
        """Per-kind byte counts, identical to feeding every request
        through :meth:`TraceStats.add`. One ``bincount`` over
        (kind, direction) buckets instead of a per-request loop — the
        streaming pipeline calls this once per chunk per scheme."""
        size = _np.frombuffer(self.size, dtype=_np.int64)
        is_write = _np.frombuffer(self.is_write, dtype=_np.int8)
        kind = _np.frombuffer(self.kind, dtype=_np.int8)
        buckets = _np.bincount(kind + 4 * (is_write != 0),
                               weights=size, minlength=8)
        read_totals = [int(b) for b in buckets[:4]]
        write_totals = [int(b) for b in buckets[4:]]
        stats = TraceStats()
        for code, kind in enumerate(KINDS):
            if read_totals[code]:
                stats.read_bytes[kind] = read_totals[code]
            if write_totals[code]:
                stats.write_bytes[kind] = write_totals[code]
        return stats
