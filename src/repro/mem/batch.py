"""Structure-of-arrays request batches — the trace pipeline's one form
of a request stream.

A protected trace for one layer can run to hundreds of thousands of
requests; materializing each as a :class:`~repro.mem.trace.MemoryRequest`
dataclass costs an allocation, a ``__post_init__`` validation, and four
attribute lookups per consumer touch. :class:`RequestBatch` keeps the
same stream as four parallel numpy columns (``address``, ``size``,
``is_write``, ``kind``), which the batch generators and the trace
rewriters' kernels emit directly and the DRAM controller's kernel takes
as they are, without ever constructing request objects.

The scalar object path remains fully supported: batches convert to and
from ``MemoryRequest`` lists, and iteration yields ``MemoryRequest``
objects of Python ints, so a batch can stand in anywhere a trace list
is accepted (the oracles iterate it). Accounting (:meth:`stats`)
reproduces :class:`~repro.mem.trace.TraceStats` per-kind byte
bookkeeping bit-exactly — asserted by the equivalence suite.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List

import numpy as _np

from repro.mem.trace import MemoryRequest, RequestKind, TraceStats

#: fixed kind <-> small-int code mapping used inside batches
KINDS = (RequestKind.DATA, RequestKind.VN, RequestKind.MAC, RequestKind.TREE)
KIND_CODE = {kind: code for code, kind in enumerate(KINDS)}

VN_CODE = KIND_CODE[RequestKind.VN]
MAC_CODE = KIND_CODE[RequestKind.MAC]

_EMPTY_INT64 = _np.zeros(0, dtype=_np.int64)
_EMPTY_INT8 = _np.zeros(0, dtype=_np.int8)


class RequestBatch:
    """A memory-request stream as four parallel numpy columns.

    ``address``/``size`` are ``int64``; ``is_write``/``kind`` are
    ``int8``. Order is the request order — a batch is a trace, not a
    set. A batch owns the arrays it holds and never writes into them;
    ``RequestBatch()`` is empty, and the four-column form takes trusted
    columns of those dtypes as they are (:meth:`from_arrays` checks and
    converts).
    """

    __slots__ = ("address", "size", "is_write", "kind")

    def __init__(self, address=_EMPTY_INT64, size=_EMPTY_INT64,
                 is_write=_EMPTY_INT8, kind=_EMPTY_INT8):
        self.address, self.size, self.is_write, self.kind = address, size, is_write, kind

    # -- construction ------------------------------------------------------

    @classmethod
    def from_requests(cls, requests: Iterable[MemoryRequest]) -> "RequestBatch":
        requests = list(requests)
        code = KIND_CODE
        return cls(_np.array([req.address for req in requests], dtype=_np.int64),
                   _np.array([req.size for req in requests], dtype=_np.int64),
                   _np.array([req.is_write for req in requests], dtype=_np.int8),
                   _np.array([code[req.kind] for req in requests], dtype=_np.int8))

    @classmethod
    def from_arrays(cls, address, size, is_write, kind=None) -> "RequestBatch":
        """Build a batch from integer columns, the batch generators'
        entry point. Columns that already are contiguous ``int64``
        (``address``, ``size``) or ``int8`` (``is_write``, ``kind``)
        are kept, not copied; others are converted (``is_write`` may be
        a bool array). ``kind`` is a kind-code array, ``None`` for
        all-DATA. Validation matches ``MemoryRequest.__post_init__``,
        applied batch-wide.
        """
        address = _np.ascontiguousarray(address, dtype=_np.int64)
        size = _np.ascontiguousarray(size, dtype=_np.int64)
        if address.size and int(address.min()) < 0:
            raise ValueError("address must be non-negative")
        if size.size and int(size.min()) <= 0:
            raise ValueError("size must be positive")
        return cls(address, size, _np.ascontiguousarray(is_write, dtype=_np.int8),
                   _np.zeros(len(address), dtype=_np.int8) if kind is None
                   else _np.ascontiguousarray(kind, dtype=_np.int8))

    def extend(self, other: "RequestBatch") -> None:
        """Append ``other``'s requests. An empty batch takes ``other``'s
        arrays instead of copying them."""
        if not len(self):
            self.address, self.size, self.is_write, self.kind = other.columns()
            return
        self.address, self.size, self.is_write, self.kind = (
            _np.concatenate(pair) for pair in zip(self.columns(), other.columns()))

    # -- conversion / inspection ------------------------------------------

    def __len__(self) -> int:
        return len(self.address)

    def request(self, i: int) -> MemoryRequest:
        return MemoryRequest(int(self.address[i]), int(self.size[i]),
                             bool(self.is_write[i]), KINDS[self.kind[i]])

    def __iter__(self) -> Iterator[MemoryRequest]:
        for address, size, is_write, kind in zip(
                self.address.tolist(), self.size.tolist(),
                self.is_write.tolist(), self.kind.tolist()):
            yield MemoryRequest(address, size, bool(is_write), KINDS[kind])

    def to_requests(self) -> List[MemoryRequest]:
        return list(self)

    def columns(self):
        """``(address, size, is_write, kind)``: the arrays themselves,
        the form the compiled kernels take."""
        return self.address, self.size, self.is_write, self.kind

    def __eq__(self, other) -> bool:
        if not isinstance(other, RequestBatch):
            return NotImplemented
        return all(_np.array_equal(mine, theirs)
                   for mine, theirs in zip(self.columns(), other.columns()))

    def __repr__(self) -> str:
        return f"<RequestBatch {len(self)} requests>"

    # -- accounting --------------------------------------------------------

    def stats(self) -> TraceStats:
        """Per-kind byte counts, identical to feeding every request
        through :meth:`TraceStats.add`. One ``bincount`` over
        (kind, direction) buckets instead of a per-request loop."""
        buckets = _np.bincount(self.kind + 4 * (self.is_write != 0),
                               weights=self.size, minlength=8)
        return stats_from_totals([int(b) for b in buckets])


def stats_from_totals(totals) -> TraceStats:
    """A :class:`TraceStats` from eight byte totals: reads of each kind
    code, then writes (the buckets of :meth:`RequestBatch.stats`, and of
    the compiled controller kernel, which sums them as it schedules)."""
    stats = TraceStats()
    for code, kind in enumerate(KINDS):
        if totals[code]:
            stats.read_bytes[kind] = totals[code]
        if totals[code + 4]:
            stats.write_bytes[kind] = totals[code + 4]
    return stats
