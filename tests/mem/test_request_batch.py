"""Unit tests for the structure-of-arrays request batch."""

import numpy as np
import pytest

from repro.mem.batch import KIND_CODE, KINDS, MAC_CODE, RequestBatch
from repro.mem.trace import MemoryRequest, RequestKind


class TestRequestBatch:
    def test_from_arrays_and_len(self):
        assert len(RequestBatch()) == 0
        batch = RequestBatch.from_arrays([64, 128], [64, 16], [False, True],
                                         [0, MAC_CODE])
        assert len(batch) == 2
        assert batch.request(0) == MemoryRequest(64, 64, False)
        assert batch.request(1) == MemoryRequest(128, 16, True, RequestKind.MAC)

    def test_from_arrays_validates_like_memory_request(self):
        with pytest.raises(ValueError):
            RequestBatch.from_arrays([0, -1], [64, 64], [False, False])
        with pytest.raises(ValueError):
            RequestBatch.from_arrays([0, 64], [64, 0], [False, False])

    def test_from_arrays_keeps_contiguous_columns(self):
        columns = (np.array([0, 64], dtype=np.int64),
                   np.array([64, 64], dtype=np.int64),
                   np.array([0, 1], dtype=np.int8),
                   np.array([0, MAC_CODE], dtype=np.int8))
        batch = RequestBatch.from_arrays(*columns)
        for kept, given in zip(batch.columns(), columns):
            assert np.shares_memory(kept, given)

    def test_round_trip_preserves_order_and_kinds(self):
        trace = [
            MemoryRequest(0, 64, False),
            MemoryRequest(1 << 34, 64, True, RequestKind.VN),
            MemoryRequest(512, 12, False, RequestKind.MAC),
            MemoryRequest(1 << 35, 64, True, RequestKind.TREE),
        ]
        batch = RequestBatch.from_requests(trace)
        assert batch.to_requests() == trace
        assert list(batch) == trace

    def test_extend_concatenates(self):
        a = RequestBatch.from_requests([MemoryRequest(0, 64, False)])
        b = RequestBatch.from_requests([MemoryRequest(64, 64, True)])
        a.extend(b)
        assert a.to_requests() == [MemoryRequest(0, 64, False),
                                   MemoryRequest(64, 64, True)]

    def test_equality(self):
        trace = [MemoryRequest(0, 64, False), MemoryRequest(64, 64, True)]
        assert RequestBatch.from_requests(trace) == RequestBatch.from_requests(trace)
        assert RequestBatch.from_requests(trace) != RequestBatch()

    def test_stats_matches_scalar_accounting(self):
        trace = [
            MemoryRequest(0, 64, False),
            MemoryRequest(64, 64, False),
            MemoryRequest(128, 100, True),
            MemoryRequest(1 << 34, 64, False, RequestKind.VN),
            MemoryRequest(1 << 35, 12, True, RequestKind.MAC),
        ]
        from repro.mem.trace import TraceStats

        reference = TraceStats()
        for req in trace:
            reference.add(req)
        stats = RequestBatch.from_requests(trace).stats()
        assert stats.read_bytes == reference.read_bytes
        assert stats.write_bytes == reference.write_bytes
        assert stats.total_bytes == reference.total_bytes
        assert stats.metadata_bytes == reference.metadata_bytes

    def test_stats_omits_untouched_kinds(self):
        stats = RequestBatch.from_requests([MemoryRequest(0, 64, False)]).stats()
        assert stats.read_bytes == {RequestKind.DATA: 64}
        assert stats.write_bytes == {}

    def test_kind_code_table_is_total(self):
        assert set(KIND_CODE) == set(RequestKind)
        for kind in RequestKind:
            assert KINDS[KIND_CODE[kind]] is kind
