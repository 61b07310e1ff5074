"""Wire-protocol invariants: content addressing, order-preserving row
encoding, request validation, and HTTP body framing."""

import http.client
import json
import socket

import pytest

from repro.distributed import (
    CoordinatorServer,
    CoordinatorState,
    rows_digest,
    unit_key,
)
from repro.distributed.protocol import (
    ProtocolError,
    jobs_from_wire,
    jobs_to_wire,
    parse_heartbeat,
    parse_lease_request,
    parse_register,
    parse_result,
    rows_from_wire,
    rows_to_wire,
)
from repro.experiments.jobs import Job

JOBS = [Job("simulate", '{"model": "alexnet", "scheme": "np"}'),
        Job("simulate", '{"model": "alexnet", "scheme": "bp"}')]


class TestContentAddressing:
    def test_unit_key_deterministic(self):
        assert unit_key(JOBS, "fp") == unit_key(list(JOBS), "fp")

    def test_unit_key_sensitive_to_jobs_order_and_fingerprint(self):
        base = unit_key(JOBS, "fp")
        assert unit_key(JOBS[::-1], "fp") != base
        assert unit_key(JOBS, "other-fp") != base
        assert unit_key(JOBS[:1], "fp") != base

    def test_rows_digest_equal_for_equal_rows(self):
        rows = [[{"a": 1, "b": 2.5}], [{"a": 3}]]
        same = [[{"b": 2.5, "a": 1}], [{"a": 3}]]
        assert rows_digest(rows) == rows_digest(same)
        assert rows_digest(rows) != rows_digest([[{"a": 1, "b": 2.5}], []])


class TestWireRoundtrips:
    def test_jobs_roundtrip(self):
        assert jobs_from_wire(jobs_to_wire(JOBS)) == JOBS

    def test_jobs_from_wire_rejects_garbage(self):
        for bad in ([], [["one"]], [[1, 2]], "nope", [["a", "b", "c"]]):
            with pytest.raises(ProtocolError):
                jobs_from_wire(bad)

    def test_rows_roundtrip_preserves_key_order(self):
        """The bit-identical contract hinges on this: canonical JSON
        sorts object keys, so rows must cross the wire as schema
        tables, not dicts."""
        rows = [[{"z": 1, "a": 2}, {"z": 3, "a": 4}],
                [{"m": 0.5, "b": True, "s": "x"}]]
        decoded = rows_from_wire(rows_to_wire(rows))
        assert decoded == rows
        assert [list(r) for unit in decoded for r in unit] == \
               [list(r) for unit in rows for r in unit]

    def test_rows_roundtrip_mixed_schemas_and_empty(self):
        rows = [[{"a": 1}, {"b": 2, "c": 3}, {"a": 9}], []]
        assert rows_from_wire(rows_to_wire(rows)) == rows
        assert rows_from_wire(rows_to_wire([])) == []

    def test_rows_from_wire_rejects_malformed(self):
        good = rows_to_wire([[{"a": 1}]])
        for bad in ("x", [["only-one"]], [[[["a"]], [[5, [1]]]]],
                    [[[["a"]], [[0, [1, 2]]]]]):
            with pytest.raises(ProtocolError):
                rows_from_wire(bad)
        assert rows_from_wire(good) == [[{"a": 1}]]


class TestRequestValidation:
    def test_register_defaults_and_bounds(self):
        assert parse_register({}) == {"name": "", "workers": 1}
        assert parse_register({"name": "w", "workers": 4})["workers"] == 4
        with pytest.raises(ProtocolError):
            parse_register({"workers": 0})
        with pytest.raises(ProtocolError):
            parse_register({"name": 7})

    def test_lease_and_heartbeat_need_worker_id(self):
        assert parse_lease_request({"worker": "w-1"}) == "w-1"
        with pytest.raises(ProtocolError):
            parse_lease_request({"worker": ""})
        worker, leases, failures = parse_heartbeat(
            {"worker": "w", "leases": ["l1"]})
        assert (worker, leases, failures) == ("w", ["l1"], 0)
        _, _, failures = parse_heartbeat(
            {"worker": "w", "leases": [], "failures": 2})
        assert failures == 2
        with pytest.raises(ProtocolError):
            parse_heartbeat({"worker": "w", "leases": [1]})
        with pytest.raises(ProtocolError):
            parse_heartbeat({"worker": "w", "leases": [], "failures": -1})

    def test_result_requires_rows_or_error(self):
        parsed = parse_result({"worker": "w", "unit": 0, "key": "k",
                               "lease": "l",
                               "rows": rows_to_wire([[{"a": 1}]])})
        assert parsed["rows"] == [[{"a": 1}]]
        parsed = parse_result({"worker": "w", "unit": 1, "key": "k",
                               "lease": None,
                               "error": {"executor": "e", "params": "{}",
                                         "cause": "boom"}})
        assert parsed["error"]["cause"] == "boom"
        with pytest.raises(ProtocolError):
            parse_result({"worker": "w", "unit": -1, "key": "k", "rows": []})
        with pytest.raises(ProtocolError):
            parse_result({"worker": "w", "unit": 0, "key": "k",
                          "error": {"executor": "e"}})


class TestHttpFraming:
    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_malformed_content_length_is_a_400(self, length):
        """A body of unknown extent is a protocol error naming the
        header, not a handler crash (and not a read until EOF)."""
        server = CoordinatorServer(CoordinatorState([JOBS]), port=0)
        try:
            with socket.create_connection((server.host, server.port),
                                          timeout=10) as sock:
                sock.sendall((f"POST /v1/lease HTTP/1.1\r\n"
                              f"Host: {server.host}\r\n"
                              f"Content-Length: {length}\r\n\r\n").encode())
                response = http.client.HTTPResponse(sock)
                response.begin()
                event = json.loads(response.read())
            assert response.status == 400
            assert event["event"] == "error"
            assert "Content-Length" in event["error"]
        finally:
            server.close()


    def test_get_endpoints_over_http(self):
        """``GET /metrics`` answers the state's snapshot, ``GET
        /healthz`` whether the run is done, any other path a 404."""
        server = CoordinatorServer(CoordinatorState([JOBS]), port=0)
        try:
            connection = http.client.HTTPConnection(server.host, server.port,
                                                    timeout=10)
            replies = {}
            for path in ("/metrics", "/healthz", "/nope"):
                connection.request("GET", path)
                response = connection.getresponse()
                replies[path] = (response.status, json.loads(response.read()))
            connection.close()
        finally:
            server.close()
        status, metrics = replies["/metrics"]
        assert status == 200 and metrics["event"] == "metrics"
        assert metrics["units_total"] == 1
        assert metrics["units_remaining"] == 1
        assert metrics["counters"]["leases_granted"] == 0
        assert replies["/healthz"] == (200, {"event": "ok", "done": False})
        assert replies["/nope"] == (404, {"event": "error",
                                          "error": "unknown path"})
