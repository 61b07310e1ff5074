"""Coordinator/worker wire protocol for distributed sweep execution.

The distributed tier speaks the same dialect as ``repro serve``: JSON
request bodies over HTTP/1.1, one NDJSON line per response — the
framing is literally :func:`repro.service.protocol.encode_event` /
:func:`~repro.service.protocol.decode_event`, so a worker needs nothing
but a socket and ``json.loads`` (the stdlib-only contract, extended
across machines).

Endpoints (coordinator side)
----------------------------

* ``POST /v1/register`` — ``{"name": ..., "workers": n}`` → a
  server-assigned worker id plus the lease term;
* ``POST /v1/lease`` — ``{"worker": id}`` → a work unit
  (``{"event": "lease", "unit": i, "key": ..., "jobs": [[executor,
  params_json], ...], "lease": id, "lease_seconds": s}``), or
  ``{"event": "wait", "poll": s}`` (nothing dispatchable right now),
  or ``{"event": "done"}`` (sweep finished — disperse);
* ``POST /v1/heartbeat`` — ``{"worker": id, "leases": [...]}`` renews
  the named leases; the response lists which renewed and which were
  already ``lost`` (expired and re-dispatched); an optional
  ``"failures"`` integer self-reports the worker's cumulative
  heartbeat-thread error count so the coordinator's ``snapshot()``
  can surface a flaky link per worker;
* ``POST /v1/result`` — ``{"worker": id, "unit": i, "key": ...,
  "lease": id, "rows": <rows_to_wire(...)>}`` commits a unit
  (idempotent — see below; rows use the order-preserving schema-table
  encoding of :func:`rows_to_wire`), or carries ``"error"`` instead of
  ``"rows"`` to report a deterministic job failure; an optional
  ``"provenance"`` field records whether the rows were ``computed`` or
  answered from the worker's local result cache (``cache_hit``);
* ``POST /v1/checkpoint`` — ``{"worker": id, "unit": i, "key": ...,
  "lease": id, "state": <envelope>}`` migrates a pipeline unit's
  chunk-seam checkpoint envelope to the coordinator; the envelope is
  validated (version, kind, fingerprint) before it is stored, and the
  latest stored envelope rides along on the unit's next lease grant so
  a successor resumes mid-unit;
* ``POST /v1/deregister`` — ``{"worker": id}`` announces a graceful
  drain: held leases are released for immediate re-dispatch and the
  worker stops counting as live;
* ``GET /metrics`` / ``GET /healthz`` — the same observability surface
  every other daemon in this repo exposes.

Every coordinator reply carries an ``"epoch"`` integer — the journal
incarnation counter (0 for a never-restarted coordinator, +1 per
recovery). A lease/heartbeat/result/checkpoint from a worker id the
current incarnation never minted is answered ``HTTP 409`` with
``{"event": "error", "error": "unknown_worker", "epoch": N}``: the
structured signal that the worker must re-register (its old leases
were voided by recovery) rather than treat the coordinator as down.

Work-unit identity
------------------

A unit is a contiguous slice of the sweep's job list, content-addressed
exactly like the result cache: :func:`unit_key` hashes the ordered
(executor, canonical params) pairs together with the code fingerprint.
A commit must present the key the coordinator computed, and a worker
recomputes that key with its own fingerprint before it runs a unit: a
worker running different code cannot reproduce it, so it deregisters
and exits 1 at its first lease instead of contributing rows. The
coordinator's local fallback leases through the same state machine,
and resumes a pipeline unit from the envelope its grant carries.
Idempotency rides on the same currency: :func:`rows_digest` hashes a
result payload canonically, so the coordinator can prove a duplicate
commit (a lease that expired, was re-dispatched, and then *both*
workers answered) carries identical bytes before dropping it.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.jobs import Job, canonical_json
from repro.service.protocol import (  # noqa: F401 — re-exported framing
    ProtocolError,
    _require,
    content_length,
    decode_event,
    encode_event,
)

WIRE_VERSION = 1

#: actions a lease response can carry
LEASE_EVENTS = ("lease", "wait", "done")


def jobs_to_wire(jobs: Sequence[Job]) -> List[List[str]]:
    """A unit's job list as JSON-able (executor, params_json) pairs."""
    return [[job.executor, job.params_json] for job in jobs]


def jobs_from_wire(payload: object) -> List[Job]:
    _require(isinstance(payload, list) and payload, "'jobs' must be a non-empty list")
    jobs = []
    for entry in payload:
        _require(isinstance(entry, (list, tuple)) and len(entry) == 2
                 and all(isinstance(part, str) for part in entry),
                 "each job must be an [executor, params_json] pair")
        jobs.append(Job(entry[0], entry[1]))
    return jobs


def rows_to_wire(rows_per_job: Sequence[List[dict]]) -> List[list]:
    """Order-preserving row encoding. The NDJSON framing canonicalizes
    JSON objects (sorted keys), which would silently reorder row dicts
    and break the bit-identical contract — ResultTable infers column
    order from row insertion order. So rows cross the wire as the same
    schema-table encoding the runner's chunk payloads use: per job,
    ``[schemas, [[schema_index, [values...]], ...]]`` where each schema
    is the ordered key list. Lists survive canonicalization intact."""
    wire = []
    for rows in rows_per_job:
        schemas: List[List[str]] = []
        index: Dict[tuple, int] = {}
        encoded = []
        for row in rows:
            keys = tuple(row.keys())
            si = index.get(keys)
            if si is None:
                si = index[keys] = len(schemas)
                schemas.append(list(keys))
            encoded.append([si, [row[k] for k in keys]])
        wire.append([schemas, encoded])
    return wire


def rows_from_wire(payload: object) -> List[List[dict]]:
    """Decode :func:`rows_to_wire`, validating shape (raises
    :class:`ProtocolError` on malformed payloads)."""
    _require(isinstance(payload, list), "'rows' must be a list of units")
    rows_per_job: List[List[dict]] = []
    for entry in payload:
        _require(isinstance(entry, (list, tuple)) and len(entry) == 2,
                 "each job entry must be [schemas, rows]")
        schemas, encoded = entry
        _require(isinstance(schemas, list)
                 and all(isinstance(schema, list)
                         and all(isinstance(k, str) for k in schema)
                         for schema in schemas),
                 "'schemas' must be lists of key strings")
        rows = []
        for item in encoded:
            _require(isinstance(item, (list, tuple)) and len(item) == 2,
                     "each row must be [schema_index, values]")
            si, values = item
            _require(isinstance(si, int) and 0 <= si < len(schemas),
                     "row schema index out of range")
            schema = schemas[si]
            _require(isinstance(values, list) and len(values) == len(schema),
                     "row values must match the schema length")
            rows.append(dict(zip(schema, values)))
        rows_per_job.append(rows)
    return rows_per_job


def unit_key(jobs: Sequence[Job], fingerprint: str = "") -> str:
    """Content-addressed unit identity: SHA-256 over (wire version,
    ordered job identities, code fingerprint) — the ResultCache key
    currency, lifted to a slice of jobs."""
    material = canonical_json({
        "v": WIRE_VERSION,
        "jobs": [[job.executor, job.params_json] for job in jobs],
        "fingerprint": fingerprint,
    })
    return hashlib.sha256(material.encode()).hexdigest()


def rows_digest(rows_per_job: Sequence[List[dict]]) -> str:
    """Canonical digest of a unit result payload, used to verify that
    duplicate commits are byte-equal before dropping them."""
    return hashlib.sha256(
        canonical_json(list(rows_per_job)).encode()).hexdigest()


# -- request validation ----------------------------------------------------


def parse_register(obj: object) -> Dict[str, object]:
    _require(isinstance(obj, dict), "register body must be a JSON object")
    name = obj.get("name", "")
    _require(isinstance(name, str), "'name' must be a string")
    workers = obj.get("workers", 1)
    _require(isinstance(workers, int) and workers >= 1,
             "'workers' must be a positive integer")
    return {"name": name, "workers": workers}


def _worker_id(obj: dict) -> str:
    worker = obj.get("worker")
    _require(isinstance(worker, str) and bool(worker),
             "'worker' must be a non-empty worker id")
    return worker


def parse_lease_request(obj: object) -> str:
    _require(isinstance(obj, dict), "lease body must be a JSON object")
    return _worker_id(obj)


def parse_heartbeat(obj: object) -> Tuple[str, List[str], int]:
    _require(isinstance(obj, dict), "heartbeat body must be a JSON object")
    worker = _worker_id(obj)
    leases = obj.get("leases", [])
    _require(isinstance(leases, list)
             and all(isinstance(entry, str) for entry in leases),
             "'leases' must be a list of lease ids")
    failures = obj.get("failures", 0)
    _require(isinstance(failures, int) and failures >= 0,
             "'failures' must be a non-negative integer")
    return worker, leases, failures


def parse_result(obj: object) -> Dict[str, object]:
    """Validate a result submission; returns worker/unit/key/lease plus
    exactly one of ``rows`` (list of per-job row lists) or ``error``."""
    _require(isinstance(obj, dict), "result body must be a JSON object")
    worker = _worker_id(obj)
    unit = obj.get("unit")
    _require(isinstance(unit, int) and unit >= 0,
             "'unit' must be a non-negative unit index")
    key = obj.get("key")
    _require(isinstance(key, str) and bool(key), "'key' must be the unit key")
    lease = obj.get("lease")
    _require(lease is None or isinstance(lease, str),
             "'lease' must be a lease id when present")
    rows: Optional[List[List[dict]]] = None
    error = obj.get("error")
    if error is None:
        rows = rows_from_wire(obj.get("rows"))
    else:
        _require(isinstance(error, dict)
                 and isinstance(error.get("executor"), str)
                 and isinstance(error.get("params"), str)
                 and isinstance(error.get("cause"), str),
                 "'error' must carry executor/params/cause strings")
    provenance = obj.get("provenance", "computed")
    _require(provenance in ("computed", "cache_hit"),
             "'provenance' must be 'computed' or 'cache_hit'")
    return {"worker": worker, "unit": unit, "key": key, "lease": lease,
            "rows": rows, "error": error, "provenance": provenance}


def parse_checkpoint(obj: object) -> Dict[str, object]:
    """Validate a checkpoint migration; returns worker/unit/key/lease
    plus the (syntactically object-shaped) envelope ``state``. Semantic
    envelope validation — version, kind, fingerprint — is the
    coordinator's job, because it owns the unit's expected fingerprint."""
    _require(isinstance(obj, dict), "checkpoint body must be a JSON object")
    worker = _worker_id(obj)
    unit = obj.get("unit")
    _require(isinstance(unit, int) and unit >= 0,
             "'unit' must be a non-negative unit index")
    key = obj.get("key")
    _require(isinstance(key, str) and bool(key), "'key' must be the unit key")
    lease = obj.get("lease")
    _require(isinstance(lease, str) and bool(lease),
             "'lease' must be the holding lease id")
    state = obj.get("state")
    _require(isinstance(state, dict), "'state' must be a checkpoint envelope")
    return {"worker": worker, "unit": unit, "key": key, "lease": lease,
            "state": state}


def parse_deregister(obj: object) -> str:
    _require(isinstance(obj, dict), "deregister body must be a JSON object")
    return _worker_id(obj)
