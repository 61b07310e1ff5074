"""Wire protocol for ``repro serve``.

The service speaks HTTP/1.1 with JSON bodies and newline-delimited JSON
(NDJSON) streaming responses — parseable with nothing but a socket and
``json.loads``, which keeps the stdlib-only promise on both ends.

Requests
--------

``POST /v1/jobs`` submits one job, a JSON object with a ``kind``:

* ``{"kind": "sweep", "preset": "fig3-inference"}`` — a registered
  sweep by name, or
* ``{"kind": "sweep", "spec": {"models": [...], "schemes": [...],
  "batches": [...], "modes": [...], "zoo": "auto"}}`` — an ad-hoc grid
  (the same fields as :class:`~repro.experiments.spec.SweepSpec`);
* ``{"kind": "pipeline", "workload": "gpt2", "schemes": [...],
  "chunk_requests": 65536, "params": {"tokens": 1, ...}}`` — a
  streaming :class:`~repro.mem.pipeline.TracePipeline` run (the same
  parameter surface as the ``pipeline_run`` executor).

``GET /metrics`` returns the service metrics snapshot; ``GET /healthz``
returns ``{"ok": true}``.

Responses
---------

An accepted job streams NDJSON events (``Content-Type:
application/x-ndjson``, ``Connection: close`` — the stream ends when
the connection does):

* ``{"event": "accepted", "key": ..., "coalesced": bool, ...}`` first;
* ``{"event": "rows", "index": i, "rows": [...]}`` per completed sweep
  slice / ``{"event": "progress", "chunk": c, "requests_done": r,
  "total_requests": t}`` per pipeline chunk;
* exactly one terminal event: ``result`` (with the full table / rows),
  ``error``, or ``cancelled``.

A saturated service answers ``429`` with a ``Retry-After`` header and
``{"error": "saturated", "retry_after": s, ...}`` — the backpressure
contract: the queue is bounded, the server never buffers unboundedly.

Job identity
------------

Jobs are content-addressed with the same currency as the result cache:
a request reduces to its ordered :class:`~repro.experiments.jobs.Job`
list (executor name + canonical-JSON params), and :meth:`JobRequest.key`
hashes that together with the kind and the code fingerprint. Two
clients asking for the same computation — regardless of JSON key order
— produce the same key, which is what the coalescer keys in-flight
deduplication on.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.experiments.jobs import Job, canonical_json

PROTOCOL_VERSION = 1

#: request kinds the service executes
KINDS = ("sweep", "pipeline")


class ProtocolError(ValueError):
    """A malformed or unresolvable job request (HTTP 400)."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ProtocolError(message)


@dataclass(frozen=True)
class JobRequest:
    """A validated, canonicalized job submission."""

    kind: str
    #: registered sweep name (sweep jobs built from a preset)
    preset: Optional[str] = None
    #: canonical SweepSpec fields (ad-hoc sweep jobs)
    spec: Optional[Dict[str, object]] = None
    #: canonical pipeline_run params (pipeline jobs)
    params: Optional[Dict[str, object]] = None
    _jobs: Tuple[Job, ...] = field(default=(), compare=False, repr=False)

    def jobs(self) -> List[Job]:
        """The ordered executor jobs this request resolves to — the
        unit of caching, execution, and content addressing."""
        return list(self._jobs)

    def key(self, fingerprint: str = "") -> str:
        """Content-addressed identity: SHA-256 over (protocol version,
        kind, ordered job identities, code fingerprint). Matches for
        any two requests that would compute the same thing."""
        material = canonical_json({
            "v": PROTOCOL_VERSION,
            "kind": self.kind,
            "jobs": [(job.executor, job.params_json) for job in self._jobs],
            "fingerprint": fingerprint,
        })
        return hashlib.sha256(material.encode()).hexdigest()

    def describe(self) -> Dict[str, object]:
        """Summary fields echoed in the ``accepted`` event."""
        out: Dict[str, object] = {"kind": self.kind, "jobs": len(self._jobs)}
        if self.preset is not None:
            out["preset"] = self.preset
        if self.params is not None:
            out["workload"] = self.params.get("workload")
        return out

    def resubmit_body(self) -> Dict[str, object]:
        """A ``POST /v1/jobs`` body that parses back to this request —
        the durable form a restarted daemon rebuilds a flight from
        (stored in the coordinator journal's header metadata).
        Round-trip invariant: ``parse_job_request(r.resubmit_body())``
        yields a request with the same key as ``r``."""
        if self.kind == "sweep":
            if self.preset is not None:
                return {"kind": "sweep", "preset": self.preset}
            return {"kind": "sweep", "spec": self.spec}
        params = dict(self.params or {})
        return {"kind": "pipeline",
                "workload": params.pop("workload"),
                "schemes": params.pop("schemes"),
                "chunk_requests": params.pop("chunk_requests"),
                "params": params}


def _parse_sweep(obj: Dict[str, object]) -> JobRequest:
    from repro.experiments import SweepSpec, get_sweep

    preset = obj.get("preset")
    spec_fields = obj.get("spec")
    _require((preset is None) != (spec_fields is None),
             "sweep needs exactly one of 'preset' or 'spec'")
    if preset is not None:
        _require(isinstance(preset, str), "'preset' must be a string")
        try:
            definition = get_sweep(preset)
        except KeyError as error:
            raise ProtocolError(str(error)) from None
        return JobRequest(kind="sweep", preset=preset,
                          _jobs=tuple(definition.jobs()))
    _require(isinstance(spec_fields, dict), "'spec' must be an object")
    allowed = {"models", "schemes", "batches", "modes", "zoo", "configs"}
    unknown = set(spec_fields) - allowed
    _require(not unknown,
             f"unknown spec field(s) {sorted(unknown)}; allowed: {sorted(allowed)}")
    models = spec_fields.get("models")
    _require(isinstance(models, (list, tuple)) and models
             and all(isinstance(m, str) for m in models),
             "'spec.models' must be a non-empty list of model names")
    kwargs: Dict[str, object] = {"models": tuple(models)}
    for key in ("schemes", "batches", "modes"):
        if key in spec_fields:
            value = spec_fields[key]
            _require(isinstance(value, (list, tuple)) and value,
                     f"'spec.{key}' must be a non-empty list")
            kwargs[key] = tuple(
                tuple(entry) if isinstance(entry, list) else entry
                for entry in value)
    if "zoo" in spec_fields:
        kwargs["zoo"] = str(spec_fields["zoo"])
    if "configs" in spec_fields:
        configs = spec_fields["configs"]
        _require(isinstance(configs, (list, tuple)) and configs
                 and all(isinstance(c, dict) for c in configs),
                 "'spec.configs' must be a non-empty list of objects")
        kwargs["configs"] = tuple(configs)
    # resolve everything a worker would now, so a bad model, config
    # key or value, or scheme parameter is a 400 at submission instead
    # of a failed flight later
    try:
        spec = SweepSpec(**kwargs)
        jobs = spec.jobs()
        from repro.accel.accelerator import TPU_V1_CONFIG
        from repro.experiments.executors import CONFIG_OVERRIDES, validate_model
        from repro.protection import build_scheme

        for model in spec.models:
            validate_model(model)
        for config in spec.configs:
            unknown = set(config) - set(CONFIG_OVERRIDES)
            if unknown:
                raise ValueError(
                    f"unsupported config overrides {sorted(unknown)}; "
                    f"allowed: {list(CONFIG_OVERRIDES)}")
            replace(TPU_V1_CONFIG, **config)  # refuses a malformed value
        for entry in spec.schemes:
            if isinstance(entry, str):
                build_scheme(entry)
            else:
                build_scheme(entry[0], **dict(entry[1]))
    except (LookupError, ValueError, TypeError) as error:
        raise ProtocolError(
            f"invalid sweep spec: {error.args[0] if error.args else error}"
        ) from None
    canonical_spec = {
        "models": list(spec.models),
        "schemes": [list(s) if isinstance(s, tuple) and not isinstance(s, str)
                    else s for s in spec.schemes],
        "batches": [int(b) for b in spec.batches],
        "modes": list(spec.modes),
        "zoo": spec.zoo,
        "configs": [dict(config) for config in spec.configs],
    }
    return JobRequest(kind="sweep", spec=canonical_spec, _jobs=tuple(jobs))


def _parse_pipeline(obj: Dict[str, object]) -> JobRequest:
    from repro.mem.pipeline import DEFAULT_CHUNK_REQUESTS
    from repro.workloads import build_trace_spec

    workload = obj.get("workload")
    _require(isinstance(workload, str) and bool(workload),
             "pipeline needs a 'workload' name")
    params: Dict[str, object] = {"workload": workload}
    schemes = obj.get("schemes", ["np", "guardnn-c", "guardnn-ci", "bp"])
    _require(isinstance(schemes, (list, tuple)) and schemes
             and all(isinstance(s, str) for s in schemes),
             "'schemes' must be a non-empty list of scheme names")
    _require(len(set(schemes)) == len(schemes), "duplicate scheme names")
    params["schemes"] = list(schemes)
    chunk_requests = obj.get("chunk_requests", DEFAULT_CHUNK_REQUESTS)
    _require(isinstance(chunk_requests, int) and not isinstance(chunk_requests, bool)
             and chunk_requests > 0, "'chunk_requests' must be a positive integer")
    params["chunk_requests"] = chunk_requests
    extra = obj.get("params", {})
    _require(isinstance(extra, dict), "'params' must be an object")
    reserved = set(params) & set(extra)
    _require(not reserved, f"'params' may not override {sorted(reserved)}")
    params.update(extra)
    # resolve once now so an unknown workload/scheme/parameter is a 400
    # at submission instead of a failed flight later
    try:
        spec_params = {key: value for key, value in params.items()
                       if key not in ("workload", "schemes", "chunk_requests")}
        spec = build_trace_spec(workload, **spec_params)
        from repro.protection.trace_rewriter import build_trace_rewriter

        for scheme in schemes:
            build_trace_rewriter(scheme, end_address=spec.end_address)
    except (KeyError, ValueError, TypeError) as error:
        raise ProtocolError(
            f"invalid pipeline request: {error.args[0] if error.args else error}"
        ) from None
    job = Job.make("pipeline_run", **params)
    return JobRequest(kind="pipeline", params=json.loads(job.params_json),
                      _jobs=(job,))


def parse_job_request(obj: object) -> JobRequest:
    """Validate and canonicalize a ``POST /v1/jobs`` body."""
    _require(isinstance(obj, dict), "job request must be a JSON object")
    kind = obj.get("kind")
    _require(kind in KINDS,
             f"unknown job kind {kind!r}; choose from {list(KINDS)}")
    if kind == "sweep":
        return _parse_sweep(obj)
    return _parse_pipeline(obj)


# -- event framing ---------------------------------------------------------


def content_length(value: Optional[str]) -> int:
    """The body length a ``Content-Length`` header announces (0 when it
    is absent or empty). Anything but a decimal integer raises
    :class:`ProtocolError`: a body of unknown extent cannot be read, and
    nothing after it on the connection can be framed."""
    value = (value or "0").strip()
    _require(value.isascii() and value.isdigit(),
             f"invalid Content-Length header: {value!r}")
    return int(value)


def encode_event(event: Dict[str, object]) -> bytes:
    """One NDJSON line (canonical JSON so identical events are
    byte-identical across coalesced subscribers)."""
    return (canonical_json(event) + "\n").encode()


def decode_event(line: bytes) -> Dict[str, object]:
    try:
        event = json.loads(line)
    except json.JSONDecodeError as error:
        raise ProtocolError(f"bad event line: {error}") from None
    _require(isinstance(event, dict) and "event" in event,
             "event line must be an object with an 'event' field")
    return event


def rejection_body(retry_after: float, queued: int, running: int) -> Dict[str, object]:
    return {
        "error": "saturated",
        "retry_after": retry_after,
        "queued": queued,
        "running": running,
    }
