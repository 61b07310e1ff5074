"""Worker-side HTTP client for the sweep coordinator.

Plain ``http.client`` over a fresh connection per request — worker
traffic is a handful of small messages per lease term, so connection
reuse buys nothing and a fresh socket makes every request independently
retryable (no half-dead keepalive state to reason about).

Every POST passes through the fault harness before and after the send
(:func:`repro.testing.faults.check` on the ``dist.*`` sites), giving
chaos tests message-level control of the network without a proxy:

* ``drop``  — the request is never delivered (raise before sending);
* ``sever`` — the request *is* delivered but the response is lost
  (send, then raise) — the lost-ack case that forces at-least-once
  delivery and makes the coordinator's duplicate detection observable;
* ``delay`` — delivered late (sleep ``fault_delay`` before sending);
* ``duplicate`` — delivered twice back-to-back;
* ``corrupt`` — delivered *damaged*: the payload is mutated in flight
  (only on sites that declare a corruptor, e.g. ``dist.checkpoint``
  scrambles the envelope) — exercising the coordinator's validate-
  before-store rejection path.

Sites are checked under the worker-scoped alias ``<site>@<name>``
first, then the bare site, so one plan can partition a single worker
among several sharing the process.

Every request is one attempt; retrying is the worker's job
(:mod:`repro.distributed.worker`), which backs off with the service
client's :func:`repro.service.client.retry_delay`.
"""

from __future__ import annotations

import http.client
import time
from typing import Callable, Dict, List, Optional
from urllib.parse import urlsplit

from repro.testing import faults

from .protocol import ProtocolError, decode_event, encode_event, rows_to_wire


class CoordinatorUnreachable(RuntimeError):
    """A request to the coordinator could not be delivered, or its
    response never arrived (includes injected drop/sever faults)."""


class WorkerRejected(RuntimeError):
    """The coordinator answered — it is alive — but refused this worker
    id (HTTP 409 ``unknown_worker``): a restarted coordinator does not
    know ids minted by its previous incarnation. Deliberately *not* a
    :class:`CoordinatorUnreachable`: retrying the same request verbatim
    can never succeed; the remedy is to re-register and resume under
    the new id/epoch."""

    def __init__(self, message: str, epoch: int = 0):
        super().__init__(message)
        self.epoch = epoch


def _fault_site(site: str, name: Optional[str],
                counters: Dict[str, int]) -> Optional[str]:
    """Consult the fault plan for this message: scoped alias first so a
    plan can single out one named worker, then the generic site. Each
    site keeps its own message index."""
    if not faults.enabled():
        return None
    index = counters.get(site, 0)
    counters[site] = index + 1
    action = None
    if name:
        action = faults.check(f"{site}@{name}", index)
    if action is None:
        action = faults.check(site, index)
    return action


class CoordinatorClient:
    """Typed wrapper over the coordinator's POST endpoints.

    ``name`` scopes fault-site lookups (``dist.lease@<name>`` …);
    ``fault_delay`` is how long an injected ``delay`` action holds a
    message — tests tune it against the coordinator's lease term.
    """

    def __init__(self, url: str, name: Optional[str] = None,
                 timeout: float = 10.0, fault_delay: float = 0.1):
        if "//" not in url:
            url = "http://" + url
        parts = urlsplit(url)
        if not parts.hostname or not parts.port:
            raise ValueError(f"coordinator URL needs host:port, got {url!r}")
        self.host = parts.hostname
        self.port = parts.port
        self.name = name
        self.timeout = timeout
        self.fault_delay = fault_delay
        self._site_counters: Dict[str, int] = {}

    # -- transport ---------------------------------------------------------

    def _send(self, path: str, payload: dict) -> dict:
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        try:
            body = encode_event(payload)
            conn.request("POST", path, body=body,
                         headers={"Content-Type": "application/x-ndjson",
                                  "Content-Length": str(len(body))})
            response = conn.getresponse()
            data = response.read()
            if response.status == 409:
                event: dict = {}
                try:
                    event = decode_event(data)
                except ProtocolError:
                    pass
                if event.get("error") == "unknown_worker":
                    epoch = event.get("epoch")
                    raise WorkerRejected(
                        f"coordinator (epoch {epoch}) does not know this "
                        f"worker id — re-register",
                        epoch=epoch if isinstance(epoch, int) else 0)
            if response.status != 200:
                raise CoordinatorUnreachable(
                    f"coordinator returned HTTP {response.status} for {path}: "
                    f"{data[:200].decode(errors='replace')}")
            return decode_event(data)
        except (OSError, http.client.HTTPException) as exc:
            raise CoordinatorUnreachable(
                f"coordinator at {self.host}:{self.port} unreachable "
                f"({path}): {exc}") from exc
        finally:
            conn.close()

    def _post(self, site: str, path: str, payload: dict,
              corruptor: Optional[Callable[[dict], dict]] = None) -> dict:
        action = _fault_site(site, self.name, self._site_counters)
        if action == "drop":
            raise CoordinatorUnreachable(
                f"injected network fault: {site} request dropped")
        if action == "delay":
            time.sleep(self.fault_delay)
        if action == "corrupt" and corruptor is not None:
            payload = corruptor(dict(payload))
        result = self._send(path, payload)
        if action == "duplicate":
            result = self._send(path, payload)
        if action == "sever":
            # delivered, response lost — the caller sees a network error
            # even though the coordinator processed the message
            raise CoordinatorUnreachable(
                f"injected network fault: {site} response severed")
        return result

    # -- endpoints ---------------------------------------------------------

    def register(self, name: str = "", workers: int = 1) -> dict:
        return self._send("/v1/register", {"event": "register", "name": name,
                                           "workers": workers})

    def lease(self, worker: str) -> dict:
        reply = self._post("dist.lease", "/v1/lease",
                           {"event": "lease", "worker": worker})
        if reply.get("event") not in ("lease", "wait", "done", "error"):
            raise ProtocolError(f"unexpected lease reply {reply!r}")
        return reply

    def heartbeat(self, worker: str, leases: List[str],
                  failures: int = 0) -> dict:
        return self._post("dist.heartbeat", "/v1/heartbeat",
                          {"event": "heartbeat", "worker": worker,
                           "leases": list(leases),
                           "failures": int(failures)})

    def result(self, worker: str, unit: int, key: str, lease: Optional[str],
               rows: Optional[List[List[dict]]] = None,
               error: Optional[dict] = None,
               provenance: str = "computed") -> dict:
        payload: dict = {"event": "result", "worker": worker, "unit": unit,
                         "key": key, "lease": lease, "provenance": provenance}
        if error is not None:
            payload["error"] = error
        else:
            payload["rows"] = rows_to_wire(rows if rows is not None else [])
        return self._post("dist.result", "/v1/result", payload)

    @staticmethod
    def _corrupt_envelope(payload: dict) -> dict:
        # in-flight bit rot for the fault harness: the envelope arrives
        # but no longer validates (version scrambled, cursor poisoned)
        state = dict(payload.get("state") or {})
        state["version"] = "\x00garbage\x00"
        state["cursor"] = -1
        payload["state"] = state
        return payload

    def checkpoint(self, worker: str, unit: int, key: str, lease: str,
                   state: dict) -> dict:
        return self._post("dist.checkpoint", "/v1/checkpoint",
                          {"event": "checkpoint", "worker": worker,
                           "unit": unit, "key": key, "lease": lease,
                           "state": state},
                          corruptor=self._corrupt_envelope)

    def deregister(self, worker: str) -> dict:
        return self._post("dist.deregister", "/v1/deregister",
                          {"event": "deregister", "worker": worker})
