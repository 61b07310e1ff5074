"""Blocking stdlib client for ``repro serve``.

``http.client`` only — the same no-new-dependencies contract as the
server. A submission yields decoded NDJSON events as they stream;
abandoning the iterator (``close()`` / ``break`` + garbage collection)
closes the connection, which the server interprets as cancellation.
"""

from __future__ import annotations

import http.client
import json
import random
import time
from typing import Dict, Iterator, Optional

from repro.service.protocol import decode_event


def retry_delay(hint: float, attempt: int,
                rng: Optional[random.Random] = None,
                cap: float = 60.0) -> float:
    """Backoff around a ``hint`` (the server's ``Retry-After``, or the
    ``repro work`` reconnect base): exponential in the attempt number,
    then jittered by ±50%. The jitter is the point — a fleet of clients
    shed at the same instant (or workers that lost the same coordinator)
    sleeping the exact hint would wake in lockstep and be shed again
    together (thundering herd); spreading each wake-up over
    ``[0.5, 1.5] ×`` the backoff de-synchronizes them.

    Any ``attempt`` is accepted: a worker parked against a dark
    coordinator never stops counting, so the doubling stops at ``2**64``
    (every cap is reached long before) instead of overflowing the float
    conversion."""
    if rng is None:
        rng = random
    doubling = 2.0 ** min(max(0, attempt), 64)
    base = min(cap, max(0.05, float(hint)) * doubling)
    return base * rng.uniform(0.5, 1.5)


class ServiceRejected(RuntimeError):
    """The service shed this submission (HTTP 429 saturated / HTTP 503
    draining): back off around ``retry_after`` seconds — with jitter,
    see :func:`retry_delay` — and resubmit."""

    def __init__(self, retry_after: int, body: Optional[dict] = None,
                 status: int = 429):
        self.retry_after = retry_after
        self.body = body or {}
        self.status = status
        reason = self.body.get("error", "saturated")
        super().__init__(f"service rejected (HTTP {status}, {reason}); "
                         f"retry after {retry_after}s ({self.body})")


class ServiceJobError(RuntimeError):
    """The job failed server-side (terminal ``error`` event)."""

    def __init__(self, event: dict):
        self.event = event
        super().__init__(event.get("message", "job failed"))


class ServiceCancelled(RuntimeError):
    """The flight was cancelled server-side (terminal ``cancelled``
    event — typically every other subscriber disconnected and this
    client attached after the worker observed it)."""


class ServiceClient:
    """One service endpoint; connections are per-call."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8787,
                 timeout: float = 600.0):
        self.host = host
        self.port = port
        self.timeout = timeout

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)

    # -- read-only endpoints ----------------------------------------------

    def _get_json(self, path: str) -> dict:
        conn = self._connect()
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            payload = json.loads(response.read().decode())
            if response.status != 200:
                raise RuntimeError(f"GET {path} -> {response.status}: {payload}")
            return payload
        finally:
            conn.close()

    def metrics(self) -> dict:
        return self._get_json("/metrics")

    def health(self) -> bool:
        try:
            return self._get_json("/healthz").get("ok") is True
        except (OSError, RuntimeError, json.JSONDecodeError):
            return False

    def wait_ready(self, timeout: float = 10.0, interval: float = 0.05) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.health():
                return
            time.sleep(interval)
        raise TimeoutError(
            f"repro serve at {self.host}:{self.port} not ready in {timeout}s")

    # -- job submission ----------------------------------------------------

    def submit(self, job: Dict[str, object]) -> Iterator[dict]:
        """Submit one job; yield its event stream. Raises
        :class:`ServiceRejected` on 429 (saturated) and 503 (draining),
        ``RuntimeError`` on any other non-200. Close the iterator to
        cancel interest."""
        conn = self._connect()
        try:
            conn.request("POST", "/v1/jobs", body=json.dumps(job),
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            if response.status in (429, 503):
                body = json.loads(response.read().decode() or "{}")
                retry_after = int(response.getheader(
                    "Retry-After", body.get("retry_after", 1)))
                raise ServiceRejected(retry_after, body,
                                      status=response.status)
            if response.status != 200:
                raise RuntimeError(
                    f"POST /v1/jobs -> {response.status}: "
                    f"{response.read().decode(errors='replace').strip()}")
        except BaseException:
            conn.close()
            raise
        return self._events(conn, response)

    @staticmethod
    def _events(conn, response) -> Iterator[dict]:
        try:
            while True:
                line = response.readline()
                if not line:
                    break
                line = line.strip()
                if line:
                    yield decode_event(line)
        finally:
            conn.close()

    def run(self, job: Dict[str, object], on_event=None,
            retries: int = 0,
            rng: Optional[random.Random] = None,
            sleep=time.sleep) -> dict:
        """Submit and drain to the terminal event; return the ``result``
        event. ``on_event`` (if given) sees every event as it arrives.

        ``retries`` > 0 resubmits after a :class:`ServiceRejected`
        (429 saturated / 503 draining), sleeping :func:`retry_delay`
        between attempts — jittered exponential backoff seeded by the
        server's ``Retry-After`` hint. The last rejection propagates
        once the budget is spent.

        Raises :class:`ServiceJobError` / :class:`ServiceCancelled` on
        the other terminal events, and ``RuntimeError`` if the stream
        ends without one (server died mid-flight)."""
        attempt = 0
        while True:
            try:
                return self._run_once(job, on_event)
            except ServiceRejected as rejected:
                if attempt >= retries:
                    raise
                sleep(retry_delay(rejected.retry_after, attempt, rng))
                attempt += 1

    def _run_once(self, job: Dict[str, object], on_event=None) -> dict:
        for event in self.submit(job):
            if on_event is not None:
                on_event(event)
            name = event.get("event")
            if name == "result":
                return event
            if name == "error":
                raise ServiceJobError(event)
            if name == "cancelled":
                raise ServiceCancelled(event.get("reason", "cancelled"))
        raise RuntimeError("event stream ended without a terminal event")
