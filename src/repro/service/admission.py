"""Admission control: the bounded front door.

The capacity model has two terms, mirroring how the engine actually
executes:

* **occupancy** — at most ``max_running`` flights execute at once (the
  service's flight executor has exactly that many threads, each driving
  the shared worker pool);
* **queue depth** — at most ``max_queued`` admitted flights may wait
  for a thread.

The service keeps no admission counters: it counts the flights of its
one flight table that have and have not ``started`` and asks
:func:`admit`, a pure function of those counts and the capacity
(``ServeConfig`` refuses a capacity without room for one flight).

A submission that would push the wait queue past ``max_queued`` is shed
with a retry-after estimate instead of being buffered: unbounded
buffering converts overload into unbounded memory growth and unbounded
client latency, while early 429s keep tail latency flat and let clients
back off. Joining an *in-flight* identical job (coalescing) never
counts against capacity — a subscriber adds a queue of references, not
work.

The retry-after estimate is Little's-law shaped: (jobs ahead of you,
plus yourself) divided by service rate, using the metrics EWMA of
flight latency. It is deliberately a hint, rounded up to a whole
second, not a reservation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class AdmissionDecision:
    admitted: bool
    #: seconds the client should wait before retrying (rejections only)
    retry_after: Optional[int] = None
    queued: int = 0
    running: int = 0


def admit(running: int, queued: int, max_running: int, max_queued: int,
          expected_flight_seconds: float = 1.0) -> AdmissionDecision:
    """Admit a new flight (it starts queued) or reject it with a
    retry-after hint, given the flights now running and queued."""
    if running < max_running or queued < max_queued:
        return AdmissionDecision(True, queued=queued + 1, running=running)
    retry_after = max(1, math.ceil(
        (running + queued + 1) * max(expected_flight_seconds, 1e-3)
        / max_running))
    return AdmissionDecision(False, retry_after=retry_after,
                             queued=queued, running=running)
