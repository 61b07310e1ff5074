"""Service observability: counters, gauges, and a streaming latency
histogram.

The histogram is geometric-bucketed: ``observe`` is O(1) and constant
memory (no sample retention), percentiles come from a bucket scan, and
the error of a reported percentile is bounded by the bucket growth
factor (~8% with the default 1.08 growth) — the standard trade for
latency telemetry, where the shape matters and the third significant
digit does not.

Everything here is plain data with a ``threading.Lock`` around updates:
flights execute on worker threads while the asyncio loop snapshots for
``/metrics``, so increments must be race-free but never block on I/O.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Optional


class StreamingHistogram:
    """Fixed geometric buckets over ``[floor, +inf)``; O(1) observe."""

    def __init__(self, floor: float = 1e-4, growth: float = 1.08,
                 buckets: int = 192):
        if floor <= 0 or growth <= 1 or buckets < 2:
            raise ValueError("floor > 0, growth > 1, buckets >= 2")
        self.floor = floor
        self.growth = growth
        self._log_growth = math.log(growth)
        self._counts = [0] * buckets
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def _bucket(self, value: float) -> int:
        if value <= self.floor:
            return 0
        index = int(math.log(value / self.floor) / self._log_growth) + 1
        return min(index, len(self._counts) - 1)

    def observe(self, value: float) -> None:
        self._counts[self._bucket(value)] += 1
        self.count += 1
        self.total += value
        if value > self.max:
            self.max = value

    def _bucket_upper(self, index: int) -> float:
        if index == 0:
            return self.floor
        return self.floor * self.growth ** index

    def percentile(self, q: float) -> float:
        """Upper bound of the bucket holding the q-quantile sample
        (0 <= q <= 1); 0.0 when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        seen = 0
        for index, bucket_count in enumerate(self._counts):
            seen += bucket_count
            if seen >= rank:
                return min(self._bucket_upper(index), self.max)
        return self.max  # pragma: no cover - rank <= count always hits

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean_s": round(self.mean, 6),
            "p50_s": round(self.percentile(0.50), 6),
            "p90_s": round(self.percentile(0.90), 6),
            "p99_s": round(self.percentile(0.99), 6),
            "max_s": round(self.max, 6),
        }


#: the service's own counter names, fixed so /metrics always reports
#: the full schema (the daemon's snapshot adds the result cache's and
#: the runner's recovery counts, which those objects keep)
COUNTERS = (
    "requests_total",          # every POST /v1/jobs (incl. rejected/bad)
    "bad_requests_total",      # 400s
    "rejected_total",          # 429s (admission shed)
    "admitted_total",          # new flights admitted
    "coalesced_total",         # submissions attached to an in-flight job
    "executions_total",        # flights actually executed (started)
    "completed_total",         # flights finishing with a result
    "failed_total",            # flights finishing with an error
    "cancelled_total",         # flights cancelled (all clients gone)
    "events_streamed_total",   # NDJSON lines written to clients
    "rows_streamed_total",     # result/partial rows delivered
    "checkpoints_written_total",  # pipeline seams journaled
    "flights_resumed_total",   # flights the startup scan re-admitted
                               # from their .journal records
    "distributed_flights_total",     # flights fanned through a coordinator
    "journal_units_replayed_total",  # units recovered from a journal replay
    "journals_quarantined_total",    # unusable journals set aside (.corrupt)
)


class ServiceMetrics:
    """Counter/gauge registry plus the flight-latency histogram."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {name: 0 for name in COUNTERS}
        self.latency = StreamingHistogram()
        #: EWMA of flight wall time, the retry-after estimator's input
        self._latency_ewma: Optional[float] = None
        self._ewma_alpha = 0.3

    def incr(self, name: str, by: int = 1) -> None:
        with self._lock:
            self._counters[name] += by

    def get(self, name: str) -> int:
        with self._lock:
            return self._counters[name]

    def observe_flight(self, seconds: float) -> None:
        with self._lock:
            self.latency.observe(seconds)
            if self._latency_ewma is None:
                self._latency_ewma = seconds
            else:
                self._latency_ewma += self._ewma_alpha * (seconds - self._latency_ewma)

    @property
    def expected_flight_seconds(self) -> float:
        """Smoothed recent flight latency (1 s until the first flight
        lands) — :func:`~repro.service.admission.admit`'s retry-after
        unit."""
        with self._lock:
            return self._latency_ewma if self._latency_ewma is not None else 1.0

    def snapshot(self, gauges: Optional[Dict[str, object]] = None) -> Dict[str, object]:
        with self._lock:
            counters = dict(self._counters)
            latency = self.latency.snapshot()
        admitted = counters["admitted_total"]
        coalesced = counters["coalesced_total"]
        executions = counters["executions_total"]
        out: Dict[str, object] = {
            "counters": counters,
            "latency": latency,
            # in-flight dedup leverage: client submissions served per
            # executed computation (1.0 = no coalescing happening)
            "coalescing_factor": round(
                (admitted + coalesced) / executions, 4) if executions else 0.0,
        }
        if gauges:
            out["gauges"] = dict(gauges)
        return out

