"""Unit tests for the service's capacity model and observability
primitives: the streaming latency histogram, the counter registry, and
the bounded front door's admission decision."""

import pytest

from repro.service.admission import admit
from repro.service.coalescer import Flight
from repro.service.metrics import COUNTERS, ServiceMetrics, StreamingHistogram
from repro.service.protocol import parse_job_request
from repro.service.server import ReproService, ServeConfig

SWEEP_REQUEST = parse_job_request(
    {"kind": "sweep", "spec": {"models": ["alexnet"], "schemes": ["np"]}})


class TestStreamingHistogram:
    def test_empty_reports_zero(self):
        h = StreamingHistogram()
        assert h.count == 0
        assert h.percentile(0.5) == 0.0
        assert h.mean == 0.0

    def test_percentile_error_bounded_by_growth(self):
        h = StreamingHistogram(growth=1.08)
        samples = [0.001, 0.002, 0.005, 0.010, 0.050, 0.100, 0.500, 1.0]
        for s in samples:
            h.observe(s)
        # the reported quantile is the bucket upper bound: never below
        # the true sample, never more than one growth factor above
        for q, true in ((0.5, sorted(samples)[3]), (1.0, max(samples))):
            reported = h.percentile(q)
            assert true <= reported <= true * h.growth * 1.001

    def test_max_clamps_top_bucket(self):
        h = StreamingHistogram()
        h.observe(0.2)
        assert h.percentile(0.99) <= h.max == 0.2

    def test_floor_bucket_catches_tiny_values(self):
        h = StreamingHistogram(floor=1e-4)
        h.observe(1e-9)
        assert h.percentile(0.5) <= 1e-4

    def test_snapshot_schema(self):
        h = StreamingHistogram()
        h.observe(0.5)
        snap = h.snapshot()
        assert set(snap) == {"count", "mean_s", "p50_s", "p90_s",
                             "p99_s", "max_s"}
        assert snap["count"] == 1

    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            StreamingHistogram(floor=0)
        with pytest.raises(ValueError):
            StreamingHistogram(growth=1.0)
        with pytest.raises(ValueError):
            StreamingHistogram(buckets=1)

    def test_rejects_bad_quantile(self):
        with pytest.raises(ValueError):
            StreamingHistogram().percentile(1.5)


class TestServiceMetrics:
    def test_counters_start_at_zero_with_full_schema(self):
        metrics = ServiceMetrics()
        snapshot = metrics.snapshot()
        assert set(snapshot["counters"]) == set(COUNTERS)
        assert all(v == 0 for v in snapshot["counters"].values())

    def test_incr_and_get(self):
        metrics = ServiceMetrics()
        metrics.incr("admitted_total")
        metrics.incr("rows_streamed_total", 40)
        assert metrics.get("admitted_total") == 1
        assert metrics.get("rows_streamed_total") == 40

    def test_expected_flight_seconds_defaults_then_tracks(self):
        metrics = ServiceMetrics()
        assert metrics.expected_flight_seconds == 1.0
        metrics.observe_flight(4.0)
        assert metrics.expected_flight_seconds == 4.0
        metrics.observe_flight(2.0)  # EWMA moves toward recent flights
        assert 2.0 < metrics.expected_flight_seconds < 4.0

    def test_coalescing_factor(self):
        metrics = ServiceMetrics()
        assert metrics.snapshot()["coalescing_factor"] == 0.0
        metrics.incr("admitted_total", 2)
        metrics.incr("coalesced_total", 2)
        metrics.incr("executions_total", 2)
        assert metrics.snapshot()["coalescing_factor"] == 2.0


@pytest.fixture
def idle_service():
    """A daemon that never serves: tests place flights in its table."""
    service = ReproService(ServeConfig(port=0, workers=1, cache=False,
                                       max_running=1, max_queued=1))
    yield service
    service._flight_executor.shutdown()
    service.pool_manager.close()


def hold(service, key, started):
    flight = service._flights[key] = Flight(key, SWEEP_REQUEST)
    flight.started = started
    return flight


def admit_next(service):
    """The decision the daemon's table would give a new submission."""
    gauges = service.metrics_snapshot()["gauges"]
    return admit(gauges["running"], gauges["queued"],
                 gauges["max_running"], gauges["max_queued"])


class TestAdmissionController:
    """Admission control: :func:`admit` over the counts of the flight
    table, and the capacity :class:`ServeConfig` accepts."""

    def test_admits_until_queue_full(self):
        # one flight holds the only slot; two may wait, the third is shed
        assert admit(1, 0, max_running=1, max_queued=2).admitted
        assert admit(1, 1, max_running=1, max_queued=2).admitted
        decision = admit(1, 2, max_running=1, max_queued=2)
        assert not decision.admitted
        assert decision.retry_after >= 1
        assert (decision.queued, decision.running) == (2, 1)

    def test_zero_queue_rejects_while_running(self):
        assert admit(0, 0, max_running=1, max_queued=0).admitted
        assert not admit(1, 0, max_running=1, max_queued=0).admitted

    def test_retry_after_scales_with_backlog_and_latency(self):
        short = admit(1, 0, 1, 0, expected_flight_seconds=1.0).retry_after
        long = admit(1, 0, 1, 0, expected_flight_seconds=30.0).retry_after
        assert long >= short
        assert long >= 30
        backlog = admit(2, 4, 2, 4, expected_flight_seconds=10.0).retry_after
        idle = admit(2, 0, 2, 0, expected_flight_seconds=10.0).retry_after
        assert backlog > idle

    def test_abandon_releases_queue_slot(self, idle_service):
        hold(idle_service, "running", started=True)
        queued = hold(idle_service, "queued", started=False)
        assert not admit_next(idle_service).admitted
        # the queued flight's client left before it started
        idle_service._finish_flight(
            queued, {"event": "cancelled", "reason": "abandoned"}, None)
        assert admit_next(idle_service).admitted

    def test_gauges_track_lifecycle(self, idle_service):
        flight = hold(idle_service, "key", started=False)
        flight.subscribe()
        gauges = idle_service.metrics_snapshot()["gauges"]
        assert {name: gauges[name] for name in (
            "running", "queued", "max_running", "max_queued", "inflight",
            "subscribers")} == {"running": 0, "queued": 1, "max_running": 1,
                                "max_queued": 1, "inflight": 1,
                                "subscribers": 1}
        flight.started = True
        gauges = idle_service.metrics_snapshot()["gauges"]
        assert (gauges["running"], gauges["queued"]) == (1, 0)
        idle_service._finish_flight(flight, {"event": "cancelled",
                                             "reason": "test"}, None)
        gauges = idle_service.metrics_snapshot()["gauges"]
        assert (gauges["running"], gauges["inflight"],
                gauges["subscribers"]) == (0, 0, 0)

    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError, match="max_running >= 1"):
            ServeConfig(max_running=0)
        with pytest.raises(ValueError, match="max_queued >= 0"):
            ServeConfig(max_queued=-1)
