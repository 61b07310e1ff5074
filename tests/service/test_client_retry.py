"""Client-side rejection backoff: 429/503 retries are exponential and
jittered around the server's Retry-After hint — a shed fleet must not
wake in lockstep (thundering herd) — and the retry budget is honored.

These tests drive ``ServiceClient.run`` against a stub ``submit`` (the
rejection path needs no real server) with injected rng/sleep, so the
backoff schedule itself is asserted, not just "it eventually worked".
"""

import random

import pytest

from repro.service.client import ServiceClient, ServiceRejected, retry_delay


class TestRetryDelay:
    def test_exponential_in_attempt(self):
        rng = random.Random(0)
        # jitter off by pinning rng: compare expectations via bounds
        for attempt in range(5):
            delay = retry_delay(1.0, attempt, rng)
            assert 0.5 * 2 ** attempt <= delay <= 1.5 * 2 ** attempt

    def test_jitter_spreads_a_fleet(self):
        """Distinct clients sleeping on the same hint must not collide:
        with jitter the spread across a fleet is wide, never a point."""
        delays = {retry_delay(2.0, 0, random.Random(seed))
                  for seed in range(64)}
        assert len(delays) == 64
        assert max(delays) - min(delays) > 0.5

    def test_respects_cap_and_floor(self):
        assert retry_delay(1000.0, 10, random.Random(1), cap=60.0) <= 90.0
        assert retry_delay(0.0, 0, random.Random(1)) >= 0.025  # 0.05 * 0.5

    def test_module_rng_default_works(self):
        assert retry_delay(1.0, 0) > 0

    def test_any_attempt_count_stays_capped(self):
        """A worker parked against a dark coordinator counts attempts
        forever; the delay stays the jittered cap instead of overflowing."""
        assert 2.5 <= retry_delay(0.1, 10_000, cap=5.0) <= 7.5


class _RejectingClient(ServiceClient):
    """Rejects the first N submissions with 429/503, then succeeds."""

    def __init__(self, rejections, status=429):
        super().__init__()
        self.rejections = rejections
        self.status = status
        self.attempts = 0

    def submit(self, job):
        self.attempts += 1
        if self.attempts <= self.rejections:
            raise ServiceRejected(2, {"error": "saturated"},
                                  status=self.status)
        return iter([{"event": "result", "table": []}])


class TestRunRetries:
    def test_default_fails_fast(self):
        client = _RejectingClient(rejections=1)
        with pytest.raises(ServiceRejected):
            client.run({"kind": "sweep"})
        assert client.attempts == 1

    def test_retries_until_admitted_with_backoff(self):
        client = _RejectingClient(rejections=3)
        slept = []
        result = client.run({"kind": "sweep"}, retries=5,
                            rng=random.Random(42), sleep=slept.append)
        assert result["event"] == "result"
        assert client.attempts == 4
        assert len(slept) == 3
        # exponential shape: each attempt's window doubles
        for attempt, delay in enumerate(slept):
            assert 0.5 * 2 * 2 ** attempt <= delay <= 1.5 * 2 * 2 ** attempt

    def test_budget_exhausted_raises_last_rejection(self):
        client = _RejectingClient(rejections=10, status=503)
        slept = []
        with pytest.raises(ServiceRejected) as rejected:
            client.run({"kind": "sweep"}, retries=2,
                       rng=random.Random(0), sleep=slept.append)
        assert client.attempts == 3
        assert len(slept) == 2
        assert rejected.value.status == 503

    def test_503_draining_message_names_status_and_reason(self):
        error = ServiceRejected(4, {"error": "draining"}, status=503)
        assert "503" in str(error)
        assert "draining" in str(error)
        assert error.retry_after == 4
