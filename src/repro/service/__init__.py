"""Simulation-as-a-service: the ``repro serve`` daemon and its client.

The engine underneath (persistent worker pools, two-level result cache,
streaming trace pipeline) already dedupes and parallelizes; this package
gives it a front door — admission control, in-flight job coalescing,
streamed partial results, and observability — so many concurrent
clients share one machine's capacity instead of each owning a pool.

See :mod:`repro.service.protocol` for the wire format,
:mod:`repro.service.server` for the daemon, and
:mod:`repro.service.client` for the blocking stdlib client.
"""

from repro.service.admission import AdmissionDecision, admit
from repro.service.client import (
    ServiceCancelled,
    ServiceClient,
    ServiceJobError,
    ServiceRejected,
)
from repro.service.coalescer import Flight
from repro.service.metrics import ServiceMetrics, StreamingHistogram
from repro.service.protocol import JobRequest, ProtocolError, parse_job_request
from repro.service.server import ReproService, ServeConfig, run_serve

__all__ = [
    "AdmissionDecision",
    "Flight",
    "JobRequest",
    "ProtocolError",
    "ReproService",
    "ServeConfig",
    "ServiceCancelled",
    "ServiceClient",
    "ServiceJobError",
    "ServiceMetrics",
    "ServiceRejected",
    "StreamingHistogram",
    "admit",
    "parse_job_request",
    "run_serve",
]
