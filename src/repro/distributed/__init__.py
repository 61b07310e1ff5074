"""Distributed sweep and pipeline execution: coordinator/worker lease
protocol with checkpoint migration, a coordinator-served result cache,
and a crash-recoverable control plane (write-ahead journal + epoch-
fenced worker re-registration).

See :mod:`repro.distributed.protocol` for the wire contract,
:mod:`repro.distributed.coordinator` for the lease/commit state
machine (including ``/v1/checkpoint`` envelope migration) and the
``repro sweep --distributed`` / ``repro pipeline --distributed``
coordinator, which serves until every live worker has heard ``done``,
:mod:`repro.distributed.journal` for the coordinator's durable
write-ahead journal (``--journal``), and
:mod:`repro.distributed.worker` for the ``repro work`` loop (pipeline
units, local-cache provenance, graceful drain, 409-driven
re-registration across coordinator restarts, and, with no reconnect
budget, staying parked from one run to the next).
"""

from .client import CoordinatorClient, CoordinatorUnreachable, WorkerRejected
from .coordinator import (
    DEFAULT_CHECKPOINT_EVERY,
    LOCAL_WORKER,
    PIPELINE_EXECUTOR,
    CoordinatorServer,
    CoordinatorState,
    StaleWorkerError,
    SweepCoordinator,
    default_unit_jobs,
)
from .journal import JOURNAL_VERSION, Journal, JournalError, journal_meta, replay
from .protocol import WIRE_VERSION, rows_digest, unit_key
from .worker import Worker, WorkerConfig

__all__ = [
    "CoordinatorClient",
    "CoordinatorUnreachable",
    "WorkerRejected",
    "CoordinatorServer",
    "CoordinatorState",
    "StaleWorkerError",
    "SweepCoordinator",
    "LOCAL_WORKER",
    "PIPELINE_EXECUTOR",
    "DEFAULT_CHECKPOINT_EVERY",
    "default_unit_jobs",
    "JOURNAL_VERSION",
    "Journal",
    "JournalError",
    "journal_meta",
    "replay",
    "WIRE_VERSION",
    "rows_digest",
    "unit_key",
    "Worker",
    "WorkerConfig",
]
