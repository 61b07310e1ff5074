"""The distributed sweep worker: ``repro work`` points one of these at
a coordinator URL and the machine joins the sweep.

Loop shape::

    register -> (lease -> heartbeat || execute -> submit)* -> done

* the worker executes a leased unit on its **local process pool** via
  :meth:`Runner.compute_rows`, whose lost-worker recovery (a broken
  pool is rebuilt and its unfinished chunks resubmitted) runs *inside*
  each unit, so a worker surviving its own child's death is invisible
  to the coordinator;
* a **pipeline unit** (``"pipeline": true`` on the lease) runs inline
  through :func:`repro.distributed.coordinator.run_pipeline_unit`, the
  path the coordinator's own local fallback takes, with an upload
  hook: every ``checkpoint_every``-th chunk-seam envelope migrates to
  the coordinator (``/v1/checkpoint``, best-effort — an upload failure
  costs recovery granularity, never correctness). A lease that
  arrives carrying an envelope resumes from it; an envelope this build
  cannot validate falls back to unit start — wrong rows are impossible
  either way;
* a unit key hashes the coordinator's code fingerprint, so a lease
  whose key this build does not reproduce was minted by another build
  of repro: the worker computes nothing, deregisters and exits 1 (with
  ``reconnect_timeout=0`` too — waiting does not change a build);
* with a local result cache configured the worker consults it before
  computing: a whole-unit hit is submitted with ``cache_hit``
  provenance, and computed pipeline rows are remembered so *this*
  machine never re-pays them;
* **graceful drain** (SIGTERM via :meth:`Worker.drain`): a running
  pipeline unit parks at the next chunk seam (final envelope
  uploaded), the worker deregisters — releasing its leases for
  immediate re-dispatch — and exits 0;
* while a unit runs, a daemon heartbeat thread renews the lease every
  ``lease_seconds / 3`` — three misses before expiry, so one dropped
  heartbeat never loses a lease. Heartbeat errors never interrupt the
  unit (a partition is indistinguishable from a slow network, and the
  *lease* mechanism — not the heartbeat — decides the worker is gone)
  but they are **counted**: ``heartbeat_failures`` rides on every
  heartbeat, shows in the coordinator's per-worker ``snapshot()``
  block, and is printed in the worker's exit line, so a flaky link is
  diagnosable instead of silent;
* result submission is **at-least-once**: a network error after the
  coordinator processed the commit (the lost-ack case) just means the
  retry is answered with ``duplicate`` — which the worker treats as
  success, because it is;
* a **coordinator restart** is survivable: a recovered coordinator
  answers the old worker id with HTTP 409 ``unknown_worker`` (plus its
  new epoch), which the worker treats as "alive but amnesiac" — it
  re-registers and, if it was holding a finished result across the
  outage, re-submits it under the new id (safe: commits are idempotent
  first-write-wins);
* every coordinator failure sleeps
  :func:`repro.service.client.retry_delay` (jittered exponential, 0.1 s
  base, 5 s cap) and counts against a rolling ``reconnect_timeout``
  budget — the budget is per attempt-chain, reset by any successful
  (or even rejected-but-answered) exchange. A coordinator that stays
  dark past the budget means the worker exits 1 rather than spinning
  forever;
* ``done`` ends the worker when it has a budget (exit 0). With
  ``reconnect_timeout=0`` there is no budget and ``done`` ends only the
  run: the worker naps and keeps leasing, so it parks against the dark
  port and re-registers (through the 409 path) with the next
  coordinator there — the setting for a fleet parked against a service
  daemon that only periodically runs flights.

Fault sites fire here and in the client: ``dist.unit`` (``raise``
models the worker dying mid-lease), ``dist.lease`` / ``dist.heartbeat``
/ ``dist.result`` / ``dist.checkpoint`` / ``dist.deregister`` (network
message faults, worker-scopable as ``<site>@<name>``; ``kill`` on
``dist.checkpoint`` models a worker dying at a chunk seam *after* some
envelopes migrated, ``corrupt`` damages the envelope in flight).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import List, Optional

from repro.experiments.cache import ResultCache, code_fingerprint
from repro.experiments.jobs import Job
from repro.experiments.runner import (
    JobExecutionError,
    Runner,
    recall_unit,
    remember_rows,
)
from repro.mem.pipeline import PipelineCheckpointed
from repro.service.client import retry_delay
from repro.testing import faults

from .client import CoordinatorClient, CoordinatorUnreachable, WorkerRejected
from .coordinator import run_pipeline_unit
from .protocol import ProtocolError, jobs_from_wire, unit_key


def _backoff(attempt: int) -> float:
    """Seconds to sleep before reconnect attempt ``attempt`` + 1."""
    return retry_delay(0.1, attempt, cap=5.0)


@dataclass
class WorkerConfig:
    url: str
    name: str = ""
    workers: Optional[int] = None
    #: seconds the coordinator may stay dark before the worker exits 1;
    #: reset by every answered exchange. 0 = no budget: wait forever,
    #: and stay parked for the next run after ``done``.
    reconnect_timeout: float = 30.0
    fault_delay: float = 0.1
    log: bool = True
    #: directory for the worker's local result cache (None = no disk
    #: cache; the in-process memory level still applies)
    cache_dir: Optional[str] = None


class Worker:
    """One machine's membership in a distributed sweep."""

    def __init__(self, config: WorkerConfig):
        self.config = config
        self.client = CoordinatorClient(config.url, name=config.name or None,
                                        fault_delay=config.fault_delay)
        self.worker_id: Optional[str] = None
        self.units_done = 0
        self.units_resumed = 0
        self.reregistrations = 0
        #: cumulative heartbeat-thread errors — never fatal, always
        #: counted (satellite of the silent-swallow policy: the lease
        #: decides liveness, but the operator deserves the number)
        self.heartbeat_failures = 0
        self._unit_index = 0  # fault-site index for dist.unit
        self._runner: Optional[Runner] = None
        self._cache = ResultCache(config.cache_dir) if config.cache_dir else None
        self._drain = threading.Event()

    def drain(self) -> None:
        """Request a graceful exit (signal-safe): the current lease is
        finished — a pipeline unit parks at its next chunk seam and
        uploads a final envelope — then the worker deregisters and
        :meth:`run` returns 0."""
        self._drain.set()

    def _log(self, message: str) -> None:
        if self.config.log:
            print(f"[repro-work] {message}", flush=True)

    def _register(self) -> None:
        if self.worker_id is not None:
            self.reregistrations += 1
        reply = self.client.register(self.config.name,
                                     self.config.workers or 1)
        self.worker_id = reply["worker"]
        self.lease_seconds = float(reply.get("lease_seconds", 10.0))
        self.poll = float(reply.get("poll", 0.5))
        epoch = reply.get("epoch", 0)
        self._log(f"registered as {self.worker_id} "
                  f"(lease {self.lease_seconds:g}s, epoch {epoch})")

    def _budget_deadline(self) -> Optional[float]:
        """Start (or restart) the reconnect budget: ``None`` when the
        budget is disabled (``reconnect_timeout=0`` — wait forever)."""
        if self.config.reconnect_timeout <= 0:
            return None
        return time.monotonic() + self.config.reconnect_timeout

    @staticmethod
    def _budget_spent(deadline: Optional[float]) -> bool:
        return deadline is not None and time.monotonic() >= deadline

    def _heartbeat_loop(self, lease_id: str, stop: threading.Event) -> None:
        interval = max(0.05, self.lease_seconds / 3.0)
        while not stop.wait(interval):
            try:
                self.client.heartbeat(self.worker_id, [lease_id],
                                      failures=self.heartbeat_failures)
            except (CoordinatorUnreachable, WorkerRejected,
                    ProtocolError):
                # never fatal — the lease term decides liveness, not any
                # single heartbeat; a 409 here just means the main loop
                # is about to discover the restart itself — but counted,
                # so a flaky link shows up in the exit line and in the
                # coordinator's per-worker snapshot
                self.heartbeat_failures += 1

    def _fire_unit_fault(self) -> None:
        index = self._unit_index
        self._unit_index += 1
        if not faults.enabled():
            return
        if self.config.name:
            faults.fire(f"dist.unit@{self.config.name}", index)
        faults.fire("dist.unit", index)

    def _run_unit(self, lease: dict) -> bool:
        """Run one leased unit; False, with nothing run, when the lease's
        key was made by another build (it hashes the code fingerprint)."""
        # the fault fires *before* the heartbeat thread starts, so a
        # "raise" here models a worker that died holding a fresh lease —
        # nothing renews it and it expires on schedule
        self._fire_unit_fault()
        jobs = jobs_from_wire(lease["jobs"])
        if unit_key(jobs, code_fingerprint()) != lease["key"]:
            return False
        cached = recall_unit(jobs, self._cache)
        if cached is not None:
            self._log(f"unit {lease['unit']}: local cache hit")
            self._submit(lease, cached, None, provenance="cache_hit")
            return True
        stop = threading.Event()
        beat = threading.Thread(
            target=self._heartbeat_loop, args=(lease["lease"], stop),
            name="repro-work-heartbeat", daemon=True)
        beat.start()
        drained = False
        try:
            error = None
            rows = None
            if lease.get("pipeline"):
                rows, error, drained = self._run_pipeline(lease, jobs)
            else:
                if self._runner is None:
                    self._runner = Runner(workers=self.config.workers,
                                          cache=self._cache)
                try:
                    rows = self._runner.compute_rows(jobs)
                except JobExecutionError as exc:
                    error = {"executor": exc.job.executor,
                             "params": exc.job.params_json,
                             "cause": exc.cause}
        finally:
            stop.set()
        beat.join(timeout=2.0)
        if not drained:
            # a drained unit's final envelope is migrated; the lease is
            # released by the deregister that follows in run()
            self._submit(lease, rows, error)
        return True

    def _run_pipeline(self, lease: dict, jobs: List[Job]):
        """Execute a singleton pipeline unit inline through
        :func:`~repro.distributed.coordinator.run_pipeline_unit`,
        migrating every chunk-seam envelope to the coordinator and
        resuming from the envelope the lease carried (if any). Returns
        ``(rows, error, drained)``."""
        job = jobs[0]

        def upload(state: dict) -> None:
            # best-effort: a lost/rejected upload only means a successor
            # resumes from an older seam (or unit start), never bad rows
            try:
                self.client.checkpoint(self.worker_id, lease["unit"],
                                       lease["key"], lease["lease"], state)
            except WorkerRejected as exc:
                # coordinator restarted mid-unit: re-register and retry
                # once so the seam still migrates under the new epoch
                # (the old lease id is gone — the commit path tolerates
                # that; the envelope is what matters here)
                self._log(f"checkpoint upload rejected (epoch "
                          f"{exc.epoch}); re-registering")
                try:
                    self._register()
                    self.client.checkpoint(self.worker_id, lease["unit"],
                                           lease["key"], lease["lease"],
                                           state)
                except (CoordinatorUnreachable, WorkerRejected,
                        ProtocolError) as retry_exc:
                    self._log(f"checkpoint upload failed after "
                              f"re-register ({retry_exc}); continuing")
            except (CoordinatorUnreachable, ProtocolError) as exc:
                self._log(f"checkpoint upload failed ({exc}); continuing")

        def on_resume(envelope: dict) -> None:
            self._log(f"unit {lease['unit']}: resuming from migrated "
                      f"checkpoint (cursor {envelope.get('cursor')})")
            self.units_resumed += 1

        try:
            rows = run_pipeline_unit(lease, job, upload,
                                     park=self._drain.is_set,
                                     on_resume=on_resume)
        except PipelineCheckpointed as exc:
            self._log(f"unit {lease['unit']}: drained at chunk seam "
                      f"({exc.requests_done} requests done)")
            return None, None, True
        except Exception as exc:  # deterministic executor failure
            return None, {"executor": job.executor,
                          "params": job.params_json,
                          "cause": f"{type(exc).__name__}: {exc}"}, False
        remember_rows(job, rows, self._cache)
        return [rows], None, False

    def _submit(self, lease: dict, rows, error,
                provenance: str = "computed") -> None:
        """At-least-once result delivery: retry until the coordinator
        acknowledges or stays dark past the reconnect budget.
        ``duplicate`` is an acknowledgement — the rows landed (possibly
        via our own severed first attempt, possibly from another
        worker; either way the unit is committed). A 409 rejection
        mid-retry means the coordinator restarted while we held the
        result: re-register and submit under the new id — the journal
        replay marked nothing for this unit, so these rows are exactly
        what the recovered sweep is waiting for (and if another worker
        beat us to it, idempotency answers ``duplicate``)."""
        attempt = 0
        deadline = self._budget_deadline()
        while True:
            try:
                reply = self.client.result(
                    self.worker_id, lease["unit"], lease["key"],
                    lease["lease"], rows=rows, error=error,
                    provenance=provenance)
            except WorkerRejected as exc:
                self._log(f"result for unit {lease['unit']} rejected "
                          f"(coordinator epoch {exc.epoch}); "
                          f"re-registering to re-submit")
                deadline = self._budget_deadline()  # answered = alive
                try:
                    self._register()
                except (CoordinatorUnreachable, ProtocolError):
                    time.sleep(_backoff(attempt))
                    attempt += 1
                continue
            except CoordinatorUnreachable as exc:
                if self._budget_spent(deadline):
                    raise
                self._log(f"result submit failed ({exc}); retrying")
                time.sleep(_backoff(attempt))
                attempt += 1
                continue
            event = reply.get("event")
            if event in ("committed", "duplicate", "failed"):
                if event != "failed":
                    self.units_done += 1
                self._log(f"unit {lease['unit']}: {event}")
                return
            raise ProtocolError(f"unexpected result reply {reply!r}")

    def _exit_stats(self) -> str:
        return (f"{self.units_done} unit(s) here, "
                f"{self.heartbeat_failures} heartbeat failure(s), "
                f"{self.reregistrations} re-registration(s)")

    def run(self) -> int:
        """Work until the coordinator says ``done`` (exit 0; with a zero
        ``reconnect_timeout`` the worker stays parked for the next run
        instead), a drain is requested (finish/park the current lease,
        deregister, exit 0), or the coordinator stays unreachable past
        ``reconnect_timeout`` (exit 1; a zero timeout waits forever). A
        coordinator that *restarted* — 409 ``unknown_worker`` — is not
        an outage: the worker re-registers under the new epoch and keeps
        working."""
        attempt = 0
        deadline = self._budget_deadline()
        while True:
            if self._drain.is_set():
                self._log(f"drain requested; deregistering "
                          f"({self._exit_stats()})")
                self._deregister()
                self._close_runner()
                return 0
            try:
                if self.worker_id is None:
                    self._register()
                reply = self.client.lease(self.worker_id)
            except WorkerRejected as exc:
                # the coordinator is alive but restarted: our id (and
                # every lease it anchored) died with the old epoch.
                # Re-register — through the same backoff'd loop — and
                # reset the budget: an answer is proof of liveness
                self._log(f"worker id rejected (coordinator epoch "
                          f"{exc.epoch}); re-registering")
                self.worker_id = None
                deadline = self._budget_deadline()
                continue
            except (CoordinatorUnreachable, ProtocolError) as exc:
                if self._budget_spent(deadline):
                    self._log(f"coordinator unreachable past "
                              f"{self.config.reconnect_timeout:g}s budget "
                              f"({exc}); giving up ({self._exit_stats()})")
                    self._close_runner()
                    return 1
                # interruptible by drain, like the wait nap below
                self._drain.wait(_backoff(attempt))
                attempt += 1
                continue
            attempt = 0
            deadline = self._budget_deadline()
            event = reply.get("event")
            if event == "done":
                if self.config.reconnect_timeout > 0:
                    self._log(f"sweep complete ({self._exit_stats()})")
                    self._close_runner()
                    return 0
                # no budget: the run is over, not the worker — keep
                # leasing; the next coordinator at this URL answers the
                # old id with 409 and the worker re-registers
                self._log(f"run complete; parked for the next one "
                          f"({self._exit_stats()})")
                self._drain.wait(self.poll)
                continue
            if event == "wait":
                # interruptible by drain: wait() returns early when set
                self._drain.wait(float(reply.get("poll", 0.5)))
                continue
            if event == "error":
                # the coordinator rejected us (likely restarted and
                # forgot our id) — re-register and carry on
                self.worker_id = None
                continue
            if event == "lease":
                if self._run_unit(reply):
                    continue
                self._log(f"unit {reply['unit']}: the coordinator runs "
                          f"another build of repro; deregistering "
                          f"({self._exit_stats()})")
                self._deregister()
                self._close_runner()
                return 1
            raise ProtocolError(f"unexpected lease reply {reply!r}")

    def _deregister(self) -> None:
        """Best-effort: a deregister that never arrives just means the
        coordinator waits out the lease term, exactly as for a crash."""
        if self.worker_id is None:
            return
        try:
            self.client.deregister(self.worker_id)
        except WorkerRejected:
            pass  # a restarted coordinator already forgot us — done
        except (CoordinatorUnreachable, ProtocolError) as exc:
            self._log(f"deregister failed ({exc}); leases will expire")

    def _close_runner(self) -> None:
        if self._runner is not None:
            self._runner.close()
            self._runner = None
