"""The sweep coordinator: lease/heartbeat/idempotent-commit state machine.

Three layers, separable for testing:

* :class:`CoordinatorState` — the pure protocol state machine (no
  sockets, injectable clock). Every correctness property lives here:
  lease expiry and re-dispatch, at-least-once commits made idempotent
  by digest comparison, epoch-fenced rejection of workers the
  coordinator does not know, and the record of which workers have
  been told the run is ``done``.
* :class:`CoordinatorServer` — a ThreadingHTTPServer skin mapping the
  ``/v1/*`` endpoints onto the state machine with the service tier's
  NDJSON framing.
* :class:`SweepCoordinator` — the driver ``repro sweep --distributed``,
  ``repro pipeline`` and every ``repro serve`` pipeline flight use:
  shards the job list into content-addressed units (pipeline jobs
  become singleton units so a checkpoint envelope maps 1:1 to a unit),
  serves them to workers, and **falls back to the local pool** through
  the identical lease/commit path when no live remote worker exists — a
  coordinator with zero workers degrades to exactly `Runner.run`, it
  never strands the sweep. Built with ``port=None`` it opens no
  listener and the fallback runs every unit, so a local run keeps the
  same journal a distributed one does. Once every unit is committed it
  keeps answering for at most one lease term, until each remote worker
  seen in that term has heard ``done`` (or deregistered), so no worker
  napping between lease requests finds the port closed instead.

Three robustness layers ride on the lease machinery:

* **Checkpoint migration** — a worker running a pipeline unit uploads
  each chunk-seam envelope (``/v1/checkpoint``); the envelope must pass
  :func:`~repro.checkpoint.validate_envelope`, and the latest one rides
  along on the unit's next lease grant, so the successor of a
  SIGKILLed worker — the local fallback included — resumes mid-unit
  via ``resume_from=`` instead of recomputing — bit-identical by the
  pipeline's checkpoint contract.
  A rejected (corrupt/stale) upload stores nothing: the successor
  falls back to unit start, never wrong rows.
* **Coordinator-served result cache** — when it is built, before any
  lease and before its listener opens, the coordinator probes its own
  two-level result cache once per unit not yet done; a whole-unit hit
  is committed internally and never leased, so a restarted sweep or a
  second fleet member re-pays nothing the fleet already computed
  (``cache_served_units`` on ``/metrics``). A run the cache answers in
  full opens no journal.
* **Write-ahead journal + epochs** — with ``journal_path`` set, every
  durable transition (unit commit, accepted envelope, cache-served
  unit) is fsync'd to an append-only journal *before* the reply that
  acknowledges it (:mod:`repro.distributed.journal`). A restarted
  coordinator replays the journal — refusing a fingerprint or
  unit-key mismatch — marks journaled units done, restores the latest
  envelope per pending unit so successors still resume mid-unit, and
  bumps an **epoch** stamped on every reply. Workers from the previous
  epoch are unknown to the new incarnation: their first message is
  answered with HTTP 409 ``{"error": "unknown_worker", "epoch": N}``
  (:class:`StaleWorkerError`), which tells them to re-register rather
  than guess — implicit adoption would silently resurrect leases the
  recovery just voided.

Correctness argument (the reason distribution is unobservable in the
output): units are pure functions of their job list — the same
contract that makes the runner's chunk re-dispatch safe. A lease can
expire and the unit run twice, a result can arrive after its lease
died, a worker can answer a request the coordinator already forgot —
in every interleaving the *first structurally valid* result is
committed and all later ones are verified byte-equal (``rows_digest``)
and dropped. Rows are committed per job through
:func:`repro.experiments.runner.remember_rows`, the single cache
commit path, and reassembled in job order, so the resulting table is
bit-identical to a local run.
"""

from __future__ import annotations

import functools
import os
import threading
import time
import uuid
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.checkpoint import CheckpointError, validate_envelope
from repro.experiments.cache import ResultCache, code_fingerprint
from repro.experiments.jobs import Job
from repro.experiments.runner import (
    JobExecutionError,
    Runner,
    recall_unit,
    remember_rows,
)
from repro.mem.pipeline import PipelineCancelled, PipelineCheckpointed
from repro.service.metrics import StreamingHistogram

from . import protocol
from .journal import Journal
from .protocol import ProtocolError, encode_event, unit_key

#: executor whose jobs become singleton, checkpoint-migratable units
PIPELINE_EXECUTOR = "pipeline_run"

#: default chunk interval between checkpoint uploads for pipeline units
DEFAULT_CHECKPOINT_EVERY = 4

#: seconds a worker naps on ``wait`` (sent in the register and wait
#: replies), and the coordinator's own poll while it drives a run
POLL_SECONDS = 0.2

#: sentinel worker id for the coordinator's own local-pool fallback —
#: it leases and commits through the same state machine as any remote
#: worker, but never counts as "live" for degradation decisions
LOCAL_WORKER = "local"


class StaleWorkerError(ProtocolError):
    """A lease/heartbeat/commit/checkpoint arrived under a worker id
    this coordinator incarnation does not know — typically a worker
    from before a crash/restart. Carries the current epoch so the HTTP
    skin can answer the structured 409 that tells the worker to
    re-register instead of dying."""

    def __init__(self, worker: str, epoch: int):
        super().__init__(f"unknown worker {worker!r} (epoch {epoch})")
        self.worker = worker
        self.epoch = epoch


class _Unit:
    __slots__ = ("index", "key", "jobs", "rows", "digest", "leases",
                 "first_dispatch", "fingerprint", "checkpoint",
                 "checkpoint_cursor")

    def __init__(self, index: int, key: str, jobs: List[Job],
                 fingerprint: Optional[dict] = None):
        self.index = index
        self.key = key
        self.jobs = jobs
        self.rows: Optional[List[List[dict]]] = None
        self.digest: Optional[str] = None
        #: lease_id -> (worker, deadline)
        self.leases: Dict[str, Tuple[str, float]] = {}
        self.first_dispatch: Optional[float] = None
        #: expected pipeline fingerprint; None ⇒ not a pipeline unit
        self.fingerprint = fingerprint
        #: latest validated migrated envelope (cleared on commit)
        self.checkpoint: Optional[dict] = None
        self.checkpoint_cursor = -1

    @property
    def done(self) -> bool:
        return self.rows is not None

    @property
    def pipeline(self) -> bool:
        return self.fingerprint is not None


class CoordinatorState:
    """Thread-safe lease/commit state machine over a fixed unit list.

    ``clock`` is injectable (monotonic seconds) so expiry tests run in
    virtual time; ``on_commit(unit_index, jobs, rows_per_job)`` fires
    exactly once per unit, under no lock contention hazards (called
    inside the state lock — keep it cheap; the SweepCoordinator uses it
    to write the result cache).
    """

    def __init__(self, units_jobs: Sequence[Sequence[Job]],
                 fingerprint: str = "",
                 lease_seconds: float = 10.0,
                 clock: Callable[[], float] = time.monotonic,
                 on_commit: Optional[Callable[[int, List[Job], List[List[dict]]], None]] = None,
                 unit_fingerprints: Optional[Sequence[Optional[dict]]] = None,
                 checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
                 cache_lookup: Optional[Callable[[int], Optional[List[List[dict]]]]] = None,
                 cache_counters: Optional[Callable[[], Dict[str, int]]] = None,
                 journal_path: Optional[str] = None,
                 journal_meta: Optional[dict] = None):
        if lease_seconds <= 0:
            raise ValueError("lease_seconds must be positive")
        self.lease_seconds = float(lease_seconds)
        self.clock = clock
        self.on_commit = on_commit
        self.fingerprint = fingerprint
        self.checkpoint_every = int(checkpoint_every)
        self.cache_counters = cache_counters
        self._lock = threading.Lock()
        if unit_fingerprints is None:
            unit_fingerprints = [None] * len(units_jobs)
        if len(unit_fingerprints) != len(units_jobs):
            raise ValueError("unit_fingerprints must parallel units_jobs")
        self._units = [
            _Unit(i, unit_key(jobs, fingerprint), list(jobs), fp)
            for i, (jobs, fp) in enumerate(zip(units_jobs, unit_fingerprints))
        ]
        #: worker id -> last_seen clock reading
        self._workers: Dict[str, float] = {}
        #: worker id -> cumulative heartbeat failures it has reported
        self._heartbeat_failures: Dict[str, int] = {}
        #: worker ids a lease request has been answered ``done``
        self._told_done: Set[str] = set()
        self._remaining = len(self._units)
        self.failure: Optional[dict] = None
        self.unit_seconds = StreamingHistogram(floor=1e-3)
        self.counters: Dict[str, int] = {
            "workers_registered": 0,
            "workers_deregistered": 0,
            "lease_requests_total": 0,
            "leases_granted": 0,
            "lease_renewals": 0,
            "lease_expirations": 0,
            "leases_released": 0,
            "heartbeats_total": 0,
            "results_total": 0,
            "units_completed": 0,
            "units_local": 0,
            "duplicate_results_dropped": 0,
            "duplicate_result_mismatches": 0,
            "invalid_results": 0,
            "expired_lease_commits": 0,
            "unit_failures": 0,
            "checkpoints_total": 0,
            "checkpoints_migrated": 0,
            "checkpoint_rejects": 0,
            "resumed_units": 0,
            "cache_served_units": 0,
            "worker_cache_commits": 0,
            "stale_worker_rejects": 0,
            "journal_truncated": 0,
            "journal_replayed_units": 0,
        }
        self.epoch = 0
        self._journal: Optional[Journal] = None
        # probe the cache once, here, so no lease does cache I/O under
        # the lock: after replaying an existing journal (its done units
        # need no probe); a fresh journal opens only if a unit is left
        fresh = journal_path is None or not os.path.exists(journal_path)
        if not fresh:
            self._recover(journal_path, journal_meta)
        hits = self._probe_cache(cache_lookup)
        if journal_path is not None and fresh and len(hits) < self._remaining:
            self._recover(journal_path, journal_meta)
        for unit, rows_per_job in hits:
            self._complete_locked(unit, "cache", rows_per_job,
                                  protocol.rows_digest(rows_per_job),
                                  self.clock(), cached=True)

    def _recover(self, journal_path: str,
                 journal_meta: Optional[dict]) -> None:
        """Open (or replay) the write-ahead journal. Journaled commits
        become done units — their workers were already acknowledged, so
        ``on_commit`` is *not* re-fired (the cache write it performs
        already happened in the previous incarnation; replaying it
        would only amplify I/O). Journaled envelopes are restored so
        the next lease grant still resumes mid-unit. In-flight leases
        are implicitly voided: this incarnation knows no workers until
        they re-register under the bumped epoch."""
        self._journal, replayed = Journal.recover(
            journal_path, fingerprint=self.fingerprint,
            unit_keys=[u.key for u in self._units],
            meta=journal_meta)
        self.epoch = self._journal.epoch
        for key in ("journal_truncated", "journal_replayed_units"):
            self.counters[key] = self._journal.counters[key]
        if replayed is None:
            return
        for index, commit in replayed.commits.items():
            unit = self._units[index]
            unit.rows = protocol.rows_from_wire(commit["rows"])
            unit.digest = commit["digest"]
            self._remaining -= 1
        for index, envelope in replayed.checkpoints.items():
            unit = self._units[index]
            if unit.done:
                continue
            cursor = envelope.get("cursor")
            unit.checkpoint = dict(envelope)
            unit.checkpoint_cursor = cursor if isinstance(cursor, int) else -1

    # -- bookkeeping (call with lock held) ---------------------------------

    def _touch(self, worker: str, now: float) -> None:
        self._workers[worker] = now

    def _require_known(self, worker: str) -> None:
        """Epoch fence: only ids minted by *this* incarnation (plus the
        local-fallback sentinel) may lease, renew, commit, or upload.
        A stale id gets a structured rejection telling it the current
        epoch — re-registering is the worker's move, adoption is not
        ours: the recovery voided its leases on purpose."""
        if worker != LOCAL_WORKER and worker not in self._workers:
            self.counters["stale_worker_rejects"] += 1
            raise StaleWorkerError(worker, self.epoch)

    def _stamp(self, reply: dict) -> dict:
        reply["epoch"] = self.epoch
        return reply

    def _expire(self, now: float) -> None:
        """Lazily reap expired leases — no timer thread; expiry is
        observed at the next state transition, which is the only time
        it can matter."""
        for unit in self._units:
            if unit.done or not unit.leases:
                continue
            dead = [lid for lid, (_, deadline) in unit.leases.items()
                    if deadline <= now]
            for lid in dead:
                del unit.leases[lid]
                self.counters["lease_expirations"] += 1

    def _grant(self, unit: _Unit, worker: str, now: float) -> dict:
        lease_id = uuid.uuid4().hex
        unit.leases[lease_id] = (worker, now + self.lease_seconds)
        if unit.first_dispatch is None:
            unit.first_dispatch = now
        self.counters["leases_granted"] += 1
        reply = {
            "event": "lease",
            "unit": unit.index,
            "key": unit.key,
            "jobs": protocol.jobs_to_wire(unit.jobs),
            "lease": lease_id,
            "lease_seconds": self.lease_seconds,
        }
        if unit.pipeline:
            reply["pipeline"] = True
            reply["checkpoint_every"] = self.checkpoint_every
            if unit.checkpoint is not None:
                # mid-unit failover: the grant carries the latest
                # migrated envelope; the holder resumes via resume_from=
                reply["checkpoint"] = unit.checkpoint
                self.counters["resumed_units"] += 1
        return reply

    def _probe_cache(self, cache_lookup) -> List[Tuple[_Unit, List[List[dict]]]]:
        """The whole-unit cache hits among the units not yet done, one
        lookup each. A hit is committed internally and never leased, so
        a warm restart re-pays nothing."""
        if cache_lookup is None:
            return []
        probes = [(unit, cache_lookup(unit.index))
                  for unit in self._units if not unit.done]
        return [(unit, [list(rows) for rows in found])
                for unit, found in probes
                if found is not None and len(found) == len(unit.jobs)]

    # -- protocol verbs ----------------------------------------------------

    def register(self, name: str = "", workers: int = 1) -> dict:
        now = self.clock()
        with self._lock:
            worker_id = f"{name or 'worker'}-{uuid.uuid4().hex[:8]}"
            self.counters["workers_registered"] += 1
            self._touch(worker_id, now)
            return self._stamp({"event": "registered", "worker": worker_id,
                                "lease_seconds": self.lease_seconds,
                                "poll": POLL_SECONDS})

    def lease(self, worker: str) -> dict:
        now = self.clock()
        with self._lock:
            self.counters["lease_requests_total"] += 1
            self._require_known(worker)
            self._touch(worker, now)
            self._expire(now)
            if self.failure is not None or self._remaining == 0:
                self._told_done.add(worker)
                return self._stamp({"event": "done"})
            for unit in self._units:
                if not unit.done and not unit.leases:
                    return self._stamp(self._grant(unit, worker, now))
            return self._stamp({"event": "wait", "poll": POLL_SECONDS})

    def heartbeat(self, worker: str, lease_ids: Sequence[str],
                  failures: int = 0) -> dict:
        now = self.clock()
        with self._lock:
            self.counters["heartbeats_total"] += 1
            self._require_known(worker)
            self._touch(worker, now)
            if failures:
                # the worker self-reports its cumulative heartbeat-thread
                # error count; surfaced per worker in snapshot() so a
                # flaky link is visible from the coordinator side too
                self._heartbeat_failures[worker] = int(failures)
            self._expire(now)
            renewed, lost = [], []
            wanted = set(lease_ids)
            for unit in self._units:
                if unit.done:
                    continue
                for lid in list(unit.leases):
                    if lid in wanted:
                        holder, _ = unit.leases[lid]
                        unit.leases[lid] = (holder, now + self.lease_seconds)
                        renewed.append(lid)
                        wanted.discard(lid)
            lost = sorted(wanted)  # expired (and possibly re-dispatched)
            self.counters["lease_renewals"] += len(renewed)
            return self._stamp({"event": "heartbeat", "renewed": renewed,
                                "lost": lost})

    def _complete_locked(self, unit: _Unit, worker: str,
                         rows_per_job: List[List[dict]], digest: str,
                         now: float, cached: bool = False) -> None:
        """The single unit-completion path (call with lock held): set
        the rows, clear leases and any migrated envelope, and account.
        Cache-served completions skip the unit-latency histogram (no
        dispatch happened) and the ``on_commit`` hook (the rows came
        *from* the cache — rewriting them would be pure amplification).

        With a journal configured the commit record is fsync'd *before*
        any in-memory state flips: once the caller's reply leaves this
        machine the commit is guaranteed to survive a coordinator
        restart — write-ahead, not write-behind."""
        if self._journal is not None:
            self._journal.append_commit(
                unit.index, protocol.rows_to_wire(rows_per_job), digest,
                worker, cached=cached)
        unit.rows = rows_per_job
        unit.digest = digest
        unit.leases.clear()
        unit.checkpoint = None
        self._remaining -= 1
        self.counters["units_completed"] += 1
        if worker == LOCAL_WORKER:
            self.counters["units_local"] += 1
        if cached:
            self.counters["cache_served_units"] += 1
            return
        if unit.first_dispatch is not None:
            self.unit_seconds.observe(max(1e-6, now - unit.first_dispatch))
        if self.on_commit is not None:
            self.on_commit(unit.index, unit.jobs, rows_per_job)

    def commit(self, worker: str, unit_index: int, key: str,
               lease_id: Optional[str],
               rows_per_job: List[List[dict]],
               provenance: str = "computed") -> dict:
        now = self.clock()
        with self._lock:
            self.counters["results_total"] += 1
            self._require_known(worker)
            self._touch(worker, now)
            self._expire(now)
            if not 0 <= unit_index < len(self._units):
                self.counters["invalid_results"] += 1
                raise ProtocolError(f"unknown unit index {unit_index}")
            unit = self._units[unit_index]
            if key != unit.key:
                # a worker computed against different code/jobs — its
                # rows are not this unit's rows, whatever it believes
                self.counters["invalid_results"] += 1
                raise ProtocolError(
                    f"unit {unit_index} key mismatch (stale worker?)")
            if len(rows_per_job) != len(unit.jobs):
                self.counters["invalid_results"] += 1
                raise ProtocolError(
                    f"unit {unit_index} expects {len(unit.jobs)} row lists, "
                    f"got {len(rows_per_job)}")
            digest = protocol.rows_digest(rows_per_job)
            if unit.done:
                # at-least-once made safe: the unit is a pure function
                # of its (content-addressed) jobs, so a second result is
                # either byte-identical — dropped — or evidence of a
                # broken worker, counted and *still* dropped (first
                # valid result won)
                if digest == unit.digest:
                    self.counters["duplicate_results_dropped"] += 1
                else:
                    self.counters["duplicate_result_mismatches"] += 1
                return self._stamp({"event": "duplicate",
                                    "unit": unit_index})
            if lease_id is None or lease_id not in unit.leases:
                # the lease expired (or the commit raced expiry) but the
                # rows are valid for this key — committing them is
                # strictly better than recomputing
                self.counters["expired_lease_commits"] += 1
            if provenance == "cache_hit":
                self.counters["worker_cache_commits"] += 1
            self._complete_locked(unit, worker, rows_per_job, digest, now)
            return self._stamp({"event": "committed", "unit": unit_index})

    def checkpoint(self, worker: str, unit_index: int, key: str,
                   lease_id: str, state: dict) -> dict:
        """Migrate a pipeline unit's chunk-seam envelope. The envelope
        must pass :func:`~repro.checkpoint.validate_envelope` against
        the unit's fingerprint before it is stored — a corrupt upload is
        rejected with a :class:`ProtocolError` and stores *nothing*, so
        a successor falls back to unit start rather than resuming
        poison. Stored
        envelopes advance monotonically by cursor (a late holder's older
        seam never overwrites a fresher one) and an accepted upload
        renews the uploading lease: the upload itself proves liveness."""
        now = self.clock()
        with self._lock:
            self.counters["checkpoints_total"] += 1
            self._require_known(worker)
            self._touch(worker, now)
            self._expire(now)
            if not 0 <= unit_index < len(self._units):
                self.counters["checkpoint_rejects"] += 1
                raise ProtocolError(f"unknown unit index {unit_index}")
            unit = self._units[unit_index]
            if key != unit.key:
                self.counters["checkpoint_rejects"] += 1
                raise ProtocolError(
                    f"unit {unit_index} key mismatch (stale worker?)")
            if unit.done:
                # the unit already committed; the envelope is useless
                return self._stamp({"event": "stale", "unit": unit_index})
            if not unit.pipeline:
                self.counters["checkpoint_rejects"] += 1
                raise ProtocolError(
                    f"unit {unit_index} is not a pipeline unit")
            try:
                validate_envelope(state, unit.fingerprint,
                                  source=f"unit {unit_index}'s envelope")
            except CheckpointError as exc:
                self.counters["checkpoint_rejects"] += 1
                raise ProtocolError(str(exc)) from None
            cursor = state["cursor"]
            if cursor <= unit.checkpoint_cursor:
                return self._stamp({"event": "stale", "unit": unit_index,
                                    "cursor": unit.checkpoint_cursor})
            if self._journal is not None:
                # durable before accepted: a restart re-offers this unit
                # with this envelope riding the re-grant, so the chunks
                # behind the seam are never recomputed
                self._journal.append_checkpoint(unit_index, cursor,
                                                dict(state))
            unit.checkpoint = dict(state)
            unit.checkpoint_cursor = cursor
            self.counters["checkpoints_migrated"] += 1
            if lease_id in unit.leases:
                holder, _ = unit.leases[lease_id]
                unit.leases[lease_id] = (holder, now + self.lease_seconds)
            return self._stamp({"event": "checkpointed", "unit": unit_index,
                                "cursor": cursor})

    def deregister(self, worker: str) -> dict:
        """Graceful drain: release every lease the worker still holds
        (immediate re-dispatch, no waiting out the term) and forget its
        heartbeat, so ``live_remote_workers`` drops right away."""
        with self._lock:
            released = 0
            for unit in self._units:
                if unit.done:
                    continue
                held = [lid for lid, (holder, _) in unit.leases.items()
                        if holder == worker]
                for lid in held:
                    del unit.leases[lid]
                    released += 1
            self.counters["leases_released"] += released
            self.counters["workers_deregistered"] += 1
            self._workers.pop(worker, None)
            return self._stamp({"event": "deregistered", "worker": worker,
                                "released": released})

    def fail(self, worker: str, unit_index: int, key: str,
             error: dict) -> dict:
        """A worker reports a *deterministic* job failure (the job
        itself raised — not a worker death). Re-dispatching would fail
        identically, so the sweep fails fast, exactly as a local run
        would."""
        now = self.clock()
        with self._lock:
            self.counters["results_total"] += 1
            self.counters["unit_failures"] += 1
            self._touch(worker, now)
            if self.failure is None:
                self.failure = dict(error)
            return self._stamp({"event": "failed", "unit": unit_index})

    # -- observation -------------------------------------------------------

    @property
    def done(self) -> bool:
        with self._lock:
            return self._remaining == 0 or self.failure is not None

    def live_remote_workers(self, now: Optional[float] = None) -> int:
        """Workers seen recently enough to plausibly still hold the
        coordinator in view — within two lease terms (floor 3 s so
        sub-second test leases don't flap). The local fallback sentinel
        never counts: it must not suppress itself."""
        if now is None:
            now = self.clock()
        horizon = max(2.0 * self.lease_seconds, 3.0)
        with self._lock:
            return sum(1 for worker, seen in self._workers.items()
                       if worker != LOCAL_WORKER and now - seen <= horizon)

    def awaiting_done(self, now: Optional[float] = None) -> int:
        """Remote workers seen within the last lease term that no lease
        request has yet answered ``done`` (a deregistered worker is
        forgotten, so it never counts). Only ids registered with this
        incarnation exist here, so after a journal restart a worker
        counts once it has re-registered."""
        if now is None:
            now = self.clock()
        with self._lock:
            return sum(1 for worker, seen in self._workers.items()
                       if worker != LOCAL_WORKER
                       and worker not in self._told_done
                       and now - seen <= self.lease_seconds)

    def results(self) -> List[List[List[dict]]]:
        """Per-unit rows-per-job, in unit order; raises if incomplete."""
        with self._lock:
            missing = [u.index for u in self._units if not u.done]
            if missing:
                raise RuntimeError(f"units not complete: {missing}")
            return [u.rows for u in self._units]  # type: ignore[misc]

    def snapshot(self) -> dict:
        now = self.clock()
        live = self.live_remote_workers(now)
        with self._lock:
            outstanding = sum(len(u.leases) for u in self._units)
            held: Dict[str, int] = {}
            for unit in self._units:
                for holder, _ in unit.leases.values():
                    held[holder] = held.get(holder, 0) + 1
            snap = {
                "counters": dict(self.counters),
                "epoch": self.epoch,
                "units_total": len(self._units),
                "units_remaining": self._remaining,
                "leases_outstanding": outstanding,
                "live_workers": live,
                # per-worker health: a partitioned worker shows a large
                # heartbeat age *while still holding leases*; an idle
                # one shows a small age and zero leases
                "workers": [
                    {"worker": worker,
                     "last_seen_age_seconds": round(max(0.0, now - seen), 3),
                     "held_leases": held.get(worker, 0),
                     "heartbeat_failures":
                         self._heartbeat_failures.get(worker, 0)}
                    for worker, seen in sorted(self._workers.items())
                ],
                "redispatches": max(
                    0, self.counters["leases_granted"] - len(self._units)),
                "unit_seconds": {
                    "count": self.unit_seconds.count,
                    "p50": self.unit_seconds.percentile(0.5),
                    "p99": self.unit_seconds.percentile(0.99),
                    "max": self.unit_seconds.max,
                },
                "failed": self.failure is not None,
            }
            if self.cache_counters is not None:
                snap["cache"] = dict(self.cache_counters())
        return snap

    def close(self) -> None:
        """Release the journal handle (final fsync included). The file
        itself is left in place — deleting it is the *caller's* call,
        made only after the results have actually been delivered."""
        if self._journal is not None:
            self._journal.close()
            self._journal = None


# -- HTTP skin -------------------------------------------------------------


@functools.cache
def _handler_class():
    """The listener's request handler, defined on first use so that a
    coordinator without a listener never loads ``http.server``."""
    from http.server import BaseHTTPRequestHandler

    class _Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        server_version = "repro-coordinator/1"

        def log_message(self, *args):  # noqa: D102 — silence per-request lines
            pass

        def _reply(self, status: int, event: dict) -> None:
            body = encode_event(event)
            self.send_response(status)
            self.send_header("Content-Type", "application/x-ndjson")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _read_body(self) -> dict:
            try:
                length = protocol.content_length(self.headers.get("Content-Length"))
            except ProtocolError:
                self.close_connection = True  # the next request can't be framed
                raise
            raw = self.rfile.read(length) if length else b"{}"
            return protocol.decode_event(raw)

        def do_GET(self):  # noqa: N802 — http.server API
            state: CoordinatorState = self.server.state  # type: ignore[attr-defined]
            if self.path == "/metrics":
                self._reply(200, {"event": "metrics", **state.snapshot()})
            elif self.path == "/healthz":
                self._reply(200, {"event": "ok", "done": state.done})
            else:
                self._reply(404, {"event": "error", "error": "unknown path"})

        def do_POST(self):  # noqa: N802 — http.server API
            state: CoordinatorState = self.server.state  # type: ignore[attr-defined]
            try:
                body = self._read_body()
                if self.path == "/v1/register":
                    req = protocol.parse_register(body)
                    self._reply(200, state.register(req["name"], req["workers"]))
                elif self.path == "/v1/lease":
                    worker = protocol.parse_lease_request(body)
                    self._reply(200, state.lease(worker))
                elif self.path == "/v1/heartbeat":
                    worker, leases, failures = protocol.parse_heartbeat(body)
                    self._reply(200, state.heartbeat(worker, leases, failures))
                elif self.path == "/v1/result":
                    req = protocol.parse_result(body)
                    if req["error"] is not None:
                        self._reply(200, state.fail(
                            req["worker"], req["unit"], req["key"], req["error"]))
                    else:
                        self._reply(200, state.commit(
                            req["worker"], req["unit"], req["key"],
                            req["lease"], req["rows"], req["provenance"]))
                elif self.path == "/v1/checkpoint":
                    req = protocol.parse_checkpoint(body)
                    self._reply(200, state.checkpoint(
                        req["worker"], req["unit"], req["key"],
                        req["lease"], req["state"]))
                elif self.path == "/v1/deregister":
                    worker = protocol.parse_deregister(body)
                    self._reply(200, state.deregister(worker))
                else:
                    self._reply(404, {"event": "error", "error": "unknown path"})
            except StaleWorkerError as exc:
                # structured, machine-actionable: 409 + the current epoch
                # tells a worker from a previous incarnation to re-register
                # rather than die on an opaque protocol error
                self._reply(409, {"event": "error", "error": "unknown_worker",
                                  "worker": exc.worker, "epoch": exc.epoch})
            except ProtocolError as exc:
                self._reply(400, {"event": "error", "error": str(exc)})
            except Exception as exc:  # pragma: no cover — defensive
                self._reply(500, {"event": "error", "error": str(exc)})

    return _Handler


class CoordinatorServer:
    """A :class:`CoordinatorState` behind a threaded HTTP listener."""

    def __init__(self, state: CoordinatorState, host: str = "127.0.0.1",
                 port: int = 0):
        from http.server import ThreadingHTTPServer

        self.state = state
        self._httpd = ThreadingHTTPServer((host, port), _handler_class())
        self._httpd.daemon_threads = True
        self._httpd.state = state  # type: ignore[attr-defined]
        self.host, self.port = self._httpd.server_address[:2]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, kwargs={"poll_interval": 0.1},
            name="repro-coordinator", daemon=True)
        self._thread.start()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5.0)


# -- the sweep driver ------------------------------------------------------


def default_unit_jobs(n_jobs: int) -> int:
    """Unit granularity: aim for ~32 units (enough slices that losing a
    worker loses little work), but never fewer than 1 job or more than
    16 per unit."""
    if n_jobs <= 0:
        return 1
    return max(1, min(16, -(-n_jobs // 32)))


def run_pipeline_unit(grant: dict, job: Job,
                      upload: Callable[[dict], None],
                      park: Optional[Callable[[], bool]] = None,
                      on_chunk=None,
                      on_resume: Optional[Callable[[dict], None]] = None
                      ) -> List[dict]:
    """Run a leased pipeline unit as its holder — the one path
    ``repro work`` and the coordinator's local fallback share.

    The unit resumes from the envelope its ``grant`` carries
    (``on_resume(envelope)`` hears of it first; an envelope this build
    cannot validate restarts the unit from request zero), hands every
    ``checkpoint_every``-th chunk-seam envelope to ``upload(envelope)``,
    reports each chunk to ``on_chunk``, and parks at the next seam once
    ``park()`` is true: the final envelope is uploaded, then
    :class:`PipelineCheckpointed` raised."""
    from repro.experiments.executors import pipeline_rows

    envelope = grant.get("checkpoint")

    def attempt(resume_from):
        return pipeline_rows(
            job.params, on_chunk=on_chunk,
            checkpoint_every=int(grant.get("checkpoint_every", 0)),
            checkpoint_request=park, resume_from=resume_from,
            on_checkpoint=lambda state, chunks, requests_done: upload(state))

    if envelope is not None:
        if on_resume is not None:
            on_resume(envelope)
        try:
            return attempt(dict(envelope))
        except CheckpointError:
            pass  # another build's or computation's envelope
    return attempt(None)


class SweepCoordinator:
    """Drives one sweep's job list to completion over remote workers,
    with the local pool as the degradation floor.

    The flow mirrors :meth:`Runner.run` exactly: every job is sharded
    into a content-addressed unit (``pipeline_run`` jobs as singleton,
    checkpoint-migratable units); whole-unit cache hits are answered by
    the coordinator when it is built, before any lease, through the
    same two-level lookup a local run uses, and never dispatched; every
    committed row goes
    through :func:`remember_rows` (both cache levels); the final
    rows-per-job list is assembled in job order. Distribution is
    unobservable in the output by construction.
    """

    def __init__(self, jobs: Sequence[Job],
                 cache: Optional[ResultCache] = None,
                 local_workers: Optional[int] = None,
                 host: str = "127.0.0.1", port: Optional[int] = 0,
                 unit_jobs: Optional[int] = None,
                 lease_seconds: float = 10.0,
                 wait_workers: float = 0.0,
                 checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
                 journal_path: Optional[str] = None,
                 journal_meta: Optional[dict] = None,
                 pool_manager=None):
        self.jobs = list(jobs)
        self.journal_path = journal_path
        self.cache = cache
        self.local_workers = local_workers
        #: borrowed WorkerPoolManager for the local-fallback runner (the
        #: service lends its shared, fd-safe pool; Runner.close leaves
        #: borrowed managers untouched)
        self.pool_manager = pool_manager
        self.wait_workers = float(wait_workers)

        fingerprint = cache.fingerprint if cache is not None else code_fingerprint()
        size = unit_jobs or default_unit_jobs(len(self.jobs))
        # shard in job order; a pipeline job always gets its own unit so
        # a checkpoint envelope (one pipeline per envelope) maps 1:1
        self._unit_indices: List[List[int]] = []
        batch: List[int] = []
        for i, job in enumerate(self.jobs):
            if job.executor == PIPELINE_EXECUTOR:
                if batch:
                    self._unit_indices.append(batch)
                    batch = []
                self._unit_indices.append([i])
            else:
                batch.append(i)
                if len(batch) >= size:
                    self._unit_indices.append(batch)
                    batch = []
        if batch:
            self._unit_indices.append(batch)

        units = [[self.jobs[i] for i in chunk] for chunk in self._unit_indices]
        unit_fingerprints = [
            self._pipeline_unit_fingerprint(unit) for unit in units]
        self.state = CoordinatorState(
            units, fingerprint=fingerprint, lease_seconds=lease_seconds,
            on_commit=self._on_commit,
            unit_fingerprints=unit_fingerprints,
            checkpoint_every=checkpoint_every,
            cache_lookup=lambda index: recall_unit(units[index], cache),
            cache_counters=(lambda: cache.counters) if cache is not None else None,
            journal_path=journal_path,
            journal_meta=journal_meta)
        self.server: Optional[CoordinatorServer] = None
        if units and port is not None:
            self.server = CoordinatorServer(self.state, host=host, port=port)

    @staticmethod
    def _pipeline_unit_fingerprint(unit_jobs: List[Job]) -> Optional[dict]:
        if len(unit_jobs) != 1 or unit_jobs[0].executor != PIPELINE_EXECUTOR:
            return None
        from repro.experiments.executors import pipeline_fingerprint

        return pipeline_fingerprint(unit_jobs[0].params)

    def _on_commit(self, unit_index: int, jobs: List[Job],
                   rows_per_job: List[List[dict]]) -> None:
        for job, rows in zip(jobs, rows_per_job):
            remember_rows(job, rows, self.cache)

    @property
    def url(self) -> Optional[str]:
        return self.server.url if self.server is not None else None

    def run(self, on_chunk=None, on_resume=None,
            park=None) -> List[List[dict]]:
        """Block until every unit is committed and the remote workers
        have heard ``done`` (see :meth:`_linger`); returns rows per job
        in job order. Raises :class:`JobExecutionError` if any job
        failed deterministically (mirroring the local runner). The
        hooks reach every pipeline unit the local fallback runs (see
        :func:`run_pipeline_unit`); a :class:`PipelineCancelled` raised
        by ``on_chunk``, or the :class:`PipelineCheckpointed` of a unit
        ``park`` parked, propagates with the journal left in place."""
        try:
            if self._unit_indices:
                self._drive(on_chunk=on_chunk, on_resume=on_resume, park=park)
                self._linger()
        finally:
            self.close()
        if self.state.failure is not None:
            err = self.state.failure
            raise JobExecutionError(err.get("executor", "?"),
                                    err.get("params", "{}"),
                                    err.get("cause", "remote job failed"))
        # the units are consecutive slices of the job list, in order
        return [rows for unit_rows in self.state.results()
                for rows in unit_rows]

    def _drive(self, **hooks) -> None:
        """The degradation loop: while remote workers are live, just
        wait for commits; when none are (and the ``wait_workers`` grace
        has passed), lease units to the local pool through the very
        same state machine — first valid result wins either way, so a
        worker that reappears mid-fallback is harmless. Without a
        listener no worker can appear, so the local pool leases from the
        first pass: one unit at a time, each run to its commit before
        the next lease.
        A multi-chunk pipeline unit runs on this thread through
        :func:`run_pipeline_unit`, journaling its seams through
        ``state.checkpoint`` like a remote holder's uploads."""
        start = time.monotonic()
        runner: Optional[Runner] = None
        try:
            while not self.state.done:
                if self.server is not None and (
                        self.state.live_remote_workers() > 0
                        or time.monotonic() - start < self.wait_workers):
                    time.sleep(POLL_SECONDS)
                    continue
                reply = self.state.lease(LOCAL_WORKER)
                if reply["event"] == "done":
                    break
                if reply["event"] != "lease":
                    time.sleep(POLL_SECONDS)
                    continue
                if runner is None:
                    runner = Runner(workers=self.local_workers,
                                    pool_manager=self.pool_manager)
                unit_jobs = protocol.jobs_from_wire(reply["jobs"])
                try:
                    if reply.get("pipeline"):
                        rows = [self._run_pipeline(reply, unit_jobs[0],
                                                   runner, **hooks)]
                    else:
                        rows = runner.compute_rows(unit_jobs)
                except JobExecutionError as exc:
                    self.state.fail(LOCAL_WORKER, reply["unit"], reply["key"],
                                    {"executor": exc.job.executor,
                                     "params": exc.job.params_json,
                                     "cause": exc.cause})
                    break
                self.state.commit(LOCAL_WORKER, reply["unit"], reply["key"],
                                  reply["lease"], rows)
        finally:
            if runner is not None:
                runner.close()

    def _run_pipeline(self, grant: dict, job: Job, runner: Runner,
                      on_chunk=None, on_resume=None,
                      park=None) -> List[dict]:
        from repro.experiments.executors import pipeline_extent

        total, chunk_requests = pipeline_extent(job.params)
        if ("checkpoint" not in grant and 0 < total <= chunk_requests
                and not (park and park())):
            # one chunk has no seam to journal, park or stream at, so
            # this thread gains nothing: compute it on the pool, off the
            # interpreter lock the caller shares
            rows = runner.compute_rows([job])[0]
            if on_chunk is not None:
                on_chunk(1, total, total)
            return rows
        if self.journal_path is None:
            # no successor can take over this thread's unit, and no
            # journal outlives it: a periodic seam would keep nothing
            grant = dict(grant, checkpoint_every=0)

        def upload(envelope: dict) -> None:
            self.state.checkpoint(LOCAL_WORKER, grant["unit"], grant["key"],
                                  grant["lease"], envelope)

        try:
            return run_pipeline_unit(grant, job, upload, park=park,
                                     on_chunk=on_chunk, on_resume=on_resume)
        except (PipelineCancelled, PipelineCheckpointed):
            raise
        except Exception as exc:  # deterministic executor failure
            raise JobExecutionError(job.executor, job.params_json,
                                    f"{type(exc).__name__}: {exc}") from None

    def _linger(self) -> None:
        """Keep the server up after the last commit until every remote
        worker seen within the last lease term has been answered
        ``done`` or has deregistered — at most one lease term, in case
        one went silent. Closing at once would leave a worker napping
        between lease requests to find the port closed and spend its
        reconnect budget on a run that is over."""
        deadline = time.monotonic() + self.state.lease_seconds
        while self.state.awaiting_done() and time.monotonic() < deadline:
            time.sleep(POLL_SECONDS)

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None
        self.state.close()

    def discard_journal(self) -> None:
        """Delete the journal after the results have been delivered —
        the sweep is over, so durable re-offerable state would only
        confuse (or mis-resume) an unrelated future run at this path."""
        self.state.close()
        if self.journal_path is not None:
            try:
                os.unlink(self.journal_path)
            except FileNotFoundError:
                pass
