"""The ``repro serve`` daemon: an asyncio HTTP/NDJSON front door over
the sweep runner and the streaming trace pipeline.

Architecture (all stdlib):

* the **asyncio loop** owns every piece of coordination state — the
  :class:`~repro.service.coalescer.JobCoalescer`, subscriber queues,
  flight lifecycle — so none of it needs locking;
* each admitted job becomes a :class:`~repro.service.coalescer.Flight`
  executed on a small ``ThreadPoolExecutor`` (``max_running`` threads —
  the occupancy half of the admission model); the thread drives the
  ordinary blocking engine (:class:`~repro.experiments.runner.Runner`
  for sweeps, :func:`~repro.experiments.executors.pipeline_rows` for
  pipelines) and publishes events back via ``call_soon_threadsafe``.
  A pipeline that fits one chunk has no seam to stream at, so its
  thread hands it to the worker pool like a sweep job: the pipeline's
  Python loops then hold a worker's interpreter lock, not the one the
  event loop and the sweep hand-offs share;
* every flight's runner borrows the one shared
  :class:`~repro.experiments.pool.WorkerPoolManager` — process-pool
  ownership is the service's, not any single request's — and the shared
  on-disk :class:`~repro.experiments.cache.ResultCache`, so identical
  work is deduplicated at three levels: in-flight (coalescer), in-memory
  (runner first-level cache), on disk;
* **backpressure** is admission-controlled: a submission past capacity
  gets an immediate ``429`` + ``Retry-After`` instead of a queue slot;
* **cancellation** is subscription-driven and cooperative: when a
  flight's last client disconnects, its cancel flag trips and the
  engine stops at the next chunk (pipeline) or job-slice (sweep)
  boundary, releasing the executor slot.

Results are bit-identical to the direct APIs (``Runner.run`` /
``TracePipeline.run``): the service *is* those APIs, sliced for
streaming — same executors, same caches, same content-addressed keys.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import signal
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, Optional

from repro.checkpoint import CheckpointError, load_checkpoint
from repro.experiments import ResultCache, ResultTable, get_sweep
from repro.experiments.cache import code_fingerprint
from repro.experiments.executors import pipeline_extent, pipeline_rows
from repro.experiments.pool import WorkerPoolManager
from repro.experiments.runner import (
    JobExecutionError,
    Runner,
    default_workers,
    recall_rows,
    remember_rows,
)
from repro.mem.pipeline import PipelineCancelled, PipelineCheckpointed
from repro.service.admission import AdmissionController
from repro.service.coalescer import END_OF_STREAM, Flight, JobCoalescer
from repro.service.metrics import (
    ServiceMetrics,
    merge_cache_stats,
    merge_recovery_stats,
)
from repro.service.protocol import (
    ProtocolError,
    encode_event,
    parse_job_request,
    rejection_body,
)
from repro.testing import faults

_MAX_BODY_BYTES = 1 << 20  # a job request is a description, not data


class FlightCancelled(RuntimeError):
    """Raised inside a flight when every subscriber has disconnected."""


def _service_pool_context() -> Optional[str]:
    """Start method for the service's worker pools.

    A daemon must never plain-fork once clients are connected: the fork
    duplicates every live connection fd (and the loop's epoll
    registrations) into the pool workers, after which writes on those
    connections can be silently lost. ``forkserver`` forks workers from
    a clean template process instead — started eagerly in
    :meth:`ReproService.serve_forever` *before* the listener binds — so
    even a mid-serve pool rebuild (the post-failure recovery path)
    never forks the connection-holding process. ``spawn`` is the
    fd-safe fallback where forkserver is unavailable.
    """
    methods = multiprocessing.get_all_start_methods()
    if "forkserver" in methods:
        return "forkserver"
    if "spawn" in methods:
        return "spawn"
    return None


@dataclass
class ServeConfig:
    host: str = "127.0.0.1"
    port: int = 8787            # 0 = ephemeral (bound port on self.port)
    workers: Optional[int] = None   # sweep process-pool width
    max_running: int = 2        # concurrent executing flights
    max_queued: int = 8         # admitted flights waiting for a thread
    cache: bool = True          # shared on-disk ResultCache
    cache_dir: Optional[str] = None
    stream_jobs: Optional[int] = None  # sweep jobs per partial-rows event
    #: directory for pipeline flight checkpoints; None disables both
    #: periodic checkpointing and drain-time checkpoint/resume
    checkpoint_dir: Optional[str] = None
    #: write a checkpoint every N pipeline chunks (0 = only on drain)
    checkpoint_every: int = 0
    #: seconds to wait for in-flight work after a drain begins before
    #: forcing shutdown
    drain_grace: float = 10.0
    #: fan flights out through a SweepCoordinator (``repro work``
    #: workers join at dist_host:dist_port); the local pool remains the
    #: degradation floor when no workers are live
    distributed: bool = False
    dist_host: str = "127.0.0.1"
    #: fixed (not ephemeral) so parked workers with
    #: ``--reconnect-timeout 0`` rejoin between flights and across
    #: daemon restarts
    dist_port: int = 8790
    dist_lease_seconds: float = 10.0
    #: seconds to hold work for remote workers before the local
    #: fallback starts leasing (0 = fall back immediately when none
    #: are live)
    dist_wait_workers: float = 0.0


class ReproService:
    """One daemon instance: owns the pools, the caches, the capacity."""

    def __init__(self, config: Optional[ServeConfig] = None):
        self.config = config or ServeConfig()
        self.workers = (default_workers() if self.config.workers is None
                        else max(1, int(self.config.workers)))
        self.pool_manager = WorkerPoolManager(context=_service_pool_context())
        self.cache = (ResultCache(self.config.cache_dir)
                      if self.config.cache else None)
        self.metrics = ServiceMetrics()
        self.admission = AdmissionController(self.config.max_running,
                                             self.config.max_queued)
        self.coalescer = JobCoalescer()
        self._flight_executor = ThreadPoolExecutor(
            max_workers=self.config.max_running,
            thread_name_prefix="repro-flight")
        self._fingerprint = code_fingerprint()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._shutdown: Optional[asyncio.Event] = None
        self.port: Optional[int] = None  # bound port once serving
        self._draining = False
        self._connections: set = set()  # live client-connection tasks
        self._flight_seq = 0   # fault-site index for service.flight
        self._stream_seq = 0   # fault-site index for service.stream
        # one CoordinatorServer owns the fixed dist_port at a time, so
        # distributed flights execute serially (coalescing and caches
        # still make concurrent identical submissions cheap)
        self._dist_lock = threading.Lock()

    # -- lifecycle ---------------------------------------------------------

    async def serve_forever(self, ready: Optional[threading.Event] = None) -> None:
        """Bind, announce, serve until :meth:`request_shutdown`."""
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        if self.workers > 1:
            # Warm the pool (and the forkserver template it forks from)
            # before the listener binds: no worker process may ever be
            # forked while a client connection fd is open in this
            # process — see _service_pool_context.
            self.pool_manager.pool(self.workers)
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                self._loop.add_signal_handler(sig, self._begin_drain)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # non-main thread or platform without signal support
        server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port)
        self.port = server.sockets[0].getsockname()[1]
        print(f"repro serve listening on http://{self.config.host}:{self.port} "
              f"(workers={self.workers}, max_running={self.config.max_running}, "
              f"max_queued={self.config.max_queued}, "
              f"cache={'on' if self.cache else 'off'})",
              file=sys.stderr, flush=True)
        if self.config.distributed:
            print(f"repro serve: distributed mode — workers join at "
                  f"http://{self.config.dist_host}:{self.config.dist_port} "
                  f"during flights (local-pool fallback after "
                  f"{self.config.dist_wait_workers:g}s without workers)",
                  file=sys.stderr, flush=True)
        self._resume_checkpointed_flights()
        self._resume_journaled_flights()
        if ready is not None:
            ready.set()
        async with server:
            await self._shutdown.wait()
        self._flight_executor.shutdown(wait=False)
        self.pool_manager.close()

    def _begin_drain(self) -> None:
        """Graceful shutdown, phase one (loop thread): stop admitting,
        ask every in-flight pipeline to checkpoint at its next chunk
        seam, and force shutdown after the grace period if work is
        still running. Idempotent — repeated signals don't reset the
        grace timer."""
        if self._draining:
            return
        self._draining = True
        print(f"repro serve: draining ({self.coalescer.inflight} in flight, "
              f"grace {self.config.drain_grace:g}s)",
              file=sys.stderr, flush=True)
        for flight in list(self.coalescer._flights.values()):
            flight.checkpoint_now.set()
        if self.coalescer.inflight == 0:
            self._loop.create_task(self._drain_complete())
        else:
            self._loop.call_later(self.config.drain_grace, self._shutdown.set)

    async def _drain_complete(self) -> None:
        """Drain, phase two: every flight has landed, but their terminal
        events may still be queued behind open connections — let those
        streams flush before the loop (and its tasks) go down."""
        live = {task for task in self._connections
                if task is not asyncio.current_task()}
        if live:
            await asyncio.wait(live, timeout=5.0)
        self._shutdown.set()

    def request_shutdown(self) -> None:
        """Stop serving (threadsafe; callable from signal handlers or
        other threads)."""
        if self._loop is not None and self._shutdown is not None:
            self._loop.call_soon_threadsafe(self._shutdown.set)

    # -- HTTP plumbing -----------------------------------------------------

    @staticmethod
    def _head(status: str, content_type: str, extra: Dict[str, str],
              length: Optional[int]) -> bytes:
        lines = [f"HTTP/1.1 {status}",
                 f"Content-Type: {content_type}",
                 "Connection: close",
                 "Cache-Control: no-store"]
        if length is not None:
            lines.append(f"Content-Length: {length}")
        lines.extend(f"{name}: {value}" for name, value in extra.items())
        return ("\r\n".join(lines) + "\r\n\r\n").encode()

    async def _respond_json(self, writer, status: str, payload: dict,
                            extra: Optional[Dict[str, str]] = None) -> None:
        body = (json.dumps(payload) + "\n").encode()
        writer.write(self._head(status, "application/json", extra or {},
                                len(body)) + body)
        await writer.drain()

    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            request_line = await reader.readline()
            parts = request_line.decode("latin-1").split()
            if len(parts) < 3:
                return
            method, target = parts[0], parts[1]
            headers: Dict[str, str] = {}
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            length = int(headers.get("content-length", 0))
            if length > _MAX_BODY_BYTES:
                await self._respond_json(writer, "413 Payload Too Large",
                                         {"error": "request body too large"})
                return
            body = await reader.readexactly(length) if length else b""
            await self._route(method, target, body, reader, writer)
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError):
            pass
        except Exception as error:  # a handler bug must not kill the loop
            try:
                await self._respond_json(
                    writer, "500 Internal Server Error",
                    {"error": f"{type(error).__name__}: {error}"})
            except (ConnectionResetError, BrokenPipeError):
                pass
        finally:
            self._connections.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _route(self, method: str, target: str, body: bytes,
                     reader, writer) -> None:
        target = target.split("?", 1)[0]
        if method == "GET" and target == "/metrics":
            await self._respond_json(writer, "200 OK", self.metrics_snapshot())
            return
        if method == "GET" and target == "/healthz":
            await self._respond_json(writer, "200 OK", {"ok": True})
            return
        if method == "POST" and target == "/v1/jobs":
            await self._handle_job(body, reader, writer)
            return
        await self._respond_json(writer, "404 Not Found",
                                 {"error": f"no route {method} {target}"})

    # -- metrics -----------------------------------------------------------

    def metrics_snapshot(self) -> dict:
        merge_cache_stats(self.metrics, self.cache)
        merge_recovery_stats(self.metrics)
        gauges = {**self.admission.gauges(), **self.coalescer.gauges(),
                  "pool_workers": self.pool_manager.active_workers,
                  "sweep_workers": self.workers,
                  "distributed": self.config.distributed,
                  "draining": self._draining}
        snapshot = self.metrics.snapshot(gauges)
        snapshot["protocol_version"] = 1
        return snapshot

    # -- the job endpoint --------------------------------------------------

    async def _handle_job(self, body: bytes, reader, writer) -> None:
        self.metrics.incr("requests_total")
        if self._draining:
            retry = max(1, int(round(self.config.drain_grace)))
            self.metrics.incr("rejected_total")
            await self._respond_json(
                writer, "503 Service Unavailable",
                {"error": "draining", "retry_after": retry},
                extra={"Retry-After": str(retry)})
            return
        try:
            request = parse_job_request(json.loads(body.decode()))
        except (ProtocolError, json.JSONDecodeError, UnicodeDecodeError) as error:
            self.metrics.incr("bad_requests_total")
            await self._respond_json(writer, "400 Bad Request",
                                     {"error": str(error)})
            return
        key = request.key(self._fingerprint)
        flight = self.coalescer.peek(key)
        coalesced = flight is not None
        if coalesced:
            self.metrics.incr("coalesced_total")
        else:
            decision = self.admission.try_admit(
                self.metrics.expected_flight_seconds)
            if not decision.admitted:
                self.metrics.incr("rejected_total")
                await self._respond_json(
                    writer, "429 Too Many Requests",
                    rejection_body(decision.retry_after, decision.queued,
                                   decision.running),
                    extra={"Retry-After": str(decision.retry_after)})
                return
            self.metrics.incr("admitted_total")
            flight = self.coalescer.create(key, request)
            self._loop.run_in_executor(self._flight_executor,
                                       self._run_flight, flight)
        queue = flight.subscribe()

        writer.write(self._head("200 OK", "application/x-ndjson", {}, None))
        accepted = {"event": "accepted", "key": key, "coalesced": coalesced,
                    **request.describe()}
        await self._stream(writer, reader, flight, queue, accepted)

    async def _stream(self, writer, reader, flight: Flight, queue,
                      accepted: dict) -> None:
        """Pump flight events to one client until the stream or the
        client ends — whichever first. A client EOF mid-flight is the
        cancellation signal (subscription-driven)."""
        eof_watch = asyncio.ensure_future(reader.read())
        getter = None
        try:
            writer.write(encode_event(accepted))
            await writer.drain()
            self.metrics.incr("events_streamed_total")
            while True:
                getter = asyncio.ensure_future(queue.get())
                done, _ = await asyncio.wait(
                    {getter, eof_watch}, return_when=asyncio.FIRST_COMPLETED)
                if getter not in done:   # client hung up first
                    getter.cancel()
                    break
                event = getter.result()
                if event is END_OF_STREAM:
                    break
                if faults.enabled():
                    faults.fire("service.stream", self._stream_seq)
                self._stream_seq += 1
                writer.write(encode_event(event))
                await writer.drain()
                self.metrics.incr("events_streamed_total")
                if "rows" in event:
                    self.metrics.incr("rows_streamed_total",
                                      len(event["rows"]))
                elif "table" in event:
                    self.metrics.incr("rows_streamed_total",
                                      len(event["table"]["rows"]))
        except (ConnectionResetError, BrokenPipeError):
            if getter is not None:
                getter.cancel()
        finally:
            eof_watch.cancel()
            flight.unsubscribe(queue)

    # -- flight execution (worker threads) ---------------------------------

    def _emit(self, flight: Flight, event: dict) -> None:
        self._loop.call_soon_threadsafe(flight.publish, event)

    def _run_flight(self, flight: Flight) -> None:
        if flight.cancel.is_set():
            # every subscriber vanished while the flight was queued;
            # don't burn an executor slot computing for nobody
            self.metrics.incr("cancelled_total")
            self._loop.call_soon_threadsafe(
                self._finish_flight, flight,
                {"event": "cancelled", "reason": "abandoned before start"},
                None, False)
            return
        flight.started = True
        self._loop.call_soon_threadsafe(self.admission.on_start)
        self.metrics.incr("executions_total")
        if faults.enabled():
            faults.fire("service.flight", self._flight_seq)
        self._flight_seq += 1
        started = time.perf_counter()
        try:
            if flight.request.kind == "sweep":
                final = self._execute_sweep(flight)
            else:
                final = self._execute_pipeline(flight)
            self.metrics.incr("completed_total")
        except (FlightCancelled, PipelineCancelled) as error:
            self.metrics.incr("cancelled_total")
            final = {"event": "cancelled", "reason": str(error)}
        except PipelineCheckpointed as checkpointed:
            # a drain caught this flight mid-stream: its state is on
            # disk and the restarted daemon will pick it up
            final = {"event": "checkpointed",
                     "checkpoint": checkpointed.path,
                     "chunks": checkpointed.chunks,
                     "requests_done": checkpointed.requests_done}
        except JobExecutionError as error:
            self.metrics.incr("failed_total")
            final = {"event": "error", "message": str(error),
                     "executor": error.job.executor,
                     "params": error.job.params_json}
        except Exception as error:
            self.metrics.incr("failed_total")
            final = {"event": "error",
                     "message": f"{type(error).__name__}: {error}"}
        latency = time.perf_counter() - started
        self._loop.call_soon_threadsafe(self._finish_flight, flight, final,
                                        latency, True)

    def _finish_flight(self, flight: Flight, final: dict,
                       latency: Optional[float], started: bool) -> None:
        flight.publish(final, final=True)
        self.coalescer.finish(flight.key)
        if started:
            self.admission.on_finish()
        else:
            self.admission.on_abandon()
        if latency is not None:
            self.metrics.observe_flight(latency)
        if self._draining and self.coalescer.inflight == 0:
            # drain complete: don't wait out the grace (but do let open
            # streams deliver the terminal events just published)
            self._loop.create_task(self._drain_complete())

    def _check_cancel(self, flight: Flight) -> None:
        if flight.cancel.is_set():
            raise FlightCancelled("every subscriber disconnected")

    def _execute_sweep(self, flight: Flight) -> dict:
        request = flight.request
        jobs = request.jobs()
        definition = get_sweep(request.preset) if request.preset else None
        if self.config.distributed:
            rows_per_job = self._run_distributed(flight, jobs)
            rows = [row for job_rows in rows_per_job for row in job_rows]
        else:
            runner = Runner(workers=self.workers, cache=self.cache,
                            pool_manager=self.pool_manager)
            stride = self.config.stream_jobs or max(4, runner.workers * 2)
            rows = []
            for start in range(0, len(jobs), stride):
                self._check_cancel(flight)
                slice_rows = runner.run(jobs[start:start + stride]).rows
                self._emit(flight, {"event": "rows", "index": start,
                                    "rows": slice_rows})
                rows.extend(slice_rows)
        table = ResultTable(
            rows, columns=definition.columns if definition else None)
        if definition is not None and definition.post is not None:
            table = definition.post(table)
        return {"event": "result", "kind": "sweep",
                "table": {"columns": table.columns, "rows": table.rows}}

    def _flight_checkpoint_path(self, key: str) -> Optional[str]:
        if not self.config.checkpoint_dir:
            return None
        return os.path.join(self.config.checkpoint_dir, key + ".ckpt")

    def _execute_pipeline(self, flight: Flight) -> dict:
        job = flight.request.jobs()[0]
        rows = recall_rows(job, self.cache)
        cached = rows is not None
        if rows is None and self.config.distributed:
            # the coordinator's checkpoint migration + journal replace
            # the local checkpoint file for durability; completed rows
            # land in both cache levels exactly as the local path's do
            rows = self._run_distributed(flight, [job])[0]
            remember_rows(job, rows, self.cache)
        elif rows is None:
            def on_chunk(chunk, requests_done, total_requests):
                self._check_cancel(flight)
                self._emit(flight, {"event": "progress", "chunk": chunk,
                                    "requests_done": requests_done,
                                    "total_requests": total_requests})

            ckpt_path = self._flight_checkpoint_path(flight.key)
            ckpt_kwargs: Dict[str, object] = {}
            resume_from = None
            if ckpt_path is not None:
                if os.path.exists(ckpt_path):
                    try:
                        resume_from = load_checkpoint(ckpt_path,
                                                      kind="trace-pipeline")
                    except CheckpointError:
                        resume_from = None  # stale/corrupt: full recompute
                if resume_from is not None:
                    self.metrics.incr("flights_resumed_total")
                    self._emit(flight, {
                        "event": "resumed",
                        "requests_done": resume_from.get("cursor"),
                        "chunks": resume_from.get("chunks")})
                ckpt_kwargs = dict(
                    checkpoint_path=ckpt_path,
                    checkpoint_every=self.config.checkpoint_every,
                    checkpoint_request=flight.checkpoint_now.is_set,
                    resume_from=resume_from,
                    on_checkpoint=lambda *_: self.metrics.incr(
                        "checkpoints_written_total"),
                    # the full pipeline_run params travel in the
                    # envelope so a restarted daemon can rebuild the
                    # JobRequest and resume the flight unprompted
                    checkpoint_meta={"job": {"kind": "pipeline",
                                             "params": job.params}})
            total, chunk_requests = pipeline_extent(job.params)
            if (0 < total <= chunk_requests and resume_from is None
                    and not flight.checkpoint_now.is_set()):
                # one chunk has no seam to stream, cancel or checkpoint
                # at, so a thread gains nothing: compute it on the pool,
                # off the interpreter lock the loop and sweeps share
                self._check_cancel(flight)
                rows = Runner(self.workers, pool_manager=self.pool_manager
                              ).compute_rows([job])[0]
                on_chunk(1, total, total)
            else:
                rows = pipeline_rows(job.params, on_chunk=on_chunk,
                                     should_stop=flight.cancel.is_set,
                                     **ckpt_kwargs)
            remember_rows(job, rows, self.cache)
            if ckpt_path is not None:
                try:
                    os.unlink(ckpt_path)  # completed: checkpoint spent
                except OSError:
                    pass
        return {"event": "result", "kind": "pipeline", "cached": cached,
                "rows": rows}

    # -- distributed execution ----------------------------------------------

    def _journal_path(self, key: str) -> Optional[str]:
        if not self.config.checkpoint_dir:
            return None
        return os.path.join(self.config.checkpoint_dir, key + ".journal")

    def _spawn_coordinator(self, flight: Flight, jobs,
                           journal_path: Optional[str]):
        # imported here, not at module top: repro.distributed's wire
        # protocol reuses repro.service.protocol's framing, so a
        # module-level import would be circular
        from repro.distributed import JournalError, SweepCoordinator

        kwargs = dict(
            cache=self.cache, local_workers=self.workers,
            host=self.config.dist_host, port=self.config.dist_port,
            lease_seconds=self.config.dist_lease_seconds,
            wait_workers=self.config.dist_wait_workers,
            pool_manager=self.pool_manager,
            journal_path=journal_path,
            # the request rides in the journal header so a restarted
            # daemon can rebuild this flight without a client attached
            journal_meta={"request": flight.request.resubmit_body()})
        try:
            return SweepCoordinator(jobs, **kwargs)
        except JournalError as error:
            # an unusable journal must not wedge this flight key
            # forever: quarantine the evidence, restart from scratch
            self.metrics.incr("journals_quarantined_total")
            quarantined = journal_path + ".corrupt"
            os.replace(journal_path, quarantined)
            print(f"repro serve: quarantined unusable journal "
                  f"{os.path.basename(journal_path)} -> "
                  f"{os.path.basename(quarantined)} ({error})",
                  file=sys.stderr, flush=True)
            return SweepCoordinator(jobs, **kwargs)

    def _run_distributed(self, flight: Flight, jobs) -> list:
        """Execute one flight's jobs through a :class:`SweepCoordinator`
        bound to the fixed distributed port, journaled under the
        checkpoint directory so a daemon crash mid-flight resumes from
        committed units instead of recomputing. Returns rows per job in
        job order — bit-identical to the local path by the coordinator's
        construction."""
        self._check_cancel(flight)
        journal_path = self._journal_path(flight.key)
        with self._dist_lock:
            coordinator = self._spawn_coordinator(flight, jobs, journal_path)
            self.metrics.incr("distributed_flights_total")
            replayed = coordinator.state.counters["journal_replayed_units"]
            if replayed:
                self.metrics.incr("journal_units_replayed_total", replayed)
            self._emit(flight, {"event": "distributed",
                                "url": coordinator.url,
                                "epoch": coordinator.state.epoch,
                                "replayed_units": replayed})
            rows_per_job = coordinator.run()
            # only after the rows are in hand (and, via on_commit, in
            # the shared caches) is the durable state safe to drop; on
            # any failure above the journal stays for the next attempt
            coordinator.discard_journal()
            return rows_per_job

    # -- restart recovery ---------------------------------------------------

    def _resume_journaled_flights(self) -> None:
        """Distributed counterpart of checkpoint resume: a journal left
        in the checkpoint directory belongs to a flight a previous
        daemon instance died inside. Rebuild the request from the
        journal header's metadata and re-dispatch it — the coordinator's
        recovery marks journaled units done, so only the remainder is
        recomputed. Like checkpoint resume, the flight has no
        subscribers; its rows land in the shared caches."""
        directory = self.config.checkpoint_dir
        if (not self.config.distributed or not directory
                or not os.path.isdir(directory)):
            return
        from repro.distributed import JournalError
        from repro.distributed.journal import journal_meta as read_journal_meta

        for name in sorted(os.listdir(directory)):
            if not name.endswith(".journal"):
                continue
            path = os.path.join(directory, name)
            try:
                meta = read_journal_meta(path)
            except JournalError as error:
                self.metrics.incr("journals_quarantined_total")
                quarantined = path + ".corrupt"
                try:
                    os.replace(path, quarantined)
                except OSError:
                    quarantined = path
                print(f"repro serve: quarantined unreadable journal "
                      f"{name} -> {os.path.basename(quarantined)} ({error})",
                      file=sys.stderr, flush=True)
                continue
            body = meta.get("request") if isinstance(meta, dict) else None
            if not isinstance(body, dict):
                continue
            try:
                request = parse_job_request(body)
            except ProtocolError:
                continue
            key = request.key(self._fingerprint)
            if key + ".journal" != name:
                # journaled under a different code fingerprint: recovery
                # would refuse the replay anyway — drop it
                try:
                    os.unlink(path)
                except OSError:
                    pass
                continue
            if self.coalescer.peek(key) is not None:
                continue
            decision = self.admission.try_admit(
                self.metrics.expected_flight_seconds)
            if not decision.admitted:
                break  # capacity full; the rest resume on client demand
            self.metrics.incr("admitted_total")
            self.metrics.incr("flights_resumed_total")
            flight = self.coalescer.create(key, request)
            print(f"repro serve: resuming journaled flight {key[:12]}… "
                  f"({request.kind})", file=sys.stderr, flush=True)
            self._loop.run_in_executor(self._flight_executor,
                                       self._run_flight, flight)

    def _resume_checkpointed_flights(self) -> None:
        """Scan the checkpoint directory at startup and re-dispatch
        every flight a previous daemon instance left checkpointed. A
        resumed flight has no subscribers — its result lands in the
        shared caches, so the client that retries after the restart
        gets a cache hit instead of a recompute from request zero."""
        directory = self.config.checkpoint_dir
        if not directory or not os.path.isdir(directory):
            return
        for name in sorted(os.listdir(directory)):
            if not name.endswith(".ckpt"):
                continue
            path = os.path.join(directory, name)
            try:
                state = load_checkpoint(path, kind="trace-pipeline")
            except CheckpointError as error:
                # quarantine rather than skip: a corrupt/truncated/
                # future-version envelope left in place would be
                # re-parsed (and re-logged) on every restart, and a
                # writer crash mid-publish must never look like "no
                # checkpoint" silently — the .corrupt file preserves
                # the evidence
                quarantined = path + ".corrupt"
                try:
                    os.replace(path, quarantined)
                except OSError:
                    quarantined = path
                print(f"repro serve: quarantined unreadable checkpoint "
                      f"{name} -> {os.path.basename(quarantined)} ({error})",
                      file=sys.stderr, flush=True)
                continue
            meta = state.get("meta") or {}
            job_meta = meta.get("job") if isinstance(meta, dict) else None
            params = job_meta.get("params") if isinstance(job_meta, dict) else None
            if not isinstance(params, dict) or job_meta.get("kind") != "pipeline":
                continue
            try:
                request = parse_job_request({
                    "kind": "pipeline",
                    "workload": params["workload"],
                    "schemes": params["schemes"],
                    "chunk_requests": params["chunk_requests"],
                    "params": {k: v for k, v in params.items()
                               if k not in ("workload", "schemes",
                                            "chunk_requests")},
                })
            except (ProtocolError, KeyError):
                continue
            key = request.key(self._fingerprint)
            if key + ".ckpt" != name:
                # written under a different code fingerprint: the
                # bit-identity contract only holds within one build, so
                # this checkpoint can never be resumed — drop it
                try:
                    os.unlink(path)
                except OSError:
                    pass
                continue
            if self.coalescer.peek(key) is not None:
                continue
            decision = self.admission.try_admit(
                self.metrics.expected_flight_seconds)
            if not decision.admitted:
                break  # capacity full; the rest resume on client demand
            self.metrics.incr("admitted_total")
            flight = self.coalescer.create(key, request)
            print(f"repro serve: resuming checkpointed flight {key[:12]}… "
                  f"({params.get('workload')}, cursor {state.get('cursor')})",
                  file=sys.stderr, flush=True)
            self._loop.run_in_executor(self._flight_executor,
                                       self._run_flight, flight)


def run_serve(config: ServeConfig) -> int:
    """Blocking entry point for the CLI."""
    service = ReproService(config)
    try:
        asyncio.run(service.serve_forever())
    except KeyboardInterrupt:
        print("repro serve: shutting down", file=sys.stderr)
    finally:
        service.pool_manager.close()
    return 0
