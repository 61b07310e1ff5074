"""The ``repro serve`` daemon: an asyncio HTTP/NDJSON front door over
the sweep runner and the streaming trace pipeline.

Architecture (all stdlib):

* the **asyncio loop** owns every piece of coordination state — the
  one flight table (``_flights``, job key → flight), subscriber
  queues, flight lifecycle — so none of it needs locking. Coalescing
  is a lookup in that table, admission counts its running and queued
  flights (:func:`~repro.service.admission.admit`), a drain waits for
  it to empty, and ``/metrics`` counts over a copy of it;
* each admitted job becomes a :class:`~repro.service.coalescer.Flight`
  executed on a small ``ThreadPoolExecutor`` (``max_running`` threads —
  the occupancy half of the admission model); the thread drives the
  ordinary blocking engine (:class:`~repro.experiments.runner.Runner`
  for sweeps, a :class:`~repro.distributed.SweepCoordinator` for
  pipelines and for every ``--distributed`` flight) and publishes
  events back via ``call_soon_threadsafe``. A pipeline flight's
  coordinator opens no listener unless ``--distributed``; its local
  fallback streams the pipeline on the flight thread, journaling
  chunk seams into the flight's ``<key>.journal`` under
  ``--checkpoint-dir``. A pipeline that fits one chunk has no seam to
  stream at, so the fallback hands it to the worker pool like a sweep
  job: the pipeline's Python loops then hold a worker's interpreter
  lock, not the one the event loop and the sweep hand-offs share;
* every flight's runner borrows the one shared
  :class:`~repro.experiments.pool.WorkerPoolManager` — process-pool
  ownership is the service's, not any single request's — and the shared
  on-disk :class:`~repro.experiments.cache.ResultCache`, so identical
  work is deduplicated at three levels: in-flight (the flight table),
  in-memory (runner first-level cache), on disk;
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
import contextlib
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

from repro.experiments import ResultCache, ResultTable, get_sweep
from repro.experiments.cache import code_fingerprint
from repro.experiments.pool import WorkerPoolManager
from repro.experiments.runner import (
    JobExecutionError,
    Runner,
    default_workers,
    recovery_counts,
)
from repro.mem.pipeline import PipelineCancelled, PipelineCheckpointed
from repro.service.admission import AdmissionDecision, admit
from repro.service.coalescer import END_OF_STREAM, Flight
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import (
    JobRequest,
    ProtocolError,
    content_length,
    encode_event,
    parse_job_request,
    rejection_body,
)
from repro.testing import faults

_MAX_BODY_BYTES = 1 << 20  # a job request is a description, not data

#: the durable record a flight leaves under ``checkpoint_dir`` as
#: ``<key><suffix>``: its coordinator's journal, whose header carries
#: the resubmittable request in its meta
_RECORD_SUFFIX = ".journal"


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
    #: directory for flight journals; None disables both periodic
    #: checkpointing and drain-time checkpoint/resume
    checkpoint_dir: Optional[str] = None
    #: journal a pipeline flight every N chunks (0 = only on drain, or
    #: every DEFAULT_CHECKPOINT_EVERY chunks under ``distributed``);
    #: needs ``checkpoint_dir``
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
    #: seconds to hold work for remote workers before the local
    #: fallback starts leasing (0 = fall back immediately when none
    #: are live)
    dist_wait_workers: float = 0.0

    def __post_init__(self):
        if self.max_running < 1 or self.max_queued < 0:
            raise ValueError("max_running >= 1, max_queued >= 0")
        if self.checkpoint_every and not self.checkpoint_dir:
            # periodic checkpoints are files in that directory: without
            # one, the setting would silently write nothing
            raise ValueError("--checkpoint-every needs --checkpoint-dir")


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
        #: the daemon's one record of its flights (job key → flight),
        #: written on the loop thread only
        self._flights: Dict[str, Flight] = {}
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
        # one CoordinatorServer owns the fixed dist_port at a time, so
        # distributed flights execute serially (coalescing and caches
        # still make concurrent identical submissions cheap); local
        # flights' coordinators listen nowhere and run concurrently
        self._dist_lock = (threading.Lock() if self.config.distributed
                           else contextlib.nullcontext())

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
        self._resume_flights()
        if ready is not None:
            ready.set()
        async with server:
            await self._shutdown.wait()
        self._flight_executor.shutdown(wait=False)
        self.pool_manager.close()

    def _begin_drain(self) -> None:
        """Graceful shutdown, phase one (loop thread): stop admitting,
        which also asks every in-flight pipeline to checkpoint at its
        next chunk seam (each reads ``_draining``), and force shutdown
        after the grace period if work is still running. Idempotent —
        repeated signals don't reset the grace timer."""
        if self._draining:
            return
        self._draining = True
        print(f"repro serve: draining ({len(self._flights)} in flight, "
              f"grace {self.config.drain_grace:g}s)",
              file=sys.stderr, flush=True)
        if not self._flights:
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
            try:
                length = content_length(headers.get("content-length"))
            except ProtocolError as error:
                self.metrics.incr("bad_requests_total")
                await self._respond_json(writer, "400 Bad Request",
                                         {"error": str(error)})
                return
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
        # one copy of the table: a caller off the loop thread may read
        # while the loop adds or drops a flight
        flights = list(self._flights.values())
        running = sum(flight.started for flight in flights)
        gauges = {"running": running,
                  "queued": len(flights) - running,
                  "max_running": self.config.max_running,
                  "max_queued": self.config.max_queued,
                  "inflight": len(flights),
                  "subscribers": sum(len(flight.subscribers)
                                     for flight in flights),
                  "pool_workers": self.pool_manager.active_workers,
                  "sweep_workers": self.workers,
                  "distributed": self.config.distributed,
                  "draining": self._draining}
        snapshot = self.metrics.snapshot(gauges)
        cache = (self.cache.counters if self.cache is not None
                 else dict.fromkeys(("hits", "misses", "corrupt"), 0))
        recovery = recovery_counts()
        snapshot["counters"].update(
            cache_hits_total=cache["hits"],
            cache_misses_total=cache["misses"],
            cache_corrupt_total=cache["corrupt"],
            worker_restarts_total=recovery["worker_restarts"],
            chunk_retries_total=recovery["chunk_retries"])
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
        flight = self._flights.get(key)
        coalesced = flight is not None
        if coalesced:
            self.metrics.incr("coalesced_total")
        else:
            decision = self._dispatch(key, request)
            if not decision.admitted:
                self.metrics.incr("rejected_total")
                await self._respond_json(
                    writer, "429 Too Many Requests",
                    rejection_body(decision.retry_after, decision.queued,
                                   decision.running),
                    extra={"Retry-After": str(decision.retry_after)})
                return
            flight = self._flights[key]
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

    def _dispatch(self, key: str, request: JobRequest) -> AdmissionDecision:
        """Admit a new flight for ``key`` and start it on a flight
        thread (loop thread only). A rejection starts nothing: the
        client is shed, or the startup scan stops resuming."""
        running = sum(flight.started for flight in self._flights.values())
        decision = admit(running, len(self._flights) - running,
                         self.config.max_running, self.config.max_queued,
                         self.metrics.expected_flight_seconds)
        if decision.admitted:
            self.metrics.incr("admitted_total")
            flight = self._flights[key] = Flight(key, request)
            self._loop.run_in_executor(self._flight_executor,
                                       self._run_flight, flight)
        return decision

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
                None)
            return
        flight.started = True
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
        except PipelineCancelled as error:
            self.metrics.incr("cancelled_total")
            final = {"event": "cancelled", "reason": str(error)}
        except PipelineCheckpointed as checkpointed:
            # a drain caught this flight mid-stream: its state is in
            # its journal and the restarted daemon will pick it up
            final = {"event": "checkpointed",
                     "checkpoint": self._record_path(flight.key),
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
                                        latency)

    def _finish_flight(self, flight: Flight, final: dict,
                       latency: Optional[float]) -> None:
        flight.publish(final, final=True)
        # the next identical submission starts a fresh computation (or
        # hits the result cache)
        del self._flights[flight.key]
        if final["event"] == "result":
            # only now, with the flight gone from the table: a request
            # that finds the record gone cannot join the finished flight
            self._retire(flight.key)
            self.metrics.incr("completed_total")
        if latency is not None:
            self.metrics.observe_flight(latency)
        if self._draining and not self._flights:
            # drain complete: don't wait out the grace (but do let open
            # streams deliver the terminal events just published)
            self._loop.create_task(self._drain_complete())

    def _check_cancel(self, flight: Flight) -> None:
        if flight.cancel.is_set():
            raise PipelineCancelled("every subscriber disconnected")

    def _execute_sweep(self, flight: Flight) -> dict:
        request = flight.request
        jobs = request.jobs()
        definition = get_sweep(request.preset) if request.preset else None
        if self.config.distributed:
            rows_per_job, _ = self._coordinate(flight, jobs)
            rows = [row for job_rows in rows_per_job for row in job_rows]
        else:
            runner = Runner(workers=self.workers, cache=self.cache,
                            pool_manager=self.pool_manager)
            stride = max(4, runner.workers * 2)  # jobs per rows event
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

    def _execute_pipeline(self, flight: Flight) -> dict:
        def on_chunk(chunk, requests_done, total_requests):
            self._check_cancel(flight)
            self._emit(flight, {"event": "progress", "chunk": chunk,
                                "requests_done": requests_done,
                                "total_requests": total_requests})

        def on_resume(envelope):
            self._emit(flight, {"event": "resumed",
                                "requests_done": envelope.get("cursor"),
                                "chunks": envelope.get("chunks")})

        # a drain parks the flight only where its journal can keep it
        park = ((lambda: self._draining) if self.config.checkpoint_dir
                else None)
        rows_per_job, cached = self._coordinate(
            flight, flight.request.jobs(), on_chunk=on_chunk,
            on_resume=on_resume, park=park)
        return {"event": "result", "kind": "pipeline", "cached": cached,
                "rows": rows_per_job[0]}

    # -- coordinated execution ----------------------------------------------

    def _spawn_coordinator(self, flight: Flight, jobs,
                           journal_path: Optional[str]):
        # imported here, not at module top: repro.distributed's wire
        # protocol reuses repro.service.protocol's framing, so a
        # module-level import would be circular
        from repro.distributed import (
            DEFAULT_CHECKPOINT_EVERY,
            JournalError,
            SweepCoordinator,
            journal_meta,
        )

        every = self.config.checkpoint_every
        kwargs = dict(
            cache=self.cache, local_workers=self.workers,
            pool_manager=self.pool_manager, journal_path=journal_path,
            # the request rides in the journal header so a restarted
            # daemon can rebuild this flight without a client attached
            journal_meta={"request": flight.request.resubmit_body()})
        if self.config.distributed:
            kwargs.update(host=self.config.dist_host,
                          port=self.config.dist_port,
                          wait_workers=self.config.dist_wait_workers,
                          checkpoint_every=every or DEFAULT_CHECKPOINT_EVERY)
        else:
            kwargs.update(port=None, checkpoint_every=every)
        try:
            if journal_path is not None and os.path.exists(journal_path):
                # the startup scan's check: a journal without a durable
                # header is unusable here too, not silently overwritten
                journal_meta(journal_path)
            return SweepCoordinator(jobs, **kwargs)
        except JournalError as error:
            # an unusable journal must not wedge this flight key
            # forever: quarantine the evidence, restart from scratch
            self._quarantine(journal_path, error)
            return SweepCoordinator(jobs, **kwargs)

    def _coordinate(self, flight: Flight, jobs, **hooks):
        """Execute one flight's jobs through a :class:`SweepCoordinator`,
        journaled under the checkpoint directory so a drain or a daemon
        crash mid-flight resumes from its committed units and latest
        chunk seam instead of recomputing. Under ``--distributed`` it
        listens on the fixed distributed port; otherwise it opens no
        listener and its local fallback runs every unit. ``hooks`` reach
        the pipeline units it runs locally. Returns ``(rows per job in
        job order, whether the result cache answered)`` — bit-identical
        to the direct APIs by the coordinator's construction. The
        coordinator probes and fills the result cache and closes its
        journal on the way out; the flight retires the journal once the
        rows are in hand."""
        self._check_cancel(flight)
        journal_path = self._record_path(flight.key)
        with self._dist_lock:
            coordinator = self._spawn_coordinator(flight, jobs, journal_path)
            counters = coordinator.state.counters
            replayed = counters["journal_replayed_units"]
            if replayed:
                self.metrics.incr("journal_units_replayed_total", replayed)
            if self.config.distributed:
                self.metrics.incr("distributed_flights_total")
                self._emit(flight, {"event": "distributed",
                                    "url": coordinator.url,
                                    "epoch": coordinator.state.epoch,
                                    "replayed_units": replayed})
            try:
                rows_per_job = coordinator.run(**hooks)
            finally:
                if journal_path is not None:
                    self.metrics.incr("checkpoints_written_total",
                                      counters["checkpoints_migrated"])
            return rows_per_job, counters["cache_served_units"] > 0

    # -- durable flight records ----------------------------------------------

    def _record_path(self, key: str) -> Optional[str]:
        directory = self.config.checkpoint_dir
        return (os.path.join(directory, key + _RECORD_SUFFIX)
                if directory else None)

    def _quarantine(self, path: str, error: Exception) -> None:
        """Set an unusable journal aside as ``<name>.corrupt``: kept as
        evidence, never re-parsed on a later restart, and out of the way
        of the flight key's next journal."""
        self.metrics.incr("journals_quarantined_total")
        quarantined = path + ".corrupt"
        try:
            os.replace(path, quarantined)
        except OSError:
            quarantined = path
        print(f"repro serve: quarantined unusable record "
              f"{os.path.basename(path)} -> {os.path.basename(quarantined)} "
              f"({error})", file=sys.stderr, flush=True)

    def _retire(self, key: str) -> None:
        """A flight that ended with rows needs no record: delete its
        journal. A flight that fails, is cancelled or parks keeps it for
        the next attempt."""
        if self.config.checkpoint_dir:
            _discard(self._record_path(key))

    def _resume_flights(self) -> None:
        """Re-admit, before accepting traffic, every flight a previous
        daemon instance left a ``<key>.journal`` of — in either mode: a
        journal holds the committed units and the latest chunk-seam
        envelope of a local or a distributed flight alike, and the
        re-admitted flight continues from that seam. A re-admitted
        flight has no subscribers; its rows land in the shared caches,
        so the client that retries after the restart gets a cache hit
        instead of a recompute from request zero.

        An unreadable journal is quarantined. A readable one is deleted
        when it holds no request this build can parse, or when the
        request's key differs from the file name: it was written under
        another code fingerprint, and bit-identity only holds within
        one build."""
        directory = self.config.checkpoint_dir
        if not directory or not os.path.isdir(directory):
            return
        # imported here for the reason _spawn_coordinator gives
        from repro.distributed.journal import JournalError, journal_meta

        for name in sorted(os.listdir(directory)):
            key, suffix = os.path.splitext(name)
            if suffix != _RECORD_SUFFIX:
                continue
            path = os.path.join(directory, name)
            try:
                meta = journal_meta(path)
            except JournalError as error:
                self._quarantine(path, error)
                continue
            request = _recorded_request(meta)
            if request is None or request.key(self._fingerprint) != key:
                _discard(path)
                continue
            if not self._dispatch(key, request).admitted:
                break  # capacity full; the rest resume on client demand
            self.metrics.incr("flights_resumed_total")
            print(f"repro serve: resuming flight {key[:12]}… "
                  f"({request.kind}) from {name}", file=sys.stderr, flush=True)


def _recorded_request(meta) -> Optional[JobRequest]:
    """The request a record's meta carries; None when it holds none
    this build can parse."""
    try:
        return parse_job_request(
            meta.get("request") if isinstance(meta, dict) else None)
    except ProtocolError:
        return None


def _discard(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


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
