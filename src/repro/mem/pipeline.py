"""Streaming trace pipeline: generate → protect → time, in O(chunk) memory.

Before this module, an end-to-end mechanistic run materialized the whole
trace up front (a Python list or one giant :class:`RequestBatch`),
rewrote it, and only then timed it — peak memory O(trace), which caps
workloads far below LLM scale (one GPT-2-XL decode token is ~24 M
requests). :class:`TracePipeline` fuses the three stages per chunk:

* the **source** is a sliceable :class:`~repro.workloads.generators.TraceSpec`
  rendering any ``[start, stop)`` request window as a ``RequestBatch``
  via numpy address arithmetic;
* the **rewriters** (:func:`~repro.protection.trace_rewriter.build_trace_rewriter`)
  already carry their state — GuardNN's active MAC line, MEE's metadata
  cache — across ``rewrite_batch`` calls, so chunked rewriting is the
  monolithic rewrite by construction;
* the **controller** runs as a :class:`~repro.mem.controller.ControllerSession`,
  which pauses/resumes the FR-FCFS window across chunk seams
  bit-exactly.

The chunked run is therefore *bit-identical* to the monolithic one —
cycles, bursts, per-kind traffic, DRAM stats, cache state — for every
chunk size (pinned by ``tests/property/test_pipeline_equivalence.py``),
while peak memory stays bounded by the chunk size.

**Multi-scheme shared pass**: the paper's comparison figures time the
same data stream under several protection points. ``TracePipeline``
accepts a tuple of scheme names and forks each generated chunk through
every scheme's rewriter + controller in one pass, amortizing trace
generation across the whole comparison. Schemes that leave the stream
unchanged (``np``, ``guardnn-c``: no rewriter) share one controller,
so each chunk is timed once per distinct stream.

**Scheme lanes**: after the fork, the distinct streams share no state,
so each one's work on a chunk (its ``rewrite_batch``, then its
session's ``feed``) is a *lane*, and so is rendering the next chunk,
which depends on nothing but its request window. The calling thread
and up to one helper thread per further CPU take lanes from one list,
longest first by each lane's time on the previous chunk, and every
lane joins before the chunk's seam: the ``pipeline.chunk`` fault hook,
``on_chunk``, cancellation, checkpoints and envelopes see the same
states as a one-lane run, every output is the same, and an error met
rendering a chunk is raised when that chunk starts. The compiled
kernels release the interpreter lock, so helpers run only when the
lanes run them (fast mode, kernels loaded), with at least two CPUs and
two distinct streams; otherwise the same loop runs every lane on the
calling thread. Helpers live only inside one
:meth:`TracePipeline.run` call.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro import native, perf
from repro.checkpoint import (
    CHECKPOINT_VERSION,
    ENVELOPE_KIND,
    CheckpointError,
    validate_envelope,
)
from repro.mem.controller import ControllerResult, MemoryController
from repro.testing import faults


class PipelineCancelled(RuntimeError):
    """Raised by an ``on_chunk`` hook to stop a streaming run at a chunk
    boundary (the service's cooperative cancellation). The pipeline's
    rewriter/DRAM state is consumed — build a fresh one to retry."""


class PipelineCheckpointed(RuntimeError):
    """A streaming run parked itself at a chunk seam because
    ``checkpoint_request()`` asked it to (the graceful-drain path). Its
    final envelope went to the ``on_checkpoint`` hook, and resumes
    bit-exactly through a fresh pipeline's ``resume_from``."""

    def __init__(self, chunks: int, requests_done: int):
        super().__init__(
            f"checkpointed after {chunks} chunks ({requests_done} requests)")
        self.chunks = chunks
        self.requests_done = requests_done


def _build_trace_rewriter(name: str, source, **params):
    # deferred: repro.protection pulls in the analytic scheme stack,
    # which imports repro.mem — a module-level import would cycle
    from repro.protection.trace_rewriter import build_trace_rewriter

    # bp protects a region covering every address the source emits
    return build_trace_rewriter(name, end_address=source.end_address,
                                **params)

#: default requests per chunk: big enough to amortize the vectorized
#: kernels, small enough that a chunk (plus its rewritten form and the
#: controller's burst arrays) stays a few MB
DEFAULT_CHUNK_REQUESTS = 1 << 16


def _cpus() -> int:
    """CPUs this process may run on, each one lane at a time."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


class _Lane:
    """One distinct stream's work on a chunk: its rewriter's
    ``rewrite_batch`` (none for the unchanged stream), then its
    session's ``feed``. A lane keeps its time on the last chunk, which
    orders the next one, and the error it raised, which
    :func:`_run_lanes` raises once every lane has stopped."""

    __slots__ = ("rewriter", "session", "seconds", "error")

    def __init__(self, rewriter, session):
        self.rewriter = rewriter
        self.session = session
        # before any timing: rewritten streams first, since the
        # unchanged one never has more work
        self.seconds = 0.0 if rewriter is None else 1.0
        self.error = None

    def run(self, batch) -> None:
        started = time.perf_counter()
        try:
            self.session.feed(batch if self.rewriter is None
                              else self.rewriter.rewrite_batch(batch))
        except Exception as error:  # raised after every lane stops
            self.error = error
        self.seconds = time.perf_counter() - started


class _Render:
    """The next chunk's generation, run as one more lane of the current
    chunk: a window's batch depends on nothing but the window, so it
    overlaps the streams' lanes. What it rendered, or the error it met,
    waits for that chunk to start (:meth:`take`)."""

    __slots__ = ("source", "window", "batch", "seconds")

    def __init__(self, source):
        self.source = source
        self.window = None
        self.batch = None  # the next chunk's batch, or its error
        self.seconds = 0.0

    def run(self, _batch) -> None:
        started = time.perf_counter()
        try:
            self.batch = self.source.batch(*self.window)
        except Exception as error:  # raised when its chunk starts
            self.batch = error
        self.seconds = time.perf_counter() - started

    def take(self, window: Tuple[int, int]):
        """``window``'s batch, rendered during the last chunk or now."""
        batch, self.batch = self.batch, None
        if batch is None:
            return self.source.batch(*window)
        if isinstance(batch, Exception):
            raise batch
        return batch


def _run_lanes(lanes: List[_Lane], batch, pool, helpers: int,
               render: Optional[_Render] = None) -> None:
    """Run every lane on ``batch``, and ``render`` if given: the calling
    thread and ``helpers`` threads of ``pool`` take them from one list,
    longest first, and this returns once all have stopped, raising the
    first failed lane's error in stream order."""
    queue = sorted(lanes if render is None else [*lanes, render],
                   key=lambda lane: lane.seconds)  # pop(): longest

    def take() -> None:
        try:
            while True:
                queue.pop().run(batch)
        except IndexError:  # every lane is taken
            pass

    waits = [pool.submit(take) for _ in range(helpers)]
    take()
    for wait in waits:
        wait.result()
    for lane in lanes:
        if lane.error is not None:
            raise lane.error


@dataclass
class PipelineResult:
    """One scheme's outcome of a streaming run."""

    scheme: str
    result: ControllerResult
    source_requests: int
    chunks: int
    chunk_requests: int

    @property
    def cycles(self) -> int:
        return self.result.cycles

    def slowdown_vs(self, baseline: "PipelineResult") -> float:
        """Cycles relative to ``baseline``. A zero-cycle baseline (an
        empty trace) has no meaningful slowdown: the ratio is undefined,
        and returning ``0.0`` would silently report "no slowdown" — so
        this returns ``float("nan")``, which survives JSON/NaN-aware
        aggregation and fails loudly in comparisons."""
        if baseline.result.cycles == 0:
            return float("nan")
        return self.result.cycles / baseline.result.cycles


class TracePipeline:
    """Fused generate → rewrite → time over a :class:`TraceSpec`.

    ``schemes`` are protection short names (``np`` / ``guardnn-c`` /
    ``guardnn-ci`` / ``bp``), all fed from one generation pass. A scheme
    with a rewriter gets its own DDR4 controller; the schemes without
    one time the unchanged stream, so they share one controller and
    one :class:`~repro.mem.controller.ControllerResult`.
    ``scheme_params`` optionally maps a scheme name to rewriter
    parameters.
    """

    def __init__(self, source, schemes: Sequence[str] = ("np",),
                 chunk_requests: int = DEFAULT_CHUNK_REQUESTS,
                 scheme_params: Optional[Dict[str, dict]] = None):
        if chunk_requests <= 0:
            raise ValueError("chunk_requests must be positive")
        if len(set(schemes)) != len(schemes):
            raise ValueError("duplicate scheme names")
        if not schemes:
            raise ValueError("need at least one scheme")
        self.source = source
        self.schemes: Tuple[str, ...] = tuple(schemes)
        self.chunk_requests = chunk_requests
        params = scheme_params or {}
        self.scheme_params = {name: dict(params.get(name, {}))
                              for name in self.schemes}
        self.rewriters = {
            name: _build_trace_rewriter(name, source,
                                        **self.scheme_params[name])
            for name in self.schemes
        }
        unchanged = MemoryController()  # times the stream as generated
        self.controllers = {
            name: unchanged if self.rewriters[name] is None
            else MemoryController() for name in self.schemes}
        self._ran = False

    # -- checkpointing -----------------------------------------------------

    def fingerprint(self) -> dict:
        """Identity of this computation: the trace spec plus the scheme
        configuration and chunk size (the chunk grid determines the
        seams a cursor may land on, so it is part of identity)."""
        return {
            "spec": self.source.state_dict(),
            "schemes": list(self.schemes),
            "scheme_params": self.scheme_params,
            "chunk_requests": self.chunk_requests,
        }

    def _capture(self, sessions, chunks: int, requests_done: int) -> dict:
        return {
            "version": CHECKPOINT_VERSION,
            "kind": ENVELOPE_KIND,
            "fingerprint": self.fingerprint(),
            "cursor": requests_done,
            "chunks": chunks,
            "schemes": {
                name: {
                    "rewriter": (None if self.rewriters[name] is None
                                 else self.rewriters[name].state_dict()),
                    "session": sessions[self.controllers[name]].state_dict(),
                } for name in self.schemes
            },
        }

    def _restore(self, sessions, envelope) -> Tuple[int, int]:
        state = validate_envelope(envelope, self.fingerprint(),
                                  source="resume_from envelope")
        cursor = state["cursor"]
        total = self.source.total_requests
        if not (cursor <= total and
                (cursor % self.chunk_requests == 0 or cursor == total)):
            raise CheckpointError(
                f"checkpoint cursor {cursor} is not a chunk seam of "
                f"{total} requests at chunk size {self.chunk_requests}")
        for name in self.schemes:
            try:
                scheme_state = state["schemes"][name]
                if self.rewriters[name] is not None:
                    self.rewriters[name].load_state(scheme_state["rewriter"])
                # schemes that share a session carry equal states
                sessions[self.controllers[name]].load_state(
                    scheme_state["session"])
            except (AttributeError, IndexError, KeyError, TypeError,
                    ValueError) as error:
                # damage the header checks cannot see: the caller
                # restarts from request zero, as for a stale envelope
                raise CheckpointError(
                    f"resume_from envelope has no usable {name!r} state "
                    f"({type(error).__name__}: {error})") from None
        try:
            return int(state["chunks"]), cursor
        except (KeyError, TypeError, ValueError) as error:
            raise CheckpointError(
                "resume_from envelope has no usable chunk count "
                f"({type(error).__name__}: {error})") from None

    def run(self, on_chunk=None, checkpoint_every: int = 0,
            checkpoint_request=None, resume_from=None,
            on_checkpoint=None) -> Dict[str, PipelineResult]:
        """Stream the whole source through every scheme; one generation
        pass, per-scheme results keyed by scheme name (input order).

        ``on_chunk(chunk_index, requests_done, total_requests)`` is
        called after each chunk has been rewritten and fed through every
        scheme, once every lane has joined (1-based chunk index) — the
        progress hook the service streams to clients. A hook that raises
        stops the run there; the service cancels a flight by raising
        :class:`PipelineCancelled` (a chunk is the unit of work, so
        cancellation latency is one chunk). A lane that raises stops the
        run once the chunk's other lanes have finished it.

        **Checkpointing** (all off by default, zero overhead when off):
        the full mid-stream state is captured in an envelope every
        ``checkpoint_every`` chunks (0 = only on request) and handed to
        ``on_checkpoint(envelope, chunks, requests_done)``, which
        checkpointing needs: a distributed worker uploads it to its
        coordinator, the coordinator's local fallback journals it.
        ``checkpoint_request()`` polled truthy at a seam captures a
        final one and raises :class:`PipelineCheckpointed` (the graceful-drain
        path). ``resume_from`` (an envelope dict, as ``on_checkpoint``
        received it or a journal stored it) restores it into this
        pipeline's rewriters/sessions and continues from its cursor —
        the resumed run is bit-identical to the uninterrupted one
        (cycles, bursts, stats, cache state; pinned by
        ``tests/property/test_checkpoint_equivalence.py``).

        One-shot: the rewriters' metadata state and the controllers'
        DRAM state are consumed by the run, so a second call would
        silently time a different (warm-state) machine — build a fresh
        pipeline instead."""
        if self._ran:
            raise RuntimeError("pipeline already ran; rewriter and DRAM "
                               "state are consumed — build a new TracePipeline")
        if checkpoint_every < 0:
            raise ValueError("checkpoint_every must be non-negative")
        if (checkpoint_every or checkpoint_request) and on_checkpoint is None:
            raise ValueError("checkpointing requested without an "
                             "on_checkpoint hook")
        self._ran = True
        # one session per distinct stream: controller -> its rewriter
        streams = {self.controllers[name]: self.rewriters[name]
                   for name in self.schemes}
        sessions = {controller: controller.session() for controller in streams}
        lanes = [_Lane(rewriter, sessions[controller])
                 for controller, rewriter in streams.items()]
        chunks = 0
        requests_done = 0
        total = self.source.total_requests
        if resume_from is not None:
            chunks, requests_done = self._restore(sessions, resume_from)

        def write_checkpoint() -> None:
            on_checkpoint(self._capture(sessions, chunks, requests_done),
                          chunks, requests_done)

        # the Python oracles hold the interpreter lock: helpers only
        # for lanes that run the compiled kernels
        helpers = (min(_cpus(), len(lanes)) - 1
                   if perf.fast_enabled() and native.kernels() is not None
                   else 0)
        render = _Render(self.source)
        pool = None
        if helpers > 0:
            # imported here, not with the module, and shut down before
            # run returns: no helper outlives the call
            from concurrent.futures import ThreadPoolExecutor

            pool = ThreadPoolExecutor(helpers, thread_name_prefix="repro-lane")
        try:
            for start in range(requests_done, total, self.chunk_requests):
                if checkpoint_request is not None and checkpoint_request():
                    write_checkpoint()
                    raise PipelineCheckpointed(chunks, requests_done)
                if faults.enabled():
                    faults.fire("pipeline.chunk", chunks)
                batch = render.take(
                    (start, min(start + self.chunk_requests, total)))
                chunks += 1
                requests_done += len(batch)
                after = start + self.chunk_requests
                render.window = (after, min(after + self.chunk_requests, total))
                _run_lanes(lanes, batch, pool, helpers,
                           render if after < total else None)
                if on_chunk is not None:
                    on_chunk(chunks, requests_done, total)
                if (checkpoint_every and chunks % checkpoint_every == 0
                        and requests_done < total):
                    write_checkpoint()
        finally:
            if pool is not None:
                pool.shutdown()
        for lane in lanes:
            if lane.rewriter is not None:
                lane.session.feed(lane.rewriter.flush_batch())
        return {name: PipelineResult(
                    scheme=name, result=sessions[self.controllers[name]].finish(),
                    source_requests=self.source.total_requests,
                    chunks=chunks, chunk_requests=self.chunk_requests)
                for name in self.schemes}

    def run_single(self, scheme: Optional[str] = None) -> PipelineResult:
        """Run and return one scheme's result (the only scheme by
        default)."""
        if scheme is None:
            if len(self.schemes) != 1:
                raise ValueError("several schemes configured; name one")
            scheme = self.schemes[0]
        return self.run()[scheme]


def run_materialized(source, scheme: str = "np") -> ControllerResult:
    """The pre-pipeline path, kept as the reference and benchmark
    baseline: materialize the whole trace as ``MemoryRequest`` objects,
    rewrite it in one piece, time it in one piece. Peak memory O(trace)
    — this is the function whose footprint the pipeline removes."""
    trace = source.materialize()
    rewriter = _build_trace_rewriter(scheme, source)
    if rewriter is not None:
        trace = rewriter.rewrite(trace) + rewriter.flush()
    return MemoryController().run_trace(trace)
