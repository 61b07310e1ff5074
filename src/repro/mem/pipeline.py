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
generation across the whole comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.checkpoint import (
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
    seal_envelope,
    validate_envelope,
)
from repro.mem.controller import ControllerResult, MemoryController
from repro.testing import faults


class PipelineCancelled(RuntimeError):
    """A streaming run was cooperatively cancelled at a chunk boundary
    (see :meth:`TracePipeline.run`'s ``should_stop``). The pipeline's
    rewriter/DRAM state is consumed — build a fresh one to retry."""


class PipelineCheckpointed(RuntimeError):
    """A streaming run parked itself at a chunk seam because
    ``checkpoint_request()`` asked it to (the graceful-drain path). Its
    final envelope went to the ``on_checkpoint`` hook, and when the run
    had a ``checkpoint_path`` it is also on disk at :attr:`path` (else
    :attr:`path` is None); either form resumes bit-exactly through a
    fresh pipeline's ``resume_from``."""

    def __init__(self, path: Optional[str], chunks: int, requests_done: int):
        where = f" to {path}" if path is not None else ""
        super().__init__(
            f"checkpointed{where} after {chunks} chunks "
            f"({requests_done} requests)")
        self.path = path
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
    ``guardnn-ci`` / ``bp``); each gets its own rewriter and DDR4
    controller, all fed from one generation pass. ``scheme_params``
    optionally maps a scheme name to rewriter parameters.
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
        self.controllers = {name: MemoryController() for name in self.schemes}
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
        return seal_envelope({
            "kind": "trace-pipeline",
            "fingerprint": self.fingerprint(),
            "cursor": requests_done,
            "chunks": chunks,
            "schemes": {
                name: {
                    "rewriter": (None if self.rewriters[name] is None
                                 else self.rewriters[name].state_dict()),
                    "session": sessions[name].state_dict(),
                } for name in self.schemes
            },
        })

    def _restore(self, sessions, resume_from) -> Tuple[int, int]:
        # a dict is an envelope that travelled without a file (migrated
        # over the wire); it passes the same checks a file's does
        state = (validate_envelope(resume_from, kind="trace-pipeline",
                                   source="resume_from envelope")
                 if isinstance(resume_from, dict)
                 else load_checkpoint(resume_from, kind="trace-pipeline"))
        fingerprint = self.fingerprint()
        if state.get("fingerprint") != fingerprint:
            raise CheckpointError(
                "checkpoint fingerprint mismatch — it belongs to a "
                f"different computation.\n  checkpoint: {state.get('fingerprint')}"
                f"\n  this run:   {fingerprint}")
        cursor = int(state["cursor"])
        total = self.source.total_requests
        if not (0 <= cursor <= total and
                (cursor % self.chunk_requests == 0 or cursor == total)):
            raise CheckpointError(
                f"checkpoint cursor {cursor} is not a chunk seam of "
                f"{total} requests at chunk size {self.chunk_requests}")
        for name in self.schemes:
            scheme_state = state["schemes"][name]
            if self.rewriters[name] is not None:
                self.rewriters[name].load_state(scheme_state["rewriter"])
            sessions[name].load_state(scheme_state["session"])
        return int(state["chunks"]), cursor

    def run(self, on_chunk=None, should_stop=None, checkpoint_path=None,
            checkpoint_every: int = 0, checkpoint_request=None,
            resume_from=None,
            on_checkpoint=None) -> Dict[str, PipelineResult]:
        """Stream the whole source through every scheme; one generation
        pass, per-scheme results keyed by scheme name (input order).

        ``on_chunk(chunk_index, requests_done, total_requests)`` is
        called after each chunk has been rewritten and fed through every
        scheme (1-based chunk index) — the progress hook the service
        streams to clients. ``should_stop()`` is polled at every chunk
        boundary *before* the chunk is generated; returning true raises
        :class:`PipelineCancelled`, the cooperative-cancellation seam (a
        chunk is the unit of work, so cancellation latency is one chunk).

        **Checkpointing** (all off by default, zero overhead when off):
        the full mid-stream state is sealed into an envelope every
        ``checkpoint_every`` chunks (0 = only on request);
        ``checkpoint_request()`` polled truthy at a seam seals a final
        one and raises :class:`PipelineCheckpointed` (the graceful-drain
        path). Each envelope is written atomically to
        ``checkpoint_path`` when one is given, then handed to
        ``on_checkpoint(envelope, chunks, requests_done)`` — the one
        sink for callers that keep it elsewhere: a distributed worker
        uploads it to its coordinator, ``repro serve`` writes it with
        the originating request in its ``meta``. Checkpointing needs at
        least one of the two. ``resume_from`` (a path or an envelope
        dict) restores a checkpoint into this pipeline's
        rewriters/sessions and continues from its cursor — the resumed
        run is bit-identical to the uninterrupted one (cycles, bursts,
        stats, cache state; pinned by
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
        if ((checkpoint_every or checkpoint_request)
                and checkpoint_path is None and on_checkpoint is None):
            raise ValueError("checkpointing requested without a "
                             "checkpoint_path or on_checkpoint hook")
        self._ran = True
        sessions = {name: self.controllers[name].session()
                    for name in self.schemes}
        chunks = 0
        requests_done = 0
        total = self.source.total_requests
        if resume_from is not None:
            chunks, requests_done = self._restore(sessions, resume_from)

        def write_checkpoint() -> None:
            envelope = self._capture(sessions, chunks, requests_done)
            if checkpoint_path is not None:
                save_checkpoint(checkpoint_path, envelope)
            if on_checkpoint is not None:
                on_checkpoint(envelope, chunks, requests_done)

        for start in range(requests_done, total, self.chunk_requests):
            if should_stop is not None and should_stop():
                raise PipelineCancelled(
                    f"cancelled after {chunks} of "
                    f"{-(-total // self.chunk_requests)} chunks")
            if checkpoint_request is not None and checkpoint_request():
                write_checkpoint()
                raise PipelineCheckpointed(checkpoint_path, chunks,
                                           requests_done)
            if faults.enabled():
                faults.fire("pipeline.chunk", chunks)
            batch = self.source.batch(
                start, min(start + self.chunk_requests, total))
            chunks += 1
            requests_done += len(batch)
            for name in self.schemes:
                rewriter = self.rewriters[name]
                sessions[name].feed(
                    rewriter.rewrite_batch(batch) if rewriter is not None
                    else batch)
            if on_chunk is not None:
                on_chunk(chunks, requests_done, total)
            if (checkpoint_every and chunks % checkpoint_every == 0
                    and requests_done < total):
                write_checkpoint()
        if should_stop is not None and should_stop():
            raise PipelineCancelled(f"cancelled after {chunks} chunks")
        results = {}
        for name in self.schemes:
            rewriter = self.rewriters[name]
            if rewriter is not None:
                sessions[name].feed(rewriter.flush_batch())
            results[name] = PipelineResult(
                scheme=name, result=sessions[name].finish(),
                source_requests=self.source.total_requests,
                chunks=chunks, chunk_requests=self.chunk_requests)
        return results

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
