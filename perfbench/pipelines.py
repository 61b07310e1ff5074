"""The two pipeline workloads: ``llm-decode`` and ``random-bp``.

Both stream a seeded trace through :class:`repro.mem.pipeline.TracePipeline`
(built with :func:`repro.workloads.build_trace_spec`), one generation
pass shared by every scheme. An operation is one pass: a fresh pipeline
(pipelines are one-shot) run over the whole trace. Within a run every
pass sees the same input, so every pass must produce the same simulated
outputs, and those must equal the values pinned in ``expected.json``.

The seed picks one of ``VARIANTS`` pinned inputs: the LLM embedding-row
seed for ``llm-decode``, the random-trace seed for ``random-bp``.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from typing import Dict, List, Optional, Tuple

from helpers import (BENCH_DIR, SCHEMES, HostSpeed, Outcome, Tally,
                     cold_start_seconds, latency_summary, pinned_mismatches,
                     scheme_invariants, self_peak_rss_mb)

EXPECTED_PATH = os.path.join(BENCH_DIR, "expected.json")

#: seeds map onto this many pinned inputs per workload
VARIANTS = 8

#: workload -> (trace name, schemes, chunk requests or None for the
#: pipeline default, trace parameters without the seed)
CONFIGS = {
    # one full GPT-2 decode token (1.47 M requests) at the default chunk
    # size: the FR-FCFS controller does most of the work
    "llm-decode": ("gpt2", SCHEMES, None, {"tokens": 1}),
    # 32 k uniform-random requests over 256 MB: the random-BP cliff,
    # where the MEE rewriter's metadata cache mostly misses. 2048-request
    # chunks give 16 chunk latencies per pass (same outputs as one chunk)
    "random-bp": ("random", ("np", "guardnn-ci", "bp"), 2048,
                  {"n_requests": 32768, "span_bytes": 256 << 20}),
}


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def build(workload: str, variant: int):
    """A fresh pipeline over the workload's pinned input ``variant``."""
    from repro.mem.pipeline import DEFAULT_CHUNK_REQUESTS, TracePipeline
    from repro.workloads import build_trace_spec

    trace, schemes, chunk, params = CONFIGS[workload]
    spec = build_trace_spec(trace, seed=variant, **params)
    return TracePipeline(spec, schemes=schemes,
                         chunk_requests=chunk or DEFAULT_CHUNK_REQUESTS)


def summarize(results) -> Dict[str, Dict[str, int]]:
    """Per-scheme simulated outputs of one pass."""
    from repro.mem.trace import RequestKind

    rows = {}
    for name, outcome in results.items():
        timing = outcome.result
        rows[name] = {
            "cycles": timing.cycles,
            "bursts": timing.bursts,
            "metadata_bytes": timing.stats.metadata_bytes,
            "vn_bytes": timing.stats.kind_bytes(RequestKind.VN),
            "mac_bytes": timing.stats.kind_bytes(RequestKind.MAC),
            "tree_bytes": timing.stats.kind_bytes(RequestKind.TREE),
        }
    return rows


def load_expected() -> dict:
    with open(EXPECTED_PATH) as f:
        return json.load(f)


def run_pass(pipeline, chunk_seconds: List[float],
             speed: Optional[HostSpeed] = None) -> Tuple[dict, float]:
    """Run one pass; append each chunk's latency (time between progress
    callbacks) and return (results, pass seconds). With ``speed``, one
    calibration slice runs after every chunk, outside both timings."""
    started = last = time.perf_counter()
    calibration = 0.0

    def on_chunk(chunk, requests_done, total_requests):
        nonlocal last, calibration
        now = time.perf_counter()
        chunk_seconds.append(now - last)
        if speed is not None:
            speed.sample()
        last = time.perf_counter()
        calibration += last - now

    results = pipeline.run(on_chunk=on_chunk)
    return results, time.perf_counter() - started - calibration


def check_pass(results, expected: dict, where: str) -> List[str]:
    rows = summarize(results)
    return scheme_invariants(rows, where=where) + pinned_mismatches(
        rows, expected, where=where)


def one_pass(workload: str, variant: int, expected: dict, tally: Tally,
             index: int, chunk_seconds: List[float], tracer=None,
             speed: Optional[HostSpeed] = None) -> Tuple[float, int]:
    """Run and check one pass; returns (seconds, source requests), or
    (0.0, 0) for a pass that raised."""
    where = f"{workload} pass {index}"
    try:
        pipeline = build(workload, variant)
        if tracer is not None:
            with tracer.span("pipeline.pass", op=index):
                instrument(tracer, pipeline)
                results, elapsed = run_pass(pipeline, chunk_seconds)
            record_domain_stats(tracer, pipeline, results)
        else:
            results, elapsed = run_pass(pipeline, chunk_seconds, speed)
    except Exception as error:  # a failed pass counts, the run goes on
        tally.fail(f"{where}: {type(error).__name__}: {error}")
        return 0.0, 0
    tally.check(check_pass(results, expected, where))
    return elapsed, pipeline.source.total_requests


def measure(workload: str, seed: int, seconds: float) -> Outcome:
    variant = variant_of(seed)
    expected = load_expected()[workload][str(variant)]
    tally = Tally()
    speed = HostSpeed()
    chunk_seconds: List[float] = []
    passes: List[Tuple[float, int]] = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        passes.append(one_pass(workload, variant, expected, tally, len(passes),
                               chunk_seconds, speed=speed))
    wall = time.perf_counter() - started - sum(speed.samples)
    done = [(s, n) for s, n in passes if n]
    if not done:
        raise RuntimeError(f"{workload}: every pass failed: {tally.reasons}")
    latency = latency_summary(chunk_seconds)
    peak_rss = self_peak_rss_mb()
    metrics = {
        "setup_s": cold_start_seconds(workload, speed),
        "ns_per_request": statistics.median([s * 1e9 / n for s, n in done]),
        "jobs_per_s": len(done) / wall,
        "p50_ms": latency["p50_ms"],
        "p90_ms": latency["p90_ms"],
        "peak_rss_mb": peak_rss,
    }
    notes = [f"input variant {variant} ({CONFIGS[workload][0]}, "
             f"{done[0][1]} source requests per pass)",
             f"passes {len(passes)}; ns_per_request is the median over passes, "
             "jobs_per_s counts passes",
             f"chunk latencies: {latency['note']}"]
    return Outcome(metrics, tally, notes, host=speed)


def setup_probe(workload: str) -> None:
    """What a cold start pays before the first chunk: import and build."""
    build(workload, 0)


# -- traced run ---------------------------------------------------------------


def instrument(tracer, pipeline) -> None:
    """Span every layer call of one pipeline pass."""
    tracer.wrap(pipeline.source, "batch", "workloads.generate")
    for name, rewriter in pipeline.rewriters.items():
        if rewriter is None:
            continue
        if name == "bp":
            _count_mee_attempts(tracer, rewriter)
        tracer.wrap(rewriter, "rewrite_batch", f"protection.rewrite.{name}")
        tracer.wrap(rewriter, "flush_batch", f"protection.rewrite.{name}")
    for name, controller in pipeline.controllers.items():
        open_session = controller.session

        def session(open_session=open_session, name=name):
            live = open_session()
            tracer.wrap(live, "feed", f"mem.controller.{name}")
            tracer.wrap(live, "finish", f"mem.controller.{name}")
            return live

        controller.session = session


def _count_mee_attempts(tracer, rewriter) -> None:
    """Per MEE ``rewrite_batch`` call: speculative ``simulate`` attempts,
    and whether the sequential fallback (single ``access`` calls) ran."""
    inner = rewriter.rewrite_batch
    counts = tracer.counts

    def counted(batch):
        simulate = counts["FastSetAssociativeCache.simulate"]
        access = counts["FastSetAssociativeCache.access"]
        out = inner(batch)
        counts["mee.chunks"] += 1
        counts["mee.spec_attempts"] += (
            counts["FastSetAssociativeCache.simulate"] - simulate)
        if counts["FastSetAssociativeCache.access"] > access:
            counts["mee.fallback_chunks"] += 1
        return out

    rewriter.rewrite_batch = counted


def record_domain_stats(tracer, pipeline, results) -> None:
    """Simulation-domain counts of one pass (deterministic)."""
    counts = tracer.counts
    bp = pipeline.rewriters.get("bp")
    if bp is not None:
        counts["mee.cache_hits"] += bp.cache.stats.hits
        counts["mee.cache_misses"] += bp.cache.stats.misses
    if "bp" in pipeline.controllers:
        dram = pipeline.controllers["bp"].dram.stats
        counts["dram.bp.row_hits"] += dram["row_hits"]
        counts["dram.bp.row_accesses"] += (
            dram["row_hits"] + dram["row_misses"] + dram["row_conflicts"])
        counts["dram.bp.bursts"] += results["bp"].result.bursts


def traced(workload: str, seed: int, seconds: float) -> Outcome:
    """One warm-up pass, then untraced and traced passes alternately
    until ``seconds`` have elapsed; the overhead compares the two sets."""
    from repro.mem.cache_fast import FastSetAssociativeCache
    from tracing import Tracer, count_calls

    variant = variant_of(seed)
    expected = load_expected()[workload][str(variant)]
    tally = Tally()
    tracer = Tracer()
    one_pass(workload, variant, expected, tally, 0, [])
    plain: List[Tuple[float, int]] = []
    passes: List[Tuple[float, int]] = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        plain.append(one_pass(workload, variant, expected, tally,
                              1 + 2 * len(passes), []))
        with count_calls(tracer, FastSetAssociativeCache, ("simulate", "access")):
            passes.append(one_pass(workload, variant, expected, tally,
                                   2 + 2 * len(passes), [], tracer=tracer))
    ops = len(passes)
    wall = sum(s for s, _ in passes)
    plain_wall = sum(s for s, _ in plain)
    requests = sum(n for _, n in passes)
    times = tracer.self_times()
    counts = tracer.counts

    def self_s(span: str) -> float:
        return times.get(span, {}).get("self_s", 0.0) / ops

    metrics = {"workloads.generate_s": self_s("workloads.generate"),
               "trace.overhead_frac": wall / plain_wall - 1}
    bases = {"workloads.generate_s": "self s per pass",
             "trace.overhead_frac": f"untraced passes {plain_wall:.3f} s, "
                                    f"{ops} passes each"}
    for name in ("guardnn-ci", "bp"):
        metrics[f"protection.rewrite_s.{name}"] = self_s(f"protection.rewrite.{name}")
        bases[f"protection.rewrite_s.{name}"] = "self s per pass"
    for name in SCHEMES:
        metrics[f"mem.controller_s.{name}"] = self_s(f"mem.controller.{name}")
        bases[f"mem.controller_s.{name}"] = "self s per pass"
    if counts["mee.chunks"]:
        lookups = counts["mee.cache_hits"] + counts["mee.cache_misses"]
        metrics.update({
            "protection.mee.cache_hit_rate": counts["mee.cache_hits"] / lookups,
            "protection.mee.spec_attempts_per_chunk":
                counts["mee.spec_attempts"] / counts["mee.chunks"],
            "protection.mee.fallback_chunks": counts["mee.fallback_chunks"] / ops,
        })
        bases.update({
            "protection.mee.cache_hit_rate": f"of {lookups} metadata-cache lookups",
            "protection.mee.spec_attempts_per_chunk":
                f"of {counts['mee.chunks']} MEE rewrite calls",
            "protection.mee.fallback_chunks":
                f"per pass, of {counts['mee.chunks'] // ops} MEE rewrite calls",
        })
    bursts = counts["dram.bp.bursts"]
    if bursts:
        metrics.update({
            "mem.ns_per_burst.bp": self_s("mem.controller.bp") * ops * 1e9 / bursts,
            "mem.row_hit_rate.bp": counts["dram.bp.row_hits"]
                                   / counts["dram.bp.row_accesses"],
            "mem.bursts.bp": bursts / ops,
        })
        bases.update({
            "mem.ns_per_burst.bp": "BP controller self time / BP bursts",
            "mem.row_hit_rate.bp": f"of {counts['dram.bp.row_accesses']} "
                                   "BP row accesses",
            "mem.bursts.bp": "per pass",
        })
    notes = [f"traced {ops} passes ({requests} source requests), each after "
             "an untraced pass of the same input; one warm-up pass first"]
    return Outcome(metrics, tally, notes, bases, tracer, wall, ops)
