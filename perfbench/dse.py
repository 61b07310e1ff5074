"""The ``dse-sweep`` workload: a design-space exploration sweep.

An operation is one sweep: the Figure 3 grid (9 paper networks x 4
schemes x inference/training x batch 1/4 = 144 ``accel_run`` jobs) at
one DRAM-bandwidth point, run through ``Runner.run`` the way a fresh
``repro sweep`` process runs it: default worker count, no disk cache,
memo caches cleared, and a freshly forked pool. Operations cycle over
the paper's fixed point and ``POINTS`` seeded bandwidth points.

Checks: every grid point satisfies the analytic scheme invariants; the
fixed-point rows equal ``tests/regression/golden_traffic.json``; a point
seen twice in a run gives identical rows.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import statistics
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from helpers import (REPO_ROOT, SCHEMES, HostSpeed, Outcome, Tally,
                     children_peak_rss_mb,
                     cold_start_seconds, latency_summary,
                     scheme_invariants, self_peak_rss_mb)

GOLDEN_PATH = os.path.join(REPO_ROOT, "tests", "regression", "golden_traffic.json")

#: seeded DRAM-bandwidth points per run (plus the fixed point)
POINTS = 16


def bandwidth_points(seed: int) -> List[Optional[float]]:
    """``None`` (the paper's TPU-v1 fixed point) then ``POINTS`` distinct
    seeded bandwidths in GB/s."""
    rng = random.Random(seed)
    points: List[Optional[float]] = [None]
    while len(points) <= POINTS:
        gbps = round(rng.uniform(8.0, 64.0), 3)
        if gbps not in points:
            points.append(gbps)
    return points


def grid_jobs(gbps: Optional[float]):
    from repro.experiments.presets import FIG3_INFERENCE_NETWORKS
    from repro.experiments.spec import SweepSpec

    config = {} if gbps is None else {"dram_bandwidth_gbps": gbps}
    return SweepSpec(models=FIG3_INFERENCE_NETWORKS, zoo="paper",
                     modes=("inference", "training"), batches=(1, 4),
                     configs=(config,)).jobs()


def _golden_rows() -> Dict[tuple, dict]:
    with open(GOLDEN_PATH) as f:
        golden = json.load(f)
    out = {}
    for network, by_scheme in golden["inference"].items():
        for scheme, row in by_scheme.items():
            out[(network, scheme, "inference", 1)] = row
    for network, by_scheme in golden["training"].items():
        for scheme, row in by_scheme.items():
            out[(network, scheme, "training", golden["training_batch"])] = row
    return out


def check_sweep(rows: List[dict], golden: Optional[Dict[tuple, dict]],
                where: str) -> List[str]:
    """Analytic invariants per grid point; golden equality when given."""
    problems = []
    points: Dict[tuple, Dict[str, dict]] = defaultdict(dict)
    for row in rows:
        metadata = row["metadata_read_bytes"] + row["metadata_write_bytes"]
        points[(row["model"], row["mode"], row["batch"])][row["scheme_key"]] = {
            "cycles": row["total_cycles"], "metadata_bytes": metadata,
            "vn_bytes": row["vn_bytes"], "mac_bytes": row["mac_bytes"],
            "tree_bytes": row["tree_bytes"]}
        if golden is None:
            continue
        pinned = golden.get((row["model"], row["scheme_key"], row["mode"],
                             row["batch"]))
        if pinned is None:
            continue
        got = {"total_cycles": row["total_cycles"],
               "data_bytes": row["data_read_bytes"] + row["data_write_bytes"],
               "metadata_bytes": metadata, "vn_bytes": row["vn_bytes"],
               "mac_bytes": row["mac_bytes"], "tree_bytes": row["tree_bytes"]}
        if got != pinned:
            problems.append(f"{where}: {row['model']}/{row['scheme_key']}/"
                            f"{row['mode']} differs from golden_traffic.json")
    for (model, mode, batch), by_scheme in points.items():
        if set(by_scheme) != set(SCHEMES):
            problems.append(f"{where}: {model}/{mode}/b{batch} lacks schemes")
            continue
        problems += scheme_invariants(by_scheme, f"{where} {model}/{mode}/b{batch}",
                                      analytic=True)
    return problems


def _digest(rows: List[dict]) -> str:
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


class Sweeps:
    """The run's sweep sequence, cycling over the bandwidth points; a
    point seen again must give the same rows."""

    def __init__(self, seed: int, tally: Tally):
        self.points = bandwidth_points(seed)
        self.jobs = {gbps: grid_jobs(gbps) for gbps in self.points}
        self.golden = _golden_rows()
        self.digests: Dict[Optional[float], str] = {}
        self.tally = tally
        self.count = 0
        self._position = 0

    def next(self, tracer=None, again: bool = False) -> Tuple[float, int]:
        """Run and check the next sweep (``again``: at the previous
        sweep's point once more); returns (Runner.run seconds, jobs), or
        (0.0, 0) for a sweep that raised."""
        from repro import perf
        from repro.experiments.runner import recall_rows

        index = self.count
        self.count += 1
        if not again:
            self._position += 1
        gbps = self.points[(self._position - 1) % len(self.points)]
        jobs = self.jobs[gbps]
        where = f"sweep {index} at {gbps or 'the fixed point'} GB/s"
        perf.clear_caches()
        try:
            if tracer is not None:
                hits = sum(recall_rows(job) is not None for job in jobs)
                tracer.counts["experiments.cache_hits"] += hits
                with tracer.span("experiments.run", op=index):
                    rows, elapsed = _timed_sweep(jobs)
            else:
                rows, elapsed = _timed_sweep(jobs)
        except Exception as error:  # a failed sweep counts, the run goes on
            self.tally.fail(f"{where}: {type(error).__name__}: {error}")
            return 0.0, 0
        problems = check_sweep(rows, self.golden if gbps is None else None, where)
        digest = _digest(rows)
        if self.digests.setdefault(gbps, digest) != digest:
            problems.append(f"{where}: rows changed since the point's first sweep")
        self.tally.check(problems)
        if tracer is not None:
            _accel_busy(tracer, jobs, index)
        return elapsed, len(jobs)


def _timed_sweep(jobs) -> Tuple[List[dict], float]:
    """``Runner.run`` on a fresh default-width runner (its own pool)."""
    from repro.experiments.runner import Runner

    began = time.perf_counter()
    with Runner() as runner:
        rows = runner.run(jobs).rows
    return rows, time.perf_counter() - began


def _accel_busy(tracer, jobs, index: int) -> None:
    """Cold in-process execution of the same jobs, one span each: the
    accelerator model's own cost without the pool."""
    from repro import perf
    from repro.experiments.jobs import execute_job

    perf.clear_caches()
    with tracer.span("accel.cold_pass", op=index):
        for job in jobs:
            with tracer.span("accel.execute_job"):
                execute_job(job)


def measure(workload: str, seed: int, seconds: float) -> Outcome:
    tally = Tally()
    sweeps = Sweeps(seed, tally)
    speed = HostSpeed()
    done: List[Tuple[float, int]] = []
    started = time.perf_counter()
    while not done or time.perf_counter() - started < seconds:
        done.append(sweeps.next())
        speed.sample(2)
    wall = time.perf_counter() - started - sum(speed.samples)
    done = [(s, n) for s, n in done if n]
    if not done:
        raise RuntimeError(f"dse-sweep: every sweep failed: {tally.reasons}")
    jobs = sum(n for _, n in done)
    latency = latency_summary([s for s, _ in done])
    # pool workers are reaped by Runner.close, so they count as children
    peak_rss = max(self_peak_rss_mb(), children_peak_rss_mb())
    metrics = {
        "setup_s": cold_start_seconds(workload, speed),
        "ns_per_request": statistics.median([s * 1e9 / n for s, n in done]),
        "jobs_per_s": jobs / wall,
        "p50_ms": latency["p50_ms"],
        "p90_ms": latency["p90_ms"],
        "peak_rss_mb": peak_rss,
    }
    notes = [f"{sweeps.count} sweeps of {done[0][1]} jobs over "
             f"{len(sweeps.points)} bandwidth points; a request is one "
             "executor job",
             f"sweep latencies: {latency['note']}"]
    return Outcome(metrics, tally, notes, host=speed)


def setup_probe(workload: str) -> None:
    """What a cold ``repro sweep`` pays before its first job: import,
    the grid, and forking the default-width pool."""
    from repro.experiments.pool import WorkerPoolManager
    from repro.experiments.runner import default_workers

    grid_jobs(None)
    manager = WorkerPoolManager()
    manager.pool(default_workers())
    manager.close()


def traced(workload: str, seed: int, seconds: float) -> Outcome:
    """Untraced and traced sweeps of the same point alternately until
    ``seconds`` have elapsed; each traced sweep is followed by a cold
    in-process pass over the same jobs (``accel.busy_s``), outside the
    overhead figure."""
    from repro.experiments.runner import default_workers
    from tracing import Tracer

    tally = Tally()
    sweeps = Sweeps(seed, tally)
    tracer = Tracer()
    sweeps.next()  # warm-up
    plain: List[Tuple[float, int]] = []
    traced_sweeps: List[Tuple[float, int]] = []
    started = time.perf_counter()
    while not traced_sweeps or time.perf_counter() - started < seconds:
        plain.append(sweeps.next())
        traced_sweeps.append(sweeps.next(tracer, again=True))
    ops = len(traced_sweeps)
    times = tracer.self_times()
    traced_wall = times["experiments.run"]["total_s"]
    plain_wall = sum(s for s, _ in plain)
    run_s = traced_wall / ops
    busy_s = times["accel.execute_job"]["total_s"] / ops
    workers = default_workers()
    metrics = {
        "experiments.run_s": run_s,
        "experiments.jobs": sum(n for _, n in traced_sweeps) / ops,
        "experiments.cache_hits": tracer.counts["experiments.cache_hits"] / ops,
        "accel.busy_s": busy_s,
        "trace.overhead_frac": traced_wall / plain_wall - 1,
    }
    bases = {
        "experiments.run_s": "Runner.run wall per sweep",
        "experiments.jobs": "per sweep",
        "experiments.cache_hits": "per sweep, probed before Runner.run",
        "accel.busy_s": "cold in-process execute_job s per sweep (all jobs)",
        "trace.overhead_frac": f"untraced Runner.run total {plain_wall:.3f} s, "
                               f"{ops} sweeps each",
    }
    notes = [f"traced {ops} sweeps, each after an untraced one; pool overhead "
             f"per sweep = run_s - busy_s / {workers} workers = "
             f"{run_s - busy_s / workers:.4f} s"]
    return Outcome(metrics, tally, notes, bases, tracer, traced_wall, ops)
