"""The ``serve-mixed`` workload: two closed-loop clients against a
``repro serve --port 0 --no-cache`` daemon.

The daemon is started fresh for every run, so no result cache survives
between runs. The seeded request mix is about half ad-hoc sweeps (three
random paper networks at a unique DRAM bandwidth, 12 jobs) and half
small pipelines (2 k random requests, or about 1 MB of streaming), and
about a quarter of the requests repeat an earlier request of the same
run. An operation is one request, timed on the client from submission
to its terminal event.

Checks: every result satisfies the scheme invariants; a repeated
request returns exactly its earlier result; and a seeded sample of
flights is recomputed through the direct API (``Runner.run``) and must
be bit-identical. A request that is rejected, errors, or fails a check
counts as failed.
"""

from __future__ import annotations

import json
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from typing import Dict, List, Optional

from helpers import (REPO_ROOT, BenchError, Outcome, Tally, latency_summary,
                     program_env, scheme_invariants)

#: closed-loop clients (the machine this was sized on has two cores)
CLIENTS = 2
#: requests generated per run; the clients stop at the deadline
MIX_LENGTH = 4000
#: flights recomputed through the direct API per run
SAMPLE = 6
#: daemon starts per run; setup_s is their median, the last one serves
STARTS = 5

_LISTENING = re.compile(r"listening on http://[0-9.]+:(\d+)")


#: one block of the mix, shuffled per block: half sweeps, half small
#: pipelines, a quarter repeats. Fixing the composition per block (and
#: drawing only the contents from the seed) keeps every run's load the
#: same shape, so latency percentiles do not move with the seed.
BLOCK = ("sweep", "sweep", "sweep", "random", "streaming", "streaming",
         "repeat-sweep", "repeat-pipeline")


def request_mix(seed: int, length: int = MIX_LENGTH) -> List[dict]:
    from repro.experiments.presets import FIG3_INFERENCE_NETWORKS

    def fresh(slot: str) -> dict:
        if slot == "sweep":
            # the position keeps the bandwidth unique within the run
            gbps = round(8.0 + 56.0 * rng.random(), 3) + len(mix) * 1e-6
            return {"kind": "sweep", "spec": {
                "models": rng.sample(FIG3_INFERENCE_NETWORKS, 3),
                "configs": [{"dram_bandwidth_gbps": gbps}]}}
        if slot == "random":
            return {"kind": "pipeline", "workload": "random", "params": {
                "n_requests": 2048, "span_bytes": 1 << 28,
                "seed": rng.randrange(1 << 30)}}
        # ~1 MB at a base address unique to the position
        return {"kind": "pipeline", "workload": "streaming", "params": {
            "nbytes": 1 << 20,
            "base": 64 * (1024 * len(mix) + rng.randrange(1024))}}

    rng = random.Random(seed)
    mix: List[dict] = []
    earlier: Dict[str, List[dict]] = {"sweep": [], "pipeline": []}
    while len(mix) < length:
        block = list(BLOCK)
        rng.shuffle(block)
        for slot in block:
            kind = slot[len("repeat-"):] if slot.startswith("repeat-") else None
            if kind and earlier[kind]:
                request = rng.choice(earlier[kind])
            else:
                # nothing to repeat yet at the very start of the mix
                request = fresh({"sweep": "sweep", "pipeline": "streaming"}.get(kind, slot))
                earlier[request["kind"]].append(request)
            mix.append(request)
    return mix[:length]


class Daemon:
    """One ``repro serve`` child process."""

    def __init__(self):
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--no-cache"],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            env=program_env(), cwd=REPO_ROOT)
        self.log: List[str] = []
        self.peak_rss_mb: Optional[float] = None
        try:
            port = None
            for line in self.proc.stderr:
                self.log.append(line)
                match = _LISTENING.search(line)
                if match:
                    port = int(match.group(1))
                    break
            if port is None:
                raise BenchError("repro serve did not start: "
                                 + "".join(self.log)[-800:])
            # keep draining stderr so the daemon never blocks on a full pipe
            self._drain = threading.Thread(target=self._read_log, daemon=True)
            self._drain.start()
            from repro.service.client import ServiceClient

            self.client = ServiceClient(port=port, timeout=120.0)
            self.client.wait_ready(timeout=30.0, interval=0.005)
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            self.proc.stderr.close()
            raise
        self.setup_s = time.perf_counter() - started

    def _read_log(self) -> None:
        for line in self.proc.stderr:
            self.log.append(line)

    def stop(self) -> None:
        """SIGTERM (graceful drain), then reap the daemon with ``wait4``
        to read its peak RSS."""
        if self.proc.returncode is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + 20.0
        while time.monotonic() < deadline:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            time.sleep(0.01)
        else:
            self.proc.kill()
            pid, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self._drain.join(timeout=5.0)
        self.proc.stderr.close()


def _flight_problems(request: dict, event: dict, where: str) -> List[str]:
    """Scheme invariants on one terminal ``result`` event."""
    if request["kind"] == "pipeline":
        rows = {row["scheme"]: row for row in event["rows"]}
        return scheme_invariants(rows, where)
    points: Dict[tuple, dict] = defaultdict(dict)
    for row in event["table"]["rows"]:
        points[(row["model"], row["mode"], row["batch"])][row["scheme_key"]] = {
            "cycles": row["total_cycles"],
            "metadata_bytes": row["metadata_read_bytes"] + row["metadata_write_bytes"],
            "vn_bytes": row["vn_bytes"], "mac_bytes": row["mac_bytes"],
            "tree_bytes": row["tree_bytes"]}
    problems = []
    for key, by_scheme in points.items():
        problems += scheme_invariants(by_scheme, f"{where} {key[0]}", analytic=True)
    return problems


def _result_rows(request: dict, event: dict) -> list:
    return event["rows"] if request["kind"] == "pipeline" else event["table"]["rows"]


def drive(client, mix: List[dict], tally: Tally, seconds: float = 0.0,
          count: int = 0, tracer=None) -> dict:
    """Closed loop: ``CLIENTS`` threads each submit the next request of
    the mix once their previous one has ended, until ``seconds`` have
    passed or ``count`` requests were issued."""
    lock = threading.Lock()
    state = {"next": 0}
    latencies: List[float] = []
    completed: Dict[int, dict] = {}
    first_result: Dict[str, tuple] = {}
    started = time.perf_counter()

    def take() -> Optional[int]:
        with lock:
            index = state["next"]
            limit = count or len(mix)
            if index >= limit or (not count and index and
                                  time.perf_counter() - started >= seconds):
                return None
            state["next"] = index + 1
            return index

    def client_loop() -> None:
        while True:
            index = take()
            if index is None:
                return
            request = mix[index]
            where = f"request {index} ({request['kind']})"
            began = time.perf_counter()
            try:
                if tracer is not None:
                    with tracer.span("service.request", op=index):
                        event = client.run(request)
                else:
                    event = client.run(request)
            except Exception as error:  # rejected, failed, or transport: count it
                with lock:
                    tally.fail(f"{where}: {type(error).__name__}: {error}")
                continue
            elapsed = time.perf_counter() - began
            problems = _flight_problems(request, event, where)
            identity = json.dumps(request, sort_keys=True)
            rows = _result_rows(request, event)
            with lock:
                earlier = first_result.setdefault(identity, (index, rows))
                if earlier[1] != rows:
                    problems.append(f"{where}: differs from request {earlier[0]}")
                tally.check(problems)
                if not problems:
                    latencies.append(elapsed)
                    completed[index] = event

    threads = [threading.Thread(target=client_loop) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return {"latencies": latencies, "completed": completed,
            "wall": time.perf_counter() - started}


def direct_rows(request: dict) -> list:
    """The same computation through the direct API."""
    from repro.experiments.jobs import Job
    from repro.experiments.runner import Runner
    from repro.experiments.spec import SweepSpec

    with Runner(workers=1) as runner:
        if request["kind"] == "sweep":
            spec = request["spec"]
            return runner.run(SweepSpec(models=tuple(spec["models"]),
                                        configs=tuple(spec["configs"]))).rows
        from repro.mem.pipeline import DEFAULT_CHUNK_REQUESTS

        job = Job.make("pipeline_run", workload=request["workload"],
                       schemes=["np", "guardnn-c", "guardnn-ci", "bp"],
                       chunk_requests=DEFAULT_CHUNK_REQUESTS, **request["params"])
        return runner.run([job]).rows


def check_sample(seed: int, mix: List[dict], completed: Dict[int, dict],
                 tally: Tally) -> int:
    """Recompute a seeded sample of completed flights directly; a
    mismatch turns that request into a failure. Returns the sample size."""
    rng = random.Random(seed ^ 0x5EED)
    distinct = {}
    for index in sorted(completed):
        distinct.setdefault(json.dumps(mix[index], sort_keys=True), index)
    chosen = rng.sample(sorted(distinct.values()), min(SAMPLE, len(distinct)))
    for index in chosen:
        request = mix[index]
        direct = json.loads(json.dumps(direct_rows(request)))
        if direct != _result_rows(request, completed[index]):
            tally.retract(f"request {index}: service rows differ from the direct API")
    return len(chosen)


def start_daemons(starts: int = STARTS):
    """Start the daemon ``starts`` times; all but the last are stopped
    at once. Returns (the live daemon, the start-up seconds of each)."""
    setups = []
    for attempt in range(starts):
        daemon = Daemon()
        setups.append(daemon.setup_s)
        if attempt < starts - 1:
            daemon.stop()
    return daemon, setups


def measure(workload: str, seed: int, seconds: float) -> Outcome:
    mix = request_mix(seed)
    tally = Tally()
    daemon, setups = start_daemons()
    try:
        load = drive(daemon.client, mix, tally, seconds=seconds)
    finally:
        daemon.stop()
    if not load["latencies"]:
        raise RuntimeError(f"serve-mixed: no request succeeded: {tally.reasons}")
    sampled = check_sample(seed, mix, load["completed"], tally)
    done = len(load["latencies"])
    latency = latency_summary(load["latencies"])
    metrics = {
        "setup_s": statistics.median(setups),
        "ns_per_request": load["wall"] * 1e9 / done,
        "jobs_per_s": done / load["wall"],
        "p50_ms": latency["p50_ms"],
        "p90_ms": latency["p90_ms"],
        "peak_rss_mb": daemon.peak_rss_mb,
    }
    notes = [f"{tally.attempted} requests by {CLIENTS} closed-loop clients; "
             f"a request is one service request",
             f"request latencies: {latency['note']}",
             f"{sampled} flights recomputed through the direct API",
             f"daemon start-ups (s): {', '.join(f'{s:.3f}' for s in setups)}"]
    return Outcome(metrics, tally, notes)


def traced(workload: str, seed: int, seconds: float) -> Outcome:
    from tracing import Tracer

    mix = request_mix(seed)
    tally = Tally()
    daemon = Daemon()
    try:
        plain = drive(daemon.client, mix, tally, seconds=seconds / 2)
    finally:
        daemon.stop()
    issued = tally.attempted
    tracer = Tracer()
    daemon = Daemon()
    try:
        load = drive(daemon.client, mix, tally, count=issued, tracer=tracer)
        snapshot = daemon.client.metrics()
    finally:
        daemon.stop()
    counters = snapshot["counters"]
    server_p50_ms = snapshot["latency"]["p50_s"] * 1e3
    client_p50_ms = latency_summary(load["latencies"])["p50_ms"]
    sweep_jobs = sum(len(mix[i]["spec"]["models"]) * 4 for i in range(issued)
                     if mix[i]["kind"] == "sweep")
    cached = sum(1 for event in load["completed"].values()
                 if event.get("kind") == "pipeline" and event.get("cached"))
    metrics = {
        "service.flight_p50_ms": server_p50_ms,
        "service.transport_ms": client_p50_ms - server_p50_ms,
        "service.coalesced": float(counters["coalesced_total"]),
        "service.rejected": float(counters["rejected_total"]),
        "service.events_streamed": float(counters["events_streamed_total"]),
        "experiments.jobs": sweep_jobs / issued,
        "experiments.cache_hits": float(cached),
        "trace.overhead_frac": load["wall"] / plain["wall"] - 1,
    }
    bases = {
        "service.flight_p50_ms": "daemon /metrics flight histogram",
        "service.transport_ms": f"client p50 {client_p50_ms:.2f} ms - daemon p50",
        "service.coalesced": f"of {issued} requests",
        "service.rejected": f"of {issued} requests",
        "service.events_streamed": f"for {issued} requests",
        "experiments.jobs": "sweep executor jobs per request",
        "experiments.cache_hits": f"of {issued} requests: pipeline results "
                                  "served from the daemon's memory cache",
        "trace.overhead_frac": f"untraced wall {plain['wall']:.3f} s, "
                               f"{issued} requests each",
    }
    notes = [f"traced {issued} requests on a second daemon after the same "
             f"requests untraced"]
    return Outcome(metrics, tally, notes, bases, tracer, load["wall"], issued)
