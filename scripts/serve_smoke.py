#!/usr/bin/env python
"""CI smoke test for ``repro serve``: boot the real daemon as a
subprocess, drive it over the wire with the stdlib client, and assert
the streamed results are bit-identical to the direct engine APIs.

What it checks (the service acceptance contract):

1. a small **fig3 sweep** submitted over HTTP matches the direct
   ``Runner.run`` golden rows exactly;
2. two **concurrent identical sweep requests** trigger exactly one
   execution (coalescing observable in ``/metrics``) with byte-identical
   results — made deterministic by occupying the single executor slot
   with a long pipeline flight first, so both sweeps overlap in the
   queue; while the blocker runs, the ``running``/``queued``/
   ``inflight``/``subscribers`` gauges read 1/1/2/3; closing the
   blocker's stream also exercises subscription-driven cancellation;
3. an **LLM pipeline job** (scaled-down gpt2) streams per-chunk
   progress and matches the direct ``pipeline_rows`` output exactly;
4. the **/metrics** snapshot is coherent with the observed traffic.

Run: ``python scripts/serve_smoke.py`` (exit 0 on success).
"""

import json
import os
import re
import subprocess
import sys
import time

ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                     os.pardir))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.experiments import Runner, SweepSpec  # noqa: E402
from repro.experiments.executors import pipeline_rows  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402

SWEEP_SPEC = {"models": ["alexnet", "mobilenet"],
              "schemes": ["np", "guardnn-c", "guardnn-ci", "bp"]}
SWEEP_JOB = {"kind": "sweep", "spec": SWEEP_SPEC}
#: a deliberately long streaming flight (~4M requests, many chunks) that
#: holds the one executor slot while the coalescing pair queues behind it
BLOCKER_JOB = {"kind": "pipeline", "workload": "streaming",
               "schemes": ["np"], "chunk_requests": 1 << 14,
               "params": {"nbytes": 256 << 20}}
PIPELINE_JOB = {"kind": "pipeline", "workload": "gpt2",
                "schemes": ["np", "guardnn-ci"], "chunk_requests": 1 << 14,
                "params": {"tokens": 1, "context": 64, "layers": 2}}


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def drain(events) -> dict:
    """Consume an event stream to its terminal ``result`` event."""
    for event in events:
        if event["event"] == "result":
            return event
        if event["event"] in ("error", "cancelled"):
            fail(f"unexpected terminal event: {event}")
    fail("stream ended without a terminal event")


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "2", "--max-running", "1", "--no-cache"],
        cwd=ROOT, env=env, stderr=subprocess.PIPE, text=True)
    try:
        # the daemon announces its ephemeral port on stderr
        line = daemon.stderr.readline()
        match = re.search(r"http://([\d.]+):(\d+)", line)
        if not match:
            fail(f"no listen line from daemon (got {line!r})")
        client = ServiceClient(match.group(1), int(match.group(2)))
        client.wait_ready(timeout=15)
        print(f"# daemon up at {match.group(1)}:{match.group(2)}")

        # 1. sweep over the wire == direct Runner.run
        t0 = time.perf_counter()
        result = client.run(SWEEP_JOB)
        direct = Runner(workers=2).run(
            SweepSpec(models=tuple(SWEEP_SPEC["models"]),
                      schemes=tuple(SWEEP_SPEC["schemes"])).jobs())
        if result["table"]["rows"] != direct.rows:
            fail("streamed sweep rows differ from direct Runner.run")
        if result["table"]["columns"] != direct.columns:
            fail("streamed sweep columns differ from direct Runner.run")
        print(f"# sweep bit-identical ({len(direct.rows)} rows, "
              f"{time.perf_counter() - t0:.2f}s)")

        # 2. concurrent identical sweeps -> one execution (coalesced)
        before = client.metrics()["counters"]
        blocker = client.submit(BLOCKER_JOB)
        if next(blocker)["event"] != "accepted":
            fail("blocker not accepted")
        stream_a = client.submit(SWEEP_JOB)
        accepted_a = next(stream_a)
        stream_b = client.submit(SWEEP_JOB)
        accepted_b = next(stream_b)
        if accepted_a.get("coalesced") is not False:
            fail(f"first sweep unexpectedly coalesced: {accepted_a}")
        if accepted_b.get("coalesced") is not True:
            fail(f"second identical sweep did not coalesce: {accepted_b}")
        if accepted_a["key"] != accepted_b["key"]:
            fail("identical requests produced different content keys")
        # the blocker holds the only slot: the gauges the daemon derives
        # from its flight table are then fixed
        deadline = time.monotonic() + 30
        gauges = client.metrics()["gauges"]
        while gauges["running"] != 1:
            if time.monotonic() > deadline:
                fail("the blocker never started running")
            time.sleep(0.05)
            gauges = client.metrics()["gauges"]
        expected = {"running": 1, "queued": 1, "inflight": 2,
                    "subscribers": 3}
        if {name: gauges[name] for name in expected} != expected:
            fail(f"gauges with the blocker running and the shared sweep "
                 f"queued: {gauges}, expected {expected}")
        blocker.close()  # disconnect -> cooperative cancellation
        result_a, result_b = drain(stream_a), drain(stream_b)
        if result_a != result_b:
            fail("coalesced subscribers saw different results")
        if result_a["table"]["rows"] != direct.rows:
            fail("coalesced sweep rows differ from direct Runner.run")
        after = client.metrics()["counters"]
        if after["coalesced_total"] - before["coalesced_total"] != 1:
            fail(f"expected exactly 1 coalesced submission: {after}")
        # blocker + one (shared) sweep flight; the second sweep must
        # not have triggered a second execution
        if after["executions_total"] - before["executions_total"] != 2:
            fail(f"expected exactly 2 executions (blocker + shared sweep): "
             f"{after}")
        if after["cancelled_total"] - before["cancelled_total"] != 1:
            fail(f"expected the blocker cancellation to be counted: {after}")
        print("# coalescing: 2 identical submissions -> 1 execution; "
              "gauges 1 running, 1 queued, 2 in flight, 3 subscribers; "
              "blocker cancellation observed")

        # 3. LLM pipeline over the wire == direct pipeline_rows
        progress = []
        result = client.run(PIPELINE_JOB,
                            on_event=lambda e: progress.append(e)
                            if e["event"] == "progress" else None)
        direct_rows = pipeline_rows({
            "workload": PIPELINE_JOB["workload"],
            "schemes": tuple(PIPELINE_JOB["schemes"]),
            "chunk_requests": PIPELINE_JOB["chunk_requests"],
            **PIPELINE_JOB["params"]})
        if result["rows"] != direct_rows:
            fail("streamed pipeline rows differ from direct pipeline_rows")
        if not progress:
            fail("pipeline streamed no progress events")
        final = progress[-1]
        if final["requests_done"] != final["total_requests"]:
            fail("pipeline progress did not reach total_requests")
        print(f"# pipeline bit-identical ({len(progress)} progress events, "
              f"{final['total_requests']:,} requests)")

        # 4. metrics coherence
        snapshot = client.metrics()
        counters = snapshot["counters"]
        if counters["completed_total"] < 3:
            fail(f"expected >= 3 completed flights, got {counters}")
        if counters["failed_total"] or counters["bad_requests_total"]:
            fail(f"unexpected failures in counters: {counters}")
        if snapshot["latency"]["count"] != (counters["completed_total"]
                                            + counters["cancelled_total"]):
            fail("latency histogram count != finished flights")
        if snapshot["gauges"]["running"] or snapshot["gauges"]["inflight"]:
            fail(f"gauges not drained: {snapshot['gauges']}")
        if snapshot["coalescing_factor"] <= 1.0:
            fail(f"coalescing factor should exceed 1.0: {snapshot}")
        print("# metrics coherent:",
              json.dumps({key: counters[key] for key in
                          ("admitted_total", "coalesced_total",
                           "executions_total", "completed_total",
                           "cancelled_total")}))
        print("serve smoke: OK")
        return 0
    finally:
        daemon.terminate()
        try:
            daemon.wait(timeout=10)
        except subprocess.TimeoutExpired:
            daemon.kill()


if __name__ == "__main__":
    sys.exit(main())
