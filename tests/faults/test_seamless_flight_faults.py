"""Seamless pipeline flights under faults, in a real daemon.

``repro serve`` computes a pipeline flight that fits one chunk on its
worker pool, so the flight's ``pipeline.chunk`` and ``rewriter.rewrite``
fault sites fire in a pool worker, and a lost worker is recovered the
way a sweep chunk's is: the pool is invalidated and the unfinished
work is redispatched. The daemon runs as a subprocess so that its
forkserver, and every worker forked from it, inherits the fault plan
through ``REPRO_FAULT_PLAN``.
"""

import json
import os
import re
import signal
import subprocess
import sys

import pytest

from repro.experiments.executors import pipeline_rows
from repro.service import ServiceClient

SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))), "src")

#: 2048 random requests: one chunk, so the flight runs on the pool
JOB = {"kind": "pipeline", "workload": "random", "schemes": ["np", "bp"],
       "params": {"n_requests": 2048, "span_bytes": 1 << 28, "seed": 5}}
#: the same job as ``pipeline_run`` params
PARAMS = {"workload": JOB["workload"], "schemes": JOB["schemes"],
          **JOB["params"]}


def start_daemon(plan):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_FAULT_PLAN"] = json.dumps(plan)
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "2", "--no-cache"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    # the daemon announces its ephemeral port on stderr
    match = re.search(r"http://([\d.]+):(\d+)", daemon.stderr.readline())
    assert match, "no listen line from the daemon"
    client = ServiceClient(match.group(1), int(match.group(2)), timeout=120)
    client.wait_ready(timeout=30)
    return daemon, client


@pytest.fixture
def daemon_with(tmp_path):
    started = []

    def start(point):
        point = dict(point, once_file=str(tmp_path / "fired.once"))
        daemon, client = start_daemon({"points": [point]})
        started.append(daemon)
        return client

    yield start
    for daemon in started:
        daemon.send_signal(signal.SIGTERM)
        try:
            daemon.wait(timeout=30)
        except subprocess.TimeoutExpired:
            daemon.kill()
            daemon.wait()
        daemon.stderr.close()


def test_killed_pool_worker_is_recovered_with_identical_rows(daemon_with, tmp_path):
    client = daemon_with({"site": "pipeline.chunk", "at": 0, "action": "kill"})
    result = client.run(JOB)
    assert os.path.exists(tmp_path / "fired.once")  # a worker did die
    assert result["rows"] == pipeline_rows(dict(PARAMS))
    counters = client.metrics()["counters"]
    assert counters["worker_restarts_total"] == 1
    assert counters["chunk_retries_total"] == 1
    assert counters["completed_total"] == 1


def test_rewriter_fault_fails_only_its_flight(daemon_with, tmp_path):
    client = daemon_with({"site": "rewriter.rewrite", "action": "raise"})
    terminal = None
    for event in client.submit(JOB):
        terminal = event
    assert os.path.exists(tmp_path / "fired.once")
    assert terminal["event"] == "error"
    assert terminal["executor"] == "pipeline_run"
    assert "FaultInjected" in terminal["message"]
    # the pool stayed up; the same job now runs clean
    assert client.run(JOB)["rows"] == pipeline_rows(dict(PARAMS))
    counters = client.metrics()["counters"]
    assert counters["worker_restarts_total"] == 0
    assert counters["failed_total"] == 1
