"""Chaos tests for the durable control plane: a *real* coordinator
process SIGKILLed mid-run and restarted against the same journal.

Two acceptance scenarios, both over real HTTP with real ``repro``
subprocesses on both sides of the wire:

* **Sweep** — ``repro sweep --distributed --journal`` is killed by the
  ``dist.journal`` fault the instant the second journal append (the
  second unit commit) would land, so exactly one commit is durable.
  Two ``repro work --reconnect-timeout 0`` workers must survive the
  outage (never exit), re-register with the restarted coordinator
  under its bumped epoch, and finish the sweep; the final table must
  be bit-identical to an uninterrupted local run, and the journaled
  pre-crash commit must hash to its recorded ``rows_digest`` and match
  a local recomputation byte for byte.
* **Pipeline** — ``repro pipeline --distributed --journal`` dies the
  same way after exactly one chunk-seam envelope is journaled, and the
  lease-holding worker is killed with it. A replacement worker parked
  against the dead port (``--reconnect-timeout 0`` = wait forever)
  joins the restarted coordinator, which re-offers the unit with the
  journaled envelope riding the re-grant — so the successor *resumes*
  mid-unit (``resumed >= 1``) and the rows are bit-identical to an
  uninterrupted ``pipeline_rows`` call.

Both restarts run with ``--wait-workers`` far beyond the test timeout:
completion therefore *proves* the remote workers served every unit —
the local-pool fallback never had a chance to mask a broken
re-registration path.
"""

import json
import os
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.distributed import protocol, replay
from repro.experiments.executors import pipeline_rows
from repro.experiments.runner import Runner, _MEMORY_CACHE
from repro.experiments.spec import SweepSpec
from repro.testing import faults

SPEC = SweepSpec(models=("alexnet", "mobilenet"), schemes=("np", "bp"))
PIPELINE_PARAMS = {"workload": "streaming", "nbytes": 1 << 16,
                   "chunk_requests": 32, "schemes": ["np", "bp"]}
SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))), "src")

#: kill the coordinator before journal append #2 lands — append 0 is
#: the durable header, append 1 the first commit (sweep) or the first
#: migrated envelope (pipeline), so exactly one record beyond the
#: header survives the crash
KILL_PLAN = {"points": [
    {"site": "dist.journal", "at": 2, "action": "kill"}]}

JOURNAL_LINE = re.compile(
    r"^# journal .+ epoch=(\d+) replayed_units=(\d+) truncated=(\d+)",
    re.MULTILINE)


@pytest.fixture(autouse=True)
def _clean():
    faults.clear()
    _MEMORY_CACHE.clear()
    yield
    faults.clear_env()
    _MEMORY_CACHE.clear()


def _free_port():
    import socket

    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _env(plan=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop(faults.ENV_VAR, None)
    if plan is not None:
        env[faults.ENV_VAR] = json.dumps(plan)
    return env


def _spawn(argv, tmp_path, tag, plan=None):
    """Start a ``repro`` subprocess with stdout/stderr teed to files
    (pipes would deadlock against a process we intend to SIGKILL)."""
    out = open(tmp_path / f"{tag}.out", "wb")
    err = open(tmp_path / f"{tag}.err", "wb")
    proc = subprocess.Popen([sys.executable, "-m", "repro"] + argv,
                            env=_env(plan), stdout=out, stderr=err)
    proc._tee = (out, err)  # closed by _reap
    return proc


def _reap(proc):
    for handle in getattr(proc, "_tee", ()):
        handle.close()


def _kill_all(*procs):
    for proc in procs:
        if proc is not None and proc.poll() is None:
            proc.kill()
    for proc in procs:
        if proc is not None:
            proc.wait(timeout=30)
            _reap(proc)


def _spawn_worker(url, name, tmp_path):
    """A ``repro work`` subprocess with the reconnect budget disabled:
    it must outlive any coordinator outage, never exiting on its own."""
    return _spawn(["work", url, "--name", name, "--workers", "1",
                   "--no-cache", "--reconnect-timeout", "0"],
                  tmp_path, f"worker-{name}")


def _journal_announce(stderr_path):
    """Parse the ``# journal ... epoch=E replayed_units=R truncated=T``
    line the coordinator CLI prints at startup."""
    text = stderr_path.read_text()
    match = JOURNAL_LINE.search(text)
    assert match, f"no journal announce line in stderr:\n{text}"
    return tuple(int(group) for group in match.groups())


def test_sweep_coordinator_sigkill_restart_bit_identical(tmp_path):
    jobs = SPEC.jobs()
    with Runner(workers=2, cache=None) as runner:
        table = runner.run(jobs).with_normalized()
    reference = table.to_json()
    _MEMORY_CACHE.clear()

    port = _free_port()
    journal = tmp_path / "sweep.journal"
    out_path = tmp_path / "table.json"
    argv = ["sweep", "--models", "alexnet,mobilenet", "--schemes", "np,bp",
            "--distributed", "--listen", f"127.0.0.1:{port}",
            "--unit-jobs", "1", "--wait-workers", "600",
            "--workers", "1", "--no-cache", "--format", "json",
            "--out", str(out_path), "--journal", str(journal)]
    url = f"http://127.0.0.1:{port}"

    coordinator = workers = None
    try:
        coordinator = _spawn(argv, tmp_path, "coord1", plan=KILL_PLAN)
        workers = [_spawn_worker(url, "w1", tmp_path),
                   _spawn_worker(url, "w2", tmp_path)]

        # the fault plan SIGKILLs the coordinator at journal append #2
        assert coordinator.wait(timeout=300) == -signal.SIGKILL
        _reap(coordinator)

        # exactly one commit is durable, and it is *correct*: it hashes
        # to its recorded digest and matches a local recomputation
        state = replay(str(journal))
        assert state is not None and len(state.commits) == 1
        (unit, commit), = state.commits.items()
        rows = protocol.rows_from_wire(commit["rows"])
        assert protocol.rows_digest(rows) == commit["digest"]
        with Runner(workers=1, cache=None) as runner:
            assert rows == runner.compute_rows([jobs[unit]])
        _MEMORY_CACHE.clear()

        # the workers did NOT die with the coordinator — reconnect
        # budget 0 means they back off against the dead port forever
        time.sleep(1.0)
        assert all(worker.poll() is None for worker in workers), \
            "a worker exited when the coordinator was killed"

        # restart against the same journal (no fault plan this time)
        coordinator = _spawn(argv, tmp_path, "coord2")
        assert coordinator.wait(timeout=300) == 0
        _reap(coordinator)

        # completion with --wait-workers 600 proves the parked workers
        # re-registered under the new epoch and served every unit —
        # the local fallback never engages inside the test timeout
        epoch, replayed, truncated = _journal_announce(
            tmp_path / "coord2.err")
        assert epoch == 1
        assert replayed == 1
        assert truncated == 0

        assert out_path.read_text() == reference + "\n", \
            "recovered sweep table is not bit-identical to the local run"
        assert not journal.exists(), "spent journal was not discarded"

        # budget-0 workers treat "done" as the end of the run, not of
        # the worker: both stay parked for the next coordinator
        assert all(worker.poll() is None for worker in workers)
    finally:
        _kill_all(coordinator, *(workers or ()))


def test_pipeline_coordinator_sigkill_envelope_rides_restart(tmp_path):
    reference = pipeline_rows(dict(PIPELINE_PARAMS))
    _MEMORY_CACHE.clear()
    expected = json.dumps(reference, indent=2, sort_keys=True) + "\n"

    port = _free_port()
    journal = tmp_path / "pipeline.journal"
    argv = ["pipeline", "--workload", "streaming", "--schemes", "np,bp",
            "--chunk-requests", "32", "--params", '{"nbytes": 65536}',
            "--distributed", "--listen", f"127.0.0.1:{port}",
            "--wait-workers", "600", "--checkpoint-every", "1",
            "--no-cache", "--journal", str(journal)]
    url = f"http://127.0.0.1:{port}"

    coordinator = victim = survivor = None
    try:
        coordinator = _spawn(argv, tmp_path, "coord1", plan=KILL_PLAN)
        victim = _spawn_worker(url, "victim", tmp_path)

        # append 0 = header, append 1 = the victim's first chunk-seam
        # envelope; the coordinator dies accepting the second one
        assert coordinator.wait(timeout=300) == -signal.SIGKILL
        _reap(coordinator)
        state = replay(str(journal))
        assert state is not None and not state.commits
        assert 0 in state.checkpoints  # the surviving envelope

        # kill the lease holder too: only the *journaled* envelope can
        # carry its progress across the restart
        _kill_all(victim)
        victim = None

        # the successor parks against the dead port (budget disabled)
        survivor = _spawn_worker(url, "survivor", tmp_path)
        time.sleep(1.0)
        assert survivor.poll() is None

        coordinator = _spawn(argv, tmp_path, "coord2")
        assert coordinator.wait(timeout=300) == 0
        _reap(coordinator)

        epoch, replayed, truncated = _journal_announce(
            tmp_path / "coord2.err")
        assert epoch == 1
        assert replayed == 0  # no commit survived — only the envelope
        assert truncated == 0

        # the journaled envelope rode the re-grant: the successor
        # resumed mid-unit instead of recomputing from the start
        summary = (tmp_path / "coord2.err").read_text()
        resumed = re.search(r"resumed=(\d+)", summary)
        assert resumed and int(resumed.group(1)) >= 1, summary

        assert (tmp_path / "coord2.out").read_text() == expected, \
            "recovered pipeline rows are not bit-identical"
        assert not journal.exists(), "spent journal was not discarded"
    finally:
        _kill_all(coordinator, victim, survivor)
