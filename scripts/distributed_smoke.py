#!/usr/bin/env python
"""Distributed-execution smoke: real worker processes, real signals,
byte-compared against local runs.

Six phases (the CI distributed-smoke job):

1. **Sweep failover** — coordinator + two ``repro work`` subprocesses,
   one SIGKILLed the moment it holds its first lease; the survivor
   waits out the dead lease and finishes; the assembled table must be
   byte-identical to a local ``Runner.run``.
2. **Pipeline failover** — a pipeline unit with checkpoint migration:
   the victim uploads one envelope then is SIGKILLed at the next seam;
   the survivor resumes *mid-unit* from the migrated envelope
   (``resumed_units`` ≥ 1) and the rows must be byte-identical to a
   local uninterrupted ``pipeline_rows``.
3. **Warm re-run** — a fresh coordinator over the same pipeline job
   and the same shared cache directory serves the unit when it is
   built, before any lease (``cache_served_units`` > 0,
   ``lease_requests_total`` 0).
4. **Coordinator kill + journal restart** — the *coordinator* itself
   (a real ``repro sweep --distributed --journal`` process) is
   SIGKILLed mid-run by the ``dist.journal`` fault after exactly one
   commit is durable; its ``--reconnect-timeout 0`` workers must
   survive the outage, a restart against the same ``--journal`` must
   announce ``epoch`` ≥ 1 and ``replayed_units`` ≥ 1, and the final
   table must be byte-identical to a local run.
5. **serve --distributed** — a real ``repro serve --distributed``
   daemon answers one flight through a parked ``repro work`` process
   and one through the local-pool fallback (zero live workers), both
   byte-identical to the direct APIs.
6. **Clean exit** — three ``repro sweep --distributed`` runs, each
   served by two ``repro work`` processes on the default reconnect
   budget (a gate client holds one unit until both have registered);
   every worker must hear ``done`` and exit 0 within 5 s of the
   coordinator's exit, none left napping against a closed port.

Exit code 0 on success, 1 with a diagnostic on any deviation.
"""

import json
import os
import re
import signal
import socket
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

from repro.distributed import SweepCoordinator  # noqa: E402
from repro.experiments.cache import ResultCache  # noqa: E402
from repro.experiments.executors import pipeline_rows  # noqa: E402
from repro.experiments.jobs import Job, canonical_json  # noqa: E402
from repro.experiments.runner import Runner, _MEMORY_CACHE  # noqa: E402
from repro.experiments.spec import SweepSpec  # noqa: E402
from repro.experiments.table import ResultTable  # noqa: E402

PIPELINE_PARAMS = {"workload": "streaming", "nbytes": 1 << 16,
                   "chunk_requests": 32, "schemes": ["np", "bp"]}


def fail(message: str) -> int:
    print(f"FAIL: {message}", file=sys.stderr)
    return 1


def worker_env(extra_plan=None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_FAULT_PLAN", None)
    if extra_plan is not None:
        env["REPRO_FAULT_PLAN"] = json.dumps(extra_plan)
    return env


def start_worker(url: str, name: str, env: dict, workers: int = 2,
                 reconnect: float = None,
                 capture=None) -> subprocess.Popen:
    argv = [sys.executable, "-m", "repro", "work", url, "--name", name,
            "--workers", str(workers), "--no-cache"]
    if reconnect is not None:
        argv += ["--reconnect-timeout", str(reconnect)]
    sink = capture if capture is not None else sys.stderr
    return subprocess.Popen(argv, env=env, stdout=sink, stderr=sink)


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def read_text(path: str) -> str:
    with open(path) as handle:
        return handle.read()


def kill_all(*procs) -> None:
    for proc in procs:
        if proc is not None and proc.poll() is None:
            proc.kill()
    for proc in procs:
        if proc is not None:
            proc.wait(timeout=30)


def drive_with_survivor(coordinator, survivor_name: str):
    """Start a survivor worker, block until the coordinator is done,
    and return (rows_per_job, survivor_exit) — or (None, reason)."""
    state = coordinator.state
    survivor = start_worker(coordinator.url, survivor_name, worker_env())
    try:
        deadline = time.monotonic() + 300.0
        while not state.done:
            if time.monotonic() > deadline:
                return None, "did not complete within 300s"
            if survivor.poll() is not None:
                return None, f"survivor exited early ({survivor.returncode})"
            time.sleep(0.1)
        if survivor.wait(timeout=60) != 0:
            return None, f"survivor exit code {survivor.returncode}"
    finally:
        if survivor.poll() is None:
            survivor.kill()
    return coordinator.run(), 0


def phase_sweep_failover() -> int:
    spec = SweepSpec(models=("alexnet", "mobilenet"), schemes=("np", "bp"))
    jobs = spec.jobs()

    print(f"# phase 1: local reference, {len(jobs)} jobs", file=sys.stderr)
    with Runner(workers=2, cache=None) as runner:
        reference = runner.run(jobs).to_json()
    _MEMORY_CACHE.clear()

    coordinator = SweepCoordinator(jobs, cache=None, local_workers=1,
                                   unit_jobs=1, lease_seconds=2.0,
                                   wait_workers=300.0)
    state = coordinator.state
    print(f"# coordinator at {coordinator.url}", file=sys.stderr)

    # victim: SIGKILLs itself (via the fault harness) the moment it
    # holds its first lease — a real process dying mid-sweep
    victim = start_worker(coordinator.url, "victim", worker_env(
        {"points": [{"site": "dist.unit@victim", "at": 0,
                     "action": "kill"}]}))
    try:
        code = victim.wait(timeout=120)
    finally:
        if victim.poll() is None:
            victim.kill()
    if code != -signal.SIGKILL:
        return fail(f"victim exited {code}, expected SIGKILL (-9)")
    if state.counters["leases_granted"] < 1:
        return fail("victim died without ever holding a lease")
    print("# victim SIGKILLed mid-lease", file=sys.stderr)

    rows_per_job, status = drive_with_survivor(coordinator, "survivor")
    if rows_per_job is None:
        return fail(f"sweep phase: {status}")

    table = ResultTable()
    for rows in rows_per_job:
        table.extend(rows)
    if table.to_json() != reference:
        return fail("distributed table differs from the local reference")

    counters = state.counters
    print(f"# counters: {json.dumps(counters, sort_keys=True)}",
          file=sys.stderr)
    if counters["units_completed"] != len(jobs):
        return fail(f"expected {len(jobs)} units, "
                    f"got {counters['units_completed']}")
    if counters["lease_expirations"] < 1:
        return fail("the victim's lease never expired — failover untested")
    if state.snapshot()["redispatches"] < 1:
        return fail("no unit was re-dispatched after the SIGKILL")
    print("OK: SIGKILL failover complete, rows byte-identical to local run")
    return 0


def phase_pipeline_failover(cache_dir: str, reference) -> int:
    print("# phase 2: pipeline unit, SIGKILL at a checkpoint seam",
          file=sys.stderr)
    _MEMORY_CACHE.clear()
    job = Job("pipeline_run", canonical_json(PIPELINE_PARAMS))
    coordinator = SweepCoordinator([job], cache=ResultCache(cache_dir),
                                   lease_seconds=2.0, wait_workers=300.0,
                                   checkpoint_every=2)
    state = coordinator.state
    print(f"# coordinator at {coordinator.url}", file=sys.stderr)

    # the victim's second envelope upload SIGKILLs it: exactly one
    # envelope migrated before the process died holding the lease
    victim = start_worker(coordinator.url, "victim", worker_env(
        {"points": [{"site": "dist.checkpoint@victim", "at": 1,
                     "action": "kill"}]}), workers=1)
    try:
        code = victim.wait(timeout=120)
    finally:
        if victim.poll() is None:
            victim.kill()
    if code != -signal.SIGKILL:
        return fail(f"pipeline victim exited {code}, expected SIGKILL (-9)")
    if state.counters["checkpoints_migrated"] < 1:
        return fail("victim died before any envelope migrated")
    print("# victim SIGKILLed mid-unit, one envelope migrated",
          file=sys.stderr)

    rows_per_job, status = drive_with_survivor(coordinator, "survivor")
    if rows_per_job is None:
        return fail(f"pipeline phase: {status}")
    if rows_per_job[0] != reference:
        return fail("resumed pipeline rows differ from the local run")

    counters = state.counters
    print(f"# counters: {json.dumps(counters, sort_keys=True)}",
          file=sys.stderr)
    if counters["resumed_units"] < 1:
        return fail("the survivor never resumed from the migrated envelope")
    if counters["checkpoint_rejects"] != 0:
        return fail("a valid envelope was rejected")
    print("OK: mid-unit failover complete, rows byte-identical to local run")
    return 0


def phase_warm_rerun(cache_dir: str, reference) -> int:
    print("# phase 3: warm re-run against the shared cache",
          file=sys.stderr)
    _MEMORY_CACHE.clear()
    job = Job("pipeline_run", canonical_json(PIPELINE_PARAMS))
    warm = SweepCoordinator([job], cache=ResultCache(cache_dir),
                            wait_workers=0.0)
    rows_per_job = warm.run()
    if rows_per_job[0] != reference:
        return fail("cache-served pipeline rows differ from the local run")
    counters = warm.state.counters
    print(f"# counters: {json.dumps(counters, sort_keys=True)}",
          file=sys.stderr)
    if counters["cache_served_units"] < 1:
        return fail("warm re-run did not serve the unit from the cache")
    if counters["lease_requests_total"] != 0:
        return fail("warm re-run asked for a lease despite a full cache")
    print("OK: warm re-run served from the shared cache, nothing leased")
    return 0


def phase_coordinator_restart() -> int:
    """SIGKILL the *coordinator* mid-run; restart it against the same
    write-ahead journal; the parked workers must survive and rejoin."""
    print("# phase 4: coordinator SIGKILL + journal restart",
          file=sys.stderr)
    spec = SweepSpec(models=("alexnet", "mobilenet"), schemes=("np", "bp"))
    jobs = spec.jobs()
    with Runner(workers=2, cache=None) as runner:
        reference = runner.run(jobs).with_normalized().to_json()
    _MEMORY_CACHE.clear()

    with tempfile.TemporaryDirectory(prefix="repro-smoke-wal-") as tmp:
        port = free_port()
        journal = os.path.join(tmp, "sweep.journal")
        out_path = os.path.join(tmp, "table.json")
        argv = [sys.executable, "-m", "repro", "sweep",
                "--models", "alexnet,mobilenet", "--schemes", "np,bp",
                "--distributed", "--listen", f"127.0.0.1:{port}",
                "--unit-jobs", "1", "--wait-workers", "600",
                "--workers", "1", "--no-cache", "--format", "json",
                "--out", out_path, "--journal", journal]
        url = f"http://127.0.0.1:{port}"
        # append 0 is the journal header, append 1 the first commit;
        # the coordinator dies before commit #2 can land
        env_kill = worker_env({"points": [
            {"site": "dist.journal", "at": 2, "action": "kill"}]})

        coordinator = subprocess.Popen(argv, env=env_kill,
                                       stdout=sys.stderr, stderr=sys.stderr)
        workers = [start_worker(url, "w1", worker_env(), workers=1,
                                reconnect=0),
                   start_worker(url, "w2", worker_env(), workers=1,
                                reconnect=0)]
        try:
            code = coordinator.wait(timeout=300)
            if code != -signal.SIGKILL:
                return fail(f"coordinator exited {code}, "
                            f"expected SIGKILL (-9)")
            print("# coordinator SIGKILLed at journal append #2",
                  file=sys.stderr)
            time.sleep(1.0)
            if any(worker.poll() is not None for worker in workers):
                return fail("a worker exited when the coordinator died "
                            "(--reconnect-timeout 0 must park forever)")

            err_path = os.path.join(tmp, "restart.err")
            with open(err_path, "wb") as err:
                coordinator = subprocess.Popen(argv, env=worker_env(),
                                               stdout=err, stderr=err)
                code = coordinator.wait(timeout=300)
            stderr_text = open(err_path).read()
            sys.stderr.write(stderr_text)
            if code != 0:
                return fail(f"restarted coordinator exited {code}")

            match = re.search(r"# journal .+ epoch=(\d+) "
                              r"replayed_units=(\d+)", stderr_text)
            if not match:
                return fail("restart never announced its journal state")
            epoch, replayed = int(match.group(1)), int(match.group(2))
            if epoch < 1:
                return fail(f"restart epoch {epoch}, expected >= 1")
            if replayed < 1:
                return fail("restart replayed no units — the pre-crash "
                            "commit was lost")
            if open(out_path).read() != reference + "\n":
                return fail("recovered table differs from the local run")
            if os.path.exists(journal):
                return fail("spent journal was not discarded")
        finally:
            kill_all(coordinator, *workers)
    print(f"OK: coordinator restart recovered (epoch={epoch}, "
          f"replayed_units={replayed}), rows byte-identical to local run")
    return 0


def phase_serve_distributed(reference) -> int:
    """One serve --distributed flight through a real worker, one
    through the local-pool fallback; both byte-identical."""
    from repro.service import ServiceClient

    print("# phase 5: serve --distributed (worker + local fallback)",
          file=sys.stderr)
    spec = SweepSpec(models=("alexnet", "mobilenet"), schemes=("np", "bp"))
    with Runner(workers=2, cache=None) as runner:
        sweep_rows = runner.run(spec.jobs()).rows
    _MEMORY_CACHE.clear()

    with tempfile.TemporaryDirectory(prefix="repro-smoke-serve-") as tmp:
        port, dist_port = free_port(), free_port()
        serve = worker = None
        worker_log = os.path.join(tmp, "worker.log")
        try:
            serve = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve",
                 "--port", str(port),
                 "--dist-listen", f"127.0.0.1:{dist_port}",
                 "--distributed", "--dist-wait-workers", "20",
                 "--workers", "2", "--no-cache",
                 "--checkpoint-dir", tmp],
                env=worker_env(), stdout=sys.stderr, stderr=sys.stderr)
            with open(worker_log, "wb") as log:
                worker = start_worker(f"http://127.0.0.1:{dist_port}",
                                      "fleet", worker_env(), workers=2,
                                      reconnect=0, capture=log)

            deadline = time.monotonic() + 30.0
            while True:
                try:
                    socket.create_connection(("127.0.0.1", port),
                                             timeout=1.0).close()
                    break
                except OSError:
                    if time.monotonic() > deadline:
                        return fail("serve daemon never came up")
                    time.sleep(0.2)
            client = ServiceClient("127.0.0.1", port, timeout=300)

            # flight 1: the parked worker joins the flight's
            # coordinator and serves its units
            result = client.run({"kind": "sweep",
                                 "spec": {"models": list(spec.models),
                                          "schemes": list(spec.schemes)}})
            if result["table"]["rows"] != sweep_rows:
                return fail("worker-served flight differs from local run")
            log_text = open(worker_log).read()
            if "committed" not in log_text:
                return fail("the parked worker never committed a unit — "
                            "the flight was not served remotely")
            print("# flight 1 served by the parked worker",
                  file=sys.stderr)

            # flight 2: no live workers — after --dist-wait-workers the
            # local pool takes the units
            kill_all(worker)
            worker = None
            result = client.run({
                "kind": "pipeline",
                "workload": PIPELINE_PARAMS["workload"],
                "schemes": PIPELINE_PARAMS["schemes"],
                "chunk_requests": PIPELINE_PARAMS["chunk_requests"],
                "params": {"nbytes": PIPELINE_PARAMS["nbytes"]}})
            if result["rows"] != reference:
                return fail("local-fallback flight differs from local run")
            print("# flight 2 served by the local-pool fallback",
                  file=sys.stderr)
        finally:
            if serve is not None and serve.poll() is None:
                serve.send_signal(signal.SIGTERM)
                try:
                    serve.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    pass
            kill_all(serve, worker)
    print("OK: serve --distributed answered both flights byte-identically")
    return 0


def phase_clean_exit() -> int:
    """Every default-budget worker hears ``done``: the coordinator
    keeps serving after its last commit until each live worker has been
    told, so all of them exit 0 right after it."""
    from repro.distributed import CoordinatorClient, CoordinatorUnreachable

    print("# phase 6: clean exit of default-budget workers",
          file=sys.stderr)
    for run in range(1, 4):
        port = free_port()
        url = f"http://127.0.0.1:{port}"
        argv = [sys.executable, "-m", "repro", "sweep",
                "--models", "alexnet,mobilenet", "--schemes", "np,bp",
                "--distributed", "--listen", f"127.0.0.1:{port}",
                "--unit-jobs", "1", "--wait-workers", "600",
                "--workers", "1", "--no-cache", "--format", "json"]
        coordinator = subprocess.Popen(argv, env=worker_env(),
                                       stdout=subprocess.DEVNULL,
                                       stderr=sys.stderr)
        workers = []
        with tempfile.TemporaryDirectory(prefix="repro-smoke-exit-") as tmp:
            logs = [os.path.join(tmp, f"w{i}.log") for i in (1, 2)]
            try:
                # a gate holds one unit until both workers registered, so
                # one fast worker cannot end the sweep before the other
                # has even connected
                gate = CoordinatorClient(url)
                deadline = time.monotonic() + 60.0
                while True:
                    try:
                        gate_id = gate.register("gate")["worker"]
                        break
                    except CoordinatorUnreachable:
                        if time.monotonic() > deadline:
                            return fail(f"run {run}: coordinator never "
                                        f"came up")
                        time.sleep(0.1)
                if gate.lease(gate_id)["event"] != "lease":
                    return fail(f"run {run}: the gate got no unit")
                for i, log_path in enumerate(logs, 1):
                    with open(log_path, "wb") as log:
                        workers.append(start_worker(url, f"w{i}",
                                                    worker_env(), workers=1,
                                                    capture=log))
                while not all("registered as" in read_text(path)
                              for path in logs):
                    if time.monotonic() > deadline:
                        return fail(f"run {run}: a worker never registered")
                    time.sleep(0.1)
                gate.deregister(gate_id)

                code = coordinator.wait(timeout=300)
                if code != 0:
                    return fail(f"run {run}: coordinator exited {code}")
                deadline = time.monotonic() + 5.0
                for worker in workers:
                    try:
                        code = worker.wait(
                            timeout=max(0.0, deadline - time.monotonic()))
                    except subprocess.TimeoutExpired:
                        return fail(f"run {run}: a worker was still "
                                    f"running 5 s after the coordinator "
                                    f"exited")
                    if code != 0:
                        return fail(f"run {run}: a worker exited {code}, "
                                    f"expected 0")
            finally:
                kill_all(coordinator, *workers)
                for path in logs[:len(workers)]:
                    sys.stderr.write(read_text(path))
        print(f"# run {run}: both workers exited 0", file=sys.stderr)
    print("OK: every worker heard done and exited 0 with its coordinator")
    return 0


def main() -> int:
    code = phase_sweep_failover()
    if code:
        return code

    print(f"# pipeline reference: {json.dumps(PIPELINE_PARAMS)}",
          file=sys.stderr)
    reference = pipeline_rows(dict(PIPELINE_PARAMS))
    with tempfile.TemporaryDirectory(prefix="repro-smoke-cache-") as cache_dir:
        code = phase_pipeline_failover(cache_dir, reference)
        if code:
            return code
        code = phase_warm_rerun(cache_dir, reference)
        if code:
            return code
    code = phase_coordinator_restart()
    if code:
        return code
    code = phase_serve_distributed(reference)
    if code:
        return code
    return phase_clean_exit()


if __name__ == "__main__":
    sys.exit(main())
