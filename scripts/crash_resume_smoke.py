#!/usr/bin/env python
"""CI crash/resume smoke test: SIGKILL a journaled pipeline run
mid-flight, resume it from its journal, and assert the resumed output
is bit-identical to an uninterrupted reference run.

The crash is injected with the deterministic fault harness
(``REPRO_FAULT_PLAN``): the worker process SIGKILLs *itself* at a
chosen chunk index, so the interruption lands at exactly the same
request cursor on every run — no timing, no flakes. What this pins
down end to end:

1. ``python -m repro pipeline --journal --checkpoint-every`` journals
   periodic chunk-seam checkpoints a hard kill cannot corrupt (each
   record is fsync'd before the run goes on);
2. a rerun with the same ``--journal`` resumes from the last envelope
   (its summary line reads ``# units=1 resumed=1 ...``) and the final
   rows equal the uninterrupted run byte for byte (the equivalence
   suites prove this in-process; this script proves it across a real
   process death);
3. a completed resume deletes its journal.

Run: ``python scripts/crash_resume_smoke.py`` (exit 0 on success).
"""

import json
import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                     os.pardir))

#: 8 MiB streaming / 64 B requests = 131072 requests = 32 chunks of 4096
PIPELINE_ARGS = ["--workload", "streaming", "--schemes", "np,bp",
                 "--chunk-requests", "4096",
                 "--params", json.dumps({"nbytes": 8 << 20})]
KILL_AT_CHUNK = 10  # a third of the way in: past several checkpoints

KILL_PLAN = json.dumps({"points": [
    {"site": "pipeline.chunk", "at": KILL_AT_CHUNK, "action": "kill"}]})


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def run_pipeline(extra, fault_plan=None) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("REPRO_FAULT_PLAN", None)
    if fault_plan is not None:
        env["REPRO_FAULT_PLAN"] = fault_plan
    return subprocess.run(
        [sys.executable, "-m", "repro", "pipeline"] + PIPELINE_ARGS + extra,
        cwd=ROOT, env=env, capture_output=True, text=True)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="crash-resume-") as tmp:
        journal = os.path.join(tmp, "run.journal")

        # 1. uninterrupted reference
        reference = run_pipeline([])
        if reference.returncode != 0:
            fail(f"reference run failed: {reference.stderr}")
        reference_rows = json.loads(reference.stdout)
        print(f"# reference: {len(reference_rows)} rows")

        # 2. journaled run, SIGKILLed at chunk {KILL_AT_CHUNK}
        crashed = run_pipeline(
            ["--journal", journal, "--checkpoint-every", "2"],
            fault_plan=KILL_PLAN)
        if crashed.returncode == 0:
            fail("faulted run exited 0 — the kill fault never fired")
        if not os.path.exists(journal):
            fail("no journal survived the crash")
        print(f"# crashed as planned (rc={crashed.returncode}), "
              f"journal on disk ({os.path.getsize(journal)} bytes)")

        # 3. resume from the last envelope; rows must match the
        #    uninterrupted run exactly
        resumed = run_pipeline(["--journal", journal])
        if resumed.returncode != 0:
            fail(f"resume failed: {resumed.stderr}")
        if not re.search(r"^# units=1 resumed=1 ", resumed.stderr, re.M):
            fail(f"the rerun did not resume from the journal: "
                 f"{resumed.stderr}")
        if json.loads(resumed.stdout) != reference_rows:
            fail("resumed rows differ from the uninterrupted reference")
        print("# resumed from the journal; rows bit-identical to the "
              "uninterrupted run")

        # 4. a completed run deletes its journal
        if os.path.exists(journal):
            fail("journal not removed after a successful resume")
        print("crash/resume smoke: OK")
        return 0


if __name__ == "__main__":
    sys.exit(main())
