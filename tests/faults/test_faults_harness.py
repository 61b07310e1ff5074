"""The deterministic fault-injection harness itself.

Faults are data, not monkeypatching: a plan is a list of (site, index,
action) points, installed process-wide (or shipped to spawned workers
through ``REPRO_FAULT_PLAN``), and every production call site costs one
``faults.enabled()`` module-global check when no plan is installed.
These tests pin the plan grammar, the firing semantics (``at``,
``times``, ``once_file``), and the exec/data action split.
"""

import json
import os
import subprocess
import sys
import threading

import pytest

from repro.testing import faults


@pytest.fixture(autouse=True)
def _clean_plan():
    faults.clear()
    yield
    faults.clear_env()


class TestPlanGrammar:
    def test_disabled_by_default(self):
        assert not faults.enabled()
        faults.fire("worker.chunk", 0)          # no plan: no-ops
        assert faults.check("cache.put", 0) is None

    def test_install_and_clear(self):
        faults.install({"points": [
            {"site": "pipeline.chunk", "action": "raise"}]})
        assert faults.enabled()
        faults.clear()
        assert not faults.enabled()

    def test_rejects_unknown_fields_and_actions(self):
        with pytest.raises(ValueError):
            faults.install({"points": [{"site": "x", "action": "explode"}]})
        with pytest.raises(ValueError):
            faults.install({"points": [
                {"site": "x", "action": "raise", "banana": 1}]})
        with pytest.raises(ValueError):
            faults.install({"nope": []})


class TestFiring:
    def test_raise_at_index(self):
        faults.install({"points": [
            {"site": "pipeline.chunk", "at": 2, "action": "raise"}]})
        faults.fire("pipeline.chunk", 0)
        faults.fire("pipeline.chunk", 1)
        with pytest.raises(faults.FaultInjected):
            faults.fire("pipeline.chunk", 2)

    def test_site_isolation(self):
        faults.install({"points": [
            {"site": "pipeline.chunk", "action": "raise"}]})
        faults.fire("worker.chunk", 0)          # different site: untouched
        with pytest.raises(faults.FaultInjected):
            faults.fire("pipeline.chunk", 0)

    def test_times_caps_firings(self):
        faults.install({"points": [
            {"site": "rewriter.rewrite", "action": "raise", "times": 2}]})
        for _ in range(2):
            with pytest.raises(faults.FaultInjected):
                faults.fire("rewriter.rewrite", 0)
        faults.fire("rewriter.rewrite", 0)      # budget spent

    def test_any_index_when_at_omitted(self):
        faults.install({"points": [
            {"site": "service.flight", "action": "raise"}]})
        with pytest.raises(faults.FaultInjected):
            faults.fire("service.flight", 41)

    def test_once_file_survives_process_boundaries(self, tmp_path):
        marker = str(tmp_path / "fired.once")
        plan = {"points": [
            {"site": "worker.chunk", "action": "raise", "once_file": marker}]}
        faults.install(plan)
        with pytest.raises(faults.FaultInjected):
            faults.fire("worker.chunk", 0)
        assert os.path.exists(marker)
        # a "different process" (fresh in-memory plan, same marker file)
        # must not fire again
        faults.clear()
        faults.install(plan)
        faults.fire("worker.chunk", 0)

    def test_data_actions_are_returned_not_executed(self):
        faults.install({"points": [
            {"site": "cache.put", "at": 1, "action": "corrupt"}]})
        assert faults.check("cache.put", 0) is None
        assert faults.check("cache.put", 1) == "corrupt"
        assert faults.check("cache.put", 1) is None  # times=1 default

    def test_threads_reaching_a_point_together_fire_it_times_times(self):
        """Threads calling one site together (a pipeline's rewriter
        lanes reach ``rewriter.rewrite`` at once) fire its point
        exactly ``times`` times in all: the match and the claim are one
        step. The threads are all calling when the last firing goes,
        and a short switch interval makes some rounds switch threads
        between a match and its claim."""
        threads, times, rounds = 4, 100, 50
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_ in range(rounds):
                faults.install({"points": [
                    {"site": "cache.put", "action": "corrupt", "times": times}]})
                start = threading.Barrier(threads, timeout=30)
                fired = []

                def hit():
                    start.wait()
                    for _ in range(times):
                        if faults.check("cache.put", round_):
                            fired.append(round_)

                workers = [threading.Thread(target=hit) for _ in range(threads)]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(timeout=30)
                    assert not worker.is_alive()
                assert len(fired) == times, f"round {round_}: {len(fired)} firings"
        finally:
            sys.setswitchinterval(previous)


class TestEnvTransport:
    def test_env_round_trip(self):
        plan = {"points": [{"site": "pipeline.chunk", "at": 1,
                            "action": "raise"}]}
        value = faults.install_env(plan)
        assert json.loads(value) == plan
        assert os.environ[faults.ENV_VAR] == value
        faults.clear_env()
        assert faults.ENV_VAR not in os.environ
        assert not faults.enabled()

    def test_fresh_interpreter_loads_plan_from_env(self, tmp_path):
        plan = json.dumps({"points": [
            {"site": "pipeline.chunk", "action": "raise"}]})
        code = ("from repro.testing import faults; import sys\n"
                "sys.exit(0 if faults.enabled() else 1)")
        env = dict(os.environ, REPRO_FAULT_PLAN=plan,
                   PYTHONPATH=os.pathsep.join(sys.path))
        assert subprocess.run([sys.executable, "-c", code],
                              env=env).returncode == 0

    def test_env_plan_from_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"points": [
            {"site": "worker.chunk", "action": "raise"}]}))
        os.environ[faults.ENV_VAR] = "@" + str(path)
        try:
            faults._load_from_env()
            assert faults.enabled()
        finally:
            del os.environ[faults.ENV_VAR]
            faults.clear()
