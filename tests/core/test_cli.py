"""CLI surface, and the kernel ledger's command line."""

import importlib.util
import os

import pytest

from repro.cli import build_parser, main

BENCH_PERF = os.path.join(os.path.dirname(__file__), "..", "..", "scripts",
                          "bench_perf.py")


@pytest.fixture(scope="module")
def bench_perf():
    """``scripts/bench_perf.py``, the one kernel harness, loaded by path."""
    spec = importlib.util.spec_from_file_location("bench_perf", BENCH_PERF)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_scheme_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--scheme", "rot13"])


class TestBench:
    def test_list_kernels(self, bench_perf, capsys):
        assert bench_perf.main(["--quick", "--list-kernels"]) == 0
        names = capsys.readouterr().out.split()
        assert "sha256_batch" in names
        assert "merkle_updates" in names

    def test_unknown_kernel_rejected(self, bench_perf):
        with pytest.raises(SystemExit, match="unknown kernel\\(s\\) rot13"):
            bench_perf.main(["--quick", "--kernel", "rot13"])

    def test_single_kernel_run_writes_report(self, bench_perf, capsys, tmp_path):
        out_file = str(tmp_path / "bench.json")
        assert bench_perf.main(["--quick", "--kernel", "merkle_updates",
                                "--repeat", "1", "--output", out_file]) == 0
        import json

        report = json.load(open(out_file))
        row = report["kernels"]["merkle_updates"]
        assert row["speedup"] > 0
        assert row["tree_height"] == 10  # 1024 leaves in quick mode
        assert "fast_us_per_update" in row
        assert "sha256_batch" not in report["kernels"]  # filtered run


class TestCommands:
    def test_simulate(self, capsys):
        assert main(["simulate", "--network", "alexnet", "--scheme", "guardnn-ci"]) == 0
        out = capsys.readouterr().out
        assert "normalized time" in out
        assert "GuardNN_CI" in out

    def test_simulate_training(self, capsys):
        assert main(["simulate", "--network", "alexnet", "--scheme", "np",
                     "--training", "--batch", "2"]) == 0
        assert "training" in capsys.readouterr().out

    def test_compile_ok(self, capsys):
        assert main(["compile", "--network", "alexnet"]) == 0
        out = capsys.readouterr().out
        assert "VN-unique=True" in out

    def test_compile_training(self, capsys):
        assert main(["compile", "--network", "mobilenet", "--training"]) == 0
        assert "UpdateWeight" in capsys.readouterr().out

    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        assert "result correct: True" in capsys.readouterr().out


class TestSweep:
    def test_list(self, capsys):
        assert main(["sweep", "--list"]) == 0
        out = capsys.readouterr().out
        assert "fig3" in out and "table2-fpga" in out

    def test_preset_markdown(self, capsys):
        assert main(["sweep", "--preset", "asic-overhead", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("| ")
        assert "344" in out

    def test_adhoc_grid_csv(self, capsys):
        assert main(["sweep", "--models", "alexnet", "--schemes", "np,bp",
                     "--format", "csv", "--no-cache"]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l]
        assert lines[0].startswith("model,")
        assert len(lines) == 3  # header + NP + BP

    def test_preset_to_file_with_cache(self, capsys, tmp_path):
        import repro.experiments.runner as runner_module

        cache_dir = str(tmp_path / "cache")
        out_file = str(tmp_path / "fig3.json")
        args = ["sweep", "--preset", "fig3-inference", "--format", "json",
                "--cache-dir", cache_dir, "--out", out_file]
        assert main(args) == 0
        first = open(out_file).read()
        assert "0 hits, 36 misses" in capsys.readouterr().err
        # drop the in-memory first level: this test is about on-disk
        # persistence, i.e. what a second *process* would see
        runner_module._MEMORY_CACHE.clear()
        assert main(args) == 0  # second run: all 36 jobs from disk
        assert "36 hits, 0 misses" in capsys.readouterr().err
        assert open(out_file).read() == first

    def test_preset_and_models_conflict(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--preset", "fig3", "--models", "alexnet"])

    def test_unknown_preset_rejected(self):
        with pytest.raises(SystemExit, match="unknown sweep"):
            main(["sweep", "--preset", "nope", "--no-cache"])

    def test_unknown_scheme_rejected(self):
        with pytest.raises(SystemExit, match="unknown scheme"):
            main(["sweep", "--models", "alexnet", "--schemes", "rot13",
                  "--no-cache"])


class TestPipeline:
    def test_resume_refuses_another_builds_checkpoint(self, tmp_path):
        """A pipeline fingerprint pins the computation, not the code,
        so ``--resume`` checks the build in the envelope's meta: state
        another build wrote is refused, not mixed into this model's."""
        import json

        from repro.checkpoint import save_checkpoint
        from repro.experiments.executors import pipeline_rows

        params = {"workload": "streaming", "nbytes": 1 << 12,
                  "chunk_requests": 16, "schemes": ["np"]}
        envelopes = []
        pipeline_rows(dict(params), checkpoint_every=1,
                      on_checkpoint=lambda state, *_: envelopes.append(state))
        path = str(tmp_path / "run.ckpt")
        save_checkpoint(path, {**envelopes[0],
                               "meta": {"build": "another-build"}})
        argv = ["pipeline", "--workload", "streaming", "--schemes", "np",
                "--chunk-requests", "16", "--params",
                json.dumps({"nbytes": 1 << 12}), "--checkpoint", path,
                "--resume"]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert str(excinfo.value) == (
            f"error: checkpoint {path} was written by another build of "
            f"repro; delete it to start over")

    def test_resume_refuses_another_computations_checkpoint(self, tmp_path):
        """This build's envelope of another run (here an ``np`` pipeline
        resumed as ``np,bp``) is refused with an actionable error, not a
        ``CheckpointError`` traceback, and the file is left in place."""
        import json

        from repro.checkpoint import save_checkpoint
        from repro.experiments.cache import code_fingerprint
        from repro.experiments.executors import pipeline_rows

        params = {"workload": "streaming", "nbytes": 1 << 12,
                  "chunk_requests": 16, "schemes": ["np"]}
        envelopes = []
        pipeline_rows(dict(params), checkpoint_every=1,
                      on_checkpoint=lambda state, *_: envelopes.append(state))
        path = str(tmp_path / "run.ckpt")
        save_checkpoint(path, {**envelopes[0],
                               "meta": {"build": code_fingerprint()}})
        argv = ["pipeline", "--workload", "streaming", "--schemes", "np,bp",
                "--chunk-requests", "16", "--params",
                json.dumps({"nbytes": 1 << 12}), "--checkpoint", path,
                "--resume"]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        message = str(excinfo.value)
        assert message.startswith(f"error: checkpoint {path} does not match "
                                  f"this run (")
        assert message.endswith("rerun with its options or delete it")
        assert os.path.exists(path)
