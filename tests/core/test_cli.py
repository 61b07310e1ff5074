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

    def test_out_in_missing_directory_fails_before_any_job(self, tmp_path,
                                                           monkeypatch):
        import repro.experiments as experiments

        ran = []
        monkeypatch.setattr(experiments, "run_sweep",
                            lambda *args, **kwargs: ran.append(args))
        with pytest.raises(SystemExit, match="^error: --out .*no directory"):
            main(["sweep", "--preset", "asic-overhead", "--no-cache",
                  "--out", str(tmp_path / "missing" / "t.json")])
        assert not ran


class TestCacheDir:
    """A --cache-dir that cannot be a directory is an ``error:`` line,
    before any job runs or any socket opens."""

    @pytest.mark.parametrize("argv", [
        ["sweep", "--preset", "asic-overhead"],
        ["serve", "--port", "0"],
        ["work", "http://127.0.0.1:9"],
    ], ids=["sweep", "serve", "work"])
    def test_path_under_a_file_is_an_error(self, tmp_path, argv):
        blocker = tmp_path / "file"
        blocker.write_text("")
        with pytest.raises(SystemExit, match="^error: --cache-dir"):
            main(argv + ["--cache-dir", str(blocker / "x")])


class TestPipeline:
    """``repro pipeline --journal``: the run's one durable record, in
    local mode as under ``--distributed``."""

    PARAMS = {"workload": "streaming", "nbytes": 1 << 12,
              "chunk_requests": 16, "schemes": ["np"]}

    @staticmethod
    def argv(path, schemes="np", chunk_requests=16):
        import json

        return ["pipeline", "--workload", "streaming", "--schemes", schemes,
                "--chunk-requests", str(chunk_requests), "--params",
                json.dumps({"nbytes": 1 << 12}), "--journal", path]

    def write_journal(self, path, fingerprint):
        """A journal holding the first chunk seam of ``PARAMS``'s run,
        as a run of the build ``fingerprint`` names would leave it."""
        from repro.distributed import Journal
        from repro.distributed.protocol import unit_key
        from repro.experiments.executors import pipeline_rows
        from repro.experiments.jobs import Job, canonical_json

        envelopes = []
        pipeline_rows(dict(self.PARAMS), checkpoint_every=1,
                      on_checkpoint=lambda state, *_: envelopes.append(state))
        job = Job("pipeline_run", canonical_json(self.PARAMS))
        journal, _ = Journal.recover(path, fingerprint,
                                     [unit_key([job], fingerprint)])
        journal.append_checkpoint(0, envelopes[0]["cursor"], envelopes[0])
        journal.close()

    def test_pipeline_without_requests_is_an_error_line(self, capsys):
        """A trace of no requests is refused before any row is printed,
        not run into a NaN slowdown (not valid JSON)."""
        with pytest.raises(SystemExit,
                           match="^error: .*yields no requests$"):
            main(["pipeline", "--workload", "streaming", "--schemes", "np",
                  "--params", '{"nbytes": 0}'])
        assert capsys.readouterr().out == ""

    def test_non_integer_params_are_an_error_line(self, capsys):
        """``--params`` with a non-integer trace parameter is refused
        before any row is printed, not run into a ``TypeError``."""
        with pytest.raises(SystemExit,
                           match="^error: .*'nbytes' must be an integer"):
            main(["pipeline", "--workload", "streaming", "--schemes", "np",
                  "--params", '{"nbytes": 4096.5}'])
        assert capsys.readouterr().out == ""

    def test_resume_refuses_another_builds_checkpoint(self, tmp_path):
        """A pipeline fingerprint pins the computation, not the code,
        so the journal pins the build that wrote it: state another
        build journaled is refused, not mixed into this model's, and
        the journal is left in place."""
        path = str(tmp_path / "run.journal")
        self.write_journal(path, "another-build")
        with pytest.raises(SystemExit) as excinfo:
            main(self.argv(path))
        message = str(excinfo.value)
        assert message.startswith(f"error: journal {path} was written by "
                                  f"fingerprint another-bui")
        assert message.endswith("(delete the journal to start over)")
        assert os.path.exists(path)

    def test_resume_refuses_another_computations_checkpoint(self, tmp_path):
        """This build's journal of another run (here an ``np`` pipeline
        resumed as ``np,bp``) is refused with an actionable error, not a
        ``CheckpointError`` traceback, and the file is left in place."""
        from repro.experiments.cache import code_fingerprint

        path = str(tmp_path / "run.journal")
        self.write_journal(path, code_fingerprint())
        with pytest.raises(SystemExit) as excinfo:
            main(self.argv(path, schemes="np,bp"))
        message = str(excinfo.value)
        assert message.startswith(f"error: journal {path} describes 1 "
                                  f"unit(s) that do not match")
        assert message.endswith("(delete the journal to start over)")
        assert os.path.exists(path)

    def test_journal_resumes_from_the_default_cadence_seam(self, tmp_path,
                                                            capsys):
        """Without ``--checkpoint-every`` a local ``--journal`` run
        journals every ``DEFAULT_CHECKPOINT_EVERY`` chunks, as
        ``--distributed`` does: a run failing at chunk 6 of 8 leaves the
        4-chunk seam, and the rerun resumes there with identical rows."""
        import json

        from repro.distributed import DEFAULT_CHECKPOINT_EVERY
        from repro.distributed.journal import replay
        from repro.experiments.executors import pipeline_rows
        from repro.testing import faults

        params = dict(self.PARAMS, chunk_requests=8)  # 64 requests, 8 chunks
        reference = pipeline_rows(dict(params))
        path = str(tmp_path / "run.journal")
        faults.install({"points": [
            {"site": "pipeline.chunk", "at": 6, "action": "raise"}]})
        try:
            with pytest.raises(SystemExit, match="^error: "):
                main(self.argv(path, chunk_requests=8))
        finally:
            faults.clear()
        assert DEFAULT_CHECKPOINT_EVERY == 4
        assert replay(path).checkpoints[0]["cursor"] == 4 * 8
        capsys.readouterr()

        assert main(self.argv(path, chunk_requests=8)) == 0
        out, err = capsys.readouterr()
        assert json.loads(out) == reference
        assert "# units=1 resumed=1 " in err
        assert not os.path.exists(path)  # the spent journal is deleted
