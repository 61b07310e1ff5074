"""The compiled-kernel loader (:mod:`repro.native`): where it builds,
when it loads, and what fast mode does without a library.

Each test points ``XDG_CACHE_HOME`` at its own directory, so none of
them touches the kernel cache the rest of the suite loads from."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro import native, perf
from repro.experiments.executors import pipeline_rows
from repro.mem.batch import RequestBatch

SRC = os.path.dirname(os.path.dirname(os.path.abspath(native.__file__)))

#: both kernels run: BP's metadata cache and every scheme's controller
PARAMS = {"workload": "random", "n_requests": 4096, "span_bytes": 64 << 20,
          "seed": 3, "chunk_requests": 1024, "schemes": ["np", "guardnn-ci", "bp"]}


@pytest.fixture
def cache_home(tmp_path, monkeypatch):
    home = tmp_path / "xdg"
    monkeypatch.setenv("XDG_CACHE_HOME", str(home))
    return home


@pytest.fixture
def compiles(monkeypatch):
    """Count the compiler runs of :func:`repro.native._load`."""
    calls = []
    compile_ = native._compile

    def counted(destination):
        calls.append(destination)
        compile_(destination)

    monkeypatch.setattr(native, "_compile", counted)
    return calls


def child_env(cache_home, **env) -> dict:
    """A child interpreter's environment: fast mode unless ``env`` says
    otherwise."""
    environment = dict(os.environ, PYTHONPATH=SRC, XDG_CACHE_HOME=str(cache_home))
    environment.pop("REPRO_SCALAR", None)
    environment.update(env)
    return environment


def run_python(code: str, cache_home, **env) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code],
                          env=child_env(cache_home, **env),
                          capture_output=True, text=True, timeout=120)


def test_cold_build_then_reuse_without_compiling(cache_home, compiles):
    directory = native.kernel_dir()
    assert directory.startswith(str(cache_home / "repro" / "kernels"))
    assert native._load().repro_schedule is not None
    assert len(compiles) == 1
    assert os.listdir(directory) == [native._LIBRARY]  # no temp file left
    native._load()
    assert len(compiles) == 1


def test_changed_source_gets_a_new_directory(cache_home, tmp_path, monkeypatch):
    first = native.kernel_dir()
    native._load()
    edited = tmp_path / "native.c"
    edited.write_text(open(native._SOURCE).read() + "/* edited */\n")
    monkeypatch.setattr(native, "_SOURCE", str(edited))
    second = native.kernel_dir()
    assert second != first
    native._load()
    assert sorted(os.listdir(os.path.dirname(first))) == sorted(
        os.path.basename(d) for d in (first, second))


def test_two_processes_building_at_once_both_load(cache_home):
    code = ("import sys; from repro import native; "
            "sys.exit(native.kernels() is None)")
    procs = [subprocess.Popen([sys.executable, "-c", code], env=child_env(cache_home),
                              stderr=subprocess.PIPE, text=True) for _ in range(2)]
    results = [(proc.wait(timeout=120), proc.stderr.read()) for proc in procs]
    for proc in procs:
        proc.stderr.close()
    assert results == [(0, ""), (0, "")]
    assert os.listdir(native.kernel_dir()) == [native._LIBRARY]


def test_unwritable_cache_directory_still_loads(tmp_path, monkeypatch, compiles):
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker / "xdg"))
    assert native._load().repro_mee_rewrite is not None
    assert len(compiles) == 1
    assert not os.path.exists(native.kernel_dir())


def test_loading_is_lazy_and_scalar_mode_never_builds(cache_home):
    """Building a pipeline compiles nothing (the benchmark's set-up
    probe does just that), and neither does running one in scalar
    mode."""
    code = ("import os\n"
            "from repro import perf\n"
            "from repro.experiments.executors import pipeline_rows\n"
            "from repro.mem.pipeline import TracePipeline\n"
            "from repro.workloads import build_trace_spec\n"
            "spec = build_trace_spec('random', seed=3, n_requests=64, span_bytes=1 << 20)\n"
            "TracePipeline(spec, schemes=('np', 'guardnn-ci', 'bp'))\n"
            "assert not os.path.exists(os.environ['XDG_CACHE_HOME'])\n"
            "with perf.scalar_mode():\n"
            f"    pipeline_rows({PARAMS!r})\n")
    done = run_python(code, cache_home)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert not cache_home.exists()


def test_without_a_compiler_warns_once_and_rows_match(cache_home):
    code = ("import json\n"
            "from repro import native\n"
            "native._compiler = lambda: None\n"
            "from repro.experiments.executors import pipeline_rows\n"
            f"print(json.dumps(pipeline_rows({PARAMS!r})))\n")
    done = run_python(code, cache_home)
    assert done.returncode == 0, done.stderr
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and "no C compiler" in lines[0], done.stderr
    assert json.loads(done.stdout) == json.loads(json.dumps(pipeline_rows(dict(PARAMS))))


def test_kernels_refuse_to_write_past_their_outputs(cache_home):
    """Each kernel checks every write against the length passed with its
    output array: handed one too short, it writes nothing past the end
    and the call raises ``RuntimeError``."""
    kernels = native._load()
    i8, i64 = np.int8, np.int64
    batch = RequestBatch.from_arrays([0, 4096, 8192], np.full(3, 64), [0, 0, 0])
    arrays = []  # kept alive while their addresses are in use

    def at(*values, dtype=i64):
        arrays.append(np.array(values, dtype=dtype))
        return native.address_of(arrays[-1])

    def out(slots):
        return (at(*[0] * slots), at(*[0] * slots), at(*[0] * slots, dtype=i8),
                at(*[0] * slots, dtype=i8), slots)

    # the window columns: 4 slots for a 32-burst window
    state = [0] * (9 + 4 * 16)
    state[4] = 9360  # the first refresh
    with pytest.raises(RuntimeError, match="repro_schedule"):
        kernels.repro_schedule(
            *native.batch_arguments(batch), 0, 1, 32,
            at(17, 12, 17, 17, 39, 4, 18, 9, 9360, 420, 56, 4, 32), at(6, 7, 4),
            16, at(*state), at(*[0] * 8), at(0, 0, 0, 0, dtype=i8),
            at(0, 0, 0, 0), at(0, 0, 0, 0), 4)
    # three reads of three MAC lines: six requests into five slots
    with pytest.raises(RuntimeError, match="repro_guardnn_rewrite"):
        kernels.repro_guardnn_rewrite(
            *native.batch_arguments(batch),
            at(1, 512, 9, 512, 64, 6, 1 << 34), at(-1, 0), *out(5))
    # a cold cache: the first request and its VN and MAC fills overflow 2
    with pytest.raises(RuntimeError, match="repro_mee_rewrite"):
        kernels.repro_mee_rewrite(
            *native.batch_arguments(batch),
            at(1 << 34, 1 << 35, 64, 6, 512, 9, 4096, 12, 128, 7, 8, 0), at(),
            at(*[0] * (128 * 8)), at(*[0] * (128 * 8), dtype=bool),
            at(*[0] * 128), at(0, 0, 0, 0), *out(2))


def test_batch_arguments_check_each_column():
    """``RequestBatch`` trusts the columns it is given, so a column of
    the wrong dtype, a strided view or a short column is refused before
    its address reaches a kernel."""
    good = RequestBatch.from_arrays([0, 64, 128], np.full(3, 64), [0, 1, 0])
    assert native.batch_arguments(good)[4] == 3
    for bad in (RequestBatch(good.address.astype(np.int32), *good.columns()[1:]),
                RequestBatch(np.arange(6, dtype=np.int64)[::2], *good.columns()[1:]),
                RequestBatch(*good.columns()[:3], good.kind[:2])):
        with pytest.raises(ValueError, match="columns"):
            native.batch_arguments(bad)


def test_shift_of_powers_of_two_only():
    assert [native.shift_of(d) for d in (1, 2, 64, 512, 1 << 40)] == [0, 1, 6, 9, 40]
    assert [native.shift_of(d) for d in (3, 6, 12, 384, 768)] == [-1] * 5


@pytest.mark.slow
def test_kernels_under_the_undefined_behaviour_sanitizer(cache_home):
    """A build with ``-fsanitize=undefined -fno-sanitize-recover=all``
    (its own cache directory: the flags are part of the key) runs small
    ``random`` and ``gpt2`` slices through every kernel; any undefined
    behaviour aborts the child. Its rows equal scalar mode's."""
    jobs = [PARAMS, {"workload": "gpt2", "layers": 1, "context": 16, "seed": 3,
                     "chunk_requests": 8192, "schemes": ["np", "guardnn-ci", "bp"]}]
    code = ("import json\n"
            "from repro import native\n"
            "native._FLAGS += ('-fsanitize=undefined', '-fno-sanitize-recover=all')\n"
            "from repro.experiments.executors import pipeline_rows\n"
            "assert native.kernels() is not None\n"
            f"print(json.dumps([pipeline_rows(dict(job)) for job in {jobs!r}]))\n")
    done = run_python(code, cache_home)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    with perf.scalar_mode():
        scalar = [pipeline_rows(dict(job)) for job in jobs]
    assert json.loads(done.stdout) == json.loads(json.dumps(scalar))
