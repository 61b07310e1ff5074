"""Command-line interface: ``python -m repro <command>``.

Gives downstream users the paper's experiments without writing code:

* ``simulate`` — one network under one protection scheme (Figure 3 cell);
* ``sweep`` — any registered experiment grid through the orchestration
  subsystem (parallel workers + result cache). Every paper artifact
  (Figure 3a/3b, Tables II/III, the Section III overheads, the
  ablations) is one preset: ``repro sweep --list`` names them;
* ``compile`` — compile a network's DFG to GuardNN instructions and
  verify the read-counter schedule;
* ``pipeline`` — one streaming trace-pipeline run; with ``--journal``
  its chunk seams are journaled, and a rerun with the same journal
  resumes from the last one;
* ``serve`` — the long-lived simulation-as-a-service daemon (async
  HTTP/NDJSON job API: coalescing, admission control, streamed partial
  results, ``/metrics``; drains gracefully on SIGTERM, checkpointing
  long pipeline flights for the next instance to resume);
* ``work`` — join a ``sweep --distributed`` run as a remote worker
  (lease/heartbeat protocol; results are bit-identical to local runs);
* ``demo`` — the functional end-to-end secure inference.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.accel.accelerator import AcceleratorModel, TPU_V1_CONFIG
from repro.accel.models import build_model, list_models
from repro.protection import build_scheme, list_schemes
from repro.protection.none import NoProtection


def _scheme(name: str):
    try:
        return build_scheme(name)
    except KeyError:
        raise SystemExit(f"unknown scheme {name!r}; choose from {', '.join(list_schemes())}")


# argparse `type=` validators: a nonsensical duration or counter should
# die at the option parser with the flag's name in the message, not ten
# frames deep in the service with a bare ValueError


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}")
    return value


def _nonneg_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be zero or a positive integer, got {value}")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if not value > 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive number of seconds, got {text}")
    return value


def _nonneg_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be zero or a positive number of seconds, got {text}")
    return value


def _host_port(text: str):
    host, sep, port = text.rpartition(":")
    if not sep or not port.isdigit():
        raise argparse.ArgumentTypeError(
            f"expected HOST:PORT (e.g. 0.0.0.0:8790), got {text!r}")
    return host or "127.0.0.1", int(port)


def _journal_path(text: str) -> str:
    """Validate a ``--journal PATH`` before any work starts: the
    coordinator must be able to create/append the file, so a directory,
    an empty string, or a missing parent directory should die at the
    parser with the flag's name — not as an OSError mid-sweep."""
    import os

    if not text.strip():
        raise argparse.ArgumentTypeError(
            "--journal needs a file path, got an empty string")
    path = os.path.abspath(text)
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError(
            f"--journal must name a file, {text!r} is a directory")
    parent = os.path.dirname(path)
    if not os.path.isdir(parent):
        raise argparse.ArgumentTypeError(
            f"--journal parent directory does not exist: {parent!r} "
            f"(create it first — the journal must be durable from "
            f"record one)")
    return path


def cmd_simulate(args) -> int:
    model = build_model(args.network)
    accel = AcceleratorModel(TPU_V1_CONFIG)
    base = accel.run(model, NoProtection(), training=args.training, batch=args.batch)
    run = accel.run(model, _scheme(args.scheme), training=args.training, batch=args.batch)
    print(f"network:            {model.name} ({'training' if args.training else 'inference'})")
    print(f"scheme:             {run.scheme}")
    print(f"total cycles:       {run.total_cycles:,}")
    print(f"normalized time:    {run.normalized_to(base):.4f}x vs no protection")
    print(f"traffic increase:   +{100*run.traffic_increase:.2f}%")
    print(f"throughput:         {run.throughput_samples_per_s():.2f} samples/s")
    return 0


def _require_cache_dir(path: str) -> None:
    """Exit with an ``error:`` line, before any job runs, unless
    ``path`` is (or can be made) a writable directory."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as error:
        raise SystemExit(f"error: --cache-dir {path}: {error.strerror}")
    if not os.access(path, os.W_OK):
        raise SystemExit(f"error: --cache-dir {path}: not writable")


def _require_out_path(path: str) -> None:
    """Exit with an ``error:`` line, before any job runs, unless a file
    can be written at ``path``."""
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise SystemExit(f"error: --out {path}: no directory {parent}")
    if os.path.isdir(path) or not os.access(parent, os.W_OK):
        raise SystemExit(f"error: --out {path}: cannot write a file there")


def cmd_sweep(args) -> int:
    import repro.experiments as experiments

    if args.list:
        for definition in experiments.list_sweeps():
            print(f"{definition.name:26s} {definition.title}")
        return 0

    # resolve names up front so typos become clean CLI errors; anything
    # raising past this block is a real bug and keeps its traceback
    try:
        if args.preset:
            adhoc = [name for name, value in (("--models", args.models),
                                              ("--schemes", args.schemes),
                                              ("--batches", args.batches),
                                              ("--modes", args.modes)) if value]
            if adhoc:
                raise SystemExit(f"--preset and {'/'.join(adhoc)} are mutually "
                                 "exclusive (presets define their own grid)")
            definition = experiments.get_sweep(args.preset)
            title = definition.title
            n_jobs = len(definition.jobs())
            spec = None
        else:
            if not args.models:
                raise SystemExit("pick a --preset (see --list) or give --models")
            spec = experiments.SweepSpec(
                models=tuple(args.models.split(",")),
                schemes=tuple((args.schemes or "np,guardnn-c,guardnn-ci,bp").split(",")),
                batches=tuple(int(b) for b in (args.batches or "1").split(",")),
                modes=tuple((args.modes or "inference").split(",")),
            )
            from repro.experiments.executors import validate_model

            for model in spec.models:
                validate_model(model)
            title = "custom sweep"
            n_jobs = spec.size
    except (KeyError, ValueError) as error:
        raise SystemExit(f"error: {error.args[0] if error.args else error}")

    if args.journal and not args.distributed:
        raise SystemExit("error: --journal records the distributed "
                         "coordinator's write-ahead state; it requires "
                         "--distributed")
    if args.out:
        _require_out_path(args.out)
    cache = None
    if not args.no_cache:
        cache = experiments.ResultCache(args.cache_dir)
        _require_cache_dir(cache.directory)
    if args.distributed:
        definition = experiments.get_sweep(args.preset) if spec is None else None
        jobs = definition.jobs() if spec is None else spec.jobs()
        columns = definition.columns if definition is not None else None
        table = _run_distributed_sweep(jobs, cache, columns, args)
        if definition is not None and definition.post is not None:
            table = definition.post(table)
        elif spec is not None and "np" in spec.schemes:
            table = table.with_normalized()
        runner = None
    else:
        try:
            runner = experiments.Runner(workers=args.workers, cache=cache)
        except ValueError as error:
            # a malformed REPRO_SWEEP_WORKERS is a configuration error, not a bug
            raise SystemExit(f"error: {error}")
        if spec is None:
            table = experiments.run_sweep(args.preset, runner=runner)
        else:
            table = runner.run(spec.jobs())
            if "np" in spec.schemes:
                # normalized execution time needs the NP baseline in the grid
                table = table.with_normalized()

    if args.format == "markdown":
        output = table.to_markdown()
    elif args.format == "csv":
        output = table.to_csv()
    else:
        output = table.to_json()
    if args.out:
        try:
            with open(args.out, "w") as f:
                f.write(output if output.endswith("\n") else output + "\n")
        except OSError as error:
            raise SystemExit(f"error: --out {args.out}: {error.strerror}")
        print(f"wrote {len(table)} rows to {args.out}", file=sys.stderr)
    else:
        print(output)
    where = "distributed" if runner is None else f"workers={runner.workers}"
    print(f"# {title}: {n_jobs} jobs -> {len(table)} rows, {where}, "
          f"cache={'off' if cache is None else cache.stats}", file=sys.stderr)
    return 0


def _run_distributed_sweep(jobs, cache, columns, args):
    """Drive a job list through the distributed coordinator (with the
    local pool as the zero-worker fallback) and assemble the same
    ResultTable a local run would."""
    from repro.distributed import JournalError, SweepCoordinator
    from repro.experiments.table import ResultTable

    host, port = args.listen
    try:
        coordinator = SweepCoordinator(
            jobs, cache=cache, local_workers=args.workers,
            host=host, port=port, unit_jobs=args.unit_jobs,
            lease_seconds=args.lease_seconds,
            wait_workers=args.wait_workers,
            journal_path=args.journal)
    except JournalError as error:
        raise SystemExit(f"error: {error}")
    _announce_coordinator(coordinator, args)
    rows_per_job = coordinator.run()
    coordinator.discard_journal()  # results delivered — the WAL is spent
    table = ResultTable(columns=columns)
    for rows in rows_per_job:
        table.extend(rows)
    return table


def _announce_coordinator(coordinator, args) -> None:
    if coordinator.url:
        print(f"# coordinator listening at {coordinator.url} — join with: "
              f"repro work {coordinator.url}", file=sys.stderr)
    if args.journal:
        state = coordinator.state
        replayed = state.counters["journal_replayed_units"]
        print(f"# journal {args.journal} epoch={state.epoch} "
              f"replayed_units={replayed} "
              f"truncated={state.counters['journal_truncated']}",
              file=sys.stderr)


def cmd_work(args) -> int:
    """Turn this machine into a sweep worker pointed at a coordinator."""
    import signal

    from repro.distributed import Worker, WorkerConfig

    cache_dir = None
    if not args.no_cache:
        from repro.experiments.cache import default_cache_dir

        cache_dir = args.cache_dir or default_cache_dir()
        _require_cache_dir(cache_dir)
    config = WorkerConfig(
        url=args.url, name=args.name or "", workers=args.workers,
        reconnect_timeout=args.reconnect_timeout, cache_dir=cache_dir)
    worker = Worker(config)

    # graceful drain: SIGTERM finishes (or checkpoint-parks) the current
    # lease, deregisters, and exits 0 — SIGINT stays the hard stop
    def _on_sigterm(signum, frame):
        worker.drain()

    previous = signal.signal(signal.SIGTERM, _on_sigterm)
    try:
        return worker.run()
    except KeyboardInterrupt:
        return 130
    finally:
        signal.signal(signal.SIGTERM, previous)


def cmd_compile(args) -> int:
    from repro.core.compiler import DfgCompiler, verify_schedule

    model = build_model(args.network)
    program = DfgCompiler(model, batch=args.batch).compile(training=args.training)
    report = verify_schedule(program)
    print(f"compiled {model.name} ({'training' if args.training else 'inference'}):")
    for kind, count in sorted(program.instruction_counts().items()):
        print(f"  {kind:14s} x {count}")
    print(f"schedule: VN-unique={report.vn_unique} "
          f"read-consistent={report.reads_consistent} "
          f"({report.writes} writes, {report.declared_reads} declared reads)")
    return 0 if report.ok else 1


def cmd_pipeline(args) -> int:
    """One streaming TracePipeline run: the `pipeline_run` executor's
    rows, printed as JSON. The run is one unit of a coordinator: its
    local fallback runs it here, and with ``--distributed`` it is
    leased to `repro work` machines too, with chunk-seam checkpoint
    migration as the failover mechanism and the shared result cache
    answering repeats. ``--journal`` (the crash_resume_smoke harness's
    entry point) makes commits and seams durable in either mode, and a
    rerun with the same journal resumes from the latest seam."""
    import json

    import repro.experiments as experiments
    from repro.distributed import (
        DEFAULT_CHECKPOINT_EVERY,
        JournalError,
        SweepCoordinator,
    )
    from repro.experiments.jobs import Job, canonical_json
    from repro.experiments.runner import JobExecutionError

    params = {"workload": args.workload}
    if args.schemes:
        params["schemes"] = [s.strip() for s in args.schemes.split(",")
                             if s.strip()]
    if args.chunk_requests is not None:
        params["chunk_requests"] = args.chunk_requests
    if args.params:
        try:
            extra = json.loads(args.params)
            if not isinstance(extra, dict):
                raise ValueError("--params must be a JSON object")
        except ValueError as error:
            raise SystemExit(f"error: invalid --params: {error}")
        params.update(extra)

    if args.checkpoint_every and not (args.distributed or args.journal):
        raise SystemExit("error: --checkpoint-every needs --journal PATH "
                         "or --distributed")
    cache = None
    if args.distributed and not args.no_cache:
        cache = experiments.ResultCache(args.cache_dir)
        _require_cache_dir(cache.directory)
    host, port = args.listen
    try:
        coordinator = SweepCoordinator(
            [Job("pipeline_run", canonical_json(params))], cache=cache,
            host=host, port=port if args.distributed else None,
            lease_seconds=args.lease_seconds,
            wait_workers=args.wait_workers,
            checkpoint_every=args.checkpoint_every or DEFAULT_CHECKPOINT_EVERY,
            journal_path=args.journal)
    except (KeyError, ValueError, JournalError) as error:
        # a journal of another build or computation stays for its run
        raise SystemExit(f"error: {error}")
    _announce_coordinator(coordinator, args)
    try:
        rows_per_job = coordinator.run()
    except JobExecutionError as error:
        raise SystemExit(f"error: {error}")
    coordinator.discard_journal()  # results delivered — the WAL is spent
    snap = coordinator.state.snapshot()
    counters = snap["counters"]
    print(f"# units={snap['units_total']} "
          f"resumed={counters['resumed_units']} "
          f"migrated_checkpoints={counters['checkpoints_migrated']} "
          f"cache_served={counters['cache_served_units']}", file=sys.stderr)
    print(json.dumps(rows_per_job[0], indent=2, sort_keys=True))
    return 0


def cmd_serve(args) -> int:
    """Long-lived simulation-as-a-service daemon (async job API with
    coalescing, admission control, streamed partials, /metrics)."""
    from repro.experiments.cache import default_cache_dir
    from repro.service.server import ServeConfig, run_serve

    if not args.no_cache:
        _require_cache_dir(args.cache_dir or default_cache_dir())
    try:
        config = ServeConfig(
            host=args.host, port=args.port, workers=args.workers,
            max_running=args.max_running, max_queued=args.max_queued,
            cache=not args.no_cache, cache_dir=args.cache_dir,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_every=args.checkpoint_every,
            drain_grace=args.drain_grace,
            distributed=args.distributed,
            dist_host=args.dist_listen[0],
            dist_port=args.dist_listen[1],
            dist_wait_workers=args.dist_wait_workers)
    except ValueError as error:
        raise SystemExit(f"error: {error}")
    try:
        return run_serve(config)
    except ValueError as error:
        raise SystemExit(f"error: {error}")


def cmd_demo(args) -> int:
    import numpy as np

    from repro.core.device import GuardNNDevice
    from repro.core.host import HonestHost, MlpSpec
    from repro.core.session import UserSession
    from repro.crypto.pki import ManufacturerCA
    from repro.crypto.rng import HmacDrbg

    ca = ManufacturerCA(HmacDrbg(b"cli-ca"))
    device = GuardNNDevice(b"cli-dev", ca, seed=b"cli-seed", dram_bytes=1 << 20)
    host = HonestHost(device)
    user = UserSession(ca.root_public, HmacDrbg(b"cli-user"))
    user.authenticate_device(host.fetch_device_info())
    host.establish_session(user, enable_integrity=not args.no_integrity)
    rng = np.random.default_rng(args.seed)
    spec = MlpSpec([rng.integers(-20, 20, size=(64, 32), dtype=np.int8),
                    rng.integers(-20, 20, size=(32, 10), dtype=np.int8)])
    x = rng.integers(-20, 20, size=(4, 64), dtype=np.int8)
    out, attested = host.compile_and_run(user, spec, x)
    ok = (out == spec.reference_forward(x)).all()
    print(f"result correct: {bool(ok)}; attested: {attested}; "
          f"plaintext in DRAM: {spec.weights[0].tobytes() in bytes(device.untrusted_memory.data)}")
    return 0 if ok and attested else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, network_default="vgg16"):
        p.add_argument("--network", default=network_default,
                       help=f"one of: {', '.join(list_models())}")
        p.add_argument("--batch", type=int, default=1)
        p.add_argument("--training", action="store_true")

    p = sub.add_parser("simulate", help="run one network under one scheme")
    common(p)
    p.add_argument("--scheme", default="guardnn-ci", choices=list_schemes())
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="run a registered experiment grid "
                                     "(parallel workers + result cache)")
    p.add_argument("--list", action="store_true", help="list registered sweeps")
    p.add_argument("--preset", help="registered sweep name (see --list)")
    p.add_argument("--models", help="comma-separated model names (ad-hoc grid)")
    p.add_argument("--schemes", default=None,
                   help="comma-separated scheme names for an ad-hoc grid "
                        "(default: np,guardnn-c,guardnn-ci,bp)")
    p.add_argument("--batches", default=None,
                   help="comma-separated batch sizes (default: 1)")
    p.add_argument("--modes", default=None,
                   help="comma-separated modes (default: inference)")
    p.add_argument("--workers", type=_positive_int, default=None,
                   help="process-parallel workers (default: "
                        "REPRO_SWEEP_WORKERS or cpu count, capped at 8)")
    p.add_argument("--distributed", action="store_true",
                   help="shard the sweep across remote `repro work` "
                        "machines (local pool is the zero-worker fallback)")
    p.add_argument("--listen", type=_host_port, default=("127.0.0.1", 0),
                   metavar="HOST:PORT",
                   help="coordinator bind address for --distributed "
                        "(default: 127.0.0.1 on an ephemeral port)")
    p.add_argument("--unit-jobs", type=_positive_int, default=None,
                   help="jobs per distributed work unit (default: "
                        "auto, ~32 units per sweep)")
    p.add_argument("--lease-seconds", type=_positive_float, default=10.0,
                   help="lease term for distributed units; a worker "
                        "silent this long forfeits its unit")
    p.add_argument("--wait-workers", type=_nonneg_float, default=0.0,
                   metavar="SECS",
                   help="grace period to wait for remote workers before "
                        "the local pool starts taking units")
    p.add_argument("--journal", type=_journal_path, default=None,
                   metavar="PATH",
                   help="write-ahead journal for --distributed: every "
                        "commit is fsync'd before it is acknowledged, so "
                        "a killed coordinator restarted with the same "
                        "--journal resumes exactly where it died "
                        "(deleted on successful completion)")
    p.add_argument("--format", default="markdown", choices=("markdown", "csv", "json"))
    p.add_argument("--out", help="write the table to a file instead of stdout")
    p.add_argument("--no-cache", action="store_true",
                   help="recompute everything, bypassing the result cache")
    p.add_argument("--cache-dir", default=None,
                   help="result-cache directory (default: ~/.cache/repro/sweeps)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("compile", help="compile a DFG to GuardNN instructions")
    common(p, network_default="alexnet")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("pipeline", help="one streaming trace-pipeline run "
                                        "(journaled + resumable)")
    p.add_argument("--workload", required=True,
                   help="trace-spec name (streaming, random, bp-metadata, "
                        "llm geometries, ...)")
    p.add_argument("--schemes", default=None,
                   help="comma-separated scheme names "
                        "(default: np,guardnn-c,guardnn-ci,bp)")
    p.add_argument("--chunk-requests", type=_positive_int, default=None,
                   help="requests per streamed chunk")
    p.add_argument("--params", default=None,
                   help="extra trace-spec params as a JSON object, e.g. "
                        "'{\"nbytes\": 1048576, \"tokens\": 2}'")
    p.add_argument("--checkpoint-every", type=_nonneg_int, default=0,
                   metavar="N",
                   help="journal (with --distributed: also migrate) a "
                        "chunk-seam checkpoint every N chunks (default 4; "
                        "needs --journal or --distributed)")
    p.add_argument("--distributed", action="store_true",
                   help="serve the run as a leased work unit to `repro "
                        "work` machines, with chunk-seam checkpoint "
                        "migration as the failover path (local pool is "
                        "the zero-worker fallback)")
    p.add_argument("--listen", type=_host_port, default=("127.0.0.1", 0),
                   metavar="HOST:PORT",
                   help="coordinator bind address for --distributed "
                        "(default: 127.0.0.1 on an ephemeral port)")
    p.add_argument("--lease-seconds", type=_positive_float, default=10.0,
                   help="lease term for --distributed; a worker silent "
                        "this long forfeits the unit and its latest "
                        "migrated checkpoint rides the re-grant")
    p.add_argument("--wait-workers", type=_nonneg_float, default=0.0,
                   metavar="SECS",
                   help="grace period to wait for remote workers before "
                        "the local pool takes the unit")
    p.add_argument("--no-cache", action="store_true",
                   help="bypass the shared result cache for --distributed")
    p.add_argument("--cache-dir", default=None,
                   help="result-cache directory for --distributed "
                        "(default: ~/.cache/repro/sweeps)")
    p.add_argument("--journal", type=_journal_path, default=None,
                   metavar="PATH",
                   help="write-ahead journal: the commit and every "
                        "chunk-seam checkpoint envelope are fsync'd "
                        "before acknowledgement, so a killed run "
                        "restarted with the same --journal resumes from "
                        "its latest seam, bit-identical (deleted on "
                        "successful completion; a journal another build "
                        "or another run wrote is refused and left in "
                        "place)")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("serve", help="simulation-as-a-service daemon "
                                     "(HTTP/NDJSON job API, coalescing, "
                                     "admission control, /metrics)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8787,
                   help="TCP port (0 = ephemeral; the bound address is "
                        "printed to stderr)")
    p.add_argument("--workers", type=_positive_int, default=None,
                   help="sweep process-pool width (default: "
                        "REPRO_SWEEP_WORKERS or cpu count, capped at 8)")
    p.add_argument("--max-running", type=_positive_int, default=2,
                   help="concurrent executing jobs (occupancy capacity)")
    p.add_argument("--max-queued", type=_nonneg_int, default=8,
                   help="admitted jobs allowed to wait; beyond this the "
                        "service sheds load with 429 + Retry-After")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the shared on-disk result cache")
    p.add_argument("--cache-dir", default=None,
                   help="result-cache directory (default: ~/.cache/repro/sweeps)")
    p.add_argument("--checkpoint-dir", default=None,
                   help="directory for flight journals; enables "
                        "drain-time checkpointing and restart resume")
    p.add_argument("--checkpoint-every", type=_nonneg_int, default=0,
                   metavar="N",
                   help="journal pipeline flights every N chunks (0 = "
                        "only when draining; with --distributed, 0 means "
                        "every 4 chunks); needs --checkpoint-dir")
    p.add_argument("--drain-grace", type=_nonneg_float, default=10.0,
                   metavar="SECS",
                   help="grace period for in-flight work after SIGTERM/"
                        "SIGINT before forced shutdown")
    p.add_argument("--distributed", action="store_true",
                   help="fan sweep/pipeline flights out to `repro work` "
                        "machines through an embedded coordinator; with "
                        "zero live workers a flight falls back to the "
                        "local pool. With --checkpoint-dir each flight "
                        "keeps a write-ahead journal there, so a killed "
                        "daemon resumes its flights on restart")
    p.add_argument("--dist-listen", type=_host_port,
                   default=("127.0.0.1", 8790), metavar="HOST:PORT",
                   help="coordinator bind address for --distributed "
                        "(fixed so parked workers can rejoin between "
                        "flights; default 127.0.0.1:8790)")
    p.add_argument("--dist-wait-workers", type=_nonneg_float, default=0.0,
                   metavar="SECS",
                   help="grace period each flight waits for remote "
                        "workers before the local pool takes its units")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("work", help="join a distributed run as a worker "
                                    "(point at a `repro sweep|pipeline "
                                    "--distributed` coordinator URL)")
    p.add_argument("url", help="coordinator URL, e.g. http://10.0.0.5:8790")
    p.add_argument("--name", default=None,
                   help="worker name (shows up in coordinator ids/logs)")
    p.add_argument("--workers", type=_positive_int, default=None,
                   help="local process-pool width for unit execution "
                        "(default: REPRO_SWEEP_WORKERS or cpu count, "
                        "capped at 8)")
    p.add_argument("--reconnect-timeout", type=_nonneg_float, default=30.0,
                   metavar="SECS",
                   help="give up after the coordinator has been "
                        "unreachable this long (jittered exponential "
                        "backoff, 0.1 s base, 5 s cap, in between; the "
                        "budget restarts on every answered exchange, "
                        "including a 409 re-registration after a "
                        "coordinator restart) and exit 0 when the run is "
                        "done. 0 = no budget: never give up, and stay "
                        "parked after `done` to serve the next "
                        "coordinator at this URL")
    p.add_argument("--no-cache", action="store_true",
                   help="skip the local result cache (units are always "
                        "recomputed, never answered or remembered here)")
    p.add_argument("--cache-dir", default=None,
                   help="local result-cache directory "
                        "(default: ~/.cache/repro/sweeps)")
    p.set_defaults(func=cmd_work)

    p = sub.add_parser("demo", help="functional end-to-end secure inference")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-integrity", action="store_true")
    p.set_defaults(func=cmd_demo)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # piping into `head` & friends closes stdout early; exit quietly
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
