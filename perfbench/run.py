"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one seeded workload for ``--seconds`` seconds of measurement,
checks its simulated outputs, and prints a readable report followed by
one JSON line (the last line of stdout)::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` the run is traced and the
metrics are the per-layer ones, and the per-layer table plus the raw
spans are written to ``perfbench/out/``. Metric names and units come
from ``BENCHMARK.json``. Every time is host time.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys

from helpers import (OUT_DIR, REPO_ROOT, BenchError, at_nominal_speed,
                     import_program)

WORKLOADS = {
    "llm-decode": "pipelines",
    "random-bp": "pipelines",
    "dse-sweep": "dse",
    "serve-mixed": "serve_mixed",
}


def load_manifest() -> dict:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _module(workload: str):
    return importlib.import_module(WORKLOADS[workload])


def emit_metrics(outcome, declared) -> dict:
    """Order and unit the outcome's metrics as ``declared``, restated at
    the nominal host speed when the run sampled it (the raw value goes
    into the report); a declared per-layer metric the workload never
    reaches reads 0."""
    metrics = {}
    for entry in declared:
        name, unit = entry["name"], entry["unit"]
        if name not in outcome.metrics:
            outcome.bases.setdefault(name, "not reached by this workload")
        value = float(outcome.metrics.get(name, 0.0))
        if outcome.host is not None:
            nominal = at_nominal_speed(value, unit, outcome.host.factor)
            if nominal != value:
                outcome.bases[name] = f"raw {value:.6g} {unit}"
            value = nominal
        metrics[name] = {"value": value, "unit": unit}
    unknown = set(outcome.metrics) - {entry["name"] for entry in declared}
    if unknown:
        raise BenchError(f"undeclared metrics {sorted(unknown)}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=sorted(WORKLOADS),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    import_program()
    if args.setup_probe:
        _module(args.setup_probe).setup_probe(args.setup_probe)
        print("ready", flush=True)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    manifest = load_manifest()
    module = _module(args.workload)
    run = module.traced if args.trace else module.measure
    outcome = run(args.workload, args.seed, args.seconds)
    declared = manifest["per_layer" if args.trace else "end_to_end"]
    metrics = emit_metrics(outcome, declared)

    tally = outcome.tally
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for note in outcome.notes:
        print(f"#   {note}")
    if outcome.host is not None:
        print(f"#   {outcome.host.note()}; time metrics below are at nominal speed")
    for name, metric in metrics.items():
        base = outcome.bases.get(name)
        print(f"#   {name:40s} {metric['value']:14.6g} {metric['unit']:6s}"
              + (f"  ({base})" if base else ""))
    print(f"#   error_rate {tally.error_rate:.4f} "
          f"({tally.failed} failed of {tally.attempted} attempted)")
    for reason in tally.reasons:
        print(f"#   FAILED: {reason}")
    if args.trace:
        from tracing import layer_report

        rows = [{"name": name, "value": metric["value"], "unit": metric["unit"],
                 "base": outcome.bases.get(name, "")}
                for name, metric in metrics.items()]
        report = layer_report(outcome.tracer, outcome.traced_wall_s,
                              outcome.traced_ops, rows,
                              metrics["trace.overhead_frac"]["value"])
        stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}")
        os.makedirs(OUT_DIR, exist_ok=True)
        with open(stem + "-layers.md", "w") as f:
            f.write(report + "\n")
        with open(stem + "-spans.json", "w") as f:
            json.dump({"spans": outcome.tracer.spans,
                       "counts": dict(outcome.tracer.counts)}, f)
        print(report)
        print(f"# wrote {stem}-layers.md and {stem}-spans.json "
              f"({len(outcome.tracer.spans)} spans)")
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        sys.exit(2)
