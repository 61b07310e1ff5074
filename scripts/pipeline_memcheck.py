#!/usr/bin/env python
"""Memory-ceiling smoke: an LLM-scale decode trace streamed end-to-end
under a hard address-space budget the materialized path cannot fit.

The check has three parts:

1. **The materialized path cannot fit.** Estimate the footprint of
   rendering the workload as ``MemoryRequest`` objects (measured
   per-object cost x request count) and require it to exceed the
   budget — otherwise the workload is not large enough to prove
   anything.
2. **A hard ceiling.** ``resource.setrlimit(RLIMIT_AS)`` pins the
   process to its current address-space usage plus ``--budget-mb``; an
   O(trace) allocation anywhere in the pipeline dies with MemoryError
   instead of quietly succeeding on a big CI box.
3. **A measured ceiling.** The peak-RSS growth over the run
   (``getrusage(ru_maxrss)``) must stay within ``--rss-budget-mb`` —
   O(chunk), not O(trace). (``tracemalloc`` would be byte-exact but
   slows this allocation-heavy run ~30x; the fine-grained O(chunk)
   assertion, ``test_pipeline_memory_stays_bounded_by_chunk`` in
   ``tests/property/test_pipeline_equivalence.py``, runs with the slow
   tier at a size where tracing is affordable.)

Usage (the CI perf-smoke leg)::

    PYTHONPATH=src python scripts/pipeline_memcheck.py \
        --workload gpt2-xl --tokens 1 --context 1024 --budget-mb 1024
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))


def current_vms_bytes() -> int:
    """Current virtual memory size (Linux; the CI runner)."""
    with open("/proc/self/statm") as f:
        return int(f.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")


def peak_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def materialized_estimate(spec) -> int:
    """Lower-bound bytes to hold ``spec`` as request objects."""
    from repro.mem.trace import MemoryRequest

    sample = MemoryRequest(1 << 40, 64, False)
    # slotted object + a non-interned address int + the list slot
    per_request = sys.getsizeof(sample) + sys.getsizeof(sample.address) + 8
    return spec.total_requests * per_request


def main(argv=None) -> int:
    from repro.workloads.llm import list_llm_workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="gpt2-xl",
                        choices=list_llm_workloads(),
                        help="LLM decode geometry to stream (this smoke "
                             "is about LLM-scale traces; the synthetic "
                             "patterns go through `repro sweep --preset "
                             "pipeline-patterns`)")
    parser.add_argument("--tokens", type=int, default=1)
    parser.add_argument("--context", type=int, default=1024)
    parser.add_argument("--schemes", default="guardnn-ci",
                        help="comma-separated protection schemes (bp runs "
                             "the full MEE walk — several times slower)")
    parser.add_argument("--chunk-requests", type=int, default=1 << 17)
    parser.add_argument("--budget-mb", type=int, default=1024,
                        help="RLIMIT_AS headroom over current usage")
    parser.add_argument("--rss-budget-mb", type=int, default=512,
                        help="peak-RSS growth ceiling for the run")
    args = parser.parse_args(argv)

    from repro.mem.pipeline import TracePipeline
    from repro.workloads import build_trace_spec

    spec = build_trace_spec(args.workload, tokens=args.tokens,
                            context=args.context)
    schemes = tuple(args.schemes.split(","))
    budget = args.budget_mb << 20
    estimate = materialized_estimate(spec)
    print(f"workload:            {args.workload} x {args.tokens} token(s), "
          f"context {args.context}")
    print(f"trace:               {spec.total_requests:,} requests "
          f"({spec.total_requests * 64 / 1e9:.2f} GB moved)")
    print(f"materialized (est.): {estimate / 1e9:.2f} GB of request objects")
    print(f"ceiling:             current usage + {args.budget_mb} MB "
          f"(RLIMIT_AS), peak-RSS growth <= {args.rss_budget_mb} MB")
    if estimate <= budget:
        print("ERROR: workload fits the ceiling even materialized — "
              "raise --tokens/--context or lower --budget-mb")
        return 1

    ceiling = current_vms_bytes() + budget
    resource.setrlimit(resource.RLIMIT_AS, (ceiling, ceiling))
    rss_before = peak_rss_bytes()

    started = time.perf_counter()
    results = TracePipeline(spec, schemes=schemes,
                            chunk_requests=args.chunk_requests).run()
    elapsed = time.perf_counter() - started
    rss_growth = peak_rss_bytes() - rss_before

    for name in schemes:
        timing = results[name].result
        print(f"{name:12s} cycles {timing.cycles:>15,}  traffic "
              f"+{100 * timing.stats.traffic_increase():.2f}%")
    print(f"completed in {elapsed:.1f} s; peak-RSS growth "
          f"{rss_growth / 1e6:.1f} MB (chunk {args.chunk_requests} requests)")
    if rss_growth > args.rss_budget_mb << 20:
        print(f"ERROR: peak-RSS growth exceeds {args.rss_budget_mb} MB — "
              "the pipeline is no longer O(chunk)")
        return 1
    print(f"OK: {estimate / 1e9:.2f} GB-materialized workload streamed "
          f"in {rss_growth / 1e6:.1f} MB of growth")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
