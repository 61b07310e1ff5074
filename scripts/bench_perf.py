#!/usr/bin/env python
"""Perf-trajectory benchmark: scalar reference vs. vectorized fast path.

Times every hot-path kernel of the vectorized engine against the scalar
reference implementation that remains in-tree (see ``repro.perf``), and
records the results in ``BENCH_perf.json`` so the repository's
performance trajectory is tracked from PR to PR:

* crypto: AES-CTR region encryption, GHASH, GMAC;
* trace pipeline: GuardNN/MEE trace rewriting and the FR-FCFS DDR4
  model, object stream vs. :class:`~repro.mem.batch.RequestBatch`;
* Merkle: per-leaf path updates vs. batched ``update_leaves``;
* end-to-end: the Figure-3 inference sweep through the experiment
  runner (the registry's hottest artifact).

Methodology: each measurement takes the best of ``--repeat`` timed runs
after one warmup. The fast path keeps its memo caches warm across
repeats — that steady state is the behaviour being shipped — while the
scalar path runs under ``repro.perf.scalar_mode()`` with the caches
dropped. Both paths produce bit-identical outputs (enforced by the
equivalence suite, and spot-checked here).

Usage::

    PYTHONPATH=src python scripts/bench_perf.py            # full
    PYTHONPATH=src python scripts/bench_perf.py --quick    # CI smoke
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import perf  # noqa: E402
from repro.crypto.ctr import AesCtr  # noqa: E402
from repro.crypto.gf128 import ghash  # noqa: E402
from repro.crypto.gmac import AesGmac  # noqa: E402
from repro.crypto.sha256_fast import hmac_sha256_many, sha256_many  # noqa: E402
from repro.mem.controller import MemoryController  # noqa: E402
from repro.protection.merkle import MerkleTree  # noqa: E402
from repro.protection.trace_rewriter import (  # noqa: E402
    GuardNNTraceRewriter,
    MeeTraceRewriter,
)
from repro.workloads.generators import (  # noqa: E402
    bp_metadata_batch,
    bp_metadata_trace,
    streaming_batch,
    streaming_trace,
)

KEY = bytes(range(16))

#: acceptance targets for the headline kernels (reported, and checked
#: by --check)
TARGETS = {
    "aes_ctr": 10.0,
    "ghash": 10.0,
    "sha256_batch": 20.0,
    "hmac_batch": 20.0,
    "merkle_updates": 10.0,
    "rewriter_mee": 8.0,
    "dram_streaming": 5.0,
    "dram_bp-interleaved": 5.0,
    "ecdsa_sign": 3.0,
    "fig3_inference_sweep": 15.0,
    "pipeline_streaming": 5.0,
    "pipeline_multischeme": 5.0,
}


def _best_of(fn, repeat: int) -> float:
    fn()  # warmup (also primes fast-path tables/memos)
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _measure(name, fast_fn, scalar_fn, repeat, extra=None, check_equal=None):
    """Time fast vs scalar; optionally assert their outputs agree."""
    if check_equal is not None:
        with perf.scalar_mode():
            reference = scalar_fn()
        assert check_equal(fast_fn(), reference), f"{name}: fast != scalar output"
    fast_s = _best_of(fast_fn, repeat)
    with perf.scalar_mode():
        scalar_s = _best_of(scalar_fn, repeat)
    perf.clear_caches()
    row = {"scalar_s": round(scalar_s, 6), "fast_s": round(fast_s, 6),
           "speedup": round(scalar_s / fast_s, 2)}
    row.update(extra or {})
    return name, row


def bench_aes_ctr(nbytes: int, repeat: int):
    data = bytes(i & 0xFF for i in range(nbytes))
    run = lambda: AesCtr(KEY).crypt_region(0x1000, 7, data)
    return _measure("aes_ctr", run, run, repeat,
                    extra={"bytes": nbytes}, check_equal=lambda a, b: a == b)


def bench_ghash(nbytes: int, repeat: int):
    h = int.from_bytes(bytes(range(100, 116)), "big")
    data = bytes(i & 0xFF for i in range(nbytes))
    run = lambda: ghash(h, data)
    return _measure("ghash", run, run, repeat,
                    extra={"bytes": nbytes}, check_equal=lambda a, b: a == b)


def bench_gmac(nbytes: int, repeat: int):
    data = bytes(i & 0xFF for i in range(nbytes))
    run = lambda: AesGmac(KEY).mac(bytes(12), data)
    return _measure("gmac", run, run, repeat,
                    extra={"bytes": nbytes}, check_equal=lambda a, b: a == b)


def bench_sha256_batch(lanes: int, msg_bytes: int, repeat: int):
    messages = [bytes((i + j) & 0xFF for j in range(msg_bytes))
                for i in range(lanes)]
    run = lambda: sha256_many(messages)
    return _measure("sha256_batch", run, run, repeat,
                    extra={"lanes": lanes, "message_bytes": msg_bytes},
                    check_equal=lambda a, b: a == b)


def bench_hmac_batch(lanes: int, msg_bytes: int, repeat: int):
    key = bytes(range(32))
    messages = [bytes((i + j) & 0xFF for j in range(msg_bytes))
                for i in range(lanes)]
    run = lambda: hmac_sha256_many(key, messages)
    return _measure("hmac_batch", run, run, repeat,
                    extra={"lanes": lanes, "message_bytes": msg_bytes},
                    check_equal=lambda a, b: a == b)


def bench_rewriter(kind: str, nbytes: int, repeat: int):
    trace = streaming_trace(nbytes, write_fraction=0.5)
    batch = streaming_batch(nbytes, write_fraction=0.5)

    def make(kind):
        if kind == "guardnn":
            return GuardNNTraceRewriter(integrity=True)
        return MeeTraceRewriter()

    fast = lambda: make(kind).rewrite_batch(batch)
    scalar = lambda: make(kind).rewrite(trace)
    return _measure(
        f"rewriter_{kind}", fast, scalar, repeat,
        extra={"bytes": nbytes, "requests": len(trace)},
        check_equal=lambda a, b: a.to_requests() == b)


def bench_dram(pattern: str, nbytes: int, repeat: int):
    if pattern == "streaming":
        trace, batch = streaming_trace(nbytes), streaming_batch(nbytes)
    else:
        trace, batch = bp_metadata_trace(nbytes), bp_metadata_batch(nbytes)
    fast = lambda: MemoryController().run_batch(batch)
    scalar = lambda: MemoryController().run_trace(trace)
    return _measure(
        f"dram_{pattern}", fast, scalar, repeat,
        extra={"bytes": nbytes, "requests": len(trace)},
        check_equal=lambda a, b: (a.cycles, a.bursts) == (b.cycles, b.bursts))


def bench_merkle(num_leaves: int, updates: int, repeat: int):
    span = [(i % num_leaves, i.to_bytes(4, "big")) for i in range(updates)]

    def fast():
        tree = MerkleTree(num_leaves)
        tree.update_leaves(span)
        return tree.root

    def scalar():
        tree = MerkleTree(num_leaves)
        for index, leaf in span:
            tree.update_leaf(index, leaf)
        return tree.root

    name, row = _measure("merkle_updates", fast, scalar, repeat,
                         extra={"leaves": num_leaves, "updates": updates},
                         check_equal=lambda a, b: a == b)
    # attribute regressions: hashing cost scales with updates, the
    # tree-walk cost with height
    row["tree_height"] = num_leaves.bit_length() - 1
    row["fast_us_per_update"] = round(row["fast_s"] / updates * 1e6, 3)
    row["scalar_us_per_update"] = round(row["scalar_s"] / updates * 1e6, 3)
    return name, row


def bench_pipeline_streaming(nbytes: int, repeat: int):
    """End-to-end front end: chunked streaming TracePipeline (generate →
    MEE rewrite → DDR4, fused per chunk) vs the materialized path
    (whole object trace built, rewritten, then timed)."""
    from repro.mem.pipeline import TracePipeline, run_materialized
    from repro.workloads import StreamingSpec

    chunk = 1 << 14

    def spec():
        return StreamingSpec(nbytes, write_fraction=0.5)

    fast = lambda: TracePipeline(spec(), schemes=("bp",),
                                 chunk_requests=chunk).run()["bp"].result
    scalar = lambda: run_materialized(spec(), "bp")
    return _measure(
        "pipeline_streaming", fast, scalar, repeat,
        extra={"bytes": nbytes, "requests": nbytes // 64,
               "chunk_requests": chunk, "scheme": "bp"},
        check_equal=lambda a, b: (a.cycles, a.bursts) == (b.cycles, b.bursts))


def bench_pipeline_multischeme(nbytes: int, repeat: int):
    """The shared-pass comparison mode: one generation pass forked
    through np/guardnn-ci/bp vs three materialized runs."""
    from repro.mem.pipeline import TracePipeline, run_materialized
    from repro.workloads import StreamingSpec

    schemes = ("np", "guardnn-ci", "bp")
    chunk = 1 << 14

    def spec():
        return StreamingSpec(nbytes, write_fraction=0.5)

    def fast():
        results = TracePipeline(spec(), schemes=schemes,
                                chunk_requests=chunk).run()
        return tuple((results[s].result.cycles, results[s].result.bursts)
                     for s in schemes)

    def scalar():
        return tuple((r.cycles, r.bursts)
                     for r in (run_materialized(spec(), s) for s in schemes))

    return _measure(
        "pipeline_multischeme", fast, scalar, repeat,
        extra={"bytes": nbytes, "requests": nbytes // 64,
               "chunk_requests": chunk, "schemes": len(schemes)},
        check_equal=lambda a, b: a == b)


def bench_ecdsa_sign(repeat: int):
    from repro.crypto.ecdsa import EcdsaKeyPair, ecdsa_sign
    from repro.crypto.rng import HmacDrbg

    pair = EcdsaKeyPair.generate(HmacDrbg(b"bench-ecdsa"))
    message = b"attestation output hash, signed by SK_Accel"
    run = lambda: ecdsa_sign(pair.private, message)
    return _measure("ecdsa_sign", run, run, repeat,
                    extra={"curve": "P-256"}, check_equal=lambda a, b: a == b)


def bench_fig3(repeat: int):
    from repro.experiments import run_sweep

    # workers=1 explicitly: under a spawn start method, pool children
    # would re-import repro.perf and ignore the parent's scalar_mode()
    run = lambda: run_sweep("fig3-inference", workers=1, cache=False)
    name, row = _measure(
        "fig3_inference_sweep", run, run, repeat,
        check_equal=lambda a, b: a.rows == b.rows)
    row["jobs"] = 36
    return name, row


def kernel_specs(quick: bool, repeat: int):
    """Ordered (name, thunk) registry of every tracked kernel."""
    crypto_bytes = 16 * 1024 if quick else 64 * 1024
    trace_bytes = 1 << 18 if quick else 1 << 20
    dram_bytes = 1 << 16 if quick else 1 << 18
    lanes = 512 if quick else 1024
    return [
        ("aes_ctr", lambda: bench_aes_ctr(crypto_bytes, repeat)),
        ("ghash", lambda: bench_ghash(crypto_bytes, repeat)),
        ("gmac", lambda: bench_gmac(crypto_bytes // 2, repeat)),
        ("sha256_batch", lambda: bench_sha256_batch(lanes, 64, repeat)),
        ("hmac_batch", lambda: bench_hmac_batch(lanes, 64, repeat)),
        ("rewriter_guardnn", lambda: bench_rewriter("guardnn", trace_bytes, repeat)),
        ("rewriter_mee", lambda: bench_rewriter("mee", trace_bytes, repeat)),
        ("dram_streaming", lambda: bench_dram("streaming", dram_bytes, repeat)),
        ("dram_bp-interleaved", lambda: bench_dram("bp-interleaved", dram_bytes, repeat)),
        ("pipeline_streaming", lambda: bench_pipeline_streaming(trace_bytes, repeat)),
        ("pipeline_multischeme", lambda: bench_pipeline_multischeme(trace_bytes, repeat)),
        ("merkle_updates", lambda: bench_merkle(1024 if quick else 4096,
                                                128 if quick else 512, repeat)),
        ("ecdsa_sign", lambda: bench_ecdsa_sign(repeat)),
        ("fig3_inference_sweep", lambda: bench_fig3(repeat)),
    ]


def run_benchmarks(quick: bool, repeat: int, kernels=None):
    specs = kernel_specs(quick, repeat)
    if kernels:
        known = {name for name, _ in specs}
        unknown = [k for k in kernels if k not in known]
        if unknown:
            raise SystemExit(
                f"unknown kernel(s) {', '.join(unknown)}; "
                f"choose from {', '.join(sorted(known))}")
        specs = [(name, thunk) for name, thunk in specs if name in set(kernels)]
    return dict(thunk() for _name, thunk in specs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small inputs / few repeats (CI smoke)")
    parser.add_argument("--repeat", type=int, default=None,
                        help="timed repetitions per measurement (best-of)")
    parser.add_argument("--kernel", action="append", default=None,
                        help="measure only this kernel (repeatable); the "
                             "report is not written unless --output is given")
    parser.add_argument("--list-kernels", action="store_true",
                        help="print the kernel names and exit")
    parser.add_argument("--output", default=None,
                        help="report path (default: <repo>/BENCH_perf.json "
                             "for full-mode full-registry runs; quick and "
                             "--kernel runs write nothing)")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero if a headline target is missed")
    args = parser.parse_args(argv)

    repeat = args.repeat or (2 if args.quick else 5)
    if args.list_kernels:
        for name, _thunk in kernel_specs(args.quick, repeat):
            print(name)
        return 0
    kernels = run_benchmarks(args.quick, repeat, kernels=args.kernel)

    report = {
        "schema": 1,
        "generated_by": "scripts/bench_perf.py",
        "mode": "quick" if args.quick else "full",
        "repeat": repeat,
        "python": platform.python_version(),
        "targets": TARGETS,
        "kernels": kernels,
    }
    output = args.output
    if output is None and not args.kernel and not args.quick:
        # only a full-registry, full-mode run may refresh the tracked
        # baseline by default: quick-mode ratios are shifted by the
        # smaller inputs and would poison bench_compare.py comparisons
        output = os.path.join(os.path.dirname(__file__), "..", "BENCH_perf.json")
    width = max(len(k) for k in kernels)
    print(f"{'kernel'.ljust(width)}  scalar_s   fast_s     speedup")
    for name, row in kernels.items():
        print(f"{name.ljust(width)}  {row['scalar_s']:<9.4f}  {row['fast_s']:<9.4f} "
              f"{row['speedup']:>6.2f}x")
    if output is not None:
        path = os.path.abspath(output)
        with open(path, "w") as f:
            json.dump(report, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"\nwrote {path}")
    else:
        print("\n(report not written — kernel-subset and quick-mode runs do "
              "not touch the tracked baseline; pass --output to keep it)")

    checked = {name: target for name, target in TARGETS.items() if name in kernels}
    missed = [
        (name, target, kernels[name]["speedup"])
        for name, target in checked.items()
        if kernels[name]["speedup"] < target
    ]
    for name, target, got in missed:
        print(f"TARGET MISSED: {name} {got:.2f}x < {target:.0f}x")
    if missed and args.quick:
        print("(quick-mode inputs shift the ratios; the floors are "
              "calibrated for full mode — run without --quick before "
              "concluding a kernel regressed)")
    if not missed and checked:
        print("all headline targets met "
              + ", ".join(f"{k}>={v:.0f}x" for k, v in checked.items()))
    return 1 if (missed and args.check) else 0


if __name__ == "__main__":
    raise SystemExit(main())
