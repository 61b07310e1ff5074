"""Microbenchmarks of the vectorized hot-path engine.

Times the fast-path kernels (batched table-driven AES-CTR, table GHASH,
the SoA trace pipeline, batched Merkle updates, the memoized Fig.-3
sweep) on pytest-benchmark, and asserts on every run that each fast
path reproduces its scalar reference bit-for-bit — so a kernel
regression fails loudly even with ``--benchmark-disable``.

The scalar-vs-fast speedup trajectory itself is recorded by
``scripts/bench_perf.py`` into ``BENCH_perf.json``; this harness is the
per-kernel drill-down.
"""

import pytest

from repro import perf
from repro.crypto.ctr import AesCtr
from repro.crypto.ecdsa import EcdsaKeyPair, ecdsa_sign
from repro.crypto.gf128 import ghash
from repro.crypto.gmac import AesGmac
from repro.crypto.rng import HmacDrbg
from repro.crypto.sha256_fast import hmac_sha256_many, sha256_many
from repro.mem.controller import MemoryController
from repro.mem.pipeline import TracePipeline, run_materialized
from repro.protection.merkle import MerkleTree
from repro.protection.trace_rewriter import GuardNNTraceRewriter, MeeTraceRewriter
from repro.workloads import StreamingSpec
from repro.workloads.generators import streaming_trace, streaming_trace_batch

KEY = bytes(range(16))
H = int.from_bytes(bytes(range(100, 116)), "big")
DATA_16K = bytes(i & 0xFF for i in range(16 * 1024))
TRACE_BYTES = 1 << 18
LANE_MESSAGES = [bytes((i + j) & 0xFF for j in range(64)) for i in range(256)]
SIGN_KEY = EcdsaKeyPair.generate(HmacDrbg(b"bench-kernels"))
SIGN_MSG = b"attestation output hash, signed by SK_Accel"


@pytest.fixture(scope="module")
def trace_pair():
    return (streaming_trace(TRACE_BYTES, write_fraction=0.5),
            streaming_trace_batch(TRACE_BYTES, write_fraction=0.5))


# -- equivalence gates (run even with --benchmark-disable) -----------------


def test_fast_kernels_match_scalar_references(trace_pair):
    trace, batch = trace_pair
    with perf.scalar_mode():
        ctr_ref = AesCtr(KEY).crypt_region(0x1000, 7, DATA_16K)
        ghash_ref = ghash(H, DATA_16K)
        gmac_ref = AesGmac(KEY).mac(bytes(12), DATA_16K)
    assert AesCtr(KEY).crypt_region(0x1000, 7, DATA_16K) == ctr_ref
    assert ghash(H, DATA_16K) == ghash_ref
    assert AesGmac(KEY).mac(bytes(12), DATA_16K) == gmac_ref

    scalar_rw = GuardNNTraceRewriter(integrity=True)
    batch_rw = GuardNNTraceRewriter(integrity=True)
    assert (batch_rw.rewrite_batch(batch).to_requests()
            + batch_rw.flush_batch().to_requests()
            == scalar_rw.rewrite(trace) + scalar_rw.flush())

    scalar_result = MemoryController().run_trace(trace)
    batch_result = MemoryController().run_batch(batch)
    assert (scalar_result.cycles, scalar_result.bursts) == (
        batch_result.cycles, batch_result.bursts)

    with perf.scalar_mode():
        sha_ref = sha256_many(LANE_MESSAGES)
        hmac_ref = hmac_sha256_many(KEY, LANE_MESSAGES)
    assert sha256_many(LANE_MESSAGES) == sha_ref
    assert hmac_sha256_many(KEY, LANE_MESSAGES) == hmac_ref

    with perf.scalar_mode():
        sig_ref = ecdsa_sign(SIGN_KEY.private, SIGN_MSG)
    assert ecdsa_sign(SIGN_KEY.private, SIGN_MSG) == sig_ref


def test_pipeline_chunked_matches_materialized():
    """The streaming pipeline is the materialized path, bit for bit:
    same cycles/bursts/traffic for every scheme, across a chunk size
    that splits the stream's coalesced runs."""
    for scheme in ("np", "guardnn-ci", "bp"):
        spec = StreamingSpec(TRACE_BYTES, write_fraction=0.5)
        streamed = TracePipeline(spec, schemes=(scheme,),
                                 chunk_requests=1 << 10).run()[scheme].result
        materialized = run_materialized(spec, scheme)
        assert (streamed.cycles, streamed.bursts) == (
            materialized.cycles, materialized.bursts), scheme
        assert streamed.stats.read_bytes == materialized.stats.read_bytes
        assert streamed.stats.write_bytes == materialized.stats.write_bytes


def test_pipeline_memory_stays_bounded_by_chunk():
    """Peak traced allocation of a streaming run is O(chunk), not
    O(trace): a 32 MB stream (524 288 requests — tens of MB as request
    objects before rewriting even starts) passes through a 4096-request
    chunk pipeline within a few MB."""
    import tracemalloc

    spec = StreamingSpec(1 << 25, write_fraction=0.3)
    materialized_floor = spec.total_requests * 56  # >= one slotted object each
    tracemalloc.start()
    try:
        TracePipeline(spec, schemes=("bp",), chunk_requests=1 << 12).run()
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 1024 * 1024, f"pipeline peak {peak} bytes is not O(chunk)"
    assert peak < materialized_floor / 3


def test_fig3_sweep_rows_identical_across_paths():
    from repro.experiments import run_sweep

    fast = run_sweep("fig3-inference", cache=False)
    with perf.scalar_mode():
        reference = run_sweep("fig3-inference", cache=False)
    assert fast.rows == reference.rows


# -- timings ---------------------------------------------------------------


def test_batched_aes_ctr_16k(benchmark):
    ctr = AesCtr(KEY)
    benchmark(ctr.crypt_region, 0x1000, 7, DATA_16K)


def test_table_ghash_16k(benchmark):
    ghash(H, DATA_16K)  # prime the per-key table
    benchmark(ghash, H, DATA_16K)


def test_table_gmac_16k(benchmark):
    mac = AesGmac(KEY)
    mac.mac(bytes(12), DATA_16K)
    benchmark(mac.mac, bytes(12), DATA_16K)


def test_guardnn_rewrite_batch(benchmark, trace_pair):
    _, batch = trace_pair
    benchmark(lambda: GuardNNTraceRewriter(integrity=True).rewrite_batch(batch))


def test_mee_rewrite_batch(benchmark, trace_pair):
    _, batch = trace_pair
    benchmark(lambda: MeeTraceRewriter().rewrite_batch(batch))


def test_dram_run_batch(benchmark, trace_pair):
    _, batch = trace_pair
    benchmark(lambda: MemoryController().run_batch(batch))


def test_pipeline_streaming(benchmark):
    spec = StreamingSpec(TRACE_BYTES, write_fraction=0.5)
    benchmark(lambda: TracePipeline(spec, schemes=("bp",),
                                    chunk_requests=1 << 14).run())


def test_pipeline_multischeme(benchmark):
    spec = StreamingSpec(TRACE_BYTES, write_fraction=0.5)
    benchmark(lambda: TracePipeline(spec, schemes=("np", "guardnn-ci", "bp"),
                                    chunk_requests=1 << 14).run())


def test_sha256_lane_parallel_256x64(benchmark):
    sha256_many(LANE_MESSAGES[:2])  # import-time tables warm
    benchmark(sha256_many, LANE_MESSAGES)


def test_hmac_batch_256x64(benchmark):
    benchmark(hmac_sha256_many, KEY, LANE_MESSAGES)


def test_merkle_update_leaves(benchmark):
    updates = [(i, i.to_bytes(4, "big")) for i in range(256)]
    tree = MerkleTree(4096)
    benchmark(tree.update_leaves, updates)
    # attribution metadata: a regression here is either hashing cost
    # (scales with updates) or tree-walk cost (scales with height)
    benchmark.extra_info["tree_height"] = len(tree._levels) - 1
    benchmark.extra_info["updates"] = len(updates)
    if benchmark.stats is not None:  # absent under --benchmark-disable
        mean_s = benchmark.stats.stats.mean
        benchmark.extra_info["per_update_latency_us"] = round(
            mean_s / len(updates) * 1e6, 3)


def test_ecdsa_sign(benchmark):
    ecdsa_sign(SIGN_KEY.private, SIGN_MSG)  # warm the fixed-base table
    benchmark(ecdsa_sign, SIGN_KEY.private, SIGN_MSG)


def test_fig3_sweep_fast_path(benchmark):
    from repro.experiments import run_sweep

    run_sweep("fig3-inference", cache=False)  # warm the memo caches
    table = benchmark.pedantic(
        lambda: run_sweep("fig3-inference", cache=False), rounds=3, iterations=1)
    assert len(table) == 36
