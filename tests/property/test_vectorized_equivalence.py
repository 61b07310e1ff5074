"""Randomized equivalence: every fast-path kernel is bit-identical to
its scalar reference.

The vectorized hot-path engine (see ``docs/PERFORMANCE.md``) keeps the
original first-principles implementations as the trusted references and
adds table-driven / batched / memoized fast paths. These tests pin the
contract that makes that safe: on arbitrary inputs, the two paths
produce exactly the same bytes, request sequences, cycle counts, and
tree states.
"""

import contextlib
import copy
import dataclasses

from hypothesis import given, settings, strategies as st

from repro import perf
from repro.accel.systolic import Dataflow
from repro.crypto import aes_fast
from repro.crypto.aes import AES128
from repro.crypto.ctr import AesCtr, ctr_keystream
from repro.crypto.ecdsa import EcdsaKeyPair, ecdsa_sign
from repro.crypto.gf128 import Gf128Table, gf128_mul, ghash
from repro.crypto.gmac import AesGmac
from repro.crypto.rng import HmacDrbg
from repro.crypto.sha256 import sha256
from repro.crypto.sha256_fast import hmac_sha256_many, sha256_many
from repro.mem.batch import RequestBatch
from repro.mem.controller import MemoryController
from repro.mem.trace import MemoryRequest, RequestKind
from repro.protection.merkle import MerkleTree
from repro.protection.trace_rewriter import GuardNNTraceRewriter, MeeTraceRewriter

keys = st.binary(min_size=16, max_size=16)
field_elements = st.integers(0, (1 << 128) - 1)

#: message batches with deliberately nasty shapes for the lane-parallel
#: hash: ragged lengths, empty lanes, and lengths pinned to the FIPS
#: padding boundaries (55/56 one-vs-two padding blocks, 63/64/65 block
#: edges) mixed with arbitrary bytes
hash_messages = st.lists(
    st.one_of(
        st.binary(min_size=0, max_size=200),
        st.integers(0, 130).map(lambda n: b"\xa5" * n),
        st.sampled_from([b"", b"q" * 55, b"r" * 56, b"s" * 63, b"t" * 64,
                         b"u" * 65, b"v" * 119, b"w" * 120]),
    ),
    min_size=0, max_size=16,
)


# -- crypto kernels --------------------------------------------------------


block_aligned = st.lists(
    st.binary(min_size=16, max_size=16), min_size=0, max_size=24
).map(b"".join)


@settings(max_examples=25, deadline=None)
@given(key=keys, data=block_aligned)
def test_batched_aes_matches_scalar_blocks(key, data):
    aes = AES128(key)
    reference = b"".join(
        aes.encrypt_block(data[i : i + 16]) for i in range(0, len(data), 16)
    )
    assert aes_fast.encrypt_blocks(key, data) == reference


@settings(max_examples=25, deadline=None)
@given(key=keys, counter=st.integers(0, (1 << 128) - 1), nbytes=st.integers(0, 600))
def test_fast_ctr_keystream_matches_scalar(key, counter, nbytes):
    aes = AES128(key)
    fast = ctr_keystream(aes, counter.to_bytes(16, "big"), nbytes)
    with perf.scalar_mode():
        reference = ctr_keystream(aes, counter.to_bytes(16, "big"), nbytes)
    assert fast == reference


@settings(max_examples=25, deadline=None)
@given(key=keys, data=block_aligned, address=st.integers(0, 1 << 48),
       vn=st.integers(0, (1 << 64) - 1))
def test_fast_ctr_region_matches_scalar(key, data, address, vn):
    fast = AesCtr(key).crypt_region(address, vn, data)
    with perf.scalar_mode():
        reference = AesCtr(key).crypt_region(address, vn, data)
    assert fast == reference


@settings(max_examples=40, deadline=None)
@given(h=field_elements, x=field_elements)
def test_gf128_table_matches_bit_serial(h, x):
    assert Gf128Table(h).mul(x) == gf128_mul(x, h)


@settings(max_examples=25, deadline=None)
@given(h=field_elements, data=st.binary(min_size=0, max_size=200))
def test_table_ghash_matches_bit_serial(h, data):
    fast = ghash(h, data)
    with perf.scalar_mode():
        reference = ghash(h, data)
    assert fast == reference


@settings(max_examples=15, deadline=None)
@given(key=keys, iv=st.binary(min_size=12, max_size=12),
       data=st.binary(min_size=0, max_size=200),
       aad=st.binary(min_size=0, max_size=64))
def test_table_gmac_matches_bit_serial(key, iv, data, aad):
    fast = AesGmac(key).mac(iv, data, aad)
    with perf.scalar_mode():
        reference = AesGmac(key).mac(iv, data, aad)
    assert fast == reference


# -- lane-parallel hashing -------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(messages=hash_messages)
def test_lane_parallel_sha256_matches_scalar(messages):
    fast = sha256_many(messages)
    with perf.scalar_mode():
        reference = sha256_many(messages)
    assert fast == reference
    assert fast == [sha256(m) for m in messages]


@settings(max_examples=20, deadline=None)
@given(key=st.binary(min_size=0, max_size=100), messages=hash_messages)
def test_batched_hmac_matches_scalar(key, messages):
    from repro.crypto.hmac import hmac_sha256

    fast = hmac_sha256_many(key, messages)
    with perf.scalar_mode():
        reference = hmac_sha256_many(key, messages)
    assert fast == reference
    assert fast == [hmac_sha256(key, m) for m in messages]


def test_lane_parallel_sha256_long_uniform_batch():
    """A wide uniform batch (every lane the same block count) takes the
    maskless commit path; pin it against the scalar reference."""
    messages = [bytes((i + j) & 0xFF for j in range(96)) for i in range(300)]
    assert sha256_many(messages) == [sha256(m) for m in messages]


def test_ecdsa_sign_matches_scalar():
    """The fixed-base table and the memoized RFC 6979 nonce sign
    exactly what the scalar reference signs."""
    key = EcdsaKeyPair.generate(HmacDrbg(b"bench-kernels"))
    message = b"attestation output hash, signed by SK_Accel"
    with perf.scalar_mode():
        reference = ecdsa_sign(key.private, message)
    assert ecdsa_sign(key.private, message) == reference


# -- trace pipeline --------------------------------------------------------


request_lists = st.lists(
    st.builds(
        MemoryRequest,
        address=st.integers(0, (1 << 24) - 1),
        size=st.sampled_from([16, 64, 100, 512, 4096]),
        is_write=st.booleans(),
        kind=st.just(RequestKind.DATA),
    ),
    min_size=0,
    max_size=60,
)


@settings(max_examples=25, deadline=None)
@given(trace=request_lists)
def test_request_batch_round_trip_and_stats(trace):
    batch = RequestBatch.from_requests(trace)
    assert batch.to_requests() == trace
    assert list(batch) == trace
    from repro.mem.trace import TraceStats

    reference = TraceStats()
    for req in trace:
        reference.add(req)
    stats = batch.stats()
    assert stats.read_bytes == reference.read_bytes
    assert stats.write_bytes == reference.write_bytes


@settings(max_examples=20, deadline=None)
@given(trace=request_lists, integrity=st.booleans())
def test_guardnn_rewriter_batch_matches_scalar(trace, integrity):
    scalar = GuardNNTraceRewriter(integrity=integrity)
    batched = GuardNNTraceRewriter(integrity=integrity)
    reference = scalar.rewrite(trace) + scalar.flush()
    out = batched.rewrite_batch(RequestBatch.from_requests(trace))
    flushed = batched.flush_batch()
    assert out.to_requests() + flushed.to_requests() == reference


@settings(max_examples=15, deadline=None)
@given(trace=request_lists)
def test_mee_rewriter_batch_matches_scalar(trace):
    scalar = MeeTraceRewriter()
    batched = MeeTraceRewriter()
    reference = scalar.rewrite(trace) + scalar.flush()
    out = batched.rewrite_batch(RequestBatch.from_requests(trace))
    flushed = batched.flush_batch()
    assert out.to_requests() + flushed.to_requests() == reference


@settings(max_examples=15, deadline=None)
@given(trace=request_lists)
def test_controller_batch_matches_scalar_trace(trace):
    scalar = MemoryController().run_trace(trace)
    batched = MemoryController().run_batch(RequestBatch.from_requests(trace))
    assert (scalar.cycles, scalar.requests, scalar.bursts) == (
        batched.cycles, batched.requests, batched.bursts)
    assert scalar.stats.read_bytes == batched.stats.read_bytes
    assert scalar.stats.write_bytes == batched.stats.write_bytes


def test_streaming_pipeline_batch_matches_scalar_at_scale():
    """Long streaming traces drive the run-compressed rewriter paths
    and the controller's row-hit run servicing across several refresh
    intervals — shapes the short hypothesis traces cannot reach."""
    from repro.workloads.generators import streaming_batch, streaming_trace

    trace = streaming_trace(1 << 17, write_fraction=0.4)
    batch = streaming_batch(1 << 17, write_fraction=0.4)

    scalar_rw = MeeTraceRewriter()
    batch_rw = MeeTraceRewriter()
    assert (batch_rw.rewrite_batch(batch).to_requests()
            + batch_rw.flush_batch().to_requests()
            == scalar_rw.rewrite(trace) + scalar_rw.flush())

    scalar_gn = GuardNNTraceRewriter(integrity=True)
    batch_gn = GuardNNTraceRewriter(integrity=True)
    assert (batch_gn.rewrite_batch(batch).to_requests()
            + batch_gn.flush_batch().to_requests()
            == scalar_gn.rewrite(trace) + scalar_gn.flush())

    scalar_mc, batch_mc = MemoryController(), MemoryController()
    scalar_result = scalar_mc.run_trace(trace)
    batch_result = batch_mc.run_batch(batch)
    assert (scalar_result.cycles, scalar_result.bursts) == (
        batch_result.cycles, batch_result.bursts)
    assert scalar_mc.dram.stats == batch_mc.dram.stats


# -- Merkle batch updates --------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(
    num_leaves=st.integers(1, 64),
    updates=st.lists(
        st.tuples(st.integers(0, 63), st.binary(min_size=1, max_size=24)),
        min_size=0, max_size=40,
    ),
)
def test_merkle_batched_update_matches_sequential(num_leaves, updates):
    updates = [(i % num_leaves, leaf) for i, leaf in updates]
    sequential = MerkleTree(num_leaves)
    for index, leaf in updates:
        sequential.update_leaf(index, leaf)
    batched = MerkleTree(num_leaves)
    batched.update_leaves(updates)
    assert batched.root == sequential.root
    assert batched._levels == sequential._levels
    # proofs from the batched tree verify leaves like any other
    for index, leaf in updates[-4:]:
        final = dict(updates)[index]
        assert batched.verify_leaf(index, final, batched.proof(index))


# -- analytic sweep path ---------------------------------------------------


def test_accelerator_fast_path_matches_scalar():
    """Full memoized model pipeline == uncached pipeline, per layer."""
    from repro.accel.accelerator import AcceleratorModel, TPU_V1_CONFIG
    from repro.accel.models import build_model
    from repro.protection import build_scheme

    model = build_model("resnet50")
    for scheme_name in ("np", "bp", "guardnn-ci"):
        fast = AcceleratorModel(TPU_V1_CONFIG).run(model, build_scheme(scheme_name))
        with perf.scalar_mode():
            reference = AcceleratorModel(TPU_V1_CONFIG).run(
                build_model("resnet50"), build_scheme(scheme_name))
        assert fast.total_cycles == reference.total_cycles
        assert [l.total_cycles for l in fast.layers] == [
            l.total_cycles for l in reference.layers]
        assert fast.metadata_breakdown == reference.metadata_breakdown


def test_fig3_sweep_rows_match_scalar():
    """The registered Figure 3a grid, whole rows: the goldens pin cycles
    and traffic, this also pins ``gmacs``, ``seconds`` and
    ``normalized``."""
    from repro.experiments import run_sweep

    fast = run_sweep("fig3-inference", cache=False)
    with perf.scalar_mode():
        reference = run_sweep("fig3-inference", cache=False)
    assert fast.rows == reference.rows


@contextlib.contextmanager
def fast_mode():
    """The fast path, even on the scalar CI leg."""
    previous = perf.fast_enabled()
    perf.set_fast(True)
    try:
        yield
    finally:
        perf.set_fast(previous)


#: accelerator overrides ``accel_run`` accepts: non-round bandwidths and
#: clocks, SRAM from 256 KB (most layers tile) to 64 MB (none do), and
#: non-square arrays
accel_overrides = st.fixed_dictionaries({
    "dram_bandwidth_gbps": st.floats(1.0, 200.0),
    "freq_mhz": st.floats(100.0, 2000.0),
    "sram_bytes": st.integers(256 << 10, 64 << 20),
    "pe_rows": st.integers(1, 512),
    "pe_cols": st.integers(1, 512),
    "vector_lanes": st.integers(1, 1024),
})
table_schemes = st.tuples(
    st.integers(1 << 10, 1 << 20).map(lambda n: ("bp", {"cache_bytes": n})),
    st.integers(16, 4096).map(lambda n: ("guardnn-ci", {"chunk_bytes": n})),
)


@settings(max_examples=10, deadline=None)
@given(overrides=accel_overrides,
       dataflow=st.sampled_from(list(Dataflow)),
       bytes_per_element=st.sampled_from((1, 2, 4)),
       paper=st.sampled_from(("alexnet", "mobilenet", "dlrm", "vgg16")),
       extended=st.sampled_from(("resnet18", "vgg11", "mobilenet-0.25x")),
       training=st.booleans(), batch=st.integers(1, 16), schemes=table_schemes)
def test_layer_table_matches_scalar(overrides, dataflow, bytes_per_element,
                                    paper, extended, training, batch, schemes):
    """One layer table per graph, every scheme off it, against the
    per-node reference: each ``LayerTiming`` field, the totals, the
    per-kind breakdown and the ``accel_run`` row."""
    from repro.accel.accelerator import AcceleratorModel, LayerTable, TPU_V1_CONFIG
    from repro.accel.dfg import build_inference_dfg, build_training_dfg
    from repro.experiments.executors import accel_run, resolve_model
    from repro.protection import build_scheme

    config = dataclasses.replace(TPU_V1_CONFIG, dataflow=dataflow,
                                 bytes_per_element=bytes_per_element, **overrides)
    build_dfg = build_training_dfg if training else build_inference_dfg
    schemes = ("np", "guardnn-c") + schemes
    for zoo, name in (("paper", paper), ("extended", extended)):
        model, _ = resolve_model(name, zoo)
        accel = AcceleratorModel(config)
        table = LayerTable(model, build_dfg(model, batch, bytes_per_element), config, batch)
        for entry in schemes:
            scheme_name, params = entry if isinstance(entry, tuple) else (entry, {})
            fast = accel.run_table(table, build_scheme(scheme_name, **params))
            with perf.scalar_mode():
                reference = AcceleratorModel(config).run(
                    model, build_scheme(scheme_name, **params), training, batch)
            assert fast == reference  # totals, breakdown and config
            assert fast.layers == reference.layers

            job = {"model": name, "zoo": zoo, "scheme": scheme_name,
                   "scheme_params": params, "batch": batch,
                   "training": training, "config": overrides}
            with fast_mode():
                row = accel_run(job)
            with perf.scalar_mode():
                assert row == accel_run(job)


def test_layer_table_shared_by_schemes_and_bandwidths():
    """The four schemes at three bandwidths of one grid point run off
    one table, and ``perf.clear_caches()`` drops it."""
    from repro.experiments import executors
    from repro.experiments.spec import DEFAULT_SCHEMES

    tables = set()
    with fast_mode():
        perf.clear_caches()
        for gbps in (12.345, 34.0, 63.2):
            for scheme in DEFAULT_SCHEMES:
                executors.accel_run({"model": "alexnet", "zoo": "paper",
                                     "scheme": scheme, "batch": 4, "training": True,
                                     "config": {"dram_bandwidth_gbps": gbps}})
                tables.update(map(id, executors._TABLE_MEMO.values()))
        assert len(tables) == 1 and len(executors._TABLE_MEMO) == 1
        perf.clear_caches()
        assert not executors._TABLE_MEMO


def test_layer_table_memo_is_a_bounded_lru(monkeypatch):
    from repro.experiments import executors

    monkeypatch.setattr(executors, "_TABLE_MEMO_LIMIT", 2)
    with fast_mode():
        perf.clear_caches()
        for batch in (1, 2, 1, 3):  # batch 2 is the least recent at 3
            executors.accel_run({"model": "alexnet", "scheme": "np", "batch": batch})
        assert [key[3] for key in executors._TABLE_MEMO] == [1, 3]
        perf.clear_caches()


def test_materialized_layers_are_fresh_objects():
    """Results that share a table and a column own their layers."""
    from repro.accel.accelerator import AcceleratorModel, LayerTable, TPU_V1_CONFIG
    from repro.accel.dfg import build_training_dfg
    from repro.accel.models import build_model
    from repro.protection import build_scheme

    model = build_model("alexnet")
    accel = AcceleratorModel(TPU_V1_CONFIG)
    table = LayerTable(model, build_training_dfg(model, 2), TPU_V1_CONFIG, 2)
    scheme = build_scheme("bp")
    first, second = accel.run_table(table, scheme), accel.run_table(table, scheme)
    assert first.layers is first.layers
    untouched = copy.deepcopy(second.layers)
    first.layers[0].total_cycles += 1
    first.layers[0].breakdown.clear()
    first.metadata_breakdown.clear()
    assert second.layers == untouched
    assert accel.run_table(table, scheme).layers == untouched
    assert second.metadata_breakdown == accel.run_table(table, scheme).metadata_breakdown != {}
