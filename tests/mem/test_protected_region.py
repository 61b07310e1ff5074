"""The BP rewriter's protected region covers the trace it rewrites.

``MeeTraceRewriter`` lays out VN, MAC and tree regions for a fixed
protected size. A trace whose addresses run past it would put VN lines
inside the MAC region (and walk too shallow a tree), so the pipeline
sizes the region to its source: the smallest power of two covering
``TraceSpec.end_address``, never below 1 GiB. Data that reaches the
metadata base is refused.
"""

import numpy as np
import pytest

from repro.accel.zoo_ext import LlmGeometry
from repro.mem.batch import VN_CODE
from repro.mem.pipeline import TracePipeline, run_materialized
from repro.protection.trace_rewriter import (
    METADATA_BASE,
    MeeTraceRewriter,
    protected_region_bytes,
)
from repro.workloads.generators import BpMetadataSpec, RandomSpec, StreamingSpec
from repro.workloads.llm import LlmDecodeSpec


def covered_bytes(rewriter):
    """Data bytes the VN region can describe."""
    regions, params = rewriter.regions, rewriter.params
    return ((regions.mac_base - regions.vn_base) // params.line_bytes
            * params.data_per_vn_line)


@pytest.mark.parametrize("spec", [
    StreamingSpec(1 << 16, base=12_345),
    RandomSpec(5000, (1 << 24) + 7, seed=3),
    BpMetadataSpec(1 << 14),
    BpMetadataSpec(100, base=1 << 20),
    LlmDecodeSpec(LlmGeometry("tiny-lm", d_model=64, layers=2, heads=2,
                              d_ff=128, vocab=512, max_seq=64),
                  tokens=5, context=4),
], ids=lambda spec: type(spec).__name__)
def test_end_address_bounds_every_request(spec):
    batch = spec.batch()
    ends = (np.frombuffer(batch.address, dtype=np.int64)
            + np.frombuffer(batch.size, dtype=np.int64))
    assert int(ends.max()) <= spec.end_address


def test_region_rule():
    assert protected_region_bytes(0) == 1 << 30
    assert protected_region_bytes(1 << 30) == 1 << 30
    assert protected_region_bytes((1 << 30) + 1) == 1 << 31
    assert protected_region_bytes(METADATA_BASE) == METADATA_BASE


def test_trace_below_1gib_keeps_the_default_layout():
    pipeline = TracePipeline(StreamingSpec(1 << 20, base=(1 << 30) - (1 << 20)),
                             schemes=("bp",))
    assert pipeline.rewriters["bp"].regions == MeeTraceRewriter().regions


def test_bp_region_covers_a_trace_above_1gib():
    """A stream based at 1.5 GiB: every VN fill of its first chunk must
    land in the VN region, below ``mac_base``. With the fixed 1 GiB
    layout they all landed inside the MAC region."""
    spec = StreamingSpec(1 << 22, base=3 << 29, write_fraction=0.25)
    pipeline = TracePipeline(spec, schemes=("bp",), chunk_requests=4096)
    bp = pipeline.rewriters["bp"]
    assert covered_bytes(bp) >= spec.end_address
    assert len(bp.regions.tree_bases) == 7  # 8-ary over 2 GiB

    out = bp.rewrite_batch(spec.batch(0, 4096))
    address = np.frombuffer(out.address, dtype=np.int64)
    kind = np.frombuffer(out.kind, dtype=np.int8)
    is_write = np.frombuffer(out.is_write, dtype=np.int8)
    vn_fills = address[(kind == VN_CODE) & (is_write == 0)]
    assert len(vn_fills) == 4096 * 64 // 512
    assert vn_fills.min() >= bp.regions.vn_base
    assert vn_fills.max() < bp.regions.mac_base


def test_materialized_reference_uses_the_same_region():
    spec = StreamingSpec(1 << 13, base=3 << 29)
    streamed = TracePipeline(spec, schemes=("bp",)).run_single()
    assert run_materialized(spec, "bp").cycles == streamed.cycles


@pytest.mark.parametrize("scheme", ["bp", "guardnn-ci"])
def test_source_reaching_the_metadata_base_is_refused(scheme):
    spec = StreamingSpec(1 << 20, base=METADATA_BASE - (1 << 19))
    with pytest.raises(ValueError) as excinfo:
        TracePipeline(spec, schemes=(scheme,))
    message = str(excinfo.value)
    assert f"{spec.end_address:#x}" in message
    assert f"{METADATA_BASE:#x}" in message
    # no metadata, nothing to alias
    TracePipeline(spec, schemes=("np", "guardnn-c"))


def test_serve_refuses_such_a_pipeline_at_submission():
    """``repro serve`` resolves the rewriters when it parses a pipeline
    request, so the refusal is a 400 there, not a failed flight."""
    from repro.service.protocol import ProtocolError, parse_job_request

    request = {"kind": "pipeline", "workload": "streaming",
               "schemes": ["np", "bp"],
               "params": {"nbytes": 1 << 20, "base": METADATA_BASE}}
    with pytest.raises(ProtocolError, match="metadata base"):
        parse_job_request(request)
    request["params"]["base"] = 3 << 29
    parse_job_request(request)
