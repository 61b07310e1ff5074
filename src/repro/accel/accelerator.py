"""The combined accelerator performance model.

Couples the systolic-array compute model, the tiling scheduler's DRAM
traffic, and a memory-protection scheme into per-layer and whole-network
execution time. The overlap model is double-buffered: a layer's time is
``max(compute, memory, encryption-engine)`` — the standard assumption for
accelerators that prefetch tiles, and the reason a 35% traffic increase
(baseline protection) turns into a ~25% slowdown while GuardNN's ~2-3%
turns into ~1% (compute-bound layers absorb it).

A *protection scheme* is any object with the contract::

    scheme.name -> str
    scheme.layer_overhead(traffic: LayerTraffic, op: str, training: bool)
        -> ProtectionOverhead-like with .extra_read_bytes,
           .extra_write_bytes and .fixed_cycles
    scheme.engine -> AES engine model or None, with
        .bytes_per_cycle(accel_freq_mhz) and .pipeline_latency_cycles

(:mod:`repro.protection` provides NP / BP / GuardNN_C / GuardNN_CI.)
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import perf
from repro.accel.dfg import DataFlowGraph, build_inference_dfg, build_training_dfg
from repro.accel.layers import LayerBase
from repro.accel.models import NetworkModel
from repro.accel.scheduler import LayerTraffic, TilingScheduler
from repro.accel.systolic import Dataflow, SystolicArray
from repro.mem.trace import RequestKind


@dataclass(frozen=True)
class AcceleratorConfig:
    """Hardware parameters of one accelerator instance."""

    name: str
    pe_rows: int
    pe_cols: int
    sram_bytes: int
    freq_mhz: float
    dram_bandwidth_gbps: float  # fixed; not derived from MemoryController
    bytes_per_element: int = 1
    dataflow: Dataflow = Dataflow.WEIGHT_STATIONARY
    vector_lanes: int = 256  # elementwise/pooling unit width

    @property
    def num_pes(self) -> int:
        return self.pe_rows * self.pe_cols

    @property
    def dram_bytes_per_cycle(self) -> float:
        return self.dram_bandwidth_gbps * 1e9 / (self.freq_mhz * 1e6)

    @property
    def peak_macs_per_cycle(self) -> int:
        return self.num_pes


#: The paper's ASIC simulation target: "GuardNN is modeled based on Google
#: TPU-v1, where it contains 64k processing elements and 24 MB on-chip
#: memory" (Section III-A); TPU-v1 runs at 700 MHz with 34 GB/s DRAM.
TPU_V1_CONFIG = AcceleratorConfig(
    name="tpu-v1-like",
    pe_rows=256,
    pe_cols=256,
    sram_bytes=24 * 1024 * 1024,
    freq_mhz=700.0,
    dram_bandwidth_gbps=34.0,
    bytes_per_element=1,
)


@dataclass(slots=True)
class LayerTiming:
    """Per-operation timing breakdown."""

    name: str
    op: str
    compute_cycles: int
    data_read_bytes: int
    data_write_bytes: int
    metadata_read_bytes: int
    metadata_write_bytes: int
    memory_cycles: int
    engine_cycles: int
    total_cycles: int
    #: metadata bytes by request kind (VN / MAC / TREE), from the scheme
    breakdown: Dict[RequestKind, int] = field(default_factory=dict)

    @property
    def data_bytes(self) -> int:
        return self.data_read_bytes + self.data_write_bytes

    @property
    def metadata_bytes(self) -> int:
        return self.metadata_read_bytes + self.metadata_write_bytes


@dataclass
class RunResult:
    """Whole-network simulation outcome."""

    network: str
    scheme: str
    config: AcceleratorConfig
    training: bool
    batch: int
    layers: List[LayerTiming] = field(default_factory=list)

    @property
    def total_cycles(self) -> int:
        return sum(l.total_cycles for l in self.layers)

    @property
    def total_data_bytes(self) -> int:
        return sum(l.data_bytes for l in self.layers)

    @property
    def total_metadata_bytes(self) -> int:
        return sum(l.metadata_bytes for l in self.layers)

    @property
    def metadata_breakdown(self) -> Dict[RequestKind, int]:
        """Total metadata bytes by request kind across all layers."""
        totals: Dict[RequestKind, int] = {}
        for layer in self.layers:
            for kind, nbytes in layer.breakdown.items():
                totals[kind] = totals.get(kind, 0) + nbytes
        return totals

    @property
    def traffic_increase(self) -> float:
        """(protected traffic / data traffic) - 1, the Section III-C metric."""
        if self.total_data_bytes == 0:
            return 0.0
        return self.total_metadata_bytes / self.total_data_bytes

    @property
    def seconds(self) -> float:
        return self.total_cycles / (self.config.freq_mhz * 1e6)

    def throughput_samples_per_s(self) -> float:
        return self.batch / self.seconds if self.seconds > 0 else 0.0

    def normalized_to(self, baseline: "RunResult") -> float:
        """Execution time normalized to another run (Figure 3's y-axis)."""
        if baseline.total_cycles == 0:
            return 0.0
        return self.total_cycles / baseline.total_cycles


def _op_traffic(layer: LayerBase, op: str, scheduler: TilingScheduler, batch: int) -> LayerTraffic:
    """Traffic for one DFG operation on ``layer``."""
    forward = scheduler.layer_traffic(layer, batch)
    if op == "forward":
        return forward
    if op == "dgrad":
        # reads the output gradient (+weights), writes the input gradient
        return LayerTraffic(
            layer_name=f"{layer.name}.dgrad",
            weight_reads=forward.weight_reads,
            input_reads=forward.output_size,
            output_writes=forward.input_size,
            weight_size=forward.weight_size,
            input_size=forward.output_size,
            output_size=forward.input_size,
        )
    if op == "wgrad":
        # reads output gradient and saved input features, writes dW
        return LayerTraffic(
            layer_name=f"{layer.name}.wgrad",
            weight_reads=0,
            input_reads=forward.output_size + forward.input_size,
            output_writes=forward.weight_size,
            input_size=forward.output_size + forward.input_size,
            output_size=forward.weight_size,
        )
    if op == "update":
        # w <- w - lr * dW : stream both, write w
        return LayerTraffic(
            layer_name=f"{layer.name}.update",
            weight_reads=forward.weight_size,
            input_reads=forward.weight_size,
            output_writes=forward.weight_size,
            weight_size=forward.weight_size,
            input_size=forward.weight_size,
            output_size=forward.weight_size,
        )
    raise ValueError(f"unknown op {op!r}")


@functools.lru_cache(maxsize=65536)
def _cached_op_traffic(sram_bytes: int, bpe: int, layer: LayerBase, op: str,
                       batch: int) -> LayerTraffic:
    """Memoized :func:`_op_traffic` (returned objects are shared and
    treated as frozen, like the scheduler's memoized traffic)."""
    return _op_traffic(layer, op, TilingScheduler(sram_bytes, bpe), batch)


perf.register_cache(_cached_op_traffic.cache_clear)


def _layer_compute_cycles(array: SystolicArray, dataflow: Dataflow,
                          vector_lanes: int, layer: LayerBase, op: str,
                          batch: int) -> int:
    """Compute cycles of one DFG operation (the reference impl)."""
    gemms = layer.gemms(batch)
    if gemms:
        cycles = array.gemm_list_cycles(gemms, dataflow).cycles
        if op in ("dgrad", "wgrad"):
            # backward GEMMs have the same MAC volume as forward at
            # this granularity (transposed operands)
            return cycles
        if op == "update":
            return 0
        return cycles
    # vector-unit work for pool/elementwise/embedding/update ops
    elements = layer.output_elements(batch)
    return math.ceil(elements / vector_lanes)


@functools.lru_cache(maxsize=65536)
def _cached_compute_cycles(pe_rows: int, pe_cols: int, dataflow: Dataflow,
                           vector_lanes: int, layer: LayerBase, op: str,
                           batch: int) -> int:
    return _layer_compute_cycles(SystolicArray(pe_rows, pe_cols), dataflow,
                                 vector_lanes, layer, op, batch)


perf.register_cache(_cached_compute_cycles.cache_clear)


class AcceleratorModel:
    """Times a network (inference or one training iteration) under a
    protection scheme."""

    def __init__(self, config: AcceleratorConfig):
        self.config = config
        self.array = SystolicArray(config.pe_rows, config.pe_cols)
        self.scheduler = TilingScheduler(config.sram_bytes, config.bytes_per_element)

    def _compute_cycles(self, layer: LayerBase, op: str, batch: int) -> int:
        if perf.fast_enabled():
            # layers are frozen dataclasses: the whole per-layer timing
            # is a pure function of (array geometry, dataflow, lanes,
            # layer, op, batch), so share it across schemes and repeats
            return _cached_compute_cycles(
                self.config.pe_rows, self.config.pe_cols, self.config.dataflow,
                self.config.vector_lanes, layer, op, batch)
        return _layer_compute_cycles(self.array, self.config.dataflow,
                                     self.config.vector_lanes, layer, op, batch)

    def run(self, model: NetworkModel, scheme, training: bool = False,
            batch: int = 1) -> RunResult:
        """Simulate one inference (or one fwd+bwd+update iteration)."""
        dfg = build_training_dfg(model, batch, self.config.bytes_per_element) if training \
            else build_inference_dfg(model, batch, self.config.bytes_per_element)
        return self.run_dfg(model, dfg, scheme, batch)

    def run_dfg(self, model: NetworkModel, dfg: DataFlowGraph, scheme,
                batch: int = 1) -> RunResult:
        result = RunResult(
            network=model.name,
            scheme=scheme.name,
            config=self.config,
            training=dfg.training,
            batch=batch,
        )
        bytes_per_cycle = self.config.dram_bytes_per_cycle
        engine = getattr(scheme, "engine", None)
        engine_bpc = engine.bytes_per_cycle(self.config.freq_mhz) if engine else None
        overhead_fn = scheme.layer_overhead
        if perf.fast_enabled():
            # schemes from this package expose a memoized variant; duck
            # typing keeps third-party scheme objects on the plain call
            overhead_fn = getattr(scheme, "layer_overhead_cached", overhead_fn)

        fast = perf.fast_enabled()
        for node in dfg.nodes:
            layer = model.layers[node.layer_index]
            if fast:
                traffic = _cached_op_traffic(self.scheduler.sram_bytes,
                                             self.scheduler.bpe, layer,
                                             node.op, batch)
            else:
                traffic = _op_traffic(layer, node.op, self.scheduler, batch)
            overhead = overhead_fn(traffic, node.op, dfg.training)

            compute = self._compute_cycles(layer, node.op, batch)
            total_bytes = traffic.total_bytes + overhead.extra_read_bytes + overhead.extra_write_bytes
            memory = math.ceil(total_bytes / bytes_per_cycle)
            if engine_bpc:
                # every off-chip byte crosses the Enc engine; MAC bytes
                # cross it too (CMAC shares the AES cores)
                engine_cycles = math.ceil(total_bytes / engine_bpc) + engine.pipeline_latency_cycles
            else:
                engine_cycles = 0
            total = max(compute, memory, engine_cycles) + overhead.fixed_cycles
            result.layers.append(
                LayerTiming(
                    name=node.name,
                    op=node.op,
                    compute_cycles=compute,
                    data_read_bytes=traffic.read_bytes,
                    data_write_bytes=traffic.write_bytes,
                    metadata_read_bytes=overhead.extra_read_bytes,
                    metadata_write_bytes=overhead.extra_write_bytes,
                    memory_cycles=memory,
                    engine_cycles=engine_cycles,
                    total_cycles=total,
                    breakdown=dict(getattr(overhead, "breakdown", {}) or {}),
                )
            )
        return result
