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

Two paths time a graph, with the same rules (the helpers below). The
scalar reference walks the DFG node by node. The fast path first builds
a :class:`LayerTable` for the (DFG, accelerator geometry): each node's
data bytes and compute cycles, derived once per layer, plus one
overhead column per scheme. A job is then one loop over the columns,
and only the DRAM bandwidth, the clock and the scheme enter it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Tuple

from repro import perf
from repro.accel.dfg import DataFlowGraph, build_inference_dfg, build_training_dfg
from repro.accel.layers import LayerBase
from repro.accel.models import NetworkModel
from repro.accel.scheduler import LayerTraffic, TilingScheduler
from repro.accel.systolic import Dataflow, SystolicArray
from repro.mem.trace import RequestKind

#: config fields that must be positive ints, and positive finite reals
_POSITIVE_INTS = ("pe_rows", "pe_cols", "sram_bytes", "bytes_per_element",
                  "vector_lanes")
_POSITIVE_REALS = ("freq_mhz", "dram_bandwidth_gbps")


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

    def __post_init__(self):
        # a bool is an int to Python, and a negative bandwidth or a
        # fractional PE count would time a silently wrong network
        for name in _POSITIVE_INTS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        for name in _POSITIVE_REALS:
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not math.isfinite(value) or value <= 0):
                raise ValueError(
                    f"{name} must be a positive finite number, got {value!r}")

    @property
    def num_pes(self) -> int:
        return self.pe_rows * self.pe_cols

    @property
    def dram_bytes_per_cycle(self) -> float:
        return self.dram_bandwidth_gbps * 1e9 / (self.freq_mhz * 1e6)

    @property
    def geometry(self) -> tuple:
        """The fields a :class:`LayerTable` depends on: what shapes the
        traffic and the compute. The DRAM bandwidth and the clock are
        not among them; they enter only the per-job loop."""
        return (self.sram_bytes, self.bytes_per_element, self.pe_rows,
                self.pe_cols, self.dataflow, self.vector_lanes)


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
    """Whole-network simulation outcome.

    The totals are stored. The per-operation ``layers`` are built on
    first access by ``timings`` (the fast path keeps no per-node objects
    unless someone reads them).
    """

    network: str
    scheme: str
    config: AcceleratorConfig
    training: bool
    batch: int
    total_cycles: int
    total_data_read_bytes: int
    total_data_write_bytes: int
    total_metadata_read_bytes: int
    total_metadata_write_bytes: int
    #: total metadata bytes by request kind across all layers
    metadata_breakdown: Dict[RequestKind, int]
    #: builds the per-operation timings, in DFG order
    timings: Callable[[], List[LayerTiming]] = field(repr=False, compare=False)

    @functools.cached_property
    def layers(self) -> List[LayerTiming]:
        return self.timings()

    @property
    def total_data_bytes(self) -> int:
        return self.total_data_read_bytes + self.total_data_write_bytes

    @property
    def total_metadata_bytes(self) -> int:
        return self.total_metadata_read_bytes + self.total_metadata_write_bytes

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


# -- the rules both paths apply ------------------------------------------------


def _op_traffic(forward: LayerTraffic, layer_name: str, op: str) -> LayerTraffic:
    """Traffic for one DFG operation, from its layer's forward traffic."""
    if op == "forward":
        return forward
    if op == "dgrad":
        # reads the output gradient (+weights), writes the input gradient
        return LayerTraffic(
            layer_name=f"{layer_name}.dgrad",
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
            layer_name=f"{layer_name}.wgrad",
            weight_reads=0,
            input_reads=forward.output_size + forward.input_size,
            output_writes=forward.weight_size,
            input_size=forward.output_size + forward.input_size,
            output_size=forward.weight_size,
        )
    if op == "update":
        # w <- w - lr * dW : stream both, write w
        return LayerTraffic(
            layer_name=f"{layer_name}.update",
            weight_reads=forward.weight_size,
            input_reads=forward.weight_size,
            output_writes=forward.weight_size,
            weight_size=forward.weight_size,
            input_size=forward.weight_size,
            output_size=forward.weight_size,
        )
    raise ValueError(f"unknown op {op!r}")


def _forward_compute(array: SystolicArray, dataflow: Dataflow,
                     vector_lanes: int, layer: LayerBase,
                     batch: int) -> Tuple[int, bool]:
    """A layer's forward compute cycles, and whether it runs on the
    array (has GEMMs) rather than the vector unit."""
    gemms = layer.gemms(batch)
    if gemms:
        return array.gemm_list_cycles(gemms, dataflow).cycles, True
    # vector-unit work for pool/elementwise/embedding/update ops
    elements = layer.output_elements(batch)
    return math.ceil(elements / vector_lanes), False


def _op_compute_cycles(forward_cycles: int, on_array: bool, op: str) -> int:
    """Compute cycles of one DFG operation, from its layer's forward
    cycles: backward GEMMs have the same MAC volume as forward at this
    granularity (transposed operands), an array layer's weight update
    costs no array cycles, and vector-unit work is the same for every
    operation."""
    if on_array and op == "update":
        return 0
    return forward_cycles


def _node_cycles(compute: int, total_bytes, fixed_cycles, bytes_per_cycle: float,
                 engine_bpc, engine_latency) -> Tuple[int, int, int]:
    """(memory, engine, total) cycles of one operation that moves
    ``total_bytes`` (data plus metadata) off chip."""
    memory = math.ceil(total_bytes / bytes_per_cycle)
    if engine_bpc:
        # every off-chip byte crosses the Enc engine; MAC bytes cross
        # it too (CMAC shares the AES cores)
        engine_cycles = math.ceil(total_bytes / engine_bpc) + engine_latency
    else:
        engine_cycles = 0
    return memory, engine_cycles, max(compute, memory, engine_cycles) + fixed_cycles


def _layer_timing(name: str, op: str, compute: int, traffic: LayerTraffic,
                  overhead, cycles: Tuple[int, int, int]) -> LayerTiming:
    memory, engine_cycles, total = cycles
    return LayerTiming(
        name=name,
        op=op,
        compute_cycles=compute,
        data_read_bytes=traffic.read_bytes,
        data_write_bytes=traffic.write_bytes,
        metadata_read_bytes=overhead.extra_read_bytes,
        metadata_write_bytes=overhead.extra_write_bytes,
        memory_cycles=memory,
        engine_cycles=engine_cycles,
        total_cycles=total,
        breakdown=dict(_breakdown_of(overhead)),
    )


def _breakdown_of(overhead) -> Dict[RequestKind, int]:
    return getattr(overhead, "breakdown", {}) or {}


def _sum_breakdowns(breakdowns: Iterable[Dict[RequestKind, int]]) -> Dict[RequestKind, int]:
    totals: Dict[RequestKind, int] = {}
    for breakdown in breakdowns:
        for kind, nbytes in breakdown.items():
            totals[kind] = totals.get(kind, 0) + nbytes
    return totals


# -- the fast path's layer table -----------------------------------------------


class _OverheadColumn:
    """One scheme's metadata overhead over a table's nodes."""

    __slots__ = ("overheads", "total_bytes", "fixed_cycles", "metadata_read_bytes",
                 "metadata_write_bytes", "breakdown")

    def __init__(self, table: "LayerTable", overhead_fn):
        self.overheads = [overhead_fn(traffic, op, table.training)
                          for traffic, op in zip(table.traffic, table.ops)]
        #: data plus metadata bytes per node, summed in the reference's order
        self.total_bytes = [traffic.total_bytes + o.extra_read_bytes + o.extra_write_bytes
                            for traffic, o in zip(table.traffic, self.overheads)]
        self.fixed_cycles = [o.fixed_cycles for o in self.overheads]
        self.metadata_read_bytes = sum(o.extra_read_bytes for o in self.overheads)
        self.metadata_write_bytes = sum(o.extra_write_bytes for o in self.overheads)
        self.breakdown = _sum_breakdowns(_breakdown_of(o) for o in self.overheads)


class LayerTable:
    """The scheme- and bandwidth-independent part of timing one DFG on
    one accelerator geometry (:attr:`AcceleratorConfig.geometry`).

    Per node, in DFG order: its name, op, data traffic and compute
    cycles. A layer's forward tiling traffic and GEMM timing are
    computed once; its ``dgrad``/``wgrad``/``update`` nodes derive from
    them. :meth:`column` adds one scheme's metadata overhead. Tables and
    their columns are shared across jobs; treat them as frozen.
    """

    __slots__ = ("network", "training", "batch", "geometry", "names", "ops",
                 "traffic", "compute", "data_read_bytes", "data_write_bytes",
                 "_columns")

    def __init__(self, model: NetworkModel, dfg: DataFlowGraph,
                 config: AcceleratorConfig, batch: int):
        self.network = model.name
        self.training = dfg.training
        self.batch = batch
        self.geometry = config.geometry
        array = SystolicArray(config.pe_rows, config.pe_cols)
        scheduler = TilingScheduler(config.sram_bytes, config.bytes_per_element)
        forward: Dict[int, tuple] = {}
        self.names: List[str] = []
        self.ops: List[str] = []
        self.traffic: List[LayerTraffic] = []
        self.compute: List[int] = []
        for node in dfg.nodes:
            per_layer = forward.get(node.layer_index)
            if per_layer is None:
                layer = model.layers[node.layer_index]
                per_layer = forward[node.layer_index] = (
                    layer.name, scheduler.layer_traffic(layer, batch),
                    *_forward_compute(array, config.dataflow, config.vector_lanes,
                                      layer, batch))
            layer_name, layer_traffic, cycles, on_array = per_layer
            self.names.append(node.name)
            self.ops.append(node.op)
            self.traffic.append(_op_traffic(layer_traffic, layer_name, node.op))
            self.compute.append(_op_compute_cycles(cycles, on_array, node.op))
        self.data_read_bytes = sum(t.read_bytes for t in self.traffic)
        self.data_write_bytes = sum(t.write_bytes for t in self.traffic)
        self._columns: Dict[object, _OverheadColumn] = {}

    def column(self, scheme) -> _OverheadColumn:
        """``scheme``'s overhead column, through its memoized
        ``layer_overhead_cached`` and kept per scheme instance; a scheme
        without that method gets a column for this call only."""
        overhead_fn = getattr(scheme, "layer_overhead_cached", None)
        if overhead_fn is None:
            return _OverheadColumn(self, scheme.layer_overhead)
        column = self._columns.get(scheme)
        if column is None:
            column = self._columns[scheme] = _OverheadColumn(self, overhead_fn)
        return column


def _table_timings(table: LayerTable, column: _OverheadColumn,
                   timing: tuple) -> List[LayerTiming]:
    return [_layer_timing(name, op, compute, traffic, overhead,
                          _node_cycles(compute, nbytes, overhead.fixed_cycles, *timing))
            for name, op, compute, traffic, overhead, nbytes in zip(
                table.names, table.ops, table.compute, table.traffic,
                column.overheads, column.total_bytes)]


class AcceleratorModel:
    """Times a network (inference or one training iteration) under a
    protection scheme."""

    def __init__(self, config: AcceleratorConfig):
        self.config = config
        self.array = SystolicArray(config.pe_rows, config.pe_cols)
        self.scheduler = TilingScheduler(config.sram_bytes, config.bytes_per_element)

    def run(self, model: NetworkModel, scheme, training: bool = False,
            batch: int = 1) -> RunResult:
        """Simulate one inference (or one fwd+bwd+update iteration)."""
        dfg = build_training_dfg(model, batch, self.config.bytes_per_element) if training \
            else build_inference_dfg(model, batch, self.config.bytes_per_element)
        return self.run_dfg(model, dfg, scheme, batch)

    def _timing(self, scheme) -> tuple:
        """(DRAM bytes per cycle, engine bytes per cycle, engine
        latency): what a job's bandwidth, clock and scheme add."""
        engine = getattr(scheme, "engine", None)
        engine_bpc = engine.bytes_per_cycle(self.config.freq_mhz) if engine else None
        latency = engine.pipeline_latency_cycles if engine_bpc else 0
        return self.config.dram_bytes_per_cycle, engine_bpc, latency

    def run_dfg(self, model: NetworkModel, dfg: DataFlowGraph, scheme,
                batch: int = 1) -> RunResult:
        if perf.fast_enabled():
            return self.run_table(LayerTable(model, dfg, self.config, batch), scheme)
        # the reference: every node re-derives its traffic and timing
        timing = self._timing(scheme)
        config = self.config
        layers = []
        for node in dfg.nodes:
            layer = model.layers[node.layer_index]
            traffic = _op_traffic(self.scheduler.layer_traffic(layer, batch),
                                  layer.name, node.op)
            overhead = scheme.layer_overhead(traffic, node.op, dfg.training)
            compute = _op_compute_cycles(
                *_forward_compute(self.array, config.dataflow, config.vector_lanes,
                                  layer, batch), node.op)
            total_bytes = traffic.total_bytes + overhead.extra_read_bytes + overhead.extra_write_bytes
            layers.append(_layer_timing(
                node.name, node.op, compute, traffic, overhead,
                _node_cycles(compute, total_bytes, overhead.fixed_cycles, *timing)))
        return RunResult(
            network=model.name,
            scheme=scheme.name,
            config=config,
            training=dfg.training,
            batch=batch,
            total_cycles=sum(l.total_cycles for l in layers),
            total_data_read_bytes=sum(l.data_read_bytes for l in layers),
            total_data_write_bytes=sum(l.data_write_bytes for l in layers),
            total_metadata_read_bytes=sum(l.metadata_read_bytes for l in layers),
            total_metadata_write_bytes=sum(l.metadata_write_bytes for l in layers),
            metadata_breakdown=_sum_breakdowns(l.breakdown for l in layers),
            timings=layers.copy,
        )

    def run_table(self, table: LayerTable, scheme) -> RunResult:
        """One job off a layer table: the table's geometry must be this
        model's."""
        if table.geometry != self.config.geometry:
            raise ValueError(f"layer table built for geometry {table.geometry}, "
                             f"not this accelerator's {self.config.geometry}")
        column = table.column(scheme)
        timing = self._timing(scheme)
        total = 0
        for compute, nbytes, fixed in zip(table.compute, column.total_bytes,
                                          column.fixed_cycles):
            total += _node_cycles(compute, nbytes, fixed, *timing)[2]
        return RunResult(
            network=table.network,
            scheme=scheme.name,
            config=self.config,
            training=table.training,
            batch=table.batch,
            total_cycles=total,
            total_data_read_bytes=table.data_read_bytes,
            total_data_write_bytes=table.data_write_bytes,
            total_metadata_read_bytes=column.metadata_read_bytes,
            total_metadata_write_bytes=column.metadata_write_bytes,
            metadata_breakdown=dict(column.breakdown),
            timings=functools.partial(_table_timings, table, column, timing),
        )
