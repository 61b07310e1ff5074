"""Static data-flow graphs for inference and training (paper Figure 2).

"Popular ML frameworks often represent the network as a static data-flow
graph (DFG) ... and optimize the graph before execution" (Section II-D2).
The DFG is the artifact the *untrusted host* owns: it compiles the graph
into GuardNN instructions and derives the read counters (CTR_F,R) from
the schedule. The GuardNN device itself never sees the graph — only the
instruction stream.

Each node is one accelerator operation (one ``Forward`` instruction);
each edge is a tensor with a concrete DRAM region. Inference chains
feature tensors f1, f2, ... (Figure 2a); training adds, per layer, the
gradient edges g1, g2, ... and weight-update nodes (Figure 2b).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.accel.models import NetworkModel


_ALIGN = 512  # data-movement granularity of the prototype (512-B chunks)


@dataclass(frozen=True)
class TensorRegion:
    """A named, contiguous DRAM region holding one tensor."""

    name: str
    base: int
    size: int
    kind: str  # "weight" | "feature" | "gradient" | "weight_grad" | "io"

    @property
    def end(self) -> int:
        return self.base + self.size

    def overlaps(self, other: "TensorRegion") -> bool:
        return self.base < other.end and other.base < self.end


@dataclass
class DfgNode:
    """One accelerator operation."""

    name: str
    op: str  # "forward" | "dgrad" | "wgrad" | "update"
    layer_index: int
    reads: List[TensorRegion]
    writes: List[TensorRegion]


@dataclass
class DataFlowGraph:
    """Node list in execution order plus the region table."""

    network: str
    training: bool
    nodes: List[DfgNode]
    regions: Dict[str, TensorRegion]

    def weight_regions(self) -> List[TensorRegion]:
        return [r for r in self.regions.values() if r.kind == "weight"]

    def validate_no_overlap(self) -> None:
        """Distinct regions must not overlap — gradients reuse feature
        VNs precisely *because* they live at different addresses
        (Section II-D2), so the allocator must keep them disjoint."""
        regions = list(self.regions.values())
        for i, a in enumerate(regions):
            for b in regions[i + 1 :]:
                if a.overlaps(b):
                    raise ValueError(f"regions {a.name} and {b.name} overlap")


class _Allocator:
    """Bump allocator with 512-B alignment (the MAC granularity)."""

    def __init__(self, base: int = 0):
        self._next = base

    def alloc(self, size: int) -> int:
        base = self._next
        aligned = (size + _ALIGN - 1) // _ALIGN * _ALIGN
        self._next += aligned
        return base


def _element_bytes(count: int, bpe: int) -> int:
    return max(_ALIGN, count * bpe)


def build_inference_dfg(model: NetworkModel, batch: int = 1,
                        bytes_per_element: int = 1) -> DataFlowGraph:
    """Sequential inference graph: input -> layer1 -> f1 -> layer2 -> ..."""
    alloc = _Allocator()
    regions: Dict[str, TensorRegion] = {}

    def add_region(name: str, elements: int, kind: str) -> TensorRegion:
        size = _element_bytes(elements, bytes_per_element)
        region = TensorRegion(name, alloc.alloc(size), size, kind)
        regions[name] = region
        return region

    nodes: List[DfgNode] = []
    current = add_region("input", model.input_elements * batch, "io")
    for index, layer in enumerate(model.layers):
        reads = [current]
        if layer.has_weights:
            reads.append(add_region(f"w:{layer.name}", layer.weight_elements(), "weight"))
        out = add_region(f"f:{layer.name}", layer.output_elements(batch), "feature")
        nodes.append(DfgNode(name=layer.name, op="forward", layer_index=index,
                             reads=reads, writes=[out]))
        current = out
    return DataFlowGraph(network=model.name, training=False, nodes=nodes, regions=regions)


def build_training_dfg(model: NetworkModel, batch: int = 1,
                       bytes_per_element: int = 1) -> DataFlowGraph:
    """Forward + backward + update graph (Figure 2b).

    Backward order is reversed: for each layer L (deepest first) a
    ``dgrad`` node reads (g_out, w_L) and writes g_in, and a ``wgrad``
    node reads (g_out, f_in) and writes dW_L, followed by an ``update``
    node reading (w_L, dW_L) and writing w_L. Gradient tensors get their
    own regions, mirroring the paper's observation that "the gradients
    and the features are stored in different memory locations".
    """
    inference = build_inference_dfg(model, batch, bytes_per_element)
    alloc = _Allocator(base=max(r.end for r in inference.regions.values()) + _ALIGN)
    regions = dict(inference.regions)

    def add_region(name: str, elements: int, kind: str) -> TensorRegion:
        size = _element_bytes(elements, bytes_per_element)
        region = TensorRegion(name, alloc.alloc(size), size, kind)
        regions[name] = region
        return region

    nodes = list(inference.nodes)
    # gradient wrt the network output seeds the backward pass
    grad_out = add_region("g:output", model.layers[-1].output_elements(batch), "gradient")
    for index in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[index]
        f_in = regions["input"] if index == 0 else regions[f"f:{model.layers[index - 1].name}"]
        reads_d = [grad_out]
        if layer.has_weights:
            w = regions[f"w:{layer.name}"]
            reads_d.append(w)
        grad_in = add_region(f"g:{layer.name}", layer.input_elements(batch), "gradient")
        nodes.append(DfgNode(name=f"{layer.name}.dgrad", op="dgrad", layer_index=index,
                             reads=reads_d, writes=[grad_in]))
        if layer.has_weights:
            dw = add_region(f"dw:{layer.name}", layer.weight_elements(), "weight_grad")
            nodes.append(DfgNode(name=f"{layer.name}.wgrad", op="wgrad", layer_index=index,
                                 reads=[grad_out, f_in], writes=[dw]))
            nodes.append(DfgNode(name=f"{layer.name}.update", op="update", layer_index=index,
                                 reads=[regions[f"w:{layer.name}"], dw],
                                 writes=[regions[f"w:{layer.name}"]]))
        grad_out = grad_in
    return DataFlowGraph(network=model.name, training=True, nodes=nodes, regions=regions)
