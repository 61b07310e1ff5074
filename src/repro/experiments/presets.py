"""Registered sweeps for every paper artifact.

One entry per artifact: the `E*` experiments (Figure 3, Tables II/III,
traffic, ASIC/FPGA overheads), the `A*` ablations, and the `X*`
extensions. ``repro sweep --preset NAME`` runs any of them through the
runner and the result cache (``repro sweep --list`` names them all),
and each ``benchmarks/bench_*.py`` file resolves its grid from here.
"""

from __future__ import annotations

from typing import List

from repro.accel.zoo_ext import EXTENDED_ZOO
from repro.experiments.jobs import Job
from repro.experiments.registry import register_sweep
from repro.experiments.spec import SweepSpec
from repro.experiments.table import ResultTable

#: Figure 3's network order (the paper's x-axis)
FIG3_INFERENCE_NETWORKS = ("vgg16", "alexnet", "googlenet", "resnet50",
                           "mobilenet", "vit", "bert", "dlrm", "wav2vec2")
#: DLRM is excluded from Figure 3b, as in the paper
FIG3_TRAINING_NETWORKS = tuple(n for n in FIG3_INFERENCE_NETWORKS if n != "dlrm")
FIG3_TRAINING_BATCH = 4

FPGA_NETWORKS = ("alexnet", "googlenet", "resnet50", "vgg16")
TABLE2_DSPS = (128, 256, 512, 1024)
TABLE2_PRECISIONS = (8, 6)
VN_CACHE_SIZES_KB = (16, 64, 256, 1024, 4096)
VN_CACHE_NETWORKS = ("vgg16", "resnet50", "bert")
MAC_CHUNK_BYTES = (64, 128, 256, 512, 1024, 4096)
MAC_GRANULARITY_NETWORKS = ("vgg16", "mobilenet", "bert")
AES_ENGINE_COUNTS = (1, 2, 3, 4, 6)


def _normalize(table: ResultTable) -> ResultTable:
    return table.with_normalized(value="total_cycles", baseline={"scheme": "NP"},
                                 out="normalized")


def _fig3_inference_spec() -> SweepSpec:
    return SweepSpec(models=FIG3_INFERENCE_NETWORKS, zoo="paper")


def _fig3_training_spec() -> SweepSpec:
    return SweepSpec(models=FIG3_TRAINING_NETWORKS, zoo="paper",
                     modes=("training",), batches=(FIG3_TRAINING_BATCH,))


@register_sweep("fig3-inference", title="Figure 3a — normalized inference time",
                post=_normalize)
def fig3_inference() -> SweepSpec:
    return _fig3_inference_spec()


@register_sweep("fig3-training", title="Figure 3b — normalized training time",
                post=_normalize)
def fig3_training() -> SweepSpec:
    return _fig3_training_spec()


@register_sweep("fig3", title="Figure 3 — inference + training, all schemes",
                post=_normalize)
def fig3() -> List[Job]:
    return _fig3_inference_spec().jobs() + _fig3_training_spec().jobs()


@register_sweep("traffic", title="Section III-C memory-traffic increase")
def traffic() -> List[Job]:
    schemes = ("bp", "guardnn-ci")
    inference = SweepSpec(models=FIG3_INFERENCE_NETWORKS, zoo="paper", schemes=schemes)
    training = SweepSpec(models=FIG3_TRAINING_NETWORKS, zoo="paper", schemes=schemes,
                         modes=("training",), batches=(FIG3_TRAINING_BATCH,))
    return inference.jobs() + training.jobs()


@register_sweep("extended-zoo", title="Extended-zoo protection comparison",
                post=_normalize)
def extended_zoo() -> SweepSpec:
    return SweepSpec(models=tuple(sorted(EXTENDED_ZOO)), zoo="extended")


@register_sweep("extended-zoo-full",
                title="Extended zoo × schemes × {inference b1/b8, training b8}",
                post=_normalize)
def extended_zoo_full() -> List[Job]:
    models = tuple(sorted(EXTENDED_ZOO))
    inference = SweepSpec(models=models, zoo="extended", batches=(1, 8))
    training = SweepSpec(models=models, zoo="extended", modes=("training",), batches=(8,))
    return inference.jobs() + training.jobs()


@register_sweep("ablation-vn-cache", title="BP metadata-cache size ablation")
def ablation_vn_cache() -> SweepSpec:
    schemes = tuple(("bp", {"cache_bytes": kb * 1024}) for kb in VN_CACHE_SIZES_KB)
    return SweepSpec(models=VN_CACHE_NETWORKS, zoo="paper",
                     schemes=schemes + ("guardnn-ci",))


@register_sweep("ablation-mac-granularity", title="GuardNN_CI MAC-granularity ablation",
                post=_normalize)
def ablation_mac_granularity() -> SweepSpec:
    schemes = ("np",) + tuple(("guardnn-ci", {"chunk_bytes": c}) for c in MAC_CHUNK_BYTES)
    return SweepSpec(models=MAC_GRANULARITY_NETWORKS, zoo="paper", schemes=schemes)


@register_sweep("ablation-aes-engines",
                title="AES engines vs GuardNN_C FPGA overhead (1024 DSPs, 6-bit)")
def ablation_aes_engines() -> List[Job]:
    return [Job.make("fpga_row", network=net, dsps=1024, precision=6, engines=engines)
            for engines in AES_ENGINE_COUNTS for net in FPGA_NETWORKS]


@register_sweep("table2-fpga", title="Table II — FPGA throughput and overhead")
def table2_fpga() -> List[Job]:
    return [Job.make("fpga_row", network=net, dsps=dsps, precision=bits, engines=3)
            for bits in TABLE2_PRECISIONS for dsps in TABLE2_DSPS
            for net in FPGA_NETWORKS]


@register_sweep("fpga-resources", title="Section III-B FPGA resource overhead")
def fpga_resources() -> List[Job]:
    return [Job.make("fpga_resources", aes_engines=3)]


@register_sweep("instruction-latency", title="Section III-B instruction latencies")
def instruction_latency() -> List[Job]:
    return [Job.make("instruction_latency", network="vgg16",
                     set_weight_networks=list(FPGA_NETWORKS))]


@register_sweep("asic-overhead", title="Section III-C ASIC area/power overhead")
def asic_overhead() -> List[Job]:
    jobs = [Job.make("asic_overhead", engines=e) for e in (86, 172, 275)]
    jobs.append(Job.make("asic_overhead"))  # bandwidth-matching count
    jobs.append(Job.make("asic_overhead", engines=500))
    return jobs


@register_sweep("table3-comparison", title="Table III — approach comparison")
def table3_comparison() -> List[Job]:
    return [Job.make("table3_comparison")]


@register_sweep("tcb", title="TCB size decomposition")
def tcb() -> List[Job]:
    return [Job.make("tcb_report")]


@register_sweep("dram-characterization", title="DDR4 model characterization")
def dram_characterization() -> List[Job]:
    return [
        Job.make("dram_characterization", pattern="streaming", nbytes=1 << 18),
        Job.make("dram_characterization", pattern="random", requests=4096, seed=3),
        Job.make("dram_characterization", pattern="bp-interleaved", nbytes=1 << 18),
    ]


@register_sweep("pipeline-patterns",
                title="Streaming pipeline — synthetic patterns, shared-pass schemes")
def pipeline_patterns() -> List[Job]:
    schemes = ["np", "guardnn-c", "guardnn-ci", "bp"]
    return [
        Job.make("pipeline_run", workload="streaming", nbytes=1 << 18,
                 write_fraction=0.3, schemes=schemes, chunk_requests=1 << 12),
        Job.make("pipeline_run", workload="random", n_requests=4096,
                 span_bytes=1 << 26, seed=3, schemes=schemes,
                 chunk_requests=1 << 12),
        Job.make("pipeline_run", workload="bp-metadata", nbytes=1 << 18,
                 schemes=schemes, chunk_requests=1 << 12),
    ]


@register_sweep("llm-streaming",
                title="LLM decode traffic through the streaming pipeline")
def llm_streaming() -> List[Job]:
    # a truncated GPT-2 stack keeps the grid tier-1-friendly (the full
    # gpt2-xl / llama-7b geometries run through the same executor — see
    # scripts/pipeline_memcheck.py and the README's workload table)
    schemes = ["np", "guardnn-c", "guardnn-ci", "bp"]
    return [
        Job.make("pipeline_run", workload="gpt2", layers=4, tokens=1,
                 context=128, schemes=schemes, chunk_requests=1 << 16),
    ]


@register_sweep("crypto-kernels", title="Functional crypto kernel checksums")
def crypto_kernels() -> List[Job]:
    return [
        Job.make("crypto_kernel", kernel="aes-block"),
        Job.make("crypto_kernel", kernel="aes-ctr", nbytes=1024),
        Job.make("crypto_kernel", kernel="cmac", nbytes=512),
        Job.make("crypto_kernel", kernel="gmac", nbytes=1024),
        Job.make("crypto_kernel", kernel="sha256", nbytes=4096),
        Job.make("crypto_kernel", kernel="hmac-sha256", nbytes=4096),
    ]
