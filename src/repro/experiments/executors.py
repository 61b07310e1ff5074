"""Job executors: the functions sweep jobs resolve to.

Each executor takes a JSON-able params dict and returns one row dict (or
a list of them) with JSON-able values only — rows go straight into the
on-disk result cache and across process boundaries. Executors must be
deterministic in their params: same params + same code ⇒ same rows.
That property is what makes the cache sound and lets the runner assert
worker-count independence.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Dict, List, Tuple

from repro.accel.accelerator import AcceleratorModel, TPU_V1_CONFIG
from repro.accel.models import build_model
from repro.accel.zoo_ext import build_extended
from repro.experiments.jobs import executor
from repro.mem.trace import RequestKind
from repro.protection import build_scheme

#: accelerator-config fields a sweep may override (the DRAM/bandwidth
#: design space; everything else is the TPU-v1-like fixed point)
CONFIG_OVERRIDES = ("pe_rows", "pe_cols", "sram_bytes", "freq_mhz",
                    "dram_bandwidth_gbps", "vector_lanes")


def validate_model(name: str, zoo: str = "auto") -> None:
    """Raise KeyError for an unresolvable model name without paying the
    cost of constructing the network (used for CLI pre-validation)."""
    from repro.accel.models import ALIASES, MODEL_ZOO
    from repro.accel.zoo_ext import EXTENDED_ZOO

    key = ALIASES.get(name.lower(), name.lower())
    in_paper = key in MODEL_ZOO
    in_extended = name in EXTENDED_ZOO
    if zoo == "paper" and not in_paper:
        raise KeyError(f"unknown model {name!r} in the paper zoo")
    if zoo == "extended" and not in_extended:
        raise KeyError(f"unknown model {name!r} in the extended zoo")
    if zoo == "auto" and not (in_paper or in_extended):
        raise KeyError(f"model {name!r} in neither zoo")


#: built models by (name, zoo): the zoo builders are deterministic and
#: the accelerator model never mutates a network, so one instance per
#: grid point serves every scheme of a sweep (per worker process)
_MODEL_MEMO: Dict[tuple, tuple] = {}


def resolve_model(name: str, zoo: str = "auto"):
    """Build a network from the paper zoo, the extended zoo, or both.

    Goes through :func:`build_model` so the paper's aliases and case
    normalization apply to sweeps exactly as they do to ``simulate``.
    On the fast path (:mod:`repro.perf`) repeated (name, zoo) pairs
    share one built instance.
    """
    from repro import perf

    if perf.fast_enabled():
        key = (name, zoo)
        hit = _MODEL_MEMO.get(key)
        if hit is None:
            hit = _MODEL_MEMO[key] = _resolve_model_uncached(name, zoo)
        return hit
    return _resolve_model_uncached(name, zoo)


def _resolve_model_uncached(name: str, zoo: str):
    if zoo not in ("paper", "extended", "auto"):
        raise ValueError(f"unknown zoo {zoo!r} (paper | extended | auto)")
    if zoo in ("paper", "auto"):
        try:
            return build_model(name), "paper"
        except KeyError:
            if zoo == "paper":
                raise
    try:
        return build_extended(name), "extended"
    except KeyError:
        if zoo == "extended":
            raise
    raise KeyError(f"model {name!r} in neither zoo")


#: built data-flow graphs per (name, zoo, training, batch, bpe): the
#: graph is a pure function of the (memoized) model and is identical
#: for every protection scheme of a grid point
_DFG_MEMO: Dict[tuple, object] = {}


def _resolve_dfg(name: str, zoo: str, model, training: bool, batch: int,
                 bytes_per_element: int):
    from repro import perf
    from repro.accel.dfg import build_inference_dfg, build_training_dfg

    build = build_training_dfg if training else build_inference_dfg
    if not perf.fast_enabled():
        return build(model, batch, bytes_per_element)
    key = (name, zoo, training, batch, bytes_per_element)
    hit = _DFG_MEMO.get(key)
    if hit is None:
        hit = _DFG_MEMO[key] = build(model, batch, bytes_per_element)
    return hit


#: total-MAC counts per (name, zoo) — walking every layer's GEMM list
#: is pure and repeated once per scheme otherwise
_GMACS_MEMO: Dict[tuple, float] = {}


def _model_gmacs(name: str, zoo: str, model) -> float:
    from repro import perf

    if not perf.fast_enabled():
        return model.macs(1) / 1e9
    key = (name, zoo)
    hit = _GMACS_MEMO.get(key)
    if hit is None:
        hit = _GMACS_MEMO[key] = model.macs(1) / 1e9
    return hit


def _clear_executor_memos() -> None:
    _MODEL_MEMO.clear()
    _DFG_MEMO.clear()
    _GMACS_MEMO.clear()


from repro import perf as _perf  # noqa: E402 — memo registration

_perf.register_cache(_clear_executor_memos)


@executor("accel_run")
def accel_run(params: Dict[str, object]) -> Dict[str, object]:
    """One cycle-level simulation: (model, scheme, batch, mode, config)
    → raw cycles/traffic metrics. Normalization happens at table level
    by joining against the NP row of the same grid point."""
    model, zoo = resolve_model(params["model"], params.get("zoo", "auto"))
    overrides = dict(params.get("config") or {})
    unknown = set(overrides) - set(CONFIG_OVERRIDES)
    if unknown:
        raise ValueError(f"unsupported config overrides: {sorted(unknown)}")
    config = dataclasses.replace(TPU_V1_CONFIG, **overrides) if overrides else TPU_V1_CONFIG
    scheme = build_scheme(params["scheme"], **dict(params.get("scheme_params") or {}))
    training = bool(params.get("training", False))
    batch = int(params.get("batch", 1))

    dfg = _resolve_dfg(params["model"], params.get("zoo", "auto"), model,
                       training, batch, config.bytes_per_element)
    result = AcceleratorModel(config).run_dfg(model, dfg, scheme, batch)
    breakdown = result.metadata_breakdown
    return {
        "model": params["model"],  # the grid key; model.name may be descriptive
        "network": model.name,
        "zoo": zoo,
        "family": model.family,
        "scheme": result.scheme,
        "scheme_key": params["scheme"],
        "scheme_params": dict(params.get("scheme_params") or {}),
        "mode": "training" if training else "inference",
        "batch": batch,
        "config": overrides,  # accelerator overrides; {} = TPU-v1 fixed point
        "dram_gbps": config.dram_bandwidth_gbps,
        "total_cycles": result.total_cycles,
        "seconds": result.seconds,
        "data_read_bytes": sum(l.data_read_bytes for l in result.layers),
        "data_write_bytes": sum(l.data_write_bytes for l in result.layers),
        "metadata_read_bytes": sum(l.metadata_read_bytes for l in result.layers),
        "metadata_write_bytes": sum(l.metadata_write_bytes for l in result.layers),
        "vn_bytes": breakdown.get(RequestKind.VN, 0),
        "mac_bytes": breakdown.get(RequestKind.MAC, 0),
        "tree_bytes": breakdown.get(RequestKind.TREE, 0),
        "traffic_increase": result.traffic_increase,
        "gmacs": _model_gmacs(params["model"], params.get("zoo", "auto"), model),
    }


@executor("fpga_row")
def fpga_row(params: Dict[str, object]) -> Dict[str, object]:
    """One Table II cell on the CHaiDNN-like FPGA prototype model."""
    from repro.analysis.fpga import FpgaConfig, FpgaPrototypeModel

    engines = int(params.get("engines", 3))
    model = FpgaPrototypeModel(aes_engines=engines)
    config = FpgaConfig(int(params["dsps"]), int(params.get("precision", 8)))
    row = dict(model.table_row(params["network"], config))
    row["engines"] = engines
    return row


@executor("fpga_resources")
def fpga_resources(params: Dict[str, object]) -> List[Dict[str, object]]:
    """Section III-B resource-overhead decomposition."""
    from repro.analysis.fpga import FpgaResourceModel

    model = FpgaResourceModel()
    aes_luts_pct, aes_ffs_pct = model.aes_overhead_pct()
    total = model.total_overhead(aes_engines=int(params.get("aes_engines", 3)))
    return [
        {"resource": "AES core LUTs", "count": model.aes_luts, "pct": aes_luts_pct},
        {"resource": "AES core FFs", "count": model.aes_ffs, "pct": aes_ffs_pct},
        {"resource": "MicroBlaze LUTs", "count": model.mcu_luts,
         "pct": 100.0 * model.mcu_luts / model.base_luts},
        {"resource": "MicroBlaze FFs", "count": model.mcu_ffs,
         "pct": 100.0 * model.mcu_ffs / model.base_ffs},
        {"resource": "MicroBlaze BRAMs", "count": model.mcu_brams, "pct": total["brams_pct"]},
        {"resource": "MicroBlaze DSPs", "count": model.mcu_dsps, "pct": total["dsps_pct"]},
        {"resource": "Total (AES + MCU) LUTs", "count": total["luts"], "pct": total["luts_pct"]},
    ]


@executor("instruction_latency")
def instruction_latency(params: Dict[str, object]) -> List[Dict[str, object]]:
    """Section III-B GuardNN instruction latencies (ms)."""
    from repro.analysis.microcontroller import InstructionLatencyModel

    lat = InstructionLatencyModel()
    report = lat.report(build_model(params.get("network", "vgg16")))
    rows = [
        {"instruction": "GetPK + InitSession", "ms": report["key_exchange_ms"]},
        {"instruction": "SetInput", "ms": report["set_input_ms"]},
        {"instruction": "ExportOutput", "ms": report["export_output_ms"]},
        {"instruction": "SignOutput", "ms": report["sign_output_ms"]},
    ]
    for name in params.get("set_weight_networks", ()):
        rows.append({"instruction": f"SetWeight ({name})",
                     "ms": lat.set_weight_seconds(build_model(name)) * 1e3})
    return rows


@executor("asic_overhead")
def asic_overhead(params: Dict[str, object]) -> Dict[str, object]:
    """Section III-C ASIC area/power overhead at one engine count
    (``engines`` absent ⇒ the bandwidth-matching count)."""
    from repro.analysis.area import AsicAreaModel

    model = AsicAreaModel()
    engines = params.get("engines")
    row = dict(model.overhead(int(engines) if engines is not None else None))
    row["bandwidth_matched"] = engines is None
    return row


@executor("table3_comparison")
def table3_comparison(params: Dict[str, object]) -> List[Dict[str, object]]:
    """Table III: privacy-preserving ML approaches compared."""
    from repro.analysis.comparison import ComparisonTable

    return [dict(row) for row in ComparisonTable().as_dicts()]


@executor("tcb_report")
def tcb_report(params: Dict[str, object]) -> List[Dict[str, object]]:
    """TCB LoC decomposition over this repository's source."""
    from repro.analysis.tcb import measure_tcb

    report = measure_tcb()
    rows = [{"component": label, "loc": loc, "trusted": True}
            for label, loc in sorted(report.categories.items())]
    rows.append({"component": "TCB total", "loc": report.tcb_loc, "trusted": True})
    rows.append({"component": "untrusted / tooling", "loc": report.untrusted_loc,
                 "trusted": False})
    return rows


@executor("dram_characterization")
def dram_characterization(params: Dict[str, object]) -> Dict[str, object]:
    """Effective bandwidth of the event-driven DDR4 model under one
    access pattern (streaming | random | bp-interleaved)."""
    import numpy as np

    from repro import perf
    from repro.mem.controller import MemoryController
    from repro.mem.dram import DDR4_2400
    from repro.workloads import generators as gen

    pattern = params["pattern"]
    nbytes = int(params.get("nbytes", 1 << 18))
    fast = perf.fast_enabled()
    if pattern == "streaming":
        trace = (gen.streaming_trace_batch if fast else gen.streaming_trace)(nbytes)
    elif pattern == "random":
        rng = np.random.default_rng(int(params.get("seed", 3)))
        make = gen.random_trace_batch if fast else gen.random_trace
        trace = make(int(params.get("requests", 4096)), 1 << 28, rng)
    elif pattern == "bp-interleaved":
        trace = (gen.bp_metadata_trace_batch if fast else gen.bp_metadata_trace)(nbytes)
    else:
        raise ValueError(f"unknown pattern {pattern!r}")
    stats = MemoryController().run_trace(trace)
    return {
        "pattern": pattern,
        "requests": len(trace),
        "effective_gbps": stats.bandwidth_gbps(DDR4_2400.freq_mhz),
        "peak_gbps": DDR4_2400.peak_bandwidth_gbps,
    }


@executor("crypto_kernel")
def crypto_kernel(params: Dict[str, object]) -> Dict[str, object]:
    """Deterministic work summary of one functional-crypto kernel: the
    bytes processed and a digest of the output, so any change to the
    primitives shows up as a row change (timing lives in the
    pytest-benchmark harness, not here)."""
    kernel = params["kernel"]
    nbytes = int(params.get("nbytes", 1024))
    key = bytes(range(16))
    data = bytes(i & 0xFF for i in range(nbytes))
    if kernel == "aes-block":
        from repro.crypto.aes import AES128

        out = AES128(key).encrypt_block(data[:16])
        nbytes = 16
    elif kernel == "aes-ctr":
        from repro.crypto.ctr import AesCtr

        out = AesCtr(key).crypt_region(0, 1, data)
    elif kernel == "cmac":
        from repro.crypto.cmac import AesCmac

        out = AesCmac(key).mac(data)
    elif kernel == "gmac":
        from repro.crypto.gmac import AesGmac

        out = AesGmac(key).mac(bytes(12), data)
    elif kernel == "sha256":
        from repro.crypto.sha256 import sha256

        out = sha256(data)
    elif kernel == "hmac-sha256":
        from repro.crypto.hmac import hmac_sha256

        out = hmac_sha256(key, data)
    else:
        raise ValueError(f"unknown kernel {kernel!r}")
    return {
        "kernel": kernel,
        "bytes": nbytes,
        "output_sha256": hashlib.sha256(out).hexdigest(),
    }


@executor("pipeline_run")
def pipeline_run(params: Dict[str, object]) -> List[Dict[str, object]]:
    """End-to-end streaming simulation of one workload through the
    :class:`~repro.mem.pipeline.TracePipeline`: one generation pass,
    every requested protection scheme timed on its own DDR4 controller
    (the multi-scheme shared-pass mode). One row per scheme, with the
    unprotected baseline's cycles joined in as ``slowdown``."""
    return pipeline_rows(params)


def _pipeline_config(params: Dict[str, object]):
    """Resolve a ``pipeline_run`` params dict to (workload, schemes,
    chunk_requests, spec) — the single parse shared by execution and
    fingerprinting, so the two can never disagree about what a job
    means."""
    from repro.mem.pipeline import DEFAULT_CHUNK_REQUESTS
    from repro.workloads import build_trace_spec

    workload = str(params["workload"])
    schemes = tuple(params.get("schemes", ("np", "guardnn-c", "guardnn-ci", "bp")))
    chunk_requests = int(params.get("chunk_requests", DEFAULT_CHUNK_REQUESTS))
    spec_params = {key: value for key, value in params.items()
                   if key not in ("workload", "schemes", "chunk_requests")}
    spec = build_trace_spec(workload, **spec_params)
    return workload, schemes, chunk_requests, spec


def pipeline_fingerprint(params: Dict[str, object]) -> Dict[str, object]:
    """The :meth:`~repro.mem.pipeline.TracePipeline.fingerprint` a
    ``pipeline_run`` job with these params will compute — without
    building rewriters or controllers. The distributed coordinator uses
    it to validate migrated checkpoint envelopes against the unit that
    claims them (``pipeline_run`` never passes rewriter params, so every
    scheme's params entry is ``{}``; pinned against the real pipeline by
    ``tests/distributed/test_pipeline_units.py``)."""
    _, schemes, chunk_requests, spec = _pipeline_config(params)
    return {
        "spec": spec.state_dict(),
        "schemes": list(schemes),
        "scheme_params": {name: {} for name in schemes},
        "chunk_requests": chunk_requests,
    }


def pipeline_extent(params: Dict[str, object]) -> Tuple[int, int]:
    """``(total_requests, chunk_requests)`` of a ``pipeline_run`` job,
    without building rewriters or controllers: ``repro serve`` sends a
    flight that fits one chunk (no seam to stream, cancel or checkpoint
    at) to the worker pool."""
    _, _, chunk_requests, spec = _pipeline_config(params)
    return spec.total_requests, chunk_requests


def pipeline_rows(params: Dict[str, object], on_chunk=None,
                  should_stop=None, checkpoint_path=None, checkpoint_every=0,
                  checkpoint_request=None, resume_from=None,
                  on_checkpoint=None, checkpoint_meta=None,
                  on_checkpoint_state=None) -> List[Dict[str, object]]:
    """The :func:`pipeline_run` body, with the pipeline's streaming
    hooks exposed: ``repro serve`` calls this directly so one code path
    produces both the cached executor rows and the per-chunk progress
    events (and honours cooperative cancellation), guaranteeing the
    streamed result is bit-identical to the ``pipeline_run`` job. The
    ``checkpoint_*``/``resume_from`` keywords pass straight through to
    :meth:`~repro.mem.pipeline.TracePipeline.run`, so a service flight
    (or the CLI) can checkpoint and resume without a second code path —
    the checkpoint fingerprint is derived from the same params dict that
    keys the result cache."""
    from repro.mem.pipeline import TracePipeline

    workload, schemes, chunk_requests, spec = _pipeline_config(params)
    results = TracePipeline(spec, schemes=schemes,
                            chunk_requests=chunk_requests).run(
                                on_chunk=on_chunk, should_stop=should_stop,
                                checkpoint_path=checkpoint_path,
                                checkpoint_every=checkpoint_every,
                                checkpoint_request=checkpoint_request,
                                resume_from=resume_from,
                                on_checkpoint=on_checkpoint,
                                checkpoint_meta=checkpoint_meta,
                                on_checkpoint_state=on_checkpoint_state)
    baseline = results.get("np")
    rows = []
    for name in schemes:
        outcome = results[name]
        timing = outcome.result
        row = {
            "workload": workload,
            "scheme": name,
            "requests": timing.requests,
            "bursts": timing.bursts,
            "cycles": timing.cycles,
            "data_bytes": timing.stats.data_bytes,
            "metadata_bytes": timing.stats.metadata_bytes,
            "traffic_increase_pct": round(100 * timing.stats.traffic_increase(), 3),
            "chunks": outcome.chunks,
            "chunk_requests": chunk_requests,
        }
        if baseline is not None:
            row["slowdown"] = round(outcome.slowdown_vs(baseline), 4)
        rows.append(row)
    return rows
