"""Workload and trace generators for experiments and tests."""

from repro.workloads.generators import (
    BpMetadataSpec,
    RandomSpec,
    StreamingSpec,
    TraceSpec,
    bp_metadata_batch,
    bp_metadata_trace,
    random_batch,
    random_mlp_spec,
    random_trace,
    streaming_batch,
    streaming_trace,
    strided_trace,
    tensor_stream_trace,
)


def build_trace_spec(workload: str, **params) -> TraceSpec:
    """Resolve a workload name to a sliceable :class:`TraceSpec`.

    ``streaming`` / ``random`` / ``bp-metadata`` build the synthetic
    patterns; any registered LLM geometry name (``gpt2``, ``gpt2-xl``,
    ``llama-7b``) builds its decode trace. ``params`` forward to the
    spec constructor. Every parameter but ``write_fraction`` is an
    integer: any other value, a ``bool`` included, raises
    ``ValueError`` here rather than a ``TypeError`` or a silently
    rounded trace later. A spec that yields no requests raises
    ``ValueError``: it has no cycles to compare, so every slowdown
    would read NaN.
    """
    for name, value in params.items():
        if name != "write_fraction" and (
                not isinstance(value, int) or isinstance(value, bool)):
            raise ValueError(f"workload parameter {name!r} must be an "
                             f"integer, got {value!r}")
    synthetic = {"streaming": StreamingSpec, "random": RandomSpec,
                 "bp-metadata": BpMetadataSpec}
    if workload in synthetic:
        spec = synthetic[workload](**params)
    else:
        from repro.workloads.llm import LLM_GEOMETRIES, llm_decode_spec

        if workload not in LLM_GEOMETRIES:
            known = list(synthetic) + sorted(LLM_GEOMETRIES)
            raise KeyError(f"unknown workload {workload!r}; known: {', '.join(known)}")
        spec = llm_decode_spec(workload, **params)
    if spec.total_requests < 1:
        raise ValueError(f"workload {workload!r} with these params yields no requests")
    return spec


__all__ = [
    "TraceSpec",
    "StreamingSpec",
    "RandomSpec",
    "BpMetadataSpec",
    "build_trace_spec",
    "streaming_trace",
    "streaming_batch",
    "random_trace",
    "random_batch",
    "bp_metadata_trace",
    "bp_metadata_batch",
    "strided_trace",
    "tensor_stream_trace",
    "random_mlp_spec",
]
