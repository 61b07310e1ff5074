"""LLM-scale decode traces: embedding gathers + decoder attention.

Autoregressive decode is the memory-traffic extreme the paper's nine
networks never reach: every generated token re-streams the full weight
set, scans the per-layer KV cache, appends one new KV entry, and opens
with a data-dependent embedding-table gather. A single GPT-2-XL token
is ~1.5 GB of off-chip movement (~24 M cache-line requests) — a trace
that cannot be materialized as ``MemoryRequest`` objects, which is
exactly the workload the streaming :class:`~repro.mem.pipeline.TracePipeline`
exists for.

:class:`LlmDecodeSpec` renders that trace as a sliceable
:class:`~repro.workloads.generators.TraceSpec`: per token —

1. one **embedding gather**: ``d_model`` bytes read from a
   pseudo-random row of the ``vocab x d_model`` table (deterministic
   per-token hash, identical on the scalar and vectorized paths);
2. per decoder layer: the **weight stream** (QKV/proj/MLP matrices,
   read sequentially), the **KV-cache scan** (``2 * context * d_model``
   bytes read), and the **KV append** (one new key/value entry written
   to the token's ring-buffer slot).

Geometries come from :data:`repro.accel.zoo_ext.LLM_GEOMETRIES`, so the
analytic zoo models and the mechanistic decode traces describe the same
networks.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Optional

import numpy as np

from repro import perf
from repro.accel.zoo_ext import LLM_GEOMETRIES, LlmGeometry, llm_geometry
from repro.mem.batch import RequestBatch
from repro.workloads.generators import TraceSpec, _resolve_window

#: per-token row hash multiplier (Fibonacci hashing; any odd constant
#: works — it only needs to be deterministic and well-spread)
_ROW_HASH = 2654435761


def _lines(nbytes: int, stride: int) -> int:
    return -(-nbytes // stride)


class LlmDecodeSpec(TraceSpec):
    """Streaming decode trace for one decoder-only LM geometry.

    ``context`` is the steady-state KV length being scanned (serving at
    a fixed context window; new entries overwrite the ring slot
    ``token % context``), ``tokens`` the number of decode steps.
    ``layers`` optionally truncates the stack (scaled-down sweeps).
    """

    def __init__(self, geometry: LlmGeometry, tokens: int = 1,
                 context: Optional[int] = None, layers: Optional[int] = None,
                 elem_bytes: int = 1, stride: int = 64, seed: int = 1):
        if tokens <= 0:
            raise ValueError("tokens must be positive")
        context = min(geometry.max_seq, 512) if context is None else context
        if context <= 0:
            raise ValueError("context must be positive")
        n_layers = geometry.layers if layers is None else layers
        if not 1 <= n_layers <= geometry.layers:
            raise ValueError(f"layers must be in [1, {geometry.layers}]")
        self.geometry = geometry
        self.tokens = tokens
        self.context = context
        self.layers = n_layers
        self.elem_bytes = elem_bytes
        self.stride = stride
        self.seed = seed

        d, ff = geometry.d_model, geometry.d_ff
        weight_bytes = (4 * d * d + 2 * d * ff) * elem_bytes
        self.emb_lines = _lines(d * elem_bytes, stride)
        self.weight_lines = _lines(weight_bytes, stride)
        self.kv_entry_lines = _lines(2 * d * elem_bytes, stride)
        self.kv_read_lines = _lines(2 * context * d * elem_bytes, stride)
        self.kv_region_lines = context * self.kv_entry_lines

        # address map, in stride-sized line units: embedding table,
        # then the per-layer weights, then the per-layer KV rings
        self.table_lines = geometry.vocab * self.emb_lines
        self.weights_base = self.table_lines
        self.kv_base = self.weights_base + n_layers * self.weight_lines

        # request-index layout of one token: segment s covers
        # [bounds[s], bounds[s+1]) with per-segment base/flags
        sizes = [self.emb_lines]
        base, write, emb, kv_slot = [0], [0], [1], [0]
        for layer in range(n_layers):
            sizes += [self.weight_lines, self.kv_read_lines, self.kv_entry_lines]
            kv = self.kv_base + layer * self.kv_region_lines
            base += [self.weights_base + layer * self.weight_lines, kv, kv]
            write += [0, 0, 1]
            emb += [0, 0, 0]
            kv_slot += [0, 0, 1]
        self._bounds = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
        self._seg_base = np.asarray(base, dtype=np.int64)
        self._seg_write = np.asarray(write, dtype=np.int8)
        self._seg_emb = np.asarray(emb, dtype=np.int64)
        self._seg_kv_slot = np.asarray(kv_slot, dtype=np.int64)
        self.requests_per_token = int(self._bounds[-1])
        self.total_requests = tokens * self.requests_per_token

    def _row_of(self, token) -> "np.ndarray":
        """The embedding row gathered for ``token`` (vectorizes)."""
        return (token * _ROW_HASH + self.seed) % self.geometry.vocab

    def batch(self, start: int = 0, stop: Optional[int] = None) -> RequestBatch:
        start, stop = _resolve_window(self.total_requests, start, stop)
        if not perf.fast_enabled():
            batch = RequestBatch()
            for i in range(start, stop):
                address, is_write = self._request_at(i)
                batch.append(address, self.stride, is_write)
            return batch
        index = np.arange(start, stop, dtype=np.int64)
        token = index // self.requests_per_token
        r = index - token * self.requests_per_token
        seg = np.searchsorted(self._bounds, r, side="right") - 1
        within = r - self._bounds[seg]
        line = self._seg_base[seg] + within
        line += self._seg_emb[seg] * self._row_of(token) * self.emb_lines
        line += self._seg_kv_slot[seg] * (token % self.context) * self.kv_entry_lines
        return RequestBatch.from_arrays(
            line * self.stride,
            np.full(len(index), self.stride, dtype=np.int64),
            self._seg_write[seg])

    def _request_at(self, i: int) -> tuple:
        """Scalar reference for one request index (bit-identical to the
        vectorized mapping; the equivalence suite compares them)."""
        token, r = divmod(i, self.requests_per_token)
        seg = int(np.searchsorted(self._bounds, r, side="right")) - 1
        within = r - int(self._bounds[seg])
        line = int(self._seg_base[seg]) + within
        if self._seg_emb[seg]:
            line += int(self._row_of(token)) * self.emb_lines
        if self._seg_kv_slot[seg]:
            line += (token % self.context) * self.kv_entry_lines
        return line * self.stride, bool(self._seg_write[seg])

    def state_dict(self) -> dict:
        # the full geometry (not just its name) so unregistered
        # geometries — the test suite's tiny models — fingerprint too
        return {"type": "llm-decode", "geometry": asdict(self.geometry),
                "tokens": self.tokens, "context": self.context,
                "layers": self.layers, "elem_bytes": self.elem_bytes,
                "stride": self.stride, "seed": self.seed}

    @property
    def end_address(self) -> int:
        # the address map ends with the last layer's KV ring
        return (self.kv_base + self.layers * self.kv_region_lines) * self.stride

    def __repr__(self) -> str:
        return (f"<LlmDecodeSpec {self.geometry.name} tokens={self.tokens} "
                f"context={self.context} layers={self.layers} "
                f"requests={self.total_requests}>")


def llm_decode_spec(name: str, tokens: int = 1, context: Optional[int] = None,
                    layers: Optional[int] = None, elem_bytes: int = 1,
                    stride: int = 64, seed: int = 1) -> LlmDecodeSpec:
    """Build the decode trace for a registered LLM geometry
    (``gpt2`` / ``gpt2-xl`` / ``llama-7b``)."""
    return LlmDecodeSpec(llm_geometry(name), tokens=tokens, context=context,
                         layers=layers, elem_bytes=elem_bytes, stride=stride,
                         seed=seed)


def list_llm_workloads():
    """Registered LLM geometry names, in deterministic order."""
    return sorted(LLM_GEOMETRIES)
