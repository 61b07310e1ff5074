"""The seam envelope's one contract, and crash-atomic file writes.

A seam envelope is the state a :class:`~repro.mem.pipeline.TracePipeline`
captures at a chunk seam. It travels as a dict (a worker's upload, a
lease grant) and is kept only as a record of a coordinator journal
(:mod:`repro.distributed.journal`)::

    {"version": 1,                 # format version (this module bumps it)
     "kind": "trace-pipeline",     # the one kind of envelope
     "fingerprint": {...},         # identity of the computation
     "cursor": 1310720,            # resume position (request index)
     ...}                          # the pipeline's rewriter/session state

``fingerprint`` pins *what* was being computed (the trace spec, the
scheme set, the chunk size). The perf mode (fast vs ``REPRO_SCALAR=1``)
is deliberately **not** part of it: the two paths are bit-identical by
contract (the equivalence suites), so an envelope written by one
resumes under the other.
"""

from __future__ import annotations

import os
import tempfile
from typing import Dict

#: bump when the envelope or any producer's state layout changes
CHECKPOINT_VERSION = 1

#: the one kind of envelope: a trace pipeline's chunk-seam state
ENVELOPE_KIND = "trace-pipeline"


class CheckpointError(RuntimeError):
    """An envelope is malformed or does not match the computation it
    is being resumed against."""


def fsync_directory(path: str) -> None:
    """fsync a directory so a just-published rename survives a crash
    (POSIX only; silently a no-op where directories can't be opened)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - non-POSIX / exotic filesystems
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover
        pass
    finally:
        os.close(fd)


def validate_envelope(state: object, fingerprint: dict,
                      source: str = "envelope") -> Dict[str, object]:
    """Check a seam envelope: an object, of this build's version and the
    one kind, pinned to ``fingerprint`` (the computation resuming it),
    with an integer cursor ≥ 0. Returns the envelope; raises
    :class:`CheckpointError` otherwise. The pipeline's ``resume_from``
    and the coordinator's ``/v1/checkpoint`` both call it, so every
    envelope, wherever it travelled, passes the same checks."""
    if not isinstance(state, dict):
        raise CheckpointError(f"{source} is not an envelope object")
    version = state.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{source} has version {version!r}; this build reads "
            f"version {CHECKPOINT_VERSION}")
    if state.get("kind") != ENVELOPE_KIND:
        raise CheckpointError(
            f"{source} is a {state.get('kind')!r} envelope, "
            f"expected {ENVELOPE_KIND!r}")
    if state.get("fingerprint") != fingerprint:
        raise CheckpointError(
            f"{source} belongs to a different computation.\n"
            f"  envelope: {state.get('fingerprint')}\n"
            f"  expected: {fingerprint}")
    cursor = state.get("cursor")
    if not isinstance(cursor, int) or cursor < 0:
        raise CheckpointError(f"{source} has no usable cursor ({cursor!r})")
    return state


def atomic_write_text(path: str, data: str) -> None:
    """Crash-atomically publish ``data`` at ``path``: temp file in the
    target directory, flush + fsync, ``os.replace``, directory fsync.
    The shared discipline behind the result cache and the distributed
    coordinator's journal compaction — a crash at any point leaves
    either the old file or the new one, never a hybrid."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        fsync_directory(directory)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
