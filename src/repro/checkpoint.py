"""Versioned, atomic on-disk checkpoints.

A checkpoint is one JSON envelope, kept as a file here or as a record
of a coordinator journal (:mod:`repro.distributed.journal`)::

    {"version": 1,                 # format version (this module bumps it)
     "kind": "trace-pipeline",     # what produced it
     "fingerprint": {...},         # identity of the computation
     "meta": {...},                # optional caller payload
     "cursor": 1310720,            # resume position (request index)
     ...}                          # producer-specific state

``fingerprint`` pins *what* was being computed (the trace spec, the
scheme set, the chunk size); a loader refuses to resume state against a
different computation. The perf mode (fast vs ``REPRO_SCALAR=1``) is
deliberately **not** part of the fingerprint: the two paths are
bit-identical by contract (the equivalence suites), so a checkpoint
written by one resumes under the other.

Writes are crash-atomic: the payload goes to a temp file in the target
directory, is flushed and fsynced, then published with ``os.replace``;
on POSIX the directory is fsynced too, so a host crash leaves either
the old checkpoint or the new one — never a truncated hybrid. This is
the same discipline the result cache uses
(:meth:`repro.experiments.cache.ResultCache.put`).
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Dict, Optional

#: bump when the envelope or any producer's state layout changes
CHECKPOINT_VERSION = 1


class CheckpointError(RuntimeError):
    """A checkpoint could not be loaded or does not match the
    computation it is being resumed against."""


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


def seal_envelope(state: Dict[str, object]) -> Dict[str, object]:
    """A copy of ``state`` stamped with this build's envelope version —
    the exact payload :func:`save_checkpoint` persists. Callers that
    ship an envelope somewhere other than disk (the distributed tier
    migrates them to the coordinator over HTTP) seal it the same way so
    every envelope, wherever it travels, validates identically."""
    payload = dict(state)
    payload["version"] = CHECKPOINT_VERSION
    return payload


def validate_envelope(state: object, kind: Optional[str] = None,
                      source: str = "checkpoint") -> Dict[str, object]:
    """Envelope-validate an already-parsed checkpoint payload: it must
    be an object, speak this build's version, and (when ``kind`` is
    given) be the right kind of checkpoint. Returns the state; raises
    :class:`CheckpointError` otherwise. Shared by :func:`load_checkpoint`
    and the distributed coordinator's ``/v1/checkpoint`` endpoint, so an
    envelope corrupted in flight is rejected with the same rules as one
    corrupted on disk."""
    if not isinstance(state, dict):
        raise CheckpointError(f"corrupt {source}: not an object")
    version = state.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{source} has version {version!r}; this build reads "
            f"version {CHECKPOINT_VERSION}")
    if kind is not None and state.get("kind") != kind:
        raise CheckpointError(
            f"{source} is a {state.get('kind')!r} checkpoint, "
            f"expected {kind!r}")
    return state


def atomic_write_text(path: str, data: str) -> None:
    """Crash-atomically publish ``data`` at ``path``: temp file in the
    target directory, flush + fsync, ``os.replace``, directory fsync.
    The shared discipline behind checkpoints, the result cache, and the
    distributed coordinator's journal compaction — a crash at any point
    leaves either the old file or the new one, never a hybrid."""
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


def save_checkpoint(path: str, state: Dict[str, object]) -> None:
    """Atomically write ``state`` (adding the version field) to ``path``."""
    atomic_write_text(path, json.dumps(seal_envelope(state)))


def load_checkpoint(path: str, kind: Optional[str] = None) -> Dict[str, object]:
    """Load and envelope-validate a checkpoint. Raises
    :class:`CheckpointError` for a missing/corrupt file, a version this
    code does not speak, or (when ``kind`` is given) the wrong kind."""
    try:
        with open(path, "r") as handle:
            state = json.load(handle)
    except OSError as error:
        raise CheckpointError(f"cannot read checkpoint {path}: {error}") from None
    except ValueError as error:
        raise CheckpointError(f"corrupt checkpoint {path}: {error}") from None
    return validate_envelope(state, kind=kind, source=f"checkpoint {path}")
