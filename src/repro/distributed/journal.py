"""Write-ahead journal for the sweep coordinator's durable state.

The coordinator's lease table is deliberately soft state — leases are
re-offered after a crash — but three transitions are *durable facts*
that must survive the coordinator process: a unit committed (with its
rows and ``rows_digest``), a pipeline unit's latest accepted checkpoint
envelope, and a unit answered from the result cache. This module
records exactly those, append-only, one self-delimiting JSON line per
record, fsync'd before the coordinator acknowledges anything built on
them — so a reply the fleet observed is never forgotten by a restart.

File layout::

    {"type": "header", "journal": 1, "fingerprint": ..., "epoch": N,
     "unit_keys": [...], "meta": {...}}
    {"type": "commit", "unit": 3, "digest": ..., "rows": <wire>,
     "worker": ..., "cached": false}
    {"type": "checkpoint", "unit": 7, "cursor": 655360, "state": {...}}
    ...

The header pins *what* the journal is about: the code fingerprint and
the content-addressed key of every unit. Recovery refuses a journal
whose header does not match the sweep being restarted — replaying rows
into a different job list or a different build would be silent
corruption, the exact failure the result cache's fingerprint already
guards against. ``meta`` is an opaque caller payload (``repro serve``
stores the originating job request there so a restarted daemon can
rebuild the flight from the journal alone).

Crash semantics:

* **Torn tail** — a crash mid-append leaves a final line without its
  newline (or with half its bytes). That line was never acknowledged,
  so it is truncated off and counted (``journal_truncated``), never
  trusted, never fatal.
* **Mid-file corruption** — a record that is neither the final line
  nor internally consistent (a commit whose rows don't hash to its
  digest) means the file itself is damaged; recovery refuses with
  :class:`JournalError` rather than resume from a lie.
* **Compaction** — recovery rewrites the journal as a fresh snapshot
  (header with a bumped epoch + one commit per done unit + the latest
  envelope per pending unit) via :func:`~repro.checkpoint.atomic_write_text`
  (temp + fsync + rename), so replay cost stays proportional to state, not
  history, and the epoch bump is itself durable before any worker can
  observe it.

Fault site: ``dist.journal`` fires once per append, *before* the
record's bytes reach the file — an exec action (``kill``) there models
a coordinator dying after acknowledging record N-1 but before durable
record N; the ``truncate`` data action writes half the record then
kills the process, manufacturing a torn tail exactly as a real
mid-``write(2)`` crash would.
"""

from __future__ import annotations

import json
import os
import signal
from typing import Dict, List, Optional, Tuple

from repro.checkpoint import atomic_write_text, fsync_directory
from repro.testing import faults

from .protocol import rows_digest, rows_from_wire

#: bump when the journal record layout changes
JOURNAL_VERSION = 1


class JournalError(RuntimeError):
    """The journal cannot be used: unreadable, mid-file corrupt, or it
    describes a different sweep/build than the one being recovered."""


class JournalState:
    """Everything replay recovers: header identity plus the durable
    per-unit facts (latest-wins for checkpoints, first-wins for
    commits — matching the coordinator's own idempotency rule)."""

    __slots__ = ("fingerprint", "unit_keys", "epoch", "meta",
                 "commits", "checkpoints", "truncated")

    def __init__(self, fingerprint: str, unit_keys: List[str], epoch: int,
                 meta: dict):
        self.fingerprint = fingerprint
        self.unit_keys = unit_keys
        self.epoch = epoch
        self.meta = meta
        #: unit index -> {"rows": wire, "digest": ..., "worker": ..., "cached": ...}
        self.commits: Dict[int, dict] = {}
        #: unit index -> latest envelope (cursor-monotonic)
        self.checkpoints: Dict[int, dict] = {}
        #: torn-tail lines truncated while loading
        self.truncated = 0


def _encode_record(record: dict) -> bytes:
    return (json.dumps(record, separators=(",", ":"),
                       sort_keys=True) + "\n").encode()


def _validate_commit(record: dict, n_units: int) -> None:
    unit = record.get("unit")
    if not (isinstance(unit, int) and 0 <= unit < n_units):
        raise JournalError(f"journal commit names unknown unit {unit!r}")
    digest = record.get("digest")
    rows = rows_from_wire(record.get("rows"))
    if rows_digest(rows) != digest:
        # rows that no longer hash to their recorded digest are damage
        # *inside* the file, not a torn tail — refuse, don't guess
        raise JournalError(
            f"journal commit for unit {unit} fails its rows_digest "
            f"(mid-file corruption)")


def _validate_checkpoint(record: dict, n_units: int) -> None:
    unit = record.get("unit")
    if not (isinstance(unit, int) and 0 <= unit < n_units):
        raise JournalError(f"journal checkpoint names unknown unit {unit!r}")
    cursor = record.get("cursor")
    if not isinstance(cursor, int) or cursor < 0:
        raise JournalError(f"journal checkpoint for unit {unit} has no "
                           f"usable cursor")
    if not isinstance(record.get("state"), dict):
        raise JournalError(f"journal checkpoint for unit {unit} carries no "
                           f"envelope")


def replay(path: str) -> Optional[JournalState]:
    """Load a journal into a :class:`JournalState`.

    Returns ``None`` when the file is absent or effectively empty (zero
    bytes, or nothing but a torn first line — a crash before the header
    ever became durable means there is nothing to recover; the file is
    truncated so a fresh header can be written). A torn *final* line is
    truncated off and counted. Anything structurally wrong earlier than
    the final line raises :class:`JournalError`.
    """
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except FileNotFoundError:
        return None
    except OSError as exc:
        raise JournalError(f"cannot read journal {path}: {exc}") from None

    keep = len(raw)
    truncated = 0
    # a torn tail is the suffix after the last newline; drop it first
    if raw and not raw.endswith(b"\n"):
        keep = raw.rfind(b"\n") + 1
        truncated += 1

    lines = raw[:keep].split(b"\n")[:-1] if keep else []
    records: List[dict] = []
    offset = 0
    for i, line in enumerate(lines):
        try:
            record = json.loads(line)
            if not isinstance(record, dict) or "type" not in record:
                raise ValueError("not a journal record")
        except ValueError:
            if i == len(lines) - 1:
                # a complete-looking but unparseable *final* line is the
                # same torn-tail case (e.g. a crash mid-write that
                # happened to land on a '\n' byte): truncate, count
                keep = offset
                truncated += 1
                break
            raise JournalError(
                f"journal {path} is corrupt at line {i + 1} "
                f"(mid-file damage, not a torn tail)") from None
        records.append(record)
        offset += len(line) + 1

    if truncated and keep < len(raw):
        with open(path, "r+b") as handle:
            handle.truncate(keep)
            handle.flush()
            os.fsync(handle.fileno())

    if not records:
        return None

    header = records[0]
    if header.get("type") != "header":
        raise JournalError(f"journal {path} does not start with a header")
    if header.get("journal") != JOURNAL_VERSION:
        raise JournalError(
            f"journal {path} has version {header.get('journal')!r}; this "
            f"build reads version {JOURNAL_VERSION}")
    unit_keys = header.get("unit_keys")
    epoch = header.get("epoch")
    if (not isinstance(unit_keys, list)
            or not all(isinstance(k, str) for k in unit_keys)
            or not isinstance(epoch, int) or epoch < 0):
        raise JournalError(f"journal {path} header is malformed")
    state = JournalState(str(header.get("fingerprint", "")),
                         list(unit_keys), epoch,
                         dict(header.get("meta") or {}))
    state.truncated = truncated

    for record in records[1:]:
        kind = record.get("type")
        if kind == "commit":
            _validate_commit(record, len(unit_keys))
            # first-write-wins, like the live coordinator: a duplicate
            # journal entry (possible if an append raced a crash and the
            # commit re-ran after recovery) never flips rows
            state.commits.setdefault(record["unit"], {
                "rows": record["rows"], "digest": record["digest"],
                "worker": record.get("worker", ""),
                "cached": bool(record.get("cached", False))})
        elif kind == "checkpoint":
            _validate_checkpoint(record, len(unit_keys))
            unit = record["unit"]
            prev = state.checkpoints.get(unit)
            if prev is None or record["cursor"] > prev.get("cursor", -1):
                state.checkpoints[unit] = dict(record["state"])
        elif kind == "header":
            raise JournalError(f"journal {path} has a second header")
        else:
            raise JournalError(f"journal {path} has an unknown record "
                               f"type {kind!r}")
    return state


class Journal:
    """An open, append-mode journal. Construct through
    :meth:`Journal.recover` (the only entry the coordinator uses): it
    replays what exists, validates identity, compacts with a bumped
    epoch, and leaves the file open for appends.
    """

    def __init__(self, path: str, epoch: int):
        self.path = path
        self.epoch = epoch
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        self._handle = open(path, "ab")
        self._append_index = 0
        self.counters: Dict[str, int] = {
            "journal_appends": 0,
            "journal_truncated": 0,
            "journal_replayed_units": 0,
        }

    # -- construction ------------------------------------------------------

    @classmethod
    def recover(cls, path: str, fingerprint: str,
                unit_keys: List[str],
                meta: Optional[dict] = None) -> Tuple["Journal", Optional[JournalState]]:
        """Open ``path`` for a sweep with the given identity.

        Missing/empty file → a fresh epoch-0 journal (header written
        durably before return). Existing file → replay, refuse a
        fingerprint or unit-key mismatch, compact to a snapshot with
        ``epoch + 1``, and return the replayed state so the coordinator
        can mark journaled units done and restore envelopes.
        """
        state = replay(path)
        if state is None:
            journal = cls(path, epoch=0)
            journal._write_header(fingerprint, unit_keys, 0, meta or {})
            return journal, None
        if state.fingerprint != fingerprint:
            raise JournalError(
                f"journal {path} was written by fingerprint "
                f"{state.fingerprint[:12]}…, this run is "
                f"{fingerprint[:12]}… — refusing to replay rows across "
                f"builds (delete the journal to start over)")
        if state.unit_keys != list(unit_keys):
            raise JournalError(
                f"journal {path} describes {len(state.unit_keys)} unit(s) "
                f"that do not match this sweep's {len(unit_keys)} — the job "
                f"list changed; refusing to replay (delete the journal to "
                f"start over)")
        epoch = state.epoch + 1
        compacted = [_encode_record({
            "type": "header", "journal": JOURNAL_VERSION,
            "fingerprint": fingerprint, "epoch": epoch,
            "unit_keys": list(unit_keys), "meta": state.meta or (meta or {}),
        })]
        for unit in sorted(state.commits):
            commit = state.commits[unit]
            compacted.append(_encode_record({
                "type": "commit", "unit": unit, "digest": commit["digest"],
                "rows": commit["rows"], "worker": commit["worker"],
                "cached": commit["cached"]}))
        for unit in sorted(state.checkpoints):
            if unit in state.commits:
                continue  # a committed unit's envelope is dead weight
            envelope = state.checkpoints[unit]
            compacted.append(_encode_record({
                "type": "checkpoint", "unit": unit,
                "cursor": envelope.get("cursor"), "state": envelope}))
        atomic_write_text(path, b"".join(compacted).decode())
        journal = cls(path, epoch=epoch)
        journal.counters["journal_truncated"] = state.truncated
        journal.counters["journal_replayed_units"] = len(state.commits)
        state.epoch = epoch
        return journal, state

    # -- appends -----------------------------------------------------------

    def _write_header(self, fingerprint: str, unit_keys: List[str],
                      epoch: int, meta: dict) -> None:
        self._append({"type": "header", "journal": JOURNAL_VERSION,
                      "fingerprint": fingerprint, "epoch": epoch,
                      "unit_keys": list(unit_keys), "meta": meta})

    def append_commit(self, unit: int, rows_wire: list, digest: str,
                      worker: str, cached: bool = False) -> None:
        self._append({"type": "commit", "unit": unit, "digest": digest,
                      "rows": rows_wire, "worker": worker, "cached": cached})

    def append_checkpoint(self, unit: int, cursor: int, state: dict) -> None:
        self._append({"type": "checkpoint", "unit": unit, "cursor": cursor,
                      "state": state})

    def _append(self, record: dict) -> None:
        data = _encode_record(record)
        self._fire_fault(data)
        self._handle.write(data)
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self.counters["journal_appends"] += 1

    def _fire_fault(self, data: bytes) -> None:
        """``dist.journal`` hook: exec actions (``kill``) crash before
        the record lands — acknowledged-at-N-1, dead-before-N; the
        ``truncate`` data action writes half the record, makes the torn
        bytes durable, then SIGKILLs — a crash mid-``write``."""
        if not faults.enabled():
            return
        index = self._append_index
        self._append_index += 1
        action = faults.check("dist.journal", index)
        if action == "truncate":
            self._handle.write(data[:max(1, len(data) // 2)])
            self._handle.flush()
            os.fsync(self._handle.fileno())
            os.kill(os.getpid(), signal.SIGKILL)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        if self._handle is not None:
            try:
                self._handle.flush()
                os.fsync(self._handle.fileno())
            except (OSError, ValueError):
                pass
            self._handle.close()
            self._handle = None
            fsync_directory(os.path.dirname(os.path.abspath(self.path)))

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def journal_meta(path: str) -> dict:
    """Read just the header ``meta`` payload (``repro serve`` uses this
    to rebuild a flight's job request from its journal on restart).
    Raises :class:`JournalError` when the journal is unusable or has no
    header."""
    state = replay(path)
    if state is None:
        raise JournalError(f"journal {path} has no durable header")
    return state.meta


__all__ = ["JOURNAL_VERSION", "Journal", "JournalError", "JournalState",
           "journal_meta", "replay"]
