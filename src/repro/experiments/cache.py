"""Content-addressed on-disk cache for sweep results.

A job's cache key is the SHA-256 of (executor name, canonical params,
code fingerprint). The fingerprint hashes every ``.py`` source file of
the :mod:`repro` package, so *any* change to the models, schemes, or
analysis code invalidates all cached rows — the cache can serve stale
numbers only if the code that produced them is byte-identical. Entries
are JSON files sharded by key prefix.

Durability: ``put`` publishes atomically (temp file, fsync, rename,
directory fsync), so a host crash leaves either the old entry or the
new one, never a truncated hybrid. ``get`` distinguishes a plain miss
(no file) from a *corrupt* entry: corruption is quarantined — the file
is renamed to ``<key>.json.corrupt`` and counted — so a damaged entry
is recomputed exactly once instead of being re-parsed (and re-missed)
on every future lookup, and the evidence is preserved for inspection.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Optional

from repro.checkpoint import atomic_write_text
from repro.experiments.jobs import Job
from repro.testing import faults

_ENV_DIR = "REPRO_SWEEP_CACHE_DIR"
_fingerprint_memo: Dict[str, str] = {}


def default_cache_dir() -> str:
    env = os.environ.get(_ENV_DIR)
    if env:
        return env
    base = os.environ.get("XDG_CACHE_HOME", os.path.join(os.path.expanduser("~"), ".cache"))
    return os.path.join(base, "repro", "sweeps")


def code_fingerprint(package_root: Optional[str] = None) -> str:
    """SHA-256 over the sorted (relative path, content hash) pairs of
    every Python source file under the repro package."""
    if package_root is None:
        import repro

        package_root = os.path.dirname(os.path.abspath(repro.__file__))
    if package_root in _fingerprint_memo:
        return _fingerprint_memo[package_root]
    entries = []
    for dirpath, dirnames, filenames in os.walk(package_root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fname in sorted(filenames):
            if not fname.endswith(".py"):
                continue
            path = os.path.join(dirpath, fname)
            with open(path, "rb") as f:
                digest = hashlib.sha256(f.read()).hexdigest()
            entries.append((os.path.relpath(path, package_root), digest))
    payload = json.dumps(entries, separators=(",", ":")).encode()
    fingerprint = hashlib.sha256(payload).hexdigest()
    _fingerprint_memo[package_root] = fingerprint
    return fingerprint


class ResultCache:
    """Maps jobs to previously computed row lists."""

    def __init__(self, directory: Optional[str] = None,
                 fingerprint: Optional[str] = None):
        self.directory = directory or default_cache_dir()
        self.fingerprint = fingerprint or code_fingerprint()
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self._puts = 0

    # -- keys --------------------------------------------------------------

    def key(self, job: Job) -> str:
        material = "\x1f".join((job.executor, job.params_json, self.fingerprint))
        return hashlib.sha256(material.encode()).hexdigest()

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, key[:2], key + ".json")

    # -- lookup / store ----------------------------------------------------

    def get(self, job: Job) -> Optional[List[Dict[str, object]]]:
        path = self._path(self.key(job))
        try:
            with open(path) as f:
                raw = f.read()
        except OSError:
            self.misses += 1
            return None
        try:
            payload = json.loads(raw)
            rows = payload["rows"]
            if not isinstance(rows, list) or not all(isinstance(r, dict) for r in rows):
                raise ValueError("malformed rows")
        except (ValueError, KeyError, TypeError):
            # the file exists but does not parse/validate: quarantine it
            # so the next lookup is a clean miss (recompute + rewrite)
            # and the damaged bytes stay inspectable
            self.corrupt += 1
            self.misses += 1
            try:
                os.replace(path, path + ".corrupt")
            except OSError:  # pragma: no cover - racing unlink/replace
                pass
            return None
        self.hits += 1
        return rows

    def put(self, job: Job, rows: List[Dict[str, object]]) -> None:
        path = self._path(self.key(job))
        payload = {
            "executor": job.executor,
            "params": job.params,
            "fingerprint": self.fingerprint,
            "rows": rows,
        }
        # atomic + durable publish: a host crash can never expose a
        # truncated entry under the final name
        atomic_write_text(path, json.dumps(payload))
        if faults.enabled():
            self._damage(path)
        self._puts += 1

    def _damage(self, path: str) -> None:
        """Fault-injection seam: optionally corrupt or truncate the
        entry just published (simulating torn writes on filesystems
        without the fsync discipline, or bit rot)."""
        action = faults.check("cache.put", self._puts)
        if action == "corrupt":
            with open(path, "r+") as f:
                f.seek(0)
                f.write("\x00garbage\x00")
        elif action == "truncate":
            size = os.path.getsize(path)
            with open(path, "r+") as f:
                f.truncate(max(1, size // 2))

    @property
    def counters(self) -> Dict[str, int]:
        """Machine-readable lookup/store ledger — the distributed
        coordinator re-exports this on ``/metrics`` so operators can see
        how much of a fleet's work the shared cache absorbed."""
        return {"hits": self.hits, "misses": self.misses,
                "corrupt": self.corrupt, "puts": self._puts}

    @property
    def stats(self) -> str:
        return (f"{self.hits} hits, {self.misses} misses, "
                f"{self.corrupt} corrupt ({self.directory})")
