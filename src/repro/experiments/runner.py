"""The sweep runner: two-level cache lookup, a borrowed persistent
process pool, and deterministic reassembly.

Execution contract:

* rows come back in *job order*, regardless of worker count or which
  jobs were cache hits — a sweep's ResultTable is bit-identical for
  ``workers=1`` and ``workers=N``;
* only cache *misses* are dispatched to workers; hits are served first
  from the in-memory first-level cache (process-wide, keyed by job,
  fast-path only), then from disk, without touching a process pool;
* worker pools are owned by a :class:`~repro.experiments.pool.WorkerPoolManager`
  and borrowed by the runner — a runner built without one gets a
  private manager (historical semantics: ``close()`` kills the pool),
  while ``repro serve`` hands every flight's runner one shared manager
  so the service owns pool lifetime. A lone job runs in-process only
  under a private manager; a borrowed pool gets it, keeping the work
  off the owner's interpreter lock. Worker processes are forked where
  the platform allows, so the executor registry and the loaded model
  zoo are inherited rather than re-imported per job;
* jobs cross the process boundary as chunked SoA payloads (executor
  names + params strings in parallel tuples) and rows come back as
  (schema, value-row) pairs instead of per-row dicts, so a chunk is a
  handful of pickles rather than one per row;
* a job raising inside a batch surfaces as :class:`JobExecutionError`
  naming the failing executor and params; rows of jobs that *did*
  complete in the batch are persisted to both cache levels before the
  error propagates. The job's exception was caught inside the worker,
  so the pool is healthy and stays up;
* a worker that *dies* (SIGKILL, OOM-killer, segfault) does not lose
  the sweep: its ``ProcessPoolExecutor`` fails every unfinished chunk
  with ``BrokenProcessPool``, the runner invalidates that pool and
  resubmits only the unfinished chunks to a fresh one, at most twice
  per batch. This recovery is always on and has no settings.
  Recoveries are counted in module-level counters
  (:func:`recovery_counts`) that ``repro serve`` exports as metrics.

``default_workers()`` resolves the worker count: the
``REPRO_SWEEP_WORKERS`` environment variable wins (validated — a
non-numeric or non-positive value is a configuration error, reported as
such rather than a raw traceback or a silent clamp); otherwise it falls
back to ``os.cpu_count()`` capped at 8 (minimum 1).
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import wait
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import repro.experiments.executors  # noqa: F401 — populate the executor registry
from repro import perf
from repro.experiments.cache import ResultCache
from repro.experiments.jobs import Job, execute_job
from repro.experiments.pool import WorkerPoolManager, _init_worker  # noqa: F401 — re-exported
from repro.experiments.spec import SweepSpec
from repro.experiments.table import ResultTable
from repro.testing import faults

_ENV_WORKERS = "REPRO_SWEEP_WORKERS"
_MAX_DEFAULT_WORKERS = 8


def default_workers() -> int:
    env = os.environ.get(_ENV_WORKERS)
    if env is not None and env.strip():
        try:
            workers = int(env.strip())
        except ValueError:
            raise ValueError(
                f"{_ENV_WORKERS}={env!r} is not an integer; set it to a "
                f"positive worker count (e.g. {_ENV_WORKERS}=4) or unset "
                "it to use the cpu-count default") from None
        if workers < 1:
            raise ValueError(
                f"{_ENV_WORKERS}={workers} is not a valid worker count "
                "(a sweep needs at least one worker); set it to a "
                "positive integer or unset it to use the cpu-count "
                "default")
        return workers
    return max(1, min(_MAX_DEFAULT_WORKERS, os.cpu_count() or 1))


class JobExecutionError(RuntimeError):
    """A job raised while its batch was executing.

    Carries the failing job's identity (executor name + canonical
    params — enough to reproduce it with ``execute_job``), the original
    cause rendered as a string (tracebacks don't survive the process
    boundary), and the ``(batch position, rows)`` pairs of every job in
    the batch that *did* complete, so the runner can persist them
    before propagating.
    """

    def __init__(self, executor: str, params_json: str, cause: str,
                 completed: Sequence[Tuple[int, List[dict]]] = ()):
        self.job = Job(executor, params_json)
        self.cause = cause
        self.completed: List[Tuple[int, List[dict]]] = list(completed)
        super().__init__(
            f"sweep job failed: executor={executor!r} params={params_json} "
            f"— {cause} ({len(self.completed)} completed job(s) in the "
            "batch preserved)")


# -- recovery accounting ---------------------------------------------------

#: resubmissions of a batch's unfinished chunks after a failure outside
#: a job, before the batch fails with :class:`JobExecutionError`
_REDISPATCHES = 2

#: process-wide recovery counters: how many times a pool was invalidated
#: after a failure outside a job, and how many chunks had to be
#: re-dispatched. ``repro serve`` surfaces these on ``/metrics``.
_RECOVERY_LOCK = threading.Lock()
_RECOVERY: Dict[str, int] = {"worker_restarts": 0, "chunk_retries": 0}


def note_recovery(key: str, count: int = 1) -> None:
    with _RECOVERY_LOCK:
        _RECOVERY[key] = _RECOVERY.get(key, 0) + count


def recovery_counts() -> Dict[str, int]:
    """A snapshot of the recovery counters (thread-safe copy)."""
    with _RECOVERY_LOCK:
        return dict(_RECOVERY)


#: in-memory first-level result cache, in front of the on-disk
#: ResultCache: executors are pure functions of their params, so within
#: one process a job's rows never change while the fast path is on.
#: Rows are copied in and out — callers (and table post-processing) may
#: mutate what they receive. Eviction is LRU: lookups re-append their
#: key (dict insertion order is the recency order) and an overflowing
#: put evicts oldest-first, so a hot entry survives a long sweep
#: instead of being wiped with the whole table.
_MEMORY_CACHE: Dict[Job, List[dict]] = {}
_MEMORY_CACHE_LIMIT = 4096

perf.register_cache(_MEMORY_CACHE.clear)


def _copy_rows(rows: List[dict]) -> List[dict]:
    """One-level-deep row copies (row values are JSON scalars, dicts,
    or lists per the executor contract)."""
    return [
        {key: (dict(value) if isinstance(value, dict)
               else list(value) if isinstance(value, list) else value)
         for key, value in row.items()}
        for row in rows
    ]


def _memory_get(job: Job) -> Optional[List[dict]]:
    if not perf.fast_enabled():
        return None
    rows = _MEMORY_CACHE.get(job)
    if rows is None:
        return None
    # LRU touch: move the key to the recent end of the insertion order
    _MEMORY_CACHE[job] = _MEMORY_CACHE.pop(job)
    return _copy_rows(rows)


def _memory_put(job: Job, rows: List[dict]) -> None:
    if not perf.fast_enabled():
        return
    if job in _MEMORY_CACHE:
        _MEMORY_CACHE.pop(job)  # re-insert at the recent end
    else:
        while len(_MEMORY_CACHE) >= _MEMORY_CACHE_LIMIT:
            _MEMORY_CACHE.pop(next(iter(_MEMORY_CACHE)))
    _MEMORY_CACHE[job] = _copy_rows(rows)


def recall_rows(job: Job, cache: Optional[ResultCache] = None) -> Optional[List[dict]]:
    """Two-level cache lookup for one job (memory first, then disk,
    promoting disk hits into memory) — the same path :meth:`Runner.run`
    serves hits from, shared with the distributed coordinator so a
    distributed sweep sees exactly the cache state a local one would."""
    rows = _memory_get(job)
    if rows is None and cache is not None:
        rows = cache.get(job)
        if rows is not None:
            _memory_put(job, rows)
    return rows


def recall_unit(jobs: Sequence[Job], cache: Optional[ResultCache] = None
                ) -> Optional[List[List[dict]]]:
    """All-or-nothing :func:`recall_rows` over a distributed work unit:
    every job's rows, or None at the first miss (the unit must then be
    computed). The coordinator and ``repro work`` both answer units
    from it."""
    rows_per_job = []
    for job in jobs:
        rows = recall_rows(job, cache)
        if rows is None:
            return None
        rows_per_job.append(rows)
    return rows_per_job


def remember_rows(job: Job, rows: List[dict],
                  cache: Optional[ResultCache] = None) -> None:
    """Commit one job's rows through both cache levels (memory always,
    disk when a cache is given) — the single commit path for locally
    computed, recovered, and remotely committed results."""
    _memory_put(job, rows)
    if cache is not None:
        cache.put(job, rows)


# -- SoA chunk payloads ----------------------------------------------------


def _encode_rows(rows_per_job: List[List[dict]]):
    """Pack a chunk's row dicts as (schemas, per-row (schema, values))
    so repeated keys are pickled once per schema instead of once per
    row; key order per row is preserved exactly."""
    schemas: List[Tuple[str, ...]] = []
    schema_index: Dict[Tuple[str, ...], int] = {}
    encoded = []
    for rows in rows_per_job:
        packed = []
        for row in rows:
            keys = tuple(row)
            index = schema_index.get(keys)
            if index is None:
                index = schema_index[keys] = len(schemas)
                schemas.append(keys)
            packed.append((index, tuple(row.values())))
        encoded.append(packed)
    return schemas, encoded


def _decode_rows(payload) -> List[List[dict]]:
    schemas, encoded = payload
    return [[dict(zip(schemas[index], values)) for index, values in packed]
            for packed in encoded]


def _describe_error(error: BaseException) -> str:
    return f"{type(error).__name__}: {error}"


def _run_chunk(chunk):
    """Worker entry point: execute a chunk of jobs shipped as parallel
    tuples; the fast/scalar mode travels with the chunk so a pool forked
    in one mode honours the caller's current mode.

    Returns ``(payload, error)`` — payload encodes the rows of every
    job that completed (in order, stopping at the first failure) and
    ``error`` is ``None`` or ``(offset, executor, params_json, cause)``
    identifying the job that raised. Exceptions are caught per job so a
    failure surfaces as data instead of poisoning ``pool.map`` and
    losing the whole batch.
    """
    index, executors, params, fast = chunk
    if faults.enabled():
        # worker fault site: a plan targeting ``worker.chunk`` should
        # normally carry ``once_file`` — forked workers each inherit
        # their own copy of the in-process fired counter, so only the
        # cross-process marker guarantees exactly-once firing
        faults.fire("worker.chunk", index)
    if perf.fast_enabled() != fast:
        perf.set_fast(fast)
    rows_per_job: List[List[dict]] = []
    error = None
    for offset, (executor, params_json) in enumerate(zip(executors, params)):
        try:
            rows_per_job.append(execute_job(Job(executor, params_json)))
        except Exception as exc:
            error = (offset, executor, params_json, _describe_error(exc))
            break
    return _encode_rows(rows_per_job), error


class Runner:
    """Executes job lists (or specs) into result tables."""

    def __init__(self, workers: Optional[int] = None,
                 cache: Optional[ResultCache] = None,
                 chunksize: Optional[int] = None,
                 pool_manager: Optional[WorkerPoolManager] = None):
        self.workers = default_workers() if workers is None else max(1, int(workers))
        self.cache = cache
        self.chunksize = chunksize
        # borrowed manager: the caller (the service) owns pool lifetime;
        # no manager: a private one is created lazily and close() kills it
        self._manager = pool_manager
        self._owns_manager = pool_manager is None

    # -- the borrowed pool --------------------------------------------------

    @property
    def _pool(self):
        """The live pool for this runner's worker count (or ``None``) —
        introspection only; execution goes through :meth:`_ensure_pool`."""
        return None if self._manager is None else self._manager.peek(self.workers)

    def _ensure_pool(self):
        if self._manager is None:
            self._manager = WorkerPoolManager()
        return self._manager.pool(self.workers)

    def close(self) -> None:
        """Tear the worker pool down (it is rebuilt on demand). A
        borrowed :class:`WorkerPoolManager` is left untouched — shared
        pools outlive any one runner and are closed by their owner."""
        if self._manager is not None and self._owns_manager:
            self._manager.close()

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - interpreter-shutdown timing
        try:
            self.close()
        except Exception:
            pass

    # -- execution ---------------------------------------------------------

    def _map_with_recovery(self, chunks):
        """Run every chunk through the pool, surviving lost workers.

        A worker that dies abruptly (SIGKILL, OOM-killer, segfault)
        breaks its ``ProcessPoolExecutor``: every future left
        unfinished fails with ``BrokenProcessPool``, while futures that
        completed keep their results. Each round submits the unfinished
        chunks and keeps every result that came back. On any failure
        outside a job — a broken pool, or ``_run_chunk`` itself raising
        — that pool is invalidated and only the unfinished chunks are
        resubmitted to a fresh one, ``_REDISPATCHES`` times. Chunks are
        pure functions of their payload, so a redispatch cannot change
        the sweep's rows.

        Returns ``(results, failure)``: one ``_run_chunk`` result per
        chunk, ``None`` where a chunk never finished, and ``None`` or
        the ``(executor, params_json, cause)`` of a job in the first
        unfinished chunk once the budget is spent.
        """
        results: List[object] = [None] * len(chunks)
        redispatches = 0
        while True:
            pool = self._ensure_pool()
            futures = {}
            failure: Optional[Exception] = None
            try:
                for i, chunk in enumerate(chunks):
                    if results[i] is None:
                        futures[i] = pool.submit(_run_chunk, chunk)
            except Exception as error:  # broken or shut down under us
                failure = error
            wait(futures.values())
            for i, future in futures.items():
                try:
                    results[i] = future.result()
                except Exception as error:
                    failure = failure or error
            if failure is None:
                return results, None
            self._manager.invalidate(pool)
            note_recovery("worker_restarts")
            if redispatches == _REDISPATCHES:
                index = results.index(None)
                _, executors, params, _ = chunks[index]
                return results, (
                    executors[0], params[0],
                    f"worker lost or failed outside a job; chunk {index} "
                    f"unfinished after {_REDISPATCHES} redispatch(es): "
                    f"{_describe_error(failure)}")
            redispatches += 1
            note_recovery("chunk_retries", results.count(None))

    def _execute_batch(self, jobs: Sequence[Job]) -> List[List[dict]]:
        # a lone job skips a pool this runner would have to start, but
        # not a borrowed one: that pool is warm, and its owner (the
        # service) wants the work off its own interpreter lock
        if (self.workers <= 1 or not jobs
                or (len(jobs) == 1 and self._owns_manager)):
            results: List[List[dict]] = []
            for job in jobs:
                try:
                    results.append(execute_job(job))
                except Exception as exc:
                    raise JobExecutionError(
                        job.executor, job.params_json, _describe_error(exc),
                        completed=list(enumerate(results))) from exc
            return results
        chunksize = self.chunksize or max(1, math.ceil(len(jobs) / (self.workers * 2)))
        fast = perf.fast_enabled()
        chunks = [
            (i // chunksize,
             tuple(job.executor for job in jobs[i:i + chunksize]),
             tuple(job.params_json for job in jobs[i:i + chunksize]),
             fast)
            for i in range(0, len(jobs), chunksize)
        ]
        mapped, failure = self._map_with_recovery(chunks)
        completed: List[Tuple[int, List[dict]]] = []
        for chunk_index, result in enumerate(mapped):
            if result is None:
                continue
            payload, error = result
            base = chunk_index * chunksize
            for offset, rows in enumerate(_decode_rows(payload)):
                completed.append((base + offset, rows))
            if error is not None and failure is None:
                offset, executor, params_json, cause = error
                failure = (executor, params_json, cause)
        if failure is not None:
            raise JobExecutionError(*failure, completed=completed)
        return [rows for _, rows in completed]

    def compute_rows(self, jobs: Sequence[Job]) -> List[List[dict]]:
        """Execute ``jobs`` (no cache interaction) and return each job's
        rows, in job order. This is the raw execution engine — chunked
        over the worker pool with lost-worker recovery — exposed for
        callers that manage caching themselves (the distributed worker
        and the coordinator's local fallback)."""
        return self._execute_batch(list(jobs))

    def run(self, jobs: Union[SweepSpec, Iterable[Job]],
            columns: Optional[Sequence[str]] = None) -> ResultTable:
        if isinstance(jobs, SweepSpec):
            jobs = jobs.jobs()
        jobs = list(jobs)

        rows_by_index: dict = {}
        miss_indices: List[int] = []
        for i, job in enumerate(jobs):
            cached = recall_rows(job, self.cache)
            if cached is None:
                miss_indices.append(i)
            else:
                rows_by_index[i] = cached

        try:
            computed = self._execute_batch([jobs[i] for i in miss_indices])
        except JobExecutionError as error:
            # jobs that completed before the failure are not recomputed
            # on retry: persist them through both cache levels first
            for position, rows in error.completed:
                remember_rows(jobs[miss_indices[position]], rows, self.cache)
            raise
        for i, rows in zip(miss_indices, computed):
            remember_rows(jobs[i], rows, self.cache)
            rows_by_index[i] = rows

        table = ResultTable(columns=columns)
        for i in range(len(jobs)):
            table.extend(rows_by_index[i])
        return table
