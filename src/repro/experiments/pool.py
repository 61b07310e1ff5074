"""Shared worker-pool ownership.

Before ``repro serve``, every :class:`~repro.experiments.runner.Runner`
owned its process pool outright: created on first parallel batch, torn
down with the runner. A long-lived service runs *many* runners (one per
client flight) against *one* machine, so pool ownership moves here — a
:class:`WorkerPoolManager` owns the pools, runners borrow them, and the
service decides their lifetime:

* pools are ``ProcessPoolExecutor`` instances keyed by worker count,
  created on demand with every worker already started, so a warm-up
  call really pays the process start;
* a pool forked before the latest executor registration is rebuilt (a
  forked worker snapshots the registry, so late registrations would be
  invisible to it — the manager tracks
  :func:`~repro.experiments.jobs.registry_version` per pool);
* :meth:`invalidate` drops the pool a runner saw break (a dead worker
  fails its executor's unfinished futures with ``BrokenProcessPool``);
  it is rebuilt on next use, and a pool some other runner already
  replaced is left alone, so concurrent flights never tear down each
  other's fresh pool;
* a runner constructed *without* a manager gets a private one and keeps
  the historical semantics (its ``close()`` kills the pool); a runner
  constructed *with* a borrowed manager never kills shared pools on
  close — only the owner (the service) does, via :meth:`close`.

Thread safety: the service executes concurrent flights on worker
threads, each running a borrowed-pool ``Runner``; creation, rebuild and
invalidation are serialized under a lock. ``ProcessPoolExecutor.submit``
is thread-safe, so concurrent flights interleave their chunks on one
pool.
"""

from __future__ import annotations

import multiprocessing
import threading
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, Optional

from repro.experiments.jobs import registry_version


def _init_worker() -> None:
    # under a spawn start method the child starts with an empty executor
    # registry; importing the package re-populates it
    import repro.experiments  # noqa: F401


def _noop() -> None:
    pass


def _make_pool(workers: int, context: Optional[str] = None) -> ProcessPoolExecutor:
    methods = multiprocessing.get_all_start_methods()
    if context is None or context not in methods:
        context = "fork" if "fork" in methods else None
    pool = ProcessPoolExecutor(workers,
                               mp_context=multiprocessing.get_context(context),
                               initializer=_init_worker)
    # the executor starts workers lazily, on submission: one no-op per
    # worker starts them all now
    for _ in range(workers):
        pool.submit(_noop)
    return pool


class WorkerPoolManager:
    """Owns process pools that runners borrow by worker count.

    ``context`` picks the start method. ``None`` (the default) prefers
    ``fork`` — the cheapest option for a CLI run, and the registry plus
    loaded model zoo are inherited for free. A long-lived *server* must
    not fork its own process once clients are connected: every live
    connection fd (and the event loop's epoll registrations) would be
    duplicated into the workers, and writes on those connections can be
    lost. ``repro serve`` therefore passes ``forkserver``, which forks
    workers from a clean template process started before the first
    client ever connects — pool rebuilds mid-serve stay safe.
    """

    def __init__(self, context: Optional[str] = None):
        self.context = context
        self._pools: Dict[int, ProcessPoolExecutor] = {}
        self._versions: Dict[int, int] = {}
        self._lock = threading.Lock()

    # -- lending -----------------------------------------------------------

    def pool(self, workers: int) -> ProcessPoolExecutor:
        """The live pool for ``workers``, created or rebuilt on demand."""
        workers = max(1, int(workers))
        with self._lock:
            pool = self._pools.get(workers)
            if pool is not None and self._versions[workers] != registry_version():
                self._drop_locked(workers)
                pool = None
            if pool is None:
                pool = _make_pool(workers, self.context)
                self._pools[workers] = pool
                self._versions[workers] = registry_version()
            return pool

    def peek(self, workers: int) -> Optional[ProcessPoolExecutor]:
        """The pool for ``workers`` if one exists, without creating it."""
        return self._pools.get(max(1, int(workers)))

    # -- lifetime ----------------------------------------------------------

    def _drop_locked(self, workers: int) -> None:
        pool = self._pools.pop(workers, None)
        self._versions.pop(workers, None)
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def invalidate(self, pool: ProcessPoolExecutor) -> None:
        """Shut down ``pool``, the one a caller saw fail; it is rebuilt
        on next use. A no-op when this manager no longer holds it:
        another caller already replaced it, and the replacement may be
        serving other flights."""
        with self._lock:
            for workers, held in self._pools.items():
                if held is pool:
                    self._drop_locked(workers)
                    return

    def close(self) -> None:
        """Shut down every pool. The manager stays usable (pools are
        rebuilt on demand), so this is safe to call between bursts of
        work as well as at shutdown."""
        with self._lock:
            for workers in list(self._pools):
                self._drop_locked(workers)

    @property
    def active_workers(self) -> int:
        """Total worker capacity across live pools (the occupancy half
        of the service capacity model). Pools are keyed by the worker
        count they were built with, so the keys *are* the capacity —
        and a pool that has been invalidated stops counting the moment
        it leaves ``_pools`` instead of lingering as phantom
        capacity."""
        with self._lock:
            return sum(self._pools)

    def __enter__(self) -> "WorkerPoolManager":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - interpreter-shutdown timing
        try:
            self.close()
        except Exception:
            pass
