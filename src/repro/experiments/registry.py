"""Named-sweep registry.

The benchmark harnesses and ``repro sweep`` resolve sweeps by name
here, so every paper artifact has exactly one definition of its grid.
A registered sweep is a builder returning a job list (or a
:class:`SweepSpec`), plus an optional post-processing step applied to
the finished table (e.g. joining in normalized execution time).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.experiments.cache import ResultCache
from repro.experiments.jobs import Job
from repro.experiments.runner import Runner
from repro.experiments.spec import SweepSpec
from repro.experiments.table import ResultTable

BuildResult = Union[SweepSpec, List[Job]]


@dataclass(frozen=True)
class SweepDefinition:
    name: str
    title: str
    build: Callable[[], BuildResult]
    columns: Optional[Sequence[str]] = None
    post: Optional[Callable[[ResultTable], ResultTable]] = None

    def jobs(self) -> List[Job]:
        built = self.build()
        if isinstance(built, SweepSpec):
            return built.jobs()
        return list(built)


_SWEEPS: Dict[str, SweepDefinition] = {}


def register_sweep(name: str, title: str = "",
                   columns: Optional[Sequence[str]] = None,
                   post: Optional[Callable[[ResultTable], ResultTable]] = None):
    """Decorator registering a build function as a named sweep."""

    def register(build: Callable[[], BuildResult]) -> Callable[[], BuildResult]:
        if name in _SWEEPS:
            raise ValueError(f"sweep {name!r} already registered")
        _SWEEPS[name] = SweepDefinition(name=name, title=title or name,
                                        build=build, columns=columns, post=post)
        return build

    return register


def get_sweep(name: str) -> SweepDefinition:
    try:
        return _SWEEPS[name]
    except KeyError:
        raise KeyError(f"unknown sweep {name!r}; known: {', '.join(sorted(_SWEEPS))}")


def list_sweeps() -> List[SweepDefinition]:
    return [_SWEEPS[name] for name in sorted(_SWEEPS)]


#: process-wide default caches, one per directory, so stats aggregate
#: across every run_sweep() call of a session
_default_caches: Dict[str, ResultCache] = {}


def default_cache() -> ResultCache:
    """The shared default cache (created on first use per directory)."""
    from repro.experiments.cache import default_cache_dir

    directory = default_cache_dir()
    if directory not in _default_caches:
        _default_caches[directory] = ResultCache(directory)
    return _default_caches[directory]


def _resolve_cache(cache: Union[bool, ResultCache, None]) -> Optional[ResultCache]:
    if cache is True:
        return default_cache()
    return cache or None


#: process-wide runners, one per (workers, shared-cache) configuration:
#: the persistent worker pool inside a Runner then serves every sweep of
#: a session instead of being forked per call. Only the process-held
#: cache singletons (None or a ``default_cache()`` instance) are
#: memoized — a caller-supplied ResultCache gets a fresh short-lived
#: Runner, so the table stays bounded and never pins caller objects.
_shared_runners: Dict[tuple, Runner] = {}


def _shared_runner(workers: Optional[int], cache: Optional[ResultCache]) -> Runner:
    from repro.experiments.runner import default_workers

    resolved = default_workers() if workers is None else max(1, int(workers))
    if cache is not None and cache not in _default_caches.values():
        return Runner(workers=resolved, cache=cache)
    key = (resolved, id(cache))
    if key not in _shared_runners:
        _shared_runners[key] = Runner(workers=resolved, cache=cache)
    return _shared_runners[key]


def run_sweep(name: str, workers: Optional[int] = None,
              cache: Union[bool, ResultCache, None] = None,
              runner: Optional[Runner] = None) -> ResultTable:
    """Run a registered sweep to a finished :class:`ResultTable`.

    ``cache`` controls the *on-disk* result cache: False or None (skip
    it), True (the shared default), or a :class:`ResultCache` instance.
    On the fast path an in-memory first-level cache in the runner also
    serves repeated jobs within the process; ``repro.perf.scalar_mode``
    bypasses and drops it, keeping scalar benchmark timings honest.
    """
    definition = get_sweep(name)
    if runner is None:
        runner = _shared_runner(workers, _resolve_cache(cache))
    table = runner.run(definition.jobs(), columns=definition.columns)
    if definition.post is not None:
        table = definition.post(table)
    return table
