"""In-memory spans for the traced run.

A span is recorded around each call the benchmark makes into a layer:
name, start, end, parent span, and the id of the operation (pipeline
pass, sweep, service request) it belongs to. Spans stay in memory and
are written out once, at the end of the run. A layer's self time is
its spans' duration minus the part covered by their child spans.

The wrappers replace methods on *instances* (a pipeline's rewriters,
its controller sessions, its trace source), so nothing outside the
traced run is affected. ``FastSetAssociativeCache`` has ``__slots__``,
so its call counter is a class-level wrapper installed only for the
duration of a ``with count_calls(...)`` block.
"""

from __future__ import annotations

import collections
import itertools
import threading
import time
from contextlib import contextmanager
from typing import Dict, List, Optional


class Tracer:
    """Collects spans (thread-safe: each thread keeps its own stack)."""

    def __init__(self):
        self.spans: List[dict] = []
        self.counts: collections.Counter = collections.Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self.origin = time.perf_counter()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, op: Optional[int] = None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = {
            "id": next(self._ids),
            "name": name,
            "parent": parent["id"] if parent else None,
            "op": op if op is not None else (parent["op"] if parent else None),
            "start": time.perf_counter() - self.origin,
            "end": None,
        }
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self.origin
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def wrap(self, obj, attr: str, name: str) -> None:
        """Replace ``obj.attr`` (a bound method) with a spanned call."""
        inner = getattr(obj, attr)

        def traced(*args, **kwargs):
            with self.span(name):
                return inner(*args, **kwargs)

        setattr(obj, attr, traced)

    # -- reduction ---------------------------------------------------------

    def self_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, total and self seconds."""
        child_time: Dict[int, float] = collections.defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        out: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            entry = out.setdefault(span["name"],
                                   {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            duration = span["end"] - span["start"]
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - child_time.get(span["id"], 0.0)
        return out


@contextmanager
def count_calls(tracer: Tracer, cls, methods):
    """Count calls to ``cls.<method>`` into ``tracer.counts`` under
    ``"<ClassName>.<method>"``; the class is restored on exit."""
    originals = {name: cls.__dict__[name] for name in methods}

    def counted(name, original):
        key = f"{cls.__name__}.{name}"

        def wrapper(self, *args, **kwargs):
            tracer.counts[key] += 1
            return original(self, *args, **kwargs)

        return wrapper

    for name, original in originals.items():
        setattr(cls, name, counted(name, original))
    try:
        yield
    finally:
        for name, original in originals.items():
            setattr(cls, name, original)


def layer_report(tracer: Tracer, traced_wall_s: float, ops: int,
                 rows: List[dict], overhead_frac: float) -> str:
    """The per-layer table as markdown: every span name's calls, self
    time and share of all root-span time (concurrent clients make that
    exceed the wall time), then the per-layer metrics (``rows`` of
    name/value/unit/base), then the tracing overhead."""
    root_s = sum(span["end"] - span["start"] for span in tracer.spans
                 if span["parent"] is None)
    lines = [f"traced wall {traced_wall_s:.3f} s over {ops} operation(s); "
             f"root spans {root_s:.3f} s", "",
             "| span | calls | self s | self s / op | share of root-span time |",
             "|---|---:|---:|---:|---:|"]
    times = tracer.self_times()
    for name, entry in sorted(times.items(), key=lambda kv: -kv[1]["self_s"]):
        share = entry["self_s"] / root_s if root_s else 0.0
        lines.append(f"| {name} | {entry['calls']} | {entry['self_s']:.4f} | "
                     f"{entry['self_s'] / max(ops, 1):.4f} | {share:.1%} |")
    lines += ["", "| metric | value | unit | base |", "|---|---:|---|---|"]
    for row in rows:
        lines.append(f"| {row['name']} | {row['value']:.6g} | {row['unit']} | "
                     f"{row['base']} |")
    lines += ["", f"trace.overhead_frac = {overhead_frac:+.4f} "
              "(traced wall / untraced wall - 1, same operations)"]
    return "\n".join(lines)
