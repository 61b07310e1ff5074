"""Deterministic, plan-driven fault injection.

Chaos testing is only useful when a failure reproduces: this module
replaces "kill a random worker sometime" with a *plan* — an explicit
list of fault points, each naming a **site** (an instrumented location
in the code), the **index** at which it fires (the site's own call or
chunk counter), and an **action**. The same plan against the same
workload fails the same way every time.

Sites instrumented in this repo:

===================  =====================================================
``worker.chunk``      a sweep worker about to execute chunk *index*
                      (:func:`repro.experiments.runner._run_chunk`)
``pipeline.chunk``    the pipeline about to process chunk *index*
                      (:meth:`repro.mem.pipeline.TracePipeline.run`)
``rewriter.rewrite``  a trace rewriter entering ``rewrite_batch`` call
                      *index*
``cache.put``         the result cache about to publish entry *index*
                      (action ``corrupt``/``truncate`` damages the
                      entry instead of crashing)
``service.flight``    a service flight about to start (index = flight
                      sequence number)
``dist.lease``        a distributed worker sending lease request *index*
                      (:mod:`repro.distributed.client`)
``dist.heartbeat``    a distributed worker sending heartbeat *index*
``dist.result``       a distributed worker submitting result *index*
``dist.unit``         a distributed worker about to execute leased unit
                      *index* (action ``raise`` models the worker dying
                      mid-lease)
``dist.checkpoint``   a distributed worker uploading chunk-seam
                      checkpoint envelope *index* (``corrupt`` damages
                      the envelope in flight — the coordinator must
                      reject it; ``kill`` models dying at a seam after
                      earlier envelopes migrated)
``dist.deregister``   a distributed worker announcing a graceful drain
``dist.journal``      the coordinator about to append journal record
                      *index* (:mod:`repro.distributed.journal`).
                      ``kill`` crashes the coordinator *before* the
                      record lands — the acknowledged-at-N-1 /
                      dead-before-N case; ``truncate`` writes half the
                      record, fsyncs the torn bytes, then SIGKILLs —
                      manufacturing a torn journal tail exactly as a
                      crash mid-``write(2)`` would
===================  =====================================================

The ``dist.*`` sites model the *network*, so their data actions are
message-level: ``drop`` (request never delivered), ``sever`` (request
delivered, response lost — the lost-ack case that makes at-least-once
delivery observable), ``delay`` (delivered late), ``duplicate``
(delivered twice). Each distributed site is also checked under a
worker-scoped alias ``<site>@<worker-name>``, so a plan can partition
one worker of many in the same process.

Actions ``raise`` / ``kill`` (SIGKILL self) / ``sigterm`` (SIGTERM
self) are executed *by* :func:`fire`; data actions (``corrupt``,
``truncate``, ``drop``, ``delay``, ``duplicate``, ``sever``) are
returned by :func:`check` for the call site to apply — damaging a JSON
file is the cache's business, and losing a message is the network
client's, not this module's.

Plan format (JSON-serializable)::

    {"points": [
        {"site": "worker.chunk", "at": 2, "action": "kill",
         "once_file": "/tmp/killed-once"},
        {"site": "rewriter.rewrite", "at": 1, "action": "raise"},
        {"site": "cache.put", "at": 0, "action": "corrupt"}
    ]}

``at`` is the site index to match (omit to match every call);
``times`` caps in-process firings (default 1; ``null`` = unlimited);
``once_file`` makes a fault fire **at most once across processes**:
firing requires atomically creating the file (``O_CREAT | O_EXCL``),
so when a killed chunk is re-dispatched with the *same* index to a
fresh worker, the replacement does not die again — exactly the
semantics a crash-recovery test needs.

Propagation: pool workers under ``spawn``/``forkserver`` import a
fresh copy of this module, so plans travel through the
``REPRO_FAULT_PLAN`` environment variable (inline JSON, or ``@path``
to a JSON file), loaded once at import. A ``forkserver`` worker gets
the environment of its fork server, which is started once per process
and never sees a plan exported after it started. ``fork`` workers
inherit the in-process plan directly.

When no plan is installed every hook is one module-global ``is None``
check (:func:`enabled`), so production paths pay nothing measurable —
the hooks sit at chunk granularity, never per request.
"""

from __future__ import annotations

import json
import os
import signal
import threading
from typing import Dict, List, Optional

ENV_VAR = "REPRO_FAULT_PLAN"

#: actions fire() executes itself
_EXEC_ACTIONS = ("raise", "kill", "sigterm")
#: actions the call site applies to its own data (the last four are
#: message-level network faults for the ``dist.*`` sites)
_DATA_ACTIONS = ("corrupt", "truncate", "drop", "delay", "duplicate",
                 "sever")


class FaultInjected(RuntimeError):
    """The error raised by an ``action: "raise"`` fault point."""


class _Point:
    __slots__ = ("site", "at", "action", "times", "once_file", "message",
                 "fired")

    def __init__(self, spec: Dict[str, object]):
        unknown = set(spec) - {"site", "at", "action", "times", "once_file",
                               "message"}
        if unknown:
            raise ValueError(f"unknown fault-point field(s) {sorted(unknown)}")
        self.site = spec["site"]
        if not isinstance(self.site, str) or not self.site:
            raise ValueError("fault point needs a 'site' name")
        self.action = spec.get("action", "raise")
        if self.action not in _EXEC_ACTIONS + _DATA_ACTIONS:
            raise ValueError(
                f"unknown action {self.action!r}; choose from "
                f"{list(_EXEC_ACTIONS + _DATA_ACTIONS)}")
        self.at = spec.get("at")
        if self.at is not None and (not isinstance(self.at, int) or self.at < 0):
            raise ValueError("'at' must be a non-negative integer")
        self.times = spec.get("times", 1)
        if self.times is not None and (not isinstance(self.times, int)
                                       or self.times < 1):
            raise ValueError("'times' must be a positive integer or null")
        self.once_file = spec.get("once_file")
        self.message = spec.get("message")
        self.fired = 0

    def matches(self, site: str, index: Optional[int]) -> bool:
        if self.site != site:
            return False
        if self.times is not None and self.fired >= self.times:
            return False
        if self.at is not None and self.at != index:
            return False
        return True

    def claim(self) -> bool:
        """Consume one firing; with ``once_file``, only the process that
        atomically creates the marker gets it."""
        if self.once_file is not None:
            try:
                os.close(os.open(self.once_file,
                                 os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            except FileExistsError:
                return False
        self.fired += 1
        return True

    def describe(self) -> str:
        where = self.site if self.at is None else f"{self.site}[{self.at}]"
        return self.message or f"injected fault at {where} ({self.action})"


_PLAN: Optional[List[_Point]] = None
#: makes a point's match and claim one step, so threads that reach a
#: site together (a pipeline's rewriter lanes) fire a point ``times``
#: times in all
_CLAIM = threading.Lock()


def enabled() -> bool:
    """True when a fault plan is installed — the whole cost of every
    hook on the production path."""
    return _PLAN is not None


def install(plan: Dict[str, object]) -> None:
    """Install a plan in this process (validates every point first)."""
    global _PLAN
    if not isinstance(plan, dict) or "points" not in plan:
        raise ValueError("fault plan must be {'points': [...]}")
    _PLAN = [_Point(spec) for spec in plan["points"]]


def clear() -> None:
    """Remove the installed plan (hooks become no-ops again)."""
    global _PLAN
    _PLAN = None


def install_env(plan: Dict[str, object], env: Optional[Dict[str, str]] = None) -> str:
    """Install a plan here *and* export it through :data:`ENV_VAR` so
    spawned/forkserver workers pick it up at import. Returns the
    serialized value (callers passing explicit child environments can
    reuse it)."""
    install(plan)
    value = json.dumps(plan)
    (os.environ if env is None else env)[ENV_VAR] = value
    return value


def clear_env() -> None:
    clear()
    os.environ.pop(ENV_VAR, None)


def _load_from_env() -> None:
    value = os.environ.get(ENV_VAR)
    if not value:
        return
    if value.startswith("@"):
        with open(value[1:], "r") as handle:
            value = handle.read()
    install(json.loads(value))


def _match(site: str, index: Optional[int]) -> Optional[_Point]:
    with _CLAIM:
        for point in _PLAN or ():  # a plan cleared since the caller looked
            if point.matches(site, index) and point.claim():
                return point
    return None


def fire(site: str, index: Optional[int] = None) -> None:
    """Execute any ``raise``/``kill``/``sigterm`` fault armed for this
    site/index. Call sites guard with :func:`enabled` so the disabled
    path costs one global check."""
    if _PLAN is None:
        return
    point = _match(site, index)
    if point is None or point.action in _DATA_ACTIONS:
        return
    if point.action == "raise":
        raise FaultInjected(point.describe())
    if point.action == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    os.kill(os.getpid(), signal.SIGTERM)
    # a SIGTERM with a graceful handler returns control here; the point
    # is consumed, so the site continues normally afterwards


def check(site: str, index: Optional[int] = None) -> Optional[str]:
    """Return the armed *data* action (``corrupt``/``truncate``/
    ``drop``) for this site/index, or ``None``. Exec actions armed on
    the same site are executed as in :func:`fire`."""
    if _PLAN is None:
        return None
    point = _match(site, index)
    if point is None:
        return None
    if point.action in _DATA_ACTIONS:
        return point.action
    if point.action == "raise":
        raise FaultInjected(point.describe())
    if point.action == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    os.kill(os.getpid(), signal.SIGTERM)
    return None


_load_from_env()
