"""In-flight job coalescing.

Two clients asking for the same computation while it is running should
cost one computation: a :class:`Flight` is the single execution of one
content-addressed job key, and every client watching it is a
*subscriber* holding an ``asyncio.Queue`` of events. The service's one
flight table (``ReproService._flights``, job key → flight) is the whole
coalescer: a submission whose key is in it subscribes to that flight.
The flight keeps a replay buffer, so a subscriber joining mid-flight
first receives every event already published — all subscribers
therefore observe the exact same event stream regardless of when they
attached (events are encoded canonically, so the streams are
byte-identical on the wire).

Cancellation is subscription-driven: when the last subscriber
disconnects before the flight finishes, the flight's ``cancel`` flag (a
``threading.Event``, because execution runs on a worker thread) is set,
and the executing job observes it cooperatively at its next chunk/slice
boundary. A subscriber arriving *before* the worker notices clears the
flag — the computation is wanted again.

Everything in this module runs on the asyncio event-loop thread; worker
threads publish by scheduling :meth:`Flight.publish` through
``loop.call_soon_threadsafe``.
"""

from __future__ import annotations

import asyncio
import threading
from typing import List

from repro.service.protocol import JobRequest

#: queue sentinel marking end-of-stream to a subscriber
END_OF_STREAM = None


class Flight:
    """One in-flight execution of a content-addressed job."""

    def __init__(self, key: str, request: JobRequest):
        self.key = key
        self.request = request
        self.events: List[dict] = []          # replay buffer
        self.subscribers: List[asyncio.Queue] = []
        self.done = False
        self.cancel = threading.Event()
        #: set by the flight thread once it holds an executor slot: the
        #: service counts running and queued flights off this flag
        self.started = False

    def subscribe(self) -> asyncio.Queue:
        queue: asyncio.Queue = asyncio.Queue()
        for event in self.events:
            queue.put_nowait(event)
        if self.done:
            queue.put_nowait(END_OF_STREAM)
        else:
            self.subscribers.append(queue)
            # a revived flight is wanted again; clear a not-yet-observed
            # cancellation (if the worker already observed it, the
            # terminal "cancelled" event tells the client to resubmit)
            self.cancel.clear()
        return queue

    def unsubscribe(self, queue: asyncio.Queue) -> None:
        try:
            self.subscribers.remove(queue)
        except ValueError:
            return
        if not self.subscribers and not self.done:
            self.cancel.set()

    def publish(self, event: dict, final: bool = False) -> None:
        self.events.append(event)
        for queue in self.subscribers:
            queue.put_nowait(event)
        if final:
            self.done = True
            for queue in self.subscribers:
                queue.put_nowait(END_OF_STREAM)
            self.subscribers.clear()
