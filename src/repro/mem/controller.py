"""FR-FCFS memory controller.

Schedules a request stream onto :class:`repro.mem.dram.DramChip` with the
classic First-Ready, First-Come-First-Served policy: among queued
requests, prefer row-buffer hits; break ties by age. Requests larger than
one burst are split into per-burst sub-requests.

The controller is used two ways:

* **event-driven**: :meth:`run_trace` times an explicit request list —
  used by tests, microbenches, and bandwidth characterization;
* **characterization**: :meth:`effective_bandwidth_gbps` measures
  sustainable bandwidth for a synthetic streaming mix. The analytical
  layer-performance model does not call it: its bandwidth input is the
  fixed ``dram_bandwidth_gbps`` of its config (34 GB/s for
  :data:`~repro.accel.accelerator.TPU_V1_CONFIG`; see
  ``docs/FIDELITY.md``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, List, Union

import numpy as _np

from repro import perf
from repro.mem.batch import RequestBatch
from repro.mem.dram import CMD_DATA_COUPLING, DramChip, DDR4_2400, DramTiming
from repro.mem.layout import AddressLayout
from repro.mem.trace import MemoryRequest, TraceStats


@dataclass
class ControllerResult:
    """Outcome of timing one trace."""

    cycles: int
    requests: int
    bursts: int
    stats: TraceStats

    def bandwidth_gbps(self, freq_mhz: float, burst_bytes: int = 64) -> float:
        if self.cycles == 0:
            return 0.0
        bytes_moved = self.bursts * burst_bytes
        seconds = self.cycles / (freq_mhz * 1e6)
        return bytes_moved / seconds / 1e9


class MemoryController:
    """FR-FCFS over a single channel."""

    def __init__(self, timing: DramTiming = DDR4_2400, layout: AddressLayout = None,
                 queue_depth: int = 32):
        self.layout = layout or AddressLayout()
        self.dram = DramChip(timing, self.layout)
        self.queue_depth = queue_depth

    def _split_bursts(self, request: MemoryRequest) -> Iterable[tuple]:
        """Yield (address, is_write) per burst covering the request."""
        burst = self.layout.burst_bytes
        start = (request.address // burst) * burst
        end = request.address + request.size
        addr = start
        while addr < end:
            yield (addr, request.is_write)
            addr += burst

    def run_trace(self, trace: Union[List[MemoryRequest], RequestBatch]) -> ControllerResult:
        """Time an entire trace; returns total cycles and statistics.

        Accepts either a ``MemoryRequest`` list (the scalar reference
        path below) or a :class:`RequestBatch` (routed to
        :meth:`run_batch`); both produce identical results.
        """
        if isinstance(trace, RequestBatch):
            return self.run_batch(trace)
        stats = TraceStats()
        pending = deque()
        for req in trace:
            stats.add(req)
            for burst in self._split_bursts(req):
                pending.append(burst)

        cycle = 0
        last_data_end = 0
        bursts = 0
        window = deque()
        while pending or window:
            while pending and len(window) < self.queue_depth:
                window.append(pending.popleft())
            # FR-FCFS: first row hit in the window, else the oldest
            chosen = None
            for i, (addr, _w) in enumerate(window):
                bank, row, _col = self.layout.decompose(addr)
                if self.dram.open_row_of(bank) == row:
                    chosen = i
                    break
            if chosen is None:
                chosen = 0
            addr, is_write = window[chosen]
            del window[chosen]
            cycle, data_end = self.dram.access(addr, is_write, cycle)
            last_data_end = max(last_data_end, data_end)
            bursts += 1
        total = max(cycle, last_data_end)
        return ControllerResult(cycles=total, requests=len(trace), bursts=bursts, stats=stats)

    def _expand_bursts_soa(self, batch: RequestBatch):
        """Per-burst ``(is_write, bank, row)`` numpy columns for a batch:
        burst expansion and address decomposition, vectorized."""
        burst = self.layout.burst_bytes
        cpr = self.layout.columns_per_row
        banks = self.layout.banks
        addr = _np.frombuffer(batch.address, dtype=_np.int64)
        size = _np.frombuffer(batch.size, dtype=_np.int64)
        start_burst = addr // burst
        counts = (addr + size - 1) // burst - start_burst + 1
        total = int(counts.sum())
        starts = _np.repeat(start_burst, counts)
        ends = _np.cumsum(counts)
        ramp = _np.arange(total, dtype=_np.int64) - _np.repeat(ends - counts, counts)
        rest = (starts + ramp) // cpr
        write_arr = _np.repeat(_np.frombuffer(batch.is_write, dtype=_np.int8), counts)
        return write_arr, rest % banks, rest // banks

    def run_batch(self, batch: RequestBatch) -> ControllerResult:
        """Time a :class:`RequestBatch` — same FR-FCFS schedule and
        cycle accounting as :meth:`run_trace`, but burst expansion and
        address decomposition happen once, vectorized, and the schedule
        loop walks the stream once, servicing whole (bank, row) runs of
        row hits at a time (see :class:`ControllerSession`, which owns the
        loop; this method is the one-shot feed + finish)."""
        session = ControllerSession(self)
        session.feed(batch)
        return session.finish()

    def session(self) -> "ControllerSession":
        """Open a streaming run over this controller's DRAM state."""
        return ControllerSession(self)

    def effective_bandwidth_gbps(self, nbytes: int = 1 << 20, write_fraction: float = 0.3,
                                 stride: int = 64) -> float:
        """Measure sustainable bandwidth with a streaming read/write mix
        (the access shape of a DNN accelerator fetching tiles)."""
        if not 0.0 <= write_fraction <= 1.0:
            raise ValueError("write_fraction must be in [0, 1]")
        # keeps the historical int(1/f) cadence (33% writes for f=0.3)
        # rather than the generators' exact write mask, so the measured
        # bandwidth stays comparable with earlier versions. Nothing
        # outside the tests reads it: the analytic model's bandwidth is
        # its config's fixed value
        writes_every = int(1 / write_fraction) if write_fraction > 0 else 0
        n = nbytes // stride
        if perf.fast_enabled():
            trace = RequestBatch()
            for i in range(n):
                is_write = writes_every > 0 and (i % writes_every == 0)
                trace.append(i * stride, stride, is_write)
        else:
            trace = []
            for i in range(n):
                is_write = writes_every > 0 and (i % writes_every == 0)
                trace.append(MemoryRequest(address=i * stride, size=stride, is_write=is_write))
        result = self.run_trace(trace)
        return result.bandwidth_gbps(self.dram.timing.freq_mhz, self.layout.burst_bytes)


class ControllerSession:
    """A resumable FR-FCFS run: feed successive :class:`RequestBatch`
    chunks, get the **bit-identical** schedule of one monolithic
    :meth:`MemoryController.run_batch` over their concatenation.

    The monolithic loop's only cross-request state is the DRAM timing
    state (owned by the controller, which persists anyway) plus the
    scheduling window. The session therefore picks a burst only while
    the window is full: once fewer than ``queue_depth`` bursts are
    unserviced, it pauses exactly where the windowed reference loop
    would, and carries the un-issued residue (the window in age order)
    as burst descriptors replayed ahead of the next chunk's bursts.
    Every scheduling decision is thus taken with the same window
    contents as the monolithic run, so cycles, bursts, per-bank state
    and DRAM stats match exactly, and the fast and reference loops
    carry the same residue across every seam.

    The fast path is a scan-ordered FR-FCFS: it walks the burst stream
    once, run by run, with a scan pointer ``j``, and rests on one
    invariant:

    * every unserviced burst behind ``j`` waits on a closed row. It was
      scanned while its (bank, row) was closed, and that row opens again
      only in two ways: a miss pick of its group's oldest waiting burst,
      which services the group's waiting bursts right away, or a
      refresh-path access of a hit, whose row was already open.

    So the pick rule is local. A run at ``j`` on its bank's open row is
    the window's first hit, and burst ``j`` is in the window iff
    ``j - served < queue_depth``, because every serviced burst lies
    before ``j``. Per feed, numpy cuts the stream into runs of one
    (bank, row) and gives every burst its run end and the start of the
    next run of its (bank, row) group. Each step of the loop is one of:

    1. a just-opened group still has waiting bursts before ``j``:
       service its next segment, up to ``j``, then follow its links;
    2. fewer than ``queue_depth`` bursts wait: service the run at ``j``
       if its row is open, else scan past it, by at most the free window
       slots (a miss costs only the pointer);
    3. otherwise no burst in the window hits: the oldest waiting burst
       opens its row through the full DRAM model, inlined (refresh, miss
       or conflict, then CAS), and its group's next waiting burst
       starts step 1. A hit that finds a refresh due takes the same
       model and counts as a miss, as ``DramChip.access_decomposed``
       counts it.

    Row hits take an exact bus-bound jump. Let ``bound = slot +
    CMD_DATA_COUPLING``. When ``cycle == bus_free - bound`` and the
    row's activation plus ``tRCD + max(tCL, tCWL)`` is at most
    ``bus_free``, the next hit's CAS is ready by ``bus_free`` whichever
    bounds its issue: issued at ``cycle``, it is ready by ``bus_free -
    bound + max(tCL, tCWL) <= bus_free`` (DDR4-class timing has
    ``max(tCL, tCWL) <= bound``; the loop checks it), and issued at
    the activation's ``tRCD``, by the second condition. So its data
    starts at ``bus_free``, the command pointer lands on the new
    ``bus_free - bound``, and both conditions hold again: every further
    hit adds exactly one bus slot. The loop takes them at once, up to
    the refresh horizon of ``(next_refresh + bound - 1 - bus_free) //
    slot + 1`` hits (the last one whose command issues before the
    refresh). Under ``REPRO_SCALAR=1`` the plain windowed loop runs
    instead: it is the oracle.
    """

    def __init__(self, controller: MemoryController):
        self.controller = controller
        self._stats = TraceStats()
        self._requests = 0
        self._bursts = 0
        self._cycle = 0
        self._last_data_end = 0
        # window residue carried across chunks: (is_write, bank, row)
        # columns in age order
        self._carry = _NO_BURSTS
        self._result = None

    def feed(self, batch: RequestBatch) -> None:
        """Append one chunk to the stream and schedule as far as the
        window allows."""
        if self._result is not None:
            raise RuntimeError("session already finished")
        if not len(batch):
            return
        self._stats.merge(batch.stats())
        self._requests += len(batch)
        self._schedule(self.controller._expand_bursts_soa(batch), final=False)

    def finish(self) -> ControllerResult:
        """Drain the window and return the whole stream's result."""
        if self._result is None:
            self._schedule(_NO_BURSTS, final=True)
            self._result = ControllerResult(
                cycles=max(self._cycle, self._last_data_end),
                requests=self._requests, bursts=self._bursts, stats=self._stats)
        return self._result

    # -- checkpointing -----------------------------------------------------

    def state_dict(self) -> dict:
        """The session's complete mid-stream state, including the DRAM
        chip it schedules onto. Captured only at chunk seams, where the
        carried window residue is < queue_depth burst descriptors — a
        checkpoint stays a few KB regardless of trace length."""
        if self._result is not None:
            raise RuntimeError("session already finished")
        writes, banks, rows = self._carry
        return {
            "stats": self._stats.state_dict(),
            "requests": self._requests,
            "bursts": self._bursts,
            "cycle": self._cycle,
            "last_data_end": self._last_data_end,
            "carry_write": writes.tolist(),
            "carry_bank": banks.tolist(),
            "carry_row": rows.tolist(),
            "dram": self.controller.dram.state_dict(),
        }

    def load_state(self, state: dict) -> None:
        """Restore :meth:`state_dict` output. Envelopes from the earlier
        leftovers-list loop also carry ``run_hits`` (row hits it had
        issued but not yet counted) and ``leftover_hit_possible`` (a
        scan cache): the hits are folded into the DRAM stats, the flag
        is ignored."""
        self._stats = TraceStats()
        self._stats.load_state(state["stats"])
        self._requests = int(state["requests"])
        self._bursts = int(state["bursts"])
        self._cycle = int(state["cycle"])
        self._last_data_end = int(state["last_data_end"])
        self._carry = (_np.array(state["carry_write"], dtype=_np.int8),
                       _np.array(state["carry_bank"], dtype=_np.int64),
                       _np.array(state["carry_row"], dtype=_np.int64))
        self._result = None
        dram = self.controller.dram
        dram.load_state(state["dram"])
        dram.stats["row_hits"] += int(state.get("run_hits", 0))

    # -- scheduling --------------------------------------------------------

    def _schedule(self, bursts, final: bool) -> None:
        """Schedule the carried residue plus ``bursts`` (is_write, bank,
        row columns) as far as the window allows; ``final`` drains it."""
        if len(self._carry[0]):
            bursts = tuple(_np.concatenate(pair) for pair in zip(self._carry, bursts))
        n = len(bursts[0])
        if not n:
            return
        if not final and n < self.controller.queue_depth:
            self._carry = bursts  # the window cannot fill yet: carry everything
            return
        if perf.fast_enabled():
            residue = self._schedule_scan(*bursts, final=final)
        else:
            residue = self._schedule_window(*(column.tolist() for column in bursts),
                                            final=final)
        self._carry = tuple(column[residue] for column in bursts)

    def _schedule_window(self, writes, bank_list, row_list, final: bool):
        """The windowed reference loop (``REPRO_SCALAR=1``): a deque of
        the first ``queue_depth`` unserviced bursts, scanned in age
        order for the first row hit, else its oldest entry. Returns the
        unserviced burst indices in age order."""
        ctrl = self.controller
        depth = ctrl.queue_depth
        open_row = ctrl.dram.open_row
        access = ctrl.dram.access_decomposed
        cycle = self._cycle
        last_data_end = self._last_data_end
        n = len(writes)
        window = deque()
        head = 0
        while head < n or window:
            while head < n and len(window) < depth:
                window.append(head)
                head += 1
            if not final and len(window) < depth:
                break  # refill exhausted: pause until the next chunk
            chosen_pos = 0
            for pos, j in enumerate(window):
                if open_row[bank_list[j]] == row_list[j]:
                    chosen_pos = pos
                    break
            j = window[chosen_pos]
            del window[chosen_pos]
            cycle, data_end = access(bank_list[j], row_list[j], bool(writes[j]), cycle)
            if data_end > last_data_end:
                last_data_end = data_end
            self._bursts += 1
        self._cycle = cycle
        self._last_data_end = last_data_end
        return list(window)

    def _schedule_scan(self, write_arr, bank_arr, row_arr, final: bool):
        """The scan-ordered fast loop (see the class docstring). Returns
        the unserviced burst indices in age order."""
        ctrl = self.controller
        depth = ctrl.queue_depth
        dram = ctrl.dram
        open_row = dram.open_row
        activated_at = dram.activated_at
        bank_end = dram.last_data_end
        bank_write = dram.last_was_write
        t = dram.timing
        tRCD, tCL, tCWL, tBL = t.tRCD, t.tCL, t.tCWL, t.tBL
        tRP, tRAS, tRC, tWR, tRTP = t.tRP, t.tRAS, dram._tRC, t.tWR, t.tRTP
        slot = dram._slot  # data-bus spacing between bursts
        couple = CMD_DATA_COUPLING
        bound = slot + couple  # bus-bound: cycle == bus_free - bound
        cas = tCL if tCL > tCWL else tCWL
        # the jump needs CAS to hide inside the coupling window (true for
        # every DDR4-class timing)
        jumpable = cas <= bound

        n = len(write_arr)
        run_end, next_run = _group_links(bank_arr, row_arr, len(open_row))
        # small ints come from Python's cache, so these lists are cheap;
        # large-int columns (rows, links) are read through memoryviews,
        # which box on access: most bursts of a long run are jumped over
        # and never read
        writes = write_arr.tolist()
        bank_of = bank_arr.tolist()
        row_of = memoryview(row_arr)
        done = bytearray(n)
        # picks happen while the window is full, or all of them on a drain
        picks = n if final else n - depth + 1
        served = oldest = j = 0
        g = n  # the just-opened group's next waiting burst before j (n: none)
        misses = conflicts = 0
        cycle = self._cycle
        bus_free = dram._bus_free_at
        next_refresh = dram._next_refresh
        while served < picks:
            if g < j or (j < n and j - served < depth):
                if g < j:
                    # the just-opened group's waiting bursts are the
                    # window's oldest hits
                    i = g
                    stop = run_end[i]
                    if stop > j:
                        stop = j
                else:
                    i = j
                    stop = run_end[i]
                    if open_row[bank_of[i]] != row_of[i]:
                        # a miss waits: scan past its run, within the window
                        j = stop if stop < served + depth else served + depth
                        continue
                if stop > i + picks - served:
                    stop = i + picks - served
                seg = i
                b = bank_of[i]
                act_rcd = activated_at[b] + tRCD
                ready_by = act_rcd + cas  # a CAS at tRCD is ready by then
                while i < stop:
                    if cycle >= next_refresh:
                        break  # the full model below serves this burst
                    if cycle == bus_free - bound and ready_by <= bus_free and jumpable:
                        # bus-bound: every further hit adds one bus slot,
                        # up to the refresh horizon
                        m = (next_refresh + bound - 1 - bus_free) // slot + 1
                        if m > stop - i:
                            m = stop - i
                        bus_free += m * slot
                        cycle = bus_free - bound
                        i += m
                        continue
                    col = cycle if cycle > act_rcd else act_rcd
                    ready = col + (tCWL if writes[i] else tCL)
                    if ready < bus_free:
                        ready = bus_free
                    bus_free = ready + slot
                    ready -= couple
                    cycle = cycle + 1 if cycle >= ready else ready
                    i += 1
                if i - seg == 1:
                    done[seg] = 1  # a tenth of a slice assignment's cost
                else:
                    done[seg:i] = b"\x01" * (i - seg)
                served += i - seg
                if i == stop:
                    bank_end[b] = bus_free - slot + tBL
                    bank_write[b] = writes[i - 1]
                    if seg < j:
                        # follow the group's links to its next waiting run
                        g = next_run[seg] if i == run_end[seg] else n
                        if g >= j:
                            g = n
                    else:
                        j = i
                    continue
                # a refresh is due before hit i: the full model closes
                # every row and serves the hit as a miss; its access
                # rewrites the bank's last data end and direction, so
                # the segment needs no write-back
                x = i
            else:
                # no hit in the window: the oldest burst opens its row
                x = oldest = done.find(0, oldest)
            # the full DRAM model: refresh if due, open the row (a miss,
            # or a conflict with the bank's open row), then CAS
            b = bank_of[x]
            if cycle >= next_refresh:
                dram._bus_free_at = bus_free
                cycle = dram._refresh_if_due(cycle)
                bus_free = dram._bus_free_at
                next_refresh = dram._next_refresh
            act = activated_at[b]
            if open_row[b] is None:
                misses += 1
                col = cycle
            else:
                conflicts += 1
                col = bank_end[b] + (tWR if bank_write[b] else tRTP) - tBL
                if act + tRAS > col:
                    col = act + tRAS
                if cycle > col:
                    col = cycle
                col += tRP
            if act + tRC > col:
                col = act + tRC
            activated_at[b] = col
            open_row[b] = row_of[x]
            write = writes[x]
            ready = col + tRCD + (tCWL if write else tCL)
            if ready < bus_free:
                ready = bus_free
            bus_free = ready + slot
            bank_end[b] = ready + tBL
            bank_write[b] = write
            ready -= couple
            cycle = cycle + 1 if cycle >= ready else ready
            done[x] = 1
            served += 1
            if x < j:
                # its group's waiting bursts are hits now
                g = x + 1 if x + 1 < run_end[x] else next_run[x]
                if g >= j:
                    g = n
            else:
                j = x + 1
        dram._bus_free_at = bus_free
        stats = dram.stats
        stats["row_hits"] += served - misses - conflicts
        stats["row_misses"] += misses
        stats["row_conflicts"] += conflicts
        self._cycle = cycle
        if served:
            # data starts strictly increase, so the last burst ends last
            self._last_data_end = bus_free - slot + tBL
        self._bursts += served
        return _np.flatnonzero(_np.frombuffer(done, dtype=_np.uint8) == 0)


#: an empty (is_write, bank, row) burst stream
_NO_BURSTS = (_np.zeros(0, dtype=_np.int8), _np.zeros(0, dtype=_np.int64),
              _np.zeros(0, dtype=_np.int64))


def _group_links(bank_arr, row_arr, nbanks: int):
    """Per-burst links over one schedulable stream of ``n`` bursts:
    ``run_end[i]`` ends the maximal stretch of consecutive bursts sharing
    burst ``i``'s (bank, row); ``next_run[i]`` starts the next such
    stretch of the same (bank, row) group (``n`` if none)."""
    n = len(bank_arr)
    change = _np.empty(n, dtype=bool)
    change[0] = True
    _np.not_equal(bank_arr[1:], bank_arr[:-1], out=change[1:])
    change[1:] |= row_arr[1:] != row_arr[:-1]
    starts = _np.flatnonzero(change)
    ends = _np.append(starts[1:], n)
    keys = row_arr[starts] * nbanks + bank_arr[starts]
    order = _np.argsort(keys, kind="stable")  # groups, age order within
    same = keys[order[1:]] == keys[order[:-1]]
    next_start = _np.full(len(starts), n, dtype=_np.int64)
    next_start[order[:-1][same]] = starts[order[1:][same]]
    lengths = ends - starts
    return (memoryview(_np.repeat(ends, lengths)),
            memoryview(_np.repeat(next_start, lengths)))
