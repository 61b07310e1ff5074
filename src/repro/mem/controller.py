"""FR-FCFS memory controller.

Schedules a request stream onto :class:`repro.mem.dram.DramChip` with the
classic First-Ready, First-Come-First-Served policy: among queued
requests, prefer row-buffer hits; break ties by age. Requests larger than
one burst are split into per-burst sub-requests.

The controller is used two ways:

* **event-driven**: :meth:`run_trace` times an explicit request list
  (the scalar oracle) and :meth:`run_batch` a
  :class:`~repro.mem.batch.RequestBatch` — used by tests, microbenches,
  and bandwidth characterization;
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

from repro import native, perf
from repro.mem.batch import RequestBatch, stats_from_totals
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
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be at least 1, got {queue_depth}")
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
        addr, size, is_write, _kind = batch.columns()
        start_burst = addr // burst
        counts = (addr + size - 1) // burst - start_burst + 1
        total = int(counts.sum())
        starts = _np.repeat(start_burst, counts)
        ends = _np.cumsum(counts)
        ramp = _np.arange(total, dtype=_np.int64) - _np.repeat(ends - counts, counts)
        rest = (starts + ramp) // cpr
        write_arr = _np.repeat(is_write, counts)
        return write_arr, rest % banks, rest // banks

    def run_batch(self, batch: RequestBatch) -> ControllerResult:
        """Time a :class:`RequestBatch` — same FR-FCFS schedule and
        cycle accounting as :meth:`run_trace`, without request objects:
        in fast mode burst expansion, traffic accounting and the
        schedule loop run compiled (see :class:`ControllerSession`,
        which owns them; this method is the one-shot feed + finish)."""
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
        index = _np.arange(nbytes // stride, dtype=_np.int64)
        trace = RequestBatch.from_arrays(
            index * stride, _np.full(len(index), stride, dtype=_np.int64),
            index % writes_every == 0 if writes_every
            else _np.zeros(len(index), dtype=_np.int8))
        result = self.run_batch(trace)
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
    and DRAM stats match exactly across every seam.

    A feed has two implementations. The Python oracle, which runs under
    ``REPRO_SCALAR=1``, adds :meth:`RequestBatch.stats` to the traffic
    stats, expands the batch into bursts
    (:meth:`MemoryController._expand_bursts_soa`) and runs
    :meth:`_schedule_window`. Fast mode runs all three as one
    line-for-line port in C (``repro_schedule`` in ``repro/native.c``,
    see :mod:`repro.native`): it takes the batch's raw request columns
    and expands bursts as it fills the window. Without a compiled
    kernel, fast mode runs the oracle too.

    The session's state, and the chip's, have two forms, of which
    exactly one is current. The Python form is the chip's lists and
    stats and this session's counters, traffic stats and carried
    residue (``_carry``); the oracle runs on it. The kernel's form
    (``_arrays``, None while the Python form is current) is one int64
    array of the scalars and bank columns, the per-kind byte totals
    counted since it became current, and the window buffers, whose
    first ``_left`` slots hold the residue. It stays current between
    compiled feeds; :meth:`finish`, :meth:`state_dict`,
    :meth:`load_state` and a scalar feed make the Python form current,
    so the chip's lists and stats read current after :meth:`finish`.
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
        self._arrays = None  # the kernel's form, see the class docstring
        self._left = 0
        self._arguments = ()

    def feed(self, batch: RequestBatch) -> None:
        """Append one chunk to the stream and schedule as far as the
        window allows."""
        if self._result is not None:
            raise RuntimeError("session already finished")
        if not len(batch):
            return
        self._requests += len(batch)
        self._schedule(batch, final=False)

    def finish(self) -> ControllerResult:
        """Drain the window and return the whole stream's result."""
        if self._result is None:
            self._schedule(_NO_REQUESTS, final=True)
            self._use_python()
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
        self._use_python()
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
        is ignored. A carried burst outside the chip's banks, or on a
        negative row, is refused with a ``ValueError``, and so is a
        residue of ``queue_depth`` bursts or more, which no seam leaves
        (the window pauses only once it cannot fill)."""
        carry = (_np.array(state["carry_write"], dtype=_np.int8),
                 _np.array(state["carry_bank"], dtype=_np.int64),
                 _np.array(state["carry_row"], dtype=_np.int64))
        banks = self.controller.layout.banks
        if len(carry[1]) and (carry[1].min() < 0 or carry[1].max() >= banks
                              or carry[2].min() < 0):
            raise ValueError(f"carried bursts must lie in banks 0-{banks - 1} "
                             "on rows >= 0")
        if len(carry[1]) >= self.controller.queue_depth:
            raise ValueError(f"{len(carry[1])} carried bursts fill the "
                             f"{self.controller.queue_depth}-burst window")
        self._stats = TraceStats()
        self._stats.load_state(state["stats"])
        self._requests = int(state["requests"])
        self._bursts = int(state["bursts"])
        self._cycle = int(state["cycle"])
        self._last_data_end = int(state["last_data_end"])
        self._carry = carry
        self._result = None
        self._arrays = None
        dram = self.controller.dram
        dram.load_state(state["dram"])
        dram.stats["row_hits"] += int(state.get("run_hits", 0))

    # -- scheduling --------------------------------------------------------

    def _schedule(self, batch: RequestBatch, final: bool) -> None:
        """Count ``batch``'s traffic, then schedule the carried residue
        plus its bursts as far as the window allows; ``final`` drains
        it."""
        kernels = native.kernels() if perf.fast_enabled() else None
        if kernels is not None:
            self._use_arrays()
            self._left = kernels.repro_schedule(
                *native.batch_arguments(batch), self._left, final,
                *self._arguments)
            return
        self._use_python()
        self._stats.merge(batch.stats())
        bursts = self.controller._expand_bursts_soa(batch)
        if len(self._carry[0]):
            bursts = tuple(_np.concatenate(pair) for pair in zip(self._carry, bursts))
        n = len(bursts[0])
        if not n:
            return
        if not final and n < self.controller.queue_depth:
            self._carry = bursts  # the window cannot fill yet: carry everything
            return
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

    # -- the two forms of the state ----------------------------------------

    def _use_arrays(self) -> None:
        """Make the kernel's arrays the current form of the session and
        chip state (the layout ``repro/native.c`` names: scalars, then
        the open row, -1 while precharged, activation, last data end and
        last direction of every bank), with zeroed byte totals and the
        residue in the window's first slots; take their addresses."""
        if self._arrays is not None:
            return
        ctrl = self.controller
        dram = ctrl.dram
        t = dram.timing
        layout = ctrl.layout
        stats = dram.stats
        depth = ctrl.queue_depth
        nbanks = len(dram.open_row)
        timing = _np.array([t.tCL, t.tCWL, t.tRCD, t.tRP, t.tRAS, t.tBL, t.tWR,
                            t.tRTP, t.tREFI, t.tRFC, dram._tRC, dram._slot,
                            CMD_DATA_COUPLING], dtype=_np.int64)
        # AddressLayout's fields are powers of two: the kernel shifts
        shifts = _np.array([layout.burst_bytes.bit_length() - 1,
                            layout.columns_per_row.bit_length() - 1,
                            nbanks.bit_length() - 1], dtype=_np.int64)
        state = _np.array(
            [self._cycle, self._last_data_end, self._bursts, dram._bus_free_at,
             dram._next_refresh, stats["row_hits"], stats["row_misses"],
             stats["row_conflicts"], stats["refreshes"],
             *(-1 if row is None else row for row in dram.open_row),
             *dram.activated_at, *dram.last_data_end, *dram.last_was_write],
            dtype=_np.int64)
        totals = _np.zeros(8, dtype=_np.int64)
        window = (_np.empty(2 * depth, dtype=_np.int8),
                  _np.empty(2 * depth, dtype=_np.int64),
                  _np.empty(2 * depth, dtype=_np.int64))
        self._left = len(self._carry[0])
        for slots, carried in zip(window, self._carry):
            slots[:self._left] = carried
        self._arrays = (timing, shifts, state, totals, window)
        address_of = native.address_of
        self._arguments = (depth, address_of(timing), address_of(shifts), nbanks,
                           address_of(state), address_of(totals),
                           *(address_of(slots) for slots in window), 2 * depth)

    def _use_python(self) -> None:
        """Make the Python form current: the kernel's scalars and bank
        columns back into the chip and this session, its byte totals
        into the traffic stats, and its residue into ``_carry``."""
        if self._arrays is None:
            return
        _, _, state, totals, window = self._arrays
        dram = self.controller.dram
        stats = dram.stats
        nbanks = len(dram.open_row)
        self._stats.merge(stats_from_totals(totals.tolist()))
        self._carry = tuple(slots[:self._left].copy() for slots in window)
        values = state.tolist()
        (self._cycle, self._last_data_end, self._bursts, dram._bus_free_at,
         dram._next_refresh, stats["row_hits"], stats["row_misses"],
         stats["row_conflicts"], stats["refreshes"]) = values[:_SCALARS]
        banks_state = values[_SCALARS:]
        dram.open_row[:] = [None if row < 0 else row for row in banks_state[:nbanks]]
        dram.activated_at[:] = banks_state[nbanks:2 * nbanks]
        dram.last_data_end[:] = banks_state[2 * nbanks:3 * nbanks]
        dram.last_was_write[:] = [bool(write) for write in banks_state[3 * nbanks:]]
        self._arrays = None
        self._arguments = ()


#: scalars ahead of the bank columns in the compiled kernel's state array
_SCALARS = 9

#: an empty (is_write, bank, row) burst stream
_NO_BURSTS = (_np.zeros(0, dtype=_np.int8), _np.zeros(0, dtype=_np.int64),
              _np.zeros(0, dtype=_np.int64))

#: what :meth:`ControllerSession.finish` drains the window with
_NO_REQUESTS = RequestBatch()
