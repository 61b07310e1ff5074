"""DDR4 bank-state timing model (Ramulator-style, simplified).

The paper times memory with Ramulator configured as 16 GB DDR4. We model
the subset of DDR4 state that determines DNN-accelerator memory behaviour:

* per-bank open row (row-buffer hits vs. conflicts),
* the core timing constraints tRCD / tRP / tCL / tCWL / tBL / tCCD /
  tRAS / tRC / tWR,
* data-bus occupancy (one burst per max(tBL, tCCD)), with column commands
  pipelined the way a real device overlaps CAS latency with transfers,
* periodic refresh (tREFI / tRFC) as a bandwidth tax.

Omitted: tFAW/tRRD rank-level constraints, read-write turnaround bubbles,
power-down modes — negligible for the streaming access patterns at issue,
and their omission shifts absolute cycles only, not the ratios between
protection schemes (see ``docs/FIDELITY.md``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mem.layout import AddressLayout


@dataclass(frozen=True)
class DramTiming:
    """Timing parameters in memory-clock cycles, plus clock frequency."""

    name: str
    freq_mhz: float  # I/O bus clock in MHz (data rate is 2x, DDR)
    tCL: int  # CAS latency (read)
    tCWL: int  # CAS write latency
    tRCD: int  # activate to column command
    tRP: int  # precharge latency
    tRAS: int  # activate to precharge minimum
    tBL: int  # burst length in bus cycles (BL8 -> 4 clock cycles)
    tCCD: int  # column-to-column minimum
    tWR: int  # write recovery
    tRTP: int  # read to precharge
    tREFI: int  # refresh interval
    tRFC: int  # refresh cycle time

    @property
    def tRC(self) -> int:
        return self.tRAS + self.tRP

    @property
    def peak_bandwidth_gbps(self) -> float:
        """Peak data-bus bandwidth in GB/s for a 64-bit channel."""
        return self.freq_mhz * 2 * 8 / 1000.0


#: how far (in cycles) the command pointer may run ahead of the data bus
#: before back-pressure couples them (see :meth:`DramChip.access_decomposed`);
#: the compiled controller kernel receives the same constant
CMD_DATA_COUPLING = 32

#: DDR4-2400, 64-bit channel: the class of device the paper's 16 GB DDR4
#: Ramulator config represents. Timings are standard -CL17 values.
DDR4_2400 = DramTiming(
    name="DDR4-2400",
    freq_mhz=1200.0,
    tCL=17,
    tCWL=12,
    tRCD=17,
    tRP=17,
    tRAS=39,
    tBL=4,
    tCCD=4,
    tWR=18,
    tRTP=9,
    tREFI=9360,
    tRFC=420,
)


class DramChip:
    """One DRAM channel with per-bank row state.

    :meth:`access` issues one burst access at/after command cycle
    ``cycle`` and returns ``(next_command_cycle, data_end_cycle)``.
    Column commands pipeline: consecutive row hits are spaced by the data
    bus (max(tBL, tCCD)), not by full CAS latency, which is how a real
    controller sustains near-peak streaming bandwidth.

    Bank state is four per-bank lists: ``open_row`` (``None`` while the
    bank is precharged), ``activated_at``, ``last_data_end`` and
    ``last_was_write``. Every update, refresh included, mutates them in
    place. A session that feeds the compiled controller kernel keeps
    them, and ``stats`` with them, in the kernel's arrays until it
    finishes, checkpoints or runs a scalar feed (see
    :class:`~repro.mem.controller.ControllerSession`); only then do
    they read current.
    """

    def __init__(self, timing: DramTiming = DDR4_2400, layout: AddressLayout = None):
        self.timing = timing
        self.layout = layout or AddressLayout()
        self._tRC = timing.tRC
        self._slot = max(timing.tBL, timing.tCCD)  # data-bus spacing per burst
        banks = self.layout.banks
        self.open_row = [None] * banks
        self.activated_at = [-(10**9)] * banks
        self.last_data_end = [0] * banks
        self.last_was_write = [False] * banks
        self._bus_free_at = 0
        self._next_refresh = timing.tREFI
        self.stats = {"row_hits": 0, "row_misses": 0, "row_conflicts": 0, "refreshes": 0}

    def _refresh_if_due(self, cycle: int) -> int:
        """All-bank refresh: close all rows and stall for tRFC."""
        while cycle >= self._next_refresh:
            end = self._next_refresh + self.timing.tRFC
            self.open_row[:] = [None] * len(self.open_row)
            self.last_data_end[:] = [data_end if data_end > end else end
                                     for data_end in self.last_data_end]
            self._bus_free_at = max(self._bus_free_at, end)
            self._next_refresh += self.timing.tREFI
            self.stats["refreshes"] += 1
            cycle = max(cycle, end)
        return cycle

    def access(self, address: int, is_write: bool, cycle: int):
        """Time one burst access; returns (next_command_cycle, data_end)."""
        bank_idx, row, _col = self.layout.decompose(address)
        return self.access_decomposed(bank_idx, row, is_write, cycle)

    def access_decomposed(self, bank_idx: int, row: int, is_write: bool, cycle: int):
        """Time one burst access given pre-decomposed (bank, row)
        coordinates — the batch pipeline decomposes whole traces up
        front (vectorized) instead of per access. Identical timing to
        :meth:`access`. It is the windowed reference loop's step; the
        compiled kernel in ``repro/native.c`` inlines the same model, and
        the session equivalence tests hold the two equal."""
        # the reference loops call this once per burst, so maxima are
        # spelled as comparisons
        t = self.timing
        if cycle >= self._next_refresh:
            cycle = self._refresh_if_due(cycle)
        open_row = self.open_row[bank_idx]
        activated_at = self.activated_at[bank_idx]

        if open_row == row:
            self.stats["row_hits"] += 1
            col_issue = activated_at + t.tRCD
            if cycle > col_issue:
                col_issue = cycle
        else:
            if open_row is None:
                self.stats["row_misses"] += 1
                activate_at = cycle
            else:
                self.stats["row_conflicts"] += 1
                recovery = t.tWR if self.last_was_write[bank_idx] else t.tRTP
                precharge_at = self.last_data_end[bank_idx] + recovery - t.tBL
                if activated_at + t.tRAS > precharge_at:
                    precharge_at = activated_at + t.tRAS
                if cycle > precharge_at:
                    precharge_at = cycle
                activate_at = precharge_at + t.tRP
            if activated_at + self._tRC > activate_at:
                activate_at = activated_at + self._tRC
            self.activated_at[bank_idx] = activate_at
            self.open_row[bank_idx] = row
            col_issue = activate_at + t.tRCD

        data_start = col_issue + (t.tCWL if is_write else t.tCL)
        if self._bus_free_at > data_start:
            data_start = self._bus_free_at
        data_end = data_start + t.tBL
        self._bus_free_at = data_start + self._slot

        self.last_data_end[bank_idx] = data_end
        self.last_was_write[bank_idx] = is_write

        # The command bus can issue the next command one cycle later.
        # Keep the command pointer loosely coupled to the data bus so the
        # model cannot run unboundedly ahead of the transfers it scheduled
        # (a real controller's queue provides the same back-pressure).
        next_command = data_start - CMD_DATA_COUPLING
        if cycle + 1 > next_command:
            next_command = cycle + 1
        return next_command, data_end

    def open_row_of(self, bank_index: int):
        return self.open_row[bank_index]

    # -- checkpointing -----------------------------------------------------

    def state_dict(self) -> dict:
        """Full timing state: per-bank row/activation/data columns plus
        bus, refresh horizon, and stats — everything a resumed run needs
        for cycle-exact continuation."""
        return {
            "banks": [[open_row, activated_at, last_data_end, bool(last_was_write)]
                      for open_row, activated_at, last_data_end, last_was_write
                      in zip(self.open_row, self.activated_at,
                             self.last_data_end, self.last_was_write)],
            "bus_free_at": self._bus_free_at,
            "next_refresh": self._next_refresh,
            "stats": dict(self.stats),
        }

    def load_state(self, state: dict) -> None:
        banks = state["banks"]
        if len(banks) != len(self.open_row):
            raise ValueError(
                f"bank count mismatch: checkpoint has {len(banks)}, "
                f"chip has {len(self.open_row)}")
        self.open_row[:] = [None if bank[0] is None else int(bank[0])
                            for bank in banks]
        self.activated_at[:] = [int(bank[1]) for bank in banks]
        self.last_data_end[:] = [int(bank[2]) for bank in banks]
        self.last_was_write[:] = [bool(bank[3]) for bank in banks]
        self._bus_free_at = int(state["bus_free_at"])
        self._next_refresh = int(state["next_refresh"])
        self.stats = {key: int(value) for key, value in state["stats"].items()}
