"""DDR4 timing model and the FR-FCFS controller."""

import numpy as np
import pytest

from repro.mem.controller import MemoryController
from repro.mem.dram import DDR4_2400, DramChip
from repro.mem.trace import MemoryRequest
from repro.workloads.generators import random_trace, streaming_trace, strided_trace


class TestDramChip:
    def test_row_hit_faster_than_conflict(self):
        chip = DramChip()
        _, first = chip.access(0, False, 0)
        hit_start = first
        next_cmd, hit_end = chip.access(64, False, hit_start)
        hit_cost = hit_end - hit_start
        # conflict: same bank, different row
        row_bytes = chip.layout.row_bytes * chip.layout.banks
        _, conflict_end = chip.access(row_bytes, False, next_cmd)
        conflict_cost = conflict_end - next_cmd
        assert conflict_cost > hit_cost

    def test_stats_classification(self):
        chip = DramChip()
        chip.access(0, False, 0)  # empty bank -> miss (activate)
        chip.access(64, False, 100)  # same row -> hit
        chip.access(chip.layout.row_bytes * chip.layout.banks, False, 200)  # conflict
        assert chip.stats["row_misses"] == 1
        assert chip.stats["row_hits"] == 1
        assert chip.stats["row_conflicts"] == 1

    def test_refresh_fires(self):
        chip = DramChip()
        chip.access(0, False, 0)
        chip.access(64, False, DDR4_2400.tREFI + 10)
        assert chip.stats["refreshes"] >= 1

    def test_refresh_closes_rows(self):
        chip = DramChip()
        chip.access(0, False, 0)
        assert chip.open_row_of(0) is not None
        chip.access(64, False, DDR4_2400.tREFI + 10)
        # the refresh closed the row; this access re-opened it
        assert chip.stats["row_misses"] == 2


class TestController:
    def test_streaming_near_peak_bandwidth(self):
        mc = MemoryController()
        bw = mc.effective_bandwidth_gbps(nbytes=1 << 18)
        assert bw > 0.85 * DDR4_2400.peak_bandwidth_gbps

    def test_random_much_slower_than_streaming(self):
        rng = np.random.default_rng(7)
        stream = MemoryController().run_trace(streaming_trace(1 << 17))
        rand = MemoryController().run_trace(random_trace(2048, 1 << 28, rng))
        stream_bw = stream.bandwidth_gbps(DDR4_2400.freq_mhz)
        rand_bw = rand.bandwidth_gbps(DDR4_2400.freq_mhz)
        assert rand_bw < 0.5 * stream_bw

    def test_large_requests_split_into_bursts(self):
        mc = MemoryController()
        result = mc.run_trace([MemoryRequest(0, 4096, False)])
        assert result.bursts == 4096 // 64
        assert result.requests == 1

    def test_fr_fcfs_prefers_row_hits(self):
        """A row-hit-rich trace completes faster than the same requests
        forced into conflict order on a single-entry window."""
        layout_conflict_stride = 8192 * 16  # same bank, new row every time
        hits = strided_trace(256, 64)
        conflicts = strided_trace(256, layout_conflict_stride)
        t_hits = MemoryController().run_trace(hits).cycles
        t_conf = MemoryController().run_trace(conflicts).cycles
        assert t_conf > 2 * t_hits

    def test_write_fraction_validated(self):
        with pytest.raises(ValueError):
            MemoryController().effective_bandwidth_gbps(write_fraction=1.5)

    def test_queue_depth_validated(self):
        with pytest.raises(ValueError, match="queue_depth"):
            MemoryController(queue_depth=0)

    @pytest.mark.parametrize("bank, row", [(16, 0), (-1, 0), (0, -2)])
    def test_checkpoint_carry_outside_the_chip_refused(self, bank, row):
        """The compiled loop indexes bank state by a carried burst's
        bank: a checkpoint's carry must name a real bank and row."""
        session = MemoryController().session()
        state = session.state_dict()
        state.update(carry_write=[0], carry_bank=[bank], carry_row=[row])
        with pytest.raises(ValueError, match="carried bursts"):
            session.load_state(state)

    def test_checkpoint_carry_that_fills_the_window_refused(self):
        """A seam leaves fewer bursts than the window holds (it pauses
        only once the window cannot fill), and the compiled loop keeps
        the residue in its window: a carry of ``queue_depth`` bursts is
        refused, one fewer is taken."""
        session = MemoryController(queue_depth=4).session()
        state = session.state_dict()
        for carried, refused in ((3, False), (4, True)):
            state.update(carry_write=[0] * carried, carry_bank=[0] * carried,
                         carry_row=[0] * carried)
            if refused:
                with pytest.raises(ValueError, match="carried bursts fill"):
                    session.load_state(state)
            else:
                session.load_state(state)

    def test_empty_trace(self):
        result = MemoryController().run_trace([])
        assert result.cycles == 0
        assert result.bursts == 0

    def test_cycles_monotonic_in_trace_length(self):
        short = MemoryController().run_trace(streaming_trace(1 << 14))
        longer = MemoryController().run_trace(streaming_trace(1 << 16))
        assert longer.cycles > short.cycles
