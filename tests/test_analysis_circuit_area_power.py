"""Circuit (Table III), area (Section VII-D) and power models."""

import pytest

from repro.analysis.area import DDR5_DIE_MM2, AreaModel
from repro.analysis.circuit import CircuitModel, CircuitParams
from repro.analysis.power import (
    CommandCounts,
    PowerModel,
    SystemPowerModel,
)
from repro.dram.timing import DDR4_2666


class TestTable3:
    """Every row of Table III within tight tolerance."""

    MODEL = CircuitModel()
    TABLE = MODEL.table3()

    def test_trcd_prime(self):
        assert self.TABLE.trcd_prime_ns == pytest.approx(17.7, abs=0.5)
        assert self.TABLE.trcd_ratio == pytest.approx(0.29, abs=0.03)

    def test_row_copy(self):
        assert self.TABLE.row_copy_ns == pytest.approx(73.9, abs=1.0)

    def test_remapping_row_sensing(self):
        assert self.TABLE.trcd_rm_ns == pytest.approx(2.3, abs=0.5)
        assert self.TABLE.trcd_rm_ratio == pytest.approx(-0.83, abs=0.05)

    def test_remapping_write_recovery(self):
        assert self.TABLE.twr_rm_ns == pytest.approx(9.0, abs=0.5)
        assert self.TABLE.twr_rm_ratio == pytest.approx(-0.24, abs=0.03)

    def test_remapping_read(self):
        assert self.TABLE.trd_rm_ns == pytest.approx(4.0, abs=0.5)
        assert self.TABLE.trd_rm_ratio == pytest.approx(-0.71, abs=0.05)

    def test_shuffle_totals_match_section7b(self):
        # 178 ns at DDR4-2666, 186 ns at DDR5-4800.
        assert self.MODEL.shuffle_total_ns(32.25, 14.25) == \
            pytest.approx(178, abs=4)
        assert self.MODEL.shuffle_total_ns(32.0, 16.25) == \
            pytest.approx(186, abs=5)

    def test_isolation_mechanism(self):
        """The isolated stub must swing far more than the full bitline
        (the >100x capacitance reduction the paper cites)."""
        full = self.MODEL.charge_sharing_swing_mv(isolated=False)
        stub = self.MODEL.charge_sharing_swing_mv(isolated=True)
        assert stub > 4 * full
        assert self.MODEL.sense_time_ns(True) < \
            0.25 * self.MODEL.sense_time_ns(False)

    def test_rows_layout(self):
        rows = self.TABLE.rows()
        assert len(rows) == 5
        assert rows[0][1] == "tRCD'"

    def test_calibration_guard(self):
        with pytest.raises(ValueError):
            CircuitModel(CircuitParams(baseline_trcd_ns=1.0))


class TestArea:
    MODEL = AreaModel()

    def test_total_matches_paper(self):
        report = self.MODEL.shadow_report()
        assert report.total_mm2 == pytest.approx(0.35, abs=0.06)
        assert report.fraction_of_die == pytest.approx(0.0047, abs=0.001)

    def test_capacity_overhead(self):
        # Paper: 0.6% (empty row + two remapping rows per 512).
        assert self.MODEL.capacity_overhead() == pytest.approx(0.006,
                                                               abs=0.0005)
        closed = AreaModel(open_bitline=False)
        assert closed.capacity_overhead() < self.MODEL.capacity_overhead()

    def test_shadow_beats_tracker_tables(self):
        comp = self.MODEL.comparison(hcnt=2048)
        assert comp["SHADOW"] < comp["Mithril-area"]
        assert comp["SHADOW"] < comp["Mithril-perf"]
        assert comp["SHADOW"] < comp["RRS (MC-side)"]
        # RRS's 43 KB/bank dwarfs everything (paper Section III-B).
        assert comp["RRS (MC-side)"] > comp["Mithril-perf"]

    def test_component_breakdown_positive(self):
        report = self.MODEL.shadow_report()
        assert all(v > 0 for v in report.components_mm2.values())
        assert report.total_mm2 < DDR5_DIE_MM2 * 0.01


class TestPower:
    def make_counts(self, acts=100_000, rfms=0, cycles=10_000_000):
        return CommandCounts(acts=acts, reads=acts * 2, writes=acts // 2,
                             refreshes=cycles // DDR4_2666.tREFI,
                             rfms=rfms, elapsed_cycles=cycles)

    def test_energies_positive_and_ordered(self):
        m = PowerModel(DDR4_2666)
        assert 0 < m.energy_rd_j()
        assert 0 < m.energy_act_j()
        assert m.energy_ref_j() > m.energy_act_j()   # tRFC >> tRC

    def test_shadow_power_slightly_above_baseline(self):
        counts = self.make_counts(rfms=1500)
        base = PowerModel(DDR4_2666, shadow=False).report(
            self.make_counts(rfms=0))
        shad = PowerModel(DDR4_2666, shadow=True).report(counts)
        assert shad.total_w > base.total_w
        # Paper: < 0.63% system-level; device-level stays within a few %.
        assert (shad.total_w - base.total_w) / base.total_w < 0.05

    def test_remap_access_dominates_shuffles(self):
        """Paper Figure 12's observation: power is dominated by the
        per-ACT remapping-row accesses, not the row-shuffle work."""
        counts = self.make_counts(acts=500_000, rfms=500_000 // 64)
        report = PowerModel(DDR4_2666, shadow=True).report(counts)
        assert report.remap_access_w > report.rfm_w

    def test_system_relative_power_is_tiny(self):
        sysm = SystemPowerModel(cpu_tdp_w=165.0, devices=32,
                                timing=DDR4_2666)
        base = self.make_counts(rfms=0)
        shad = self.make_counts(rfms=100_000 // 64)
        rel = sysm.relative_power(shad, base)
        assert 1.0 < rel < 1.0063   # paper: < 0.63% even at 2K hcnt

    def test_breakdown_sums_to_total(self):
        report = PowerModel(DDR4_2666, shadow=True).report(
            self.make_counts(rfms=100))
        assert sum(report.breakdown().values()) == \
            pytest.approx(report.total_w)

    def test_validation(self):
        with pytest.raises(ValueError):
            PowerModel(DDR4_2666).report(CommandCounts())
        with pytest.raises(ValueError):
            SystemPowerModel(cpu_tdp_w=0)

    def test_from_stats(self):
        from repro.dram.bank import BankStats
        stats = BankStats(acts=10, reads=20, writes=5, rfms=2)
        counts = CommandCounts.from_stats(stats, refs=3,
                                          elapsed_cycles=1000)
        assert counts.acts == 10
        assert counts.refreshes == 3
