"""Tests for chronogram recording/rendering and the statistics container."""

from repro.core.lookahead import LookaheadStatistics
from repro.pipeline.chronogram import Chronogram, ChronogramEntry
from repro.pipeline.config import PipelineConfig
from repro.pipeline.stages import Stage
from repro.pipeline.statistics import PipelineStatistics, StallBreakdown
from repro.scenarios.spec import SimulationSpec
from repro.simulation import simulate_spec


class TestChronogramContainer:
    def _entry(self, index=0):
        entry = ChronogramEntry(index=index, label=f"instr{index}")
        entry.record(Stage.FETCH, 1 + index, 1 + index)
        entry.record(Stage.DECODE, 2 + index, 2 + index)
        entry.record(Stage.EXECUTE, 4 + index, 5 + index)
        return entry

    def test_entry_bounds_and_lookup(self):
        entry = self._entry()
        assert entry.first_cycle == 1
        assert entry.last_cycle == 5
        assert entry.stage_at(4) is Stage.EXECUTE
        assert entry.stage_at(3) is None
        assert entry.cycles_in(Stage.EXECUTE) == 2
        assert entry.cycles_in(Stage.MEMORY) == 0

    def test_render_contains_stages_and_labels(self):
        chronogram = Chronogram(entries=[self._entry(0), self._entry(1)])
        text = chronogram.render()
        assert "instr0" in text and "instr1" in text
        assert "Exe" in text and "F" in text

    def test_window_filters_by_index(self):
        chronogram = Chronogram(entries=[self._entry(i) for i in range(5)])
        window = chronogram.window(1, 3)
        assert len(window) == 3
        assert window[0].index == 1

    def test_empty_render(self):
        assert "empty" in Chronogram().render()

    def test_recording_window_limits_entries(self, tiny_program, tiny_trace):
        spec = SimulationSpec(
            policy="extra-stage", pipeline=PipelineConfig(chronogram_window=6)
        )
        result = simulate_spec(spec, program=tiny_program, trace=tiny_trace)
        assert len(result.chronogram) == 6
        # The ECC stage must show up for the recorded load hits (if any hit
        # in the first six instructions the warm-up may still be cold, so
        # just assert rendering works and stages are consistent).
        assert result.chronogram.render()


class TestStatisticsContainer:
    def test_derived_metrics(self):
        stats = PipelineStatistics(
            instructions=1000,
            cycles=1300,
            loads=250,
            load_hits=220,
            load_misses=30,
            dependent_loads=150,
        )
        assert stats.cpi == 1.3
        assert stats.load_fraction == 0.25
        assert stats.load_hit_rate == 0.88
        assert stats.dependent_load_fraction == 0.6

    def test_table2_row_percentages(self):
        stats = PipelineStatistics(
            instructions=100, cycles=100, loads=25, load_hits=20, dependent_loads=15
        )
        row = stats.table2_row()
        assert row["pct_loads"] == 25.0
        assert row["pct_hit_loads"] == 80.0
        assert row["pct_dependent_loads"] == 60.0

    def test_empty_statistics_do_not_divide_by_zero(self):
        stats = PipelineStatistics()
        assert stats.cpi == 0.0
        assert stats.load_hit_rate == 0.0
        assert stats.dependent_load_fraction == 0.0

    def test_as_dict_includes_stalls_and_lookahead(self):
        stats = PipelineStatistics(
            instructions=10,
            cycles=20,
            stalls=StallBreakdown(load_use_wait=3),
            lookahead=LookaheadStatistics(loads_seen=4, lookaheads_taken=2),
        )
        data = stats.as_dict()
        assert data["stall_load_use_wait"] == 3
        assert data["lookahead_take_rate"] == 0.5

    def test_stall_breakdown_total(self):
        breakdown = StallBreakdown(load_use_wait=2, dl1_miss=5, branch_redirect=1)
        assert breakdown.total() == 8
