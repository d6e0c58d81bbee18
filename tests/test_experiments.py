"""Tests for the experiment drivers (small scales to stay fast)."""

import pytest

from repro.core.policies import EccPolicyKind
from repro.ecc.parity import ParityCode
from repro.ecc.reliability import ReliabilityModel
from repro.ecc.secded import HsiaoSecDedCode
from repro.experiments import (
    ablation_hazards,
    ablation_sensitivity,
    chronograms,
    energy_report,
    fault_campaign,
    figure8,
    table1,
    table2,
    wt_vs_wb,
)
from repro.experiments.runner import ExperimentRunner


@pytest.fixture(scope="module")
def small_run_set():
    """Three representative kernels at small scale under the four policies."""
    runner = ExperimentRunner(scale=0.12, kernels=["puwmod", "matrix", "cacheb"])
    return runner.run_all()


class TestTable1:
    def test_rows_and_rendering(self):
        rows = table1.run()
        assert len(rows) == 5
        leons = [r for r in rows if "LEON" in r.name]
        assert all(not cpu.supports_wb_l1 for cpu in leons)
        text = table1.render(rows)
        assert "Cortex R5" in text and "150MHz" in text


class TestTable2:
    def test_measured_statistics_in_plausible_ranges(self, small_run_set):
        rows = table2.run(run_set=small_run_set)
        assert {row.benchmark for row in rows} == {"puwmod", "matrix", "cacheb"}
        for row in rows:
            assert 0 < row.measured_pct_loads < 60
            assert 0 <= row.measured_pct_dependent_loads <= 100
            assert 0 < row.measured_pct_hit_loads <= 100
            assert row.paper_pct_loads is not None
        text = table2.render(rows)
        assert "average" in text

    def test_cacheb_has_few_dependent_loads(self, small_run_set):
        rows = {row.benchmark: row for row in table2.run(run_set=small_run_set)}
        assert rows["cacheb"].measured_pct_dependent_loads < 25
        assert rows["puwmod"].measured_pct_dependent_loads > 40


class TestFigure8:
    def test_policy_ordering_and_rendering(self, small_run_set):
        result = figure8.run(run_set=small_run_set)
        laec = result.average_increase(EccPolicyKind.LAEC)
        extra_stage = result.average_increase(EccPolicyKind.EXTRA_STAGE)
        extra_cycle = result.average_increase(EccPolicyKind.EXTRA_CYCLE)
        assert 0 <= laec <= extra_stage <= extra_cycle
        assert result.laec_improvement_over_extra_stage() >= 0
        text = figure8.render(result)
        assert "Figure 8" in text and "laec" in text


class TestChronograms:
    def test_all_figures_match_paper(self):
        results = chronograms.run()
        assert set(results) == {
            "figure2", "figure3", "figure4", "figure5", "figure7a", "figure7b",
        }
        for name, result in results.items():
            assert result.matches_paper, name
        text = chronograms.render(results)
        assert "Exe" in text and "figure7a" in text


class TestEnergyReport:
    def test_leakage_tracks_runtime(self, small_run_set):
        rows = energy_report.run(run_set=small_run_set)
        by_policy = {row.policy: row for row in rows}
        for row in rows:
            assert row.leakage_increase == pytest.approx(
                row.execution_time_increase, abs=1e-9
            )
        # LAEC's extra hardware adds almost nothing on top of what any
        # ECC-protected design (here Extra Stage) already pays.
        assert by_policy["laec"].dynamic_increase == pytest.approx(
            by_policy["extra-stage"].dynamic_increase, abs=0.01
        )
        assert "Energy study" in energy_report.render(rows)


class TestWtVsWb:
    def test_wt_wcet_inflation(self):
        result = wt_vs_wb.run(kernels=["puwmod"], scale=0.1)
        assert result.average_wt_inflation() > 1.0
        text = wt_vs_wb.render(result)
        assert "WCET" in text


class TestAblations:
    def test_hazard_breakdown(self, small_run_set):
        rows = ablation_hazards.run(run_set=small_run_set)
        by_name = {row.benchmark: row for row in rows}
        # matrix's loads have their addresses produced right before them.
        assert by_name["matrix"].take_rate < 0.2
        assert by_name["puwmod"].take_rate > 0.8
        assert ablation_hazards.data_hazard_dominates(rows)
        assert "Ablation A1" in ablation_hazards.render(rows)

    def test_sensitivity_sweep_monotonic_in_dependence(self):
        points = ablation_sensitivity.sweep(
            "dependent_load_fraction", (0.1, 0.9), instructions=4000
        )
        extra_stage = [p.increase["extra-stage"] for p in points]
        assert extra_stage[1] > extra_stage[0]
        text = ablation_sensitivity.render({"dependent_load_fraction": points})
        assert "dependent_load_fraction" in text

    def test_fault_campaign_guarantees(self):
        rows = fault_campaign.run(trials_per_point=300)
        indexed = {(row.code, row.flips): row for row in rows}
        assert indexed[("secded", 1)].corrected_rate == 1.0
        assert indexed[("secded", 2)].detected_rate == 1.0
        assert indexed[("secded", 2)].sdc_rate == 0.0
        assert indexed[("hamming", 2)].sdc_rate > 0.5
        assert indexed[("parity", 1)].detected_rate == 1.0
        model = ReliabilityModel(words=16 * 1024 // 4, bit_upset_rate_per_hour=1e-9)
        assert model.array_failure_probability(
            HsiaoSecDedCode()
        ) < model.array_failure_probability(ParityCode())
        assert "SECDED" in fault_campaign.render(rows)
