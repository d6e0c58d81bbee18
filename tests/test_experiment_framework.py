"""Tests for the Experiment framework, catalogue, CLI and trace-cache cap."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro import __main__ as cli
from repro.experiments import ExperimentContext, all_experiments
from repro.experiments.catalog import experiment_names, get_experiment
from repro.experiments.runner import clear_kernel_trace_cache
from repro.experiments.catalog import EXPERIMENTS
from repro.experiments.runner import cached_kernel_trace
from repro.workloads import golden as golden_cache
from repro.workloads.golden import KERNEL_TRACE_CACHE_MAX_ENTRIES

EXPECTED_EXPERIMENTS = {
    "table1",
    "table2",
    "figure8",
    "chronograms",
    "energy_report",
    "wt_vs_wb",
    "ablation_hazards",
    "ablation_sensitivity",
    "fault_campaign",
    "campaign_summary",
    "sweep_summary",
}

EXPECTED_ARTIFACTS = {
    "table1",
    "table2",
    "figure8",
    "figures_2_to_7_chronograms",
    "energy_report",
    "wt_vs_wb_wcet",
    "ablation_hazards",
    "ablation_sensitivity",
    "fault_campaign",
    "campaign_summary",
    "sweep_summary",
}


class TestRegistry:
    def test_every_paper_artifact_is_registered(self):
        assert set(experiment_names()) == EXPECTED_EXPERIMENTS
        assert {e.artifact for e in all_experiments()} == EXPECTED_ARTIFACTS

    def test_every_experiment_is_described(self):
        for experiment in EXPERIMENTS:
            assert experiment.name
            assert experiment.description

    def test_row_names_are_unique(self):
        names = [experiment.name for experiment in EXPERIMENTS]
        assert len(names) == len(set(names))

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            get_experiment("no-such-experiment")


class TestExecution:
    def test_table1_executes_and_writes_artifact(self, tmp_path):
        output = get_experiment("table1").execute()
        assert output.artifact == "table1"
        assert "Table I" in output.text
        path = output.write(tmp_path)
        assert path == tmp_path / "table1.txt"
        assert path.read_text(encoding="utf-8") == output.text + "\n"

    def test_context_shares_one_run_set(self):
        context = ExperimentContext(scale=0.1)
        first = context.run_set()
        second = context.run_set()
        assert first is second

    def test_run_set_consumers_share_the_context_matrix(self):
        context = ExperimentContext(scale=0.12)
        # monkeypatch-free check: both experiments must reuse the same
        # KernelRunSet object through the context
        run_set = context.run_set()
        table2_result = get_experiment("table2").build(context)
        assert context.run_set() is run_set
        assert len(table2_result) == len(run_set.benchmarks())


class TestCli:
    def test_list(self, capsys):
        assert cli.main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in EXPECTED_EXPERIMENTS:
            assert name in out

    def test_list_scenarios(self, capsys):
        assert cli.main(["--list-scenarios"]) == 0
        assert "laec-worst" in capsys.readouterr().out

    def test_no_action_is_an_error(self, capsys):
        assert cli.main([]) == 2

    def test_unknown_experiment_is_an_error(self, capsys):
        assert cli.main(["--run", "nope"]) == 2

    @pytest.mark.parametrize("scale", ["0", "-1"])
    def test_non_positive_scale_is_an_error(self, tmp_path, capsys, scale):
        code = cli.main(["--run", "table2", "--scale", scale, "--out", str(tmp_path)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == f"kernel scale must be positive, got {float(scale)}\n"
        assert list(tmp_path.iterdir()) == []

    def test_run_writes_artifact(self, tmp_path, capsys):
        assert cli.main(["--run", "table1", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "table1.txt").exists()
        out = capsys.readouterr().out
        assert "Table I" in out

    def test_quiet_suppresses_stdout_table(self, tmp_path, capsys):
        assert cli.main(["--run", "table1", "--out", str(tmp_path), "--quiet"]) == 0
        assert "Table I" not in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--list", "--list-scenarios"])
    def test_closed_stdout_exits_without_traceback(self, flag):
        # The read end is closed before the child writes, as when
        # ``python -m repro --list | head -1`` stops reading.
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.pathsep.join(
            [str(src), environment.get("PYTHONPATH", "")]
        )
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            completed = subprocess.run(
                [sys.executable, "-m", "repro", flag],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=environment,
                text=True,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert completed.returncode == 1
        assert completed.stderr == ""


class TestKernelTraceCacheCap:
    def test_cache_is_bounded_and_evicts_oldest(self):
        clear_kernel_trace_cache()
        try:
            original = golden_cache.KERNEL_TRACE_CACHE_MAX_ENTRIES
            golden_cache.KERNEL_TRACE_CACHE_MAX_ENTRIES = 3
            for scale in (0.01, 0.02, 0.03, 0.04):
                cached_kernel_trace("rspeed", scale)
            assert len(golden_cache._GOLDEN_CACHE) == 3
            # oldest entry (0.01) was evicted, newest still present
            assert ("rspeed", 0.01) not in golden_cache._GOLDEN_CACHE
            assert ("rspeed", 0.04) in golden_cache._GOLDEN_CACHE
        finally:
            golden_cache.KERNEL_TRACE_CACHE_MAX_ENTRIES = original
            clear_kernel_trace_cache()

    def test_clear_is_public_api(self):
        assert not clear_kernel_trace_cache.__name__.startswith("_")
        cached_kernel_trace("rspeed", 0.01)
        clear_kernel_trace_cache()
        assert len(golden_cache._GOLDEN_CACHE) == 0

    def test_default_cap_fits_full_campaign(self):
        assert KERNEL_TRACE_CACHE_MAX_ENTRIES >= 16
