"""Golden-output regression: the experiment registry reproduces every
committed artefact, and the artefacts keep the paper's shape.

``benchmarks/output/`` holds the 11 rendered paper artefacts.  Every
registered experiment is built once on one shared
:class:`~repro.experiments.base.ExperimentContext` (the production path
behind ``python -m repro --run all``) and its rendered text is compared
byte-for-byte with the committed file.  Nothing here writes to
``benchmarks/output/``: a drift in the simulation model, the rendering
code or an experiment's parameters fails the suite instead of silently
rewriting the golden file.

The paper-shape checks then assert the paper's claims against each
experiment's structured result, including Figure 8's per-policy
fidelity as a tolerance against the paper's averages.  Two cheap
artefacts are also regenerated through ``cli.main`` so the CLI plumbing
stays covered.  The registry build runs with the object (reference)
interpreter rigged to raise.
"""

import pathlib

import pytest

from repro import __main__ as cli
from repro.core.policies import EccPolicyKind
from repro.ecc.hamming import HammingSecCode
from repro.ecc.parity import ParityCode
from repro.ecc.reliability import ReliabilityModel
from repro.ecc.secded import HsiaoSecDedCode
from repro.functional.reference import FunctionalSimulator
from repro.experiments import (
    ExperimentContext,
    ablation_hazards,
    all_experiments,
    fault_campaign,
    table2,
)
from repro.workloads.table2_reference import (
    PAPER_FIGURE8_AVERAGE_INCREASE,
    PAPER_LAEC_NO_IMPROVEMENT,
)

GOLDEN_DIR = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "output"

ARTIFACTS = sorted(experiment.artifact for experiment in all_experiments())

#: How far (in percentage points) each policy's average Figure 8
#: increase may sit from the paper's.  Today's gaps are 2.6 / 2.0 /
#: 1.6 pp for Extra Cycle / Extra Stage / LAEC.
FIGURE8_PAPER_TOLERANCE_PP = 3.0

#: (experiment name, artefact stem) pairs regenerated through the CLI.
GOLDEN_CASES = [
    ("table1", "table1"),
    ("wt_vs_wb", "wt_vs_wb_wcet"),
]


@pytest.fixture(scope="module")
def outputs():
    """Every registered experiment's output, keyed by artefact stem.

    Built with the object interpreter rigged to raise: the paper path
    runs the production interpreter only.
    """

    def forbidden(*_args, **_kwargs):
        raise AssertionError("object interpreter on the paper path")

    context = ExperimentContext()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FunctionalSimulator, "step", forbidden)
        return {
            experiment.artifact: experiment.execute(context)
            for experiment in all_experiments()
        }


def test_every_golden_file_has_an_experiment():
    assert sorted(path.stem for path in GOLDEN_DIR.glob("*.txt")) == ARTIFACTS


@pytest.mark.parametrize("artifact", ARTIFACTS)
def test_registry_reproduces_golden_artifact(outputs, artifact):
    golden = (GOLDEN_DIR / f"{artifact}.txt").read_text(encoding="utf-8")
    assert outputs[artifact].text + "\n" == golden, (
        f"{artifact} drifted from the committed golden output"
    )


@pytest.mark.parametrize("experiment,artifact", GOLDEN_CASES)
def test_cli_regenerates_golden_artifact(experiment, artifact, tmp_path):
    golden = GOLDEN_DIR / f"{artifact}.txt"
    assert golden.exists(), f"missing golden artefact {golden}"
    code = cli.main(["--run", experiment, "--out", str(tmp_path), "--quiet"])
    assert code == 0
    regenerated = tmp_path / f"{artifact}.txt"
    assert regenerated.read_text(encoding="utf-8") == golden.read_text(
        encoding="utf-8"
    ), f"{artifact} drifted from the committed golden output"


# --------------------------------------------------------------------- #
# paper-shape checks on the structured results                         #
# --------------------------------------------------------------------- #
def test_table1_shape(outputs):
    rows = outputs["table1"].data
    assert len(rows) == 5
    # The qualitative point of the table: the surveyed LEON parts offer no
    # write-back DL1, which is what motivates LAEC-style schemes.
    assert all(not cpu.supports_wb_l1 for cpu in rows if "LEON" in cpu.name)


def test_table2_shape(outputs):
    rows = outputs["table2"].data
    mean = table2.averages(rows)
    # Paper averages: 89 % hit loads, 60 % dependent loads, 25 % loads.
    # Our kernels are hand-written rather than compiled EEMBC binaries, so
    # the tolerance is generous; the check asserts the *shape*.
    assert 60.0 <= mean["pct_hit_loads"] <= 100.0
    assert 30.0 <= mean["pct_dependent_loads"] <= 90.0
    assert 10.0 <= mean["pct_loads"] <= 40.0
    by_name = {row.benchmark: row for row in rows}
    # cacheb stands out with very few dependent loads (paper: 13 %).
    assert by_name["cacheb"].measured_pct_dependent_loads < 20.0


def test_figure8_shape(outputs):
    result = outputs["figure8"].data
    comparison = result.comparison
    extra_cycle = result.average_increase(EccPolicyKind.EXTRA_CYCLE)
    extra_stage = result.average_increase(EccPolicyKind.EXTRA_STAGE)
    laec = result.average_increase(EccPolicyKind.LAEC)

    # Shape of Figure 8 (paper: ~17 %, ~10 %, < 4 %).
    assert laec < extra_stage < extra_cycle
    assert laec < 0.05
    assert 0.05 < extra_stage < 0.15
    assert 0.10 < extra_cycle < 0.25

    # Headline deltas: ~6 pp better than Extra Stage, ~13 pp than Extra Cycle.
    assert 0.03 < result.laec_improvement_over_extra_stage() < 0.10
    assert 0.08 < result.laec_improvement_over_extra_cycle() < 0.20

    # Per-benchmark observations the paper calls out explicitly.
    for name in PAPER_LAEC_NO_IMPROVEMENT:
        laec_inc = comparison.increase(name, EccPolicyKind.LAEC.value)
        stage_inc = comparison.increase(name, EccPolicyKind.EXTRA_STAGE.value)
        assert abs(laec_inc - stage_inc) < 0.02, name
    assert comparison.increase("cacheb", EccPolicyKind.EXTRA_STAGE.value) < 0.04


@pytest.mark.parametrize("policy", sorted(PAPER_FIGURE8_AVERAGE_INCREASE))
def test_figure8_average_within_paper_tolerance(outputs, policy):
    ours = outputs["figure8"].data.comparison.average_increase(policy)
    paper = PAPER_FIGURE8_AVERAGE_INCREASE[policy]
    gap_pp = abs(ours - paper) * 100.0
    assert gap_pp <= FIGURE8_PAPER_TOLERANCE_PP, (
        f"{policy}: ours {ours * 100:.1f}% vs paper ~{paper * 100:.0f}% "
        f"({gap_pp:.1f} pp > {FIGURE8_PAPER_TOLERANCE_PP} pp)"
    )


def test_chronograms_match_paper(outputs):
    # Every chronogram must reproduce the consumer stall pattern the paper
    # draws: 2 Execute cycles for no-ECC/LAEC-lookahead, 3 for Extra
    # Cycle/Extra Stage/LAEC-fallback, 1 when there is no dependence.
    for name, result in outputs["figures_2_to_7_chronograms"].data.items():
        assert result.matches_paper, name


def test_energy_report_shape(outputs):
    rows = outputs["energy_report"].data
    by_policy = {row.policy: row for row in rows}
    # Leakage energy increases track execution-time increases exactly.
    for row in rows:
        assert row.leakage_increase == pytest.approx(
            row.execution_time_increase, abs=1e-9
        )
    # LAEC's dynamic-energy cost over an already-ECC-protected design
    # (Extra Stage) is below 1 % — the paper's "minimal impact" claim.
    assert (
        abs(by_policy["laec"].dynamic_increase - by_policy["extra-stage"].dynamic_increase)
        < 0.01
    )
    # And the leakage penalty ordering mirrors Figure 8.
    assert (
        by_policy["laec"].leakage_increase
        < by_policy["extra-stage"].leakage_increase
        < by_policy["extra-cycle"].leakage_increase
    )


def test_wt_vs_wb_shape(outputs):
    result = outputs["wt_vs_wb_wcet"].data
    # Under worst-case bus contention the write-through DL1's WCET estimate
    # inflates well beyond the write-back + LAEC configuration (the paper
    # cites up to 6x for bus contention alone on its platform).
    assert result.average_wt_inflation() > 1.3
    for kernel in result.bounds:
        wt = result.bounds[kernel]["wt-parity"]
        wb = result.bounds[kernel]["wb-laec"]
        assert wt.contention_inflation > wb.contention_inflation


def test_ablation_hazards_shape(outputs):
    rows = outputs["ablation_hazards"].data
    by_name = {row.benchmark: row for row in rows}
    # The paper's no-improvement benchmarks are the ones whose loads
    # cannot be anticipated.
    for name in ("aifftr", "aiifft", "matrix"):
        assert by_name[name].take_rate < 0.2, name
    for name in ("puwmod", "aifirf", "iirflt"):
        assert by_name[name].take_rate > 0.8, name
    # And, as the paper observes, data hazards dominate the blocked cases.
    assert ablation_hazards.data_hazard_dominates(rows)


def test_ablation_sensitivity_shape(outputs):
    sweeps = outputs["ablation_sensitivity"].data
    # Extra Stage overhead must grow with the dependent-load fraction,
    # Extra Cycle with the load fraction, and LAEC with the fraction of
    # addresses produced by the preceding instruction.
    dependence = sweeps["dependent_load_fraction"]
    assert dependence[-1].increase["extra-stage"] > dependence[0].increase["extra-stage"]
    loads = sweeps["load_fraction"]
    assert loads[-1].increase["extra-cycle"] > loads[0].increase["extra-cycle"]
    hazard = sweeps["address_from_previous_fraction"]
    assert hazard[-1].increase["laec"] > hazard[0].increase["laec"]


def test_fault_campaign_guarantees(outputs):
    indexed = {(row.code, row.flips): row for row in outputs["fault_campaign"].data}
    # The guarantees the paper's DL1 protection relies on.
    assert indexed[("secded", 1)].corrected_rate == 1.0
    assert indexed[("secded", 2)].detected_rate == 1.0
    assert indexed[("secded", 2)].sdc_rate == 0.0
    # Parity never corrects; Hamming SEC silently corrupts on double flips.
    assert indexed[("parity", 1)].corrected_rate == 0.0
    assert indexed[("hamming", 2)].sdc_rate > 0.5
    # Analytically, SECDED gives the lowest array failure probability.
    model = ReliabilityModel(words=16 * 1024 // 4, bit_upset_rate_per_hour=1e-9)
    failure = {
        code.name: model.array_failure_probability(code)
        for code in (ParityCode(), HammingSecCode(), HsiaoSecDedCode())
    }
    assert failure["secded"] == min(failure.values())
