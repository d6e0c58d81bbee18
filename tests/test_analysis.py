"""Tests for the analysis layer: metrics, energy, WCET, reporting."""

import pytest

from repro.analysis.energy import EnergyModel, estimate_energy
from repro.analysis.metrics import PolicyComparison, compare_policies
from repro.analysis.reporting import Table, bar_chart
from repro.core.policies import EccPolicyKind
from repro.experiments import wt_vs_wb
from repro.scenarios.interference import InterferenceScenario
from repro.scenarios.spec import SimulationSpec
from repro.simulation import simulate_spec


class TestMetrics:
    def _comparison(self) -> PolicyComparison:
        comparison = PolicyComparison(baseline_policy="no-ecc")
        comparison.add("a", "no-ecc", 1000)
        comparison.add("a", "laec", 1040)
        comparison.add("a", "extra-stage", 1100)
        comparison.add("b", "no-ecc", 2000)
        comparison.add("b", "laec", 2020)
        comparison.add("b", "extra-stage", 2240)
        return comparison

    def test_increase_and_average(self):
        comparison = self._comparison()
        assert comparison.increase("a", "laec") == pytest.approx(0.04)
        assert comparison.average_increase("extra-stage") == pytest.approx(
            (0.10 + 0.12) / 2
        )

    def test_improvement_over(self):
        comparison = self._comparison()
        improvement = comparison.improvement_over("laec", "extra-stage")
        assert improvement == pytest.approx(((0.10 - 0.04) + (0.12 - 0.01)) / 2)

    def test_rows_include_average(self):
        rows = self._comparison().as_rows()
        assert rows[-1]["benchmark"] == "average"
        assert len(rows) == 3

    def test_compare_policies_from_results(self, small_kernel_results):
        comparison = compare_policies(small_kernel_results)
        assert set(comparison.benchmarks()) == set(small_kernel_results)
        for benchmark in comparison.benchmarks():
            assert comparison.increase(benchmark, "laec") >= -1e-9


class TestEnergy:
    def test_leakage_tracks_execution_time(self, small_kernel_results):
        per_policy = small_kernel_results["puwmod"]
        baseline = estimate_energy(per_policy["no-ecc"])
        extra_stage = estimate_energy(per_policy["extra-stage"])
        deltas = extra_stage.relative_to(baseline)
        time_increase = (
            per_policy["extra-stage"].cycles / per_policy["no-ecc"].cycles - 1.0
        )
        assert deltas["leakage"] == pytest.approx(time_increase, abs=1e-9)

    def test_laec_dynamic_overhead_small_versus_extra_stage(self, small_kernel_results):
        # The paper's "< 1 % power impact" claim compares LAEC against the
        # other ECC-protected designs (the ECC check itself is paid by all
        # of them); the LAEC-specific additions are the adder and the two
        # register-file read ports.
        per_policy = small_kernel_results["puwmod"]
        extra_stage = estimate_energy(per_policy["extra-stage"])
        laec = estimate_energy(per_policy["laec"])
        assert laec.relative_to(extra_stage)["dynamic"] < 0.01

    def test_breakdown_components_positive(self, small_kernel_results):
        report = estimate_energy(small_kernel_results["matrix"]["laec"])
        assert report.total > 0
        assert all(value >= 0 for value in report.breakdown.values())

    def test_lookahead_energy_counts_ports_and_adder(self):
        model = EnergyModel()
        assert model.lookahead_overhead_per_load() == pytest.approx(
            2 * model.register_file_read_energy + model.adder_energy
        )


class TestWcet:
    def test_wt_inflates_more_than_wb(self):
        study = wt_vs_wb.run(kernels=("puwmod",), scale=0.1).bounds["puwmod"]
        wt = study["wt-parity"]
        wb = study["wb-laec"]
        assert wt.contention_inflation > wb.contention_inflation
        assert wt.wcet_estimate_cycles > wb.wcet_estimate_cycles
        # The safety margin is applied on top of the contended observation.
        assert wt.wcet_estimate_cycles == int(round(wt.observed_contention_cycles * 1.2))

    def test_write_policy_study_interprets_once(self, monkeypatch):
        import repro.simulation
        from repro.functional.interpreter import run_program

        calls = []

        def counting_run_program(program, **kwargs):
            calls.append(program.name)
            return run_program(program, **kwargs)

        monkeypatch.setattr(repro.simulation, "run_program", counting_run_program)
        monkeypatch.setattr(wt_vs_wb, "run_program", counting_run_program)
        study = wt_vs_wb.run(kernels=("puwmod",), scale=0.1).bounds["puwmod"]
        assert calls == ["puwmod"]
        # The shared trace times exactly what a run of its own would.
        isolation, contention = (
            simulate_spec(
                SimulationSpec(
                    kernel="puwmod",
                    scale=0.1,
                    policy=EccPolicyKind.LAEC,
                    interference=scenario,
                )
            ).cycles
            for scenario in (
                InterferenceScenario("isolation", 0, "none"),
                InterferenceScenario("worst", 3, "worst"),
            )
        )
        assert study["wb-laec"] == wt_vs_wb.WcetBound(
            isolation, contention, int(round(contention * 1.2))
        )

    def test_isolation_runs_are_the_registry_isolation_spec(self, monkeypatch):
        """The study's isolation and contention runs are the registry's
        ``isolation`` and ``worst`` scenarios, so they hash to the same
        store keys as every other run of those scenarios."""
        from repro.scenarios.registry import get_scenario
        from repro.store.canonical import spec_hash

        specs = []

        def recording_simulate_spec(spec, **kwargs):
            specs.append(spec)
            return simulate_spec(spec, **kwargs)

        monkeypatch.setattr(wt_vs_wb, "simulate_spec", recording_simulate_spec)
        wt_vs_wb.run(kernels=("puwmod",), scale=0.1)
        expected = {
            spec_hash(get_scenario(name, kernel="puwmod", scale=0.1, policy=policy))
            for name in ("isolation", "worst")
            for _, policy in wt_vs_wb.CONFIGURATIONS
        }
        assert {spec_hash(spec) for spec in specs} == expected
        assert len(specs) == len(expected)


class TestReporting:
    def test_table_render(self):
        table = Table(title="demo", columns=["name", "value"])
        table.add_row(name="x", value=1.5)
        table.add_row(name="y", value=2)
        text = table.render()
        assert "demo" in text and "x" in text

    def test_unknown_column_rejected(self):
        table = Table(title="demo", columns=["a"])
        with pytest.raises(KeyError):
            table.add_row(b=1)
        with pytest.raises(KeyError):
            table.column("b")

    def test_bar_chart(self):
        chart = bar_chart({"laec": 0.04, "extra-stage": 0.10})
        assert "laec" in chart and "#" in chart
        assert bar_chart({}) == "(no data)"


# ===================================================================== #
# The static analyzer (repro.analysis.lint)                             #
# ===================================================================== #

import json
import pathlib
import textwrap

from repro import __main__ as cli
from repro.analysis.lint.engine import (
    lint_paths,
    lint_sources,
    load_baseline,
    write_baseline,
)
from repro.analysis.lint.findings import REPORT_VERSION, validate_report
from repro.analysis.lint.manifest import classify
from repro.analysis.lint.storerules import parse_documented_names
from repro.analysis.lint.rules import DocumentedNames
from repro.analysis.lint.waivers import parse_waivers

REPO = pathlib.Path(__file__).resolve().parents[1]
ERRORS_SOURCE = (REPO / "src" / "repro" / "campaign" / "errors.py").read_text(
    encoding="utf-8"
)


def run_lint(source, *, cls="core", tags=(), name="fixture.py", documented=None):
    """Lint one dedented fixture module pinned to a manifest class."""
    overrides = [(name, cls, frozenset(tags))]
    return lint_sources(
        {name: textwrap.dedent(source)},
        documented=documented,
        overrides=overrides,
    )


def fired(report, rule_id):
    return [f for f in report.findings if f.rule == rule_id]


class TestManifest:
    def test_real_tree_classes(self):
        assert classify("src/repro/store/canonical.py").module_class == "serialization"
        assert classify("src/repro/campaign/errors.py").module_class == "serialization"
        assert classify("src/repro/telemetry/trace.py").module_class == "telemetry"
        assert classify("src/repro/analysis/lint/engine.py").module_class == "tool"
        assert classify("src/repro/__main__.py").module_class == "cli"
        assert classify("src/repro/campaign/engine.py").module_class == "core"

    def test_sharding_tags(self):
        verdict = classify("src/repro/store/sharding.py")
        assert verdict.has_tag("allow-pid") and verdict.has_tag("store-api")
        assert not classify("src/repro/campaign/chaos.py").has_tag("allow-pid")

    def test_overrides_win(self):
        verdict = classify("x.py", overrides=[("x.py", "console", frozenset())])
        assert verdict.module_class == "console"
        assert not verdict.deterministic


class TestD101WallClock:
    FIXTURE = """
        import time

        def stamp():
            return time.time()
    """

    def test_fires_in_core(self):
        assert len(fired(run_lint(self.FIXTURE), "D101")) == 1

    def test_near_miss_perf_counter(self):
        clean = self.FIXTURE.replace("time.time()", "time.perf_counter()")
        assert fired(run_lint(clean), "D101") == []

    def test_near_miss_telemetry_class(self):
        assert fired(run_lint(self.FIXTURE, cls="telemetry"), "D101") == []

    def test_import_alias_resolved(self):
        aliased = """
            from time import monotonic as mono

            def stamp():
                return mono()
        """
        assert len(fired(run_lint(aliased), "D101")) == 1


class TestD102Entropy:
    def test_global_rng_fires(self):
        report = run_lint(
            """
            import random

            def pick():
                return random.random()
            """
        )
        assert len(fired(report, "D102")) == 1

    def test_near_miss_seeded_instance(self):
        report = run_lint(
            """
            import random

            def pick(seed):
                rng = random.Random(seed)
                return rng.random()
            """
        )
        assert fired(report, "D102") == []

    def test_seedless_random_fires(self):
        report = run_lint(
            """
            import random

            def pick():
                return random.Random().random()
            """
        )
        assert len(fired(report, "D102")) == 1

    def test_builtin_hash_fires_but_int_literal_passes(self):
        report = run_lint(
            """
            def key(name):
                return hash(name)

            def fixed():
                return hash(42)
            """
        )
        findings = fired(report, "D102")
        assert len(findings) == 1 and "PYTHONHASHSEED" in findings[0].message

    def test_urandom_fires(self):
        report = run_lint(
            """
            import os

            def salt():
                return os.urandom(8)
            """
        )
        assert len(fired(report, "D102")) == 1


class TestD103UnsortedIteration:
    def test_set_iteration_fires_in_serialization(self):
        report = run_lint(
            """
            def render(keys):
                pending = set(keys)
                return [k for k in pending]
            """,
            cls="serialization",
        )
        assert len(fired(report, "D103")) == 1

    def test_near_miss_sorted(self):
        report = run_lint(
            """
            def render(keys):
                pending = set(keys)
                return [k for k in sorted(pending)]
            """,
            cls="serialization",
        )
        assert fired(report, "D103") == []

    def test_dict_view_join_fires(self):
        report = run_lint(
            """
            def render(table):
                return ",".join(table.keys())
            """,
            cls="serialization",
        )
        assert len(fired(report, "D103")) == 1

    def test_near_miss_core_class(self):
        report = run_lint(
            """
            def render(keys):
                pending = set(keys)
                return [k for k in pending]
            """
        )
        assert fired(report, "D103") == []

    def test_set_algebra_fires(self):
        report = run_lint(
            """
            def diff(a, b):
                left = set(a)
                right = set(b)
                for item in left - right:
                    yield item
            """,
            cls="serialization",
        )
        assert len(fired(report, "D103")) == 1


class TestD104Pid:
    FIXTURE = """
        import os

        def tag():
            return os.getpid()
    """

    def test_fires_in_core(self):
        assert len(fired(run_lint(self.FIXTURE), "D104")) == 1

    def test_near_miss_allow_pid_tag(self):
        report = run_lint(self.FIXTURE, cls="serialization", tags=("allow-pid",))
        assert fired(report, "D104") == []


class TestP201ReduceFidelity:
    def test_shipped_taxonomy_is_clean(self):
        report = lint_sources({"campaign/errors.py": ERRORS_SOURCE})
        assert fired(report, "P201") == []
        assert fired(report, "P202") == []

    def test_mutation_dropping_details_is_caught(self):
        # Re-introduce the PR 8 bug: __reduce__ forgets self.details.
        mutated = ERRORS_SOURCE.replace(
            "(type(self), self.message, self.details)",
            "(type(self), self.message, {})",
        )
        assert mutated != ERRORS_SOURCE
        report = lint_sources({"campaign/errors.py": mutated})
        findings = fired(report, "P201")
        assert len(findings) == 1 and "details" in findings[0].message

    def test_mutation_deleting_reduce_is_caught(self):
        mutated = ERRORS_SOURCE.replace("def __reduce__", "def _no_reduce")
        assert mutated != ERRORS_SOURCE
        report = lint_sources({"campaign/errors.py": mutated})
        findings = fired(report, "P201")
        assert findings and "default Exception.__reduce__" in findings[0].message

    def test_subclass_state_checked_against_inherited_reduce(self):
        source = ERRORS_SOURCE + textwrap.dedent(
            """
            class ExtraStateError(CampaignError):
                def __init__(self, message, **details):
                    super().__init__(message, **details)
                    self.hint = "x"
            """
        )
        report = lint_sources({"campaign/errors.py": source})
        findings = fired(report, "P201")
        assert len(findings) == 1 and "hint" in findings[0].message


class TestP202InitSignature:
    def test_incompatible_subclass_fires(self):
        source = ERRORS_SOURCE + textwrap.dedent(
            """
            class BadSignature(CampaignError):
                def __init__(self, message, code):
                    super().__init__(message, code=code)
            """
        )
        report = lint_sources({"campaign/errors.py": source})
        findings = fired(report, "P202")
        assert len(findings) == 1 and "BadSignature" in findings[0].message

    def test_near_miss_faithful_subclass(self):
        source = ERRORS_SOURCE + textwrap.dedent(
            """
            class GoodSignature(CampaignError):
                def __init__(self, message, **details):
                    super().__init__(message, **details)
            """
        )
        report = lint_sources({"campaign/errors.py": source})
        assert fired(report, "P202") == []

    def test_unrelated_exception_ignored(self):
        report = run_lint(
            """
            class LocalError(Exception):
                def __init__(self, a, b):
                    self.a = a
                    self.b = b
            """
        )
        assert fired(report, "P202") == []


class TestP203PoolClosure:
    FIXTURE = """
        from concurrent.futures import ProcessPoolExecutor

        CACHE = {}

        def job(key):
            return CACHE[key]

        def main(keys):
            with ProcessPoolExecutor(max_workers=2) as pool:
                return [pool.submit(job, key) for key in keys]
    """

    def test_unwarmed_module_state_fires(self):
        findings = fired(run_lint(self.FIXTURE), "P203")
        assert len(findings) == 1 and "CACHE" in findings[0].message

    def test_near_miss_initializer_populates(self):
        warmed = textwrap.dedent(
            """
            from concurrent.futures import ProcessPoolExecutor

            CACHE = {}

            def warm(payload):
                global CACHE
                CACHE = dict(payload)

            def job(key):
                return CACHE[key]

            def main(keys, payload):
                with ProcessPoolExecutor(
                    max_workers=2, initializer=warm, initargs=(payload,)
                ) as pool:
                    return [pool.submit(job, key) for key in keys]
            """
        )
        assert fired(run_lint(warmed), "P203") == []


class TestP204SqliteFork:
    def test_module_scope_connection_fires(self):
        report = run_lint(
            """
            import sqlite3

            CONNECTION = sqlite3.connect("store.sqlite")
            """
        )
        assert len(fired(report, "P204")) == 1

    def test_near_miss_function_scope(self):
        report = run_lint(
            """
            import sqlite3

            def open_store(path):
                return sqlite3.connect(path)
            """
        )
        assert fired(report, "P204") == []

    def test_connection_shipped_to_pool_fires(self):
        report = run_lint(
            """
            import sqlite3
            from concurrent.futures import ProcessPoolExecutor

            def job(connection):
                return connection.execute("SELECT 1").fetchone()

            def main(path):
                connection = sqlite3.connect(path)
                with ProcessPoolExecutor() as pool:
                    return pool.submit(job, connection).result()
            """
        )
        findings = fired(report, "P204")
        assert len(findings) == 1 and "cross a fork" in findings[0].message


class TestS301StoreBypass:
    FIXTURE = """
        def poke(connection, key):
            connection.execute(
                "UPDATE results SET payload = 'x' WHERE key = ?", (key,)
            )
    """

    def test_raw_write_fires(self):
        assert len(fired(run_lint(self.FIXTURE), "S301")) == 1

    def test_near_miss_store_api_tag(self):
        report = run_lint(
            self.FIXTURE, cls="serialization", tags=("store-api",)
        )
        assert fired(report, "S301") == []

    def test_near_miss_select(self):
        report = run_lint(
            """
            def peek(connection, key):
                return connection.execute(
                    "SELECT payload FROM results WHERE key = ?", (key,)
                ).fetchone()
            """
        )
        assert fired(report, "S301") == []


DOC_FIXTURE = textwrap.dedent(
    """
    # Fixture architecture

    `campaign_outside_total` is mentioned outside the section and ignored.

    ## Observability

    | metric | type | labels |
    |---|---|---|
    | `campaign_points_total` | counter | |
    | `campaign_phase_seconds` | histogram | `phase=sampling\\|merge` |

    | kind | names |
    |---|---|
    | span | `campaign`, `batch` |
    | event | `retry` |

    ## Something else

    `store_after_total` is also outside the section.
    """
)


class TestDocumentedNames:
    def test_section_scoped_parse(self):
        documented = parse_documented_names(DOC_FIXTURE, "DOC.md")
        assert documented.metrics == {
            "campaign_points_total",
            "campaign_phase_seconds",
        }
        assert documented.phases == {"sampling", "merge"}
        assert documented.spans == {"campaign", "batch"}
        assert documented.events == {"retry"}

    def test_real_doc_parses(self):
        documented = parse_documented_names(
            (REPO / "ARCHITECTURE.md").read_text(encoding="utf-8"), "ARCHITECTURE.md"
        )
        assert "store_shard_merges_total" in documented.metrics
        assert "merge" in documented.phases
        assert {"campaign", "batch", "point"} <= documented.spans
        assert "campaign-error" in documented.events


class TestS302S303NameDrift:
    def _documented(self):
        return parse_documented_names(DOC_FIXTURE, "DOC.md")

    def test_undocumented_metric_fires(self):
        report = run_lint(
            """
            from repro.telemetry import metrics as _metrics

            def count():
                _metrics.inc("campaign_bogus_total")
            """,
            documented=self._documented(),
        )
        findings = fired(report, "S302")
        assert len(findings) == 1 and "campaign_bogus_total" in findings[0].message

    def test_near_miss_documented_metric(self):
        report = run_lint(
            """
            from repro.telemetry import metrics as _metrics

            def count():
                _metrics.inc("campaign_points_total")
            """,
            documented=self._documented(),
        )
        assert fired(report, "S302") == []

    def test_constant_resolution(self):
        report = run_lint(
            """
            from repro.telemetry import metrics as _metrics

            PHASE_METRIC = "campaign_phase_seconds"

            def record(seconds):
                _metrics.observe(PHASE_METRIC, seconds)
            """,
            documented=self._documented(),
        )
        assert fired(report, "S302") == []

    def test_documented_but_never_emitted_fires(self):
        report = run_lint(
            """
            from repro.telemetry import metrics as _metrics

            def count():
                _metrics.inc("campaign_points_total")
            """,
            documented=self._documented(),
        )
        stale = fired(report, "S303")
        assert stale, "expected S303 for documented-but-unemitted names"
        assert all(f.path == "DOC.md" for f in stale)
        assert any("campaign_phase_seconds" in f.message for f in stale)

    def test_skips_without_doc(self):
        report = run_lint(
            """
            from repro.telemetry import metrics as _metrics

            def count():
                _metrics.inc("campaign_bogus_total")
            """
        )
        assert fired(report, "S302") == []
        assert fired(report, "S303") == []


class TestWaivers:
    def test_trailing_waiver_suppresses(self):
        report = run_lint(
            """
            import time

            def stamp():
                return time.time()  # repro: allow[D101] reason=console only
            """
        )
        (finding,) = fired(report, "D101")
        assert finding.waived and finding.waive_reason == "console only"
        assert report.active == []

    def test_standalone_waiver_targets_next_code_line(self):
        report = run_lint(
            """
            import time

            def stamp():
                # repro: allow[D101] reason=console only
                return time.time()
            """
        )
        (finding,) = fired(report, "D101")
        assert finding.waived

    def test_stale_waiver_fires_w401(self):
        report = run_lint(
            """
            def stamp():
                # repro: allow[D101] reason=the clock read moved away
                return 0
            """
        )
        assert len(fired(report, "W401")) == 1

    def test_unknown_rule_fires_w402(self):
        report = run_lint(
            """
            def stamp():
                return 0  # repro: allow[D999] reason=whatever
            """
        )
        findings = fired(report, "W402")
        assert len(findings) == 1 and "D999" in findings[0].message

    def test_missing_reason_fires_w402(self):
        report = run_lint(
            """
            import time

            def stamp():
                return time.time()  # repro: allow[D101]
            """
        )
        findings = fired(report, "W402")
        assert len(findings) == 1 and "reason" in findings[0].message
        # and the unwaived D101 still stands
        assert not fired(report, "D101")[0].waived

    def test_waiver_text_in_docstring_is_not_a_waiver(self):
        waivers, problems = parse_waivers(
            [
                '"""Docs: write # repro: allow[D999] reason=... to waive."""',
                "x = 1",
            ],
            "doc.py",
            ["D101"],
        )
        assert waivers == [] and problems == []

    def test_cross_module_s302_is_waivable(self):
        report = run_lint(
            """
            from repro.telemetry import metrics as _metrics

            def count():
                # repro: allow[S302] reason=experimental counter
                _metrics.inc("campaign_bogus_total")
            """,
            documented=parse_documented_names(DOC_FIXTURE, "DOC.md"),
        )
        (finding,) = fired(report, "S302")
        assert finding.waived


class TestEngineAndReport:
    def test_syntax_error_becomes_e001(self):
        report = lint_sources({"broken.py": "def f(:\n"})
        assert report.parse_errors == 1
        assert len(fired(report, "E001")) == 1

    def test_fingerprint_ignores_line_shifts(self):
        source = "import time\n\ndef f():\n    return time.time()\n"
        shifted = "import time\n\n\n\ndef f():\n    return time.time()\n"
        first = fired(lint_sources({"m.py": source}), "D101")[0]
        second = fired(lint_sources({"m.py": shifted}), "D101")[0]
        assert first.line != second.line
        assert first.fingerprint() == second.fingerprint()

    def test_baseline_round_trip(self, tmp_path):
        sources = {"m.py": "import time\n\ndef f():\n    return time.time()\n"}
        report = lint_sources(sources)
        assert report.active
        baseline = tmp_path / "baseline.json"
        assert write_baseline(report, baseline) == 1
        again = lint_sources(sources)
        for item in again.findings:
            if item.fingerprint() in load_baseline(baseline):
                item.baselined = True
        assert again.active == []

    def test_json_report_validates(self):
        report = lint_sources(
            {"m.py": "import time\n\ndef f():\n    return time.time()\n"}
        )
        payload = json.loads(report.to_json())
        assert payload["v"] == REPORT_VERSION
        assert validate_report(payload) == []

    def test_schema_rejects_drift(self):
        report = lint_sources({"m.py": "x = 1\n"})
        payload = report.to_payload()
        del payload["summary"]
        assert validate_report(payload)
        bad_rule = lint_sources(
            {"m.py": "import time\n\ndef f():\n    return time.time()\n"}
        ).to_payload()
        bad_rule["findings"][0]["rule"] = "X999"
        assert any("family" in p for p in validate_report(bad_rule))


class TestRepoGate:
    """The shipped tree lints clean: zero active findings, documented waivers."""

    def test_src_is_clean_under_strict(self):
        report = lint_paths(
            [REPO / "src" / "repro"], doc_path=REPO / "ARCHITECTURE.md"
        )
        assert report.parse_errors == 0
        assert report.active == [], "\n".join(
            f.describe() for f in report.active
        )
        assert report.waived, "expected the documented inline waivers"
        assert all(f.waive_reason for f in report.waived)


class TestLintCli:
    def test_strict_run_is_clean(self, capsys):
        assert cli.main(["lint", str(REPO / "src" / "repro"), "--strict"]) == 0
        out = capsys.readouterr().out
        assert "0 active" in out

    def test_json_output_validates(self, capsys):
        assert cli.main(["lint", str(REPO / "src" / "repro"), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert validate_report(payload) == []
        assert payload["summary"]["active"] == 0, payload["summary"]

    def test_strict_fails_on_finding(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\n\ndef f():\n    return time.time()\n")
        assert cli.main(["lint", str(bad), "--strict"]) == 1
        assert "D101" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        assert cli.main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("D101", "D103", "P201", "P204", "S301", "S303", "W401"):
            assert rule_id in out

    def test_missing_path_exits_2(self, capsys):
        assert cli.main(["lint", str(REPO / "no-such-dir")]) == 2
