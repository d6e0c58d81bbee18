"""Integration tests asserting the paper's headline claims on real kernels.

These use a subset of kernels at reduced scale so they stay fast; the
full 16-kernel checks, on the artefact-scale results, are the
paper-shape tests in ``tests/test_golden_artifacts.py``.
"""

import pytest

from repro.simulation import simulate_kernel


POLICIES = ("no-ecc", "extra-cycle", "extra-stage", "laec")


@pytest.fixture(scope="module")
def kernel_matrix():
    """puwmod (LAEC-friendly), matrix (LAEC-unfriendly), cacheb (few deps)."""
    results = {}
    for name in ("puwmod", "matrix", "cacheb"):
        results[name] = {
            policy: simulate_kernel(name, policy=policy, scale=0.2)
            for policy in POLICIES
        }
    return results


def _increase(results, name, policy):
    return results[name][policy].cycles / results[name]["no-ecc"].cycles - 1.0


class TestFigure8Claims:
    def test_laec_never_worse_than_extra_stage(self, kernel_matrix):
        for name in kernel_matrix:
            assert (
                kernel_matrix[name]["laec"].cycles
                <= kernel_matrix[name]["extra-stage"].cycles
            )

    def test_extra_stage_never_worse_than_extra_cycle(self, kernel_matrix):
        for name in kernel_matrix:
            assert (
                kernel_matrix[name]["extra-stage"].cycles
                <= kernel_matrix[name]["extra-cycle"].cycles
            )

    def test_all_schemes_at_least_as_slow_as_no_ecc(self, kernel_matrix):
        for name in kernel_matrix:
            for policy in ("extra-cycle", "extra-stage", "laec"):
                assert _increase(kernel_matrix, name, policy) >= -1e-9

    def test_laec_friendly_kernel_has_tiny_overhead(self, kernel_matrix):
        # puwmod is one of the benchmarks the paper reports below 1 %.
        assert _increase(kernel_matrix, "puwmod", "laec") < 0.02

    def test_laec_unfriendly_kernel_matches_extra_stage(self, kernel_matrix):
        # matrix: the address is produced right before each load, so LAEC
        # cannot anticipate and behaves like Extra Stage (paper §IV-A).
        laec = _increase(kernel_matrix, "matrix", "laec")
        extra_stage = _increase(kernel_matrix, "matrix", "extra-stage")
        assert laec == pytest.approx(extra_stage, abs=0.01)

    def test_cacheb_extra_stage_overhead_small(self, kernel_matrix):
        # cacheb has very few dependent loads, so the pipelined ECC stage
        # costs almost nothing (paper reports ~2 %).
        assert _increase(kernel_matrix, "cacheb", "extra-stage") < 0.04

    def test_architectural_results_identical_across_policies(self, kernel_matrix):
        # The ECC deployment changes timing only, never architectural state.
        for name, per_policy in kernel_matrix.items():
            lengths = {result.instructions for result in per_policy.values()}
            assert len(lengths) == 1


class TestLookaheadBehaviour:
    def test_lookahead_take_rate_reflects_kernel_structure(self, kernel_matrix):
        puwmod = kernel_matrix["puwmod"]["laec"].stats.lookahead
        matrix = kernel_matrix["matrix"]["laec"].stats.lookahead
        assert puwmod.take_rate > 0.8
        assert matrix.take_rate < 0.2

    def test_blocked_lookaheads_classified(self, kernel_matrix):
        stats = kernel_matrix["matrix"]["laec"].stats.lookahead
        assert stats.blocked_total == stats.loads_seen - stats.lookaheads_taken
        assert (
            stats.blocked_data_hazard
            + stats.blocked_resource_hazard
            + stats.blocked_operands_late
            >= stats.blocked_total
        )


class TestTable2Claims:
    def test_load_fractions_in_paper_range(self, kernel_matrix):
        for name, per_policy in kernel_matrix.items():
            fraction = per_policy["no-ecc"].stats.load_fraction
            assert 0.10 <= fraction <= 0.45

    def test_hit_rates_high_except_cacheb(self, kernel_matrix):
        assert kernel_matrix["puwmod"]["no-ecc"].stats.load_hit_rate > 0.9
        assert kernel_matrix["cacheb"]["no-ecc"].stats.load_hit_rate < 0.9
