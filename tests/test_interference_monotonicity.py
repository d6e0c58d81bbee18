"""Interference monotonicity: isolation <= average <= worst, everywhere.

For every kernel x policy combination the analytic interference
scenarios must order the observed cycle counts: adding (more
pessimistic) bus contention can never speed a task up.  This is the
property that makes the ``worst`` scenario a sound measurement-based
WCET bound for the round-robin arbiter.  The slot length's effect on
the bounds is pinned in `test_soc.py`.
"""

import pytest

from repro.core.policies import EccPolicyKind
from repro.experiments.runner import cached_kernel_trace
from repro.scenarios.registry import scenario_interference
from repro.scenarios.spec import SimulationSpec
from repro.simulation import simulate_spec
from repro.workloads import KERNEL_NAMES

SCALE = 0.05

ALL_POLICIES = (
    EccPolicyKind.NO_ECC,
    EccPolicyKind.EXTRA_CYCLE,
    EccPolicyKind.EXTRA_STAGE,
    EccPolicyKind.LAEC,
    EccPolicyKind.WT_PARITY,
)


@pytest.mark.parametrize("kernel", KERNEL_NAMES)
def test_scenario_cycles_are_monotonic(kernel):
    program, trace = cached_kernel_trace(kernel, SCALE)
    for policy in ALL_POLICIES:
        bounds = {
            name: simulate_spec(
                SimulationSpec(policy=policy, interference=scenario_interference(name)),
                program=program,
                trace=trace,
            ).cycles
            for name in ("isolation", "average", "worst")
        }
        assert (
            bounds["isolation"] <= bounds["average"] <= bounds["worst"]
        ), (kernel, policy)
        # contention must actually bite for the pessimistic scenarios on
        # any kernel that touches the bus at all
        assert bounds["worst"] >= bounds["isolation"]
