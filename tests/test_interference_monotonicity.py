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
from repro.soc import NgmpSoC, TaskPlacement
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
    soc = NgmpSoC()
    program, trace = cached_kernel_trace(kernel, SCALE)
    for policy in ALL_POLICIES:
        placement = TaskPlacement(program=program, policy=policy)
        bounds = soc.wcet_estimate(placement, trace=trace)
        assert (
            bounds["isolation"] <= bounds["average"] <= bounds["worst"]
        ), (kernel, policy)
        # contention must actually bite for the pessimistic scenarios on
        # any kernel that touches the bus at all
        assert bounds["worst"] >= bounds["isolation"]
