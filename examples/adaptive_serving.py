#!/usr/bin/env python
"""Adaptive control plane: feedback-steered serving under drift.

The faulted demo recovers with *static* trip-wire policies; this one
closes the loop.  It

1. serves a drifting LeNet-5 under the EWMA recalibration controller,
   through the same ``simulate_degraded_serving`` front door the static
   policy uses, and narrates every decision the report logged — when
   it fired, what it projected, and what each firing cost;
2. demonstrates the load-bearing contract: the controller at its
   frozen setting is *bit-identical* to the static policy it extends,
   so every static result carries over unchanged;
3. sweeps controller settings (none, static, frozen, tracking,
   anticipating) over one drift trace and tabulates the
   proxy/availability/downtime trade each buys;
4. runs the default scenario × policy grid and prints the dominance
   report — the machine-checkable verdict that at least one adaptive
   policy strictly beats its static baseline on the Pareto front.

Run:  python examples/adaptive_serving.py
"""

import numpy as np

from repro.analysis import (
    ADAPTIVE_SWEEP_HEADER,
    default_policy_grid,
    default_scenarios,
    evaluate_dominance,
    format_table,
    sweep_adaptive_recalibration,
)
from repro.core import (
    AdaptiveRecalibration,
    BatchingPolicy,
    RecalibrationPolicy,
    simulate_degraded_serving,
)
from repro.workloads import fault_scenario, poisson_arrivals, serving_network


NETWORK = serving_network("lenet5")
POLICY = BatchingPolicy.dynamic(4, 1e-4)
RECAL = RecalibrationPolicy(error_threshold=0.05)
NUM_CORES = 2


def controlled_run() -> None:
    """One EWMA-controlled run over an aging trace, narrated."""
    arrivals = poisson_arrivals(2e4, 400, seed=11)
    horizon_s = float(arrivals[-1])
    controller = AdaptiveRecalibration(
        base=RECAL, smoothing=0.45, lead_time_s=0.08 * horizon_s
    )
    report = simulate_degraded_serving(
        NETWORK,
        arrivals,
        POLICY,
        fault_scenario("tia-aging", NUM_CORES, horizon_s),
        NUM_CORES,
        recalibration=controller,
    )
    print(report.describe())
    for decision in report.decisions:
        print(
            f"  t={decision.time_s * 1e3:7.2f} ms core {decision.core}: "
            f"{decision.action:<14} error {decision.error:.4f} "
            f"-> smoothed {decision.smoothed:.4f} "
            f"-> projected {decision.projected:.4f}"
        )
    print()


def frozen_contract() -> None:
    """The load-bearing pin, demonstrated: frozen == static, bit for bit."""
    arrivals = poisson_arrivals(2e4, 300, seed=3)
    schedule = fault_scenario("slow-drift", NUM_CORES, float(arrivals[-1]))
    static = simulate_degraded_serving(
        NETWORK, arrivals, POLICY, schedule, NUM_CORES, recalibration=RECAL
    )
    frozen = simulate_degraded_serving(
        NETWORK,
        arrivals,
        POLICY,
        schedule,
        NUM_CORES,
        recalibration=AdaptiveRecalibration.frozen(RECAL),
    )
    identical = (
        np.array_equal(static.completion_s, frozen.completion_s)
        and np.array_equal(static.accuracy_proxy, frozen.accuracy_proxy)
        and static.recalibrations == frozen.recalibrations
    )
    print(
        f"frozen controller == static policy (bit-identical by contract): "
        f"{identical}, {len(static.recalibrations)} recals either way"
    )
    print()


def controller_sweep() -> None:
    """Controller settings over one drift trace, tabulated."""
    arrivals = poisson_arrivals(2e4, 300, seed=5)
    horizon_s = float(arrivals[-1])
    schedule = fault_scenario("tia-aging", NUM_CORES, horizon_s)
    points = sweep_adaptive_recalibration(
        NETWORK,
        POLICY,
        schedule,
        [
            None,
            RECAL,
            AdaptiveRecalibration.frozen(RECAL),
            AdaptiveRecalibration(base=RECAL, smoothing=0.45, name="tracking"),
            AdaptiveRecalibration(
                base=RECAL,
                smoothing=0.45,
                lead_time_s=0.08 * horizon_s,
                name="anticipating",
            ),
        ],
        arrivals,
        NUM_CORES,
    )
    print(
        format_table(
            ADAPTIVE_SWEEP_HEADER,
            [point.row() for point in points],
            title="controller sweep over one tia-aging trace",
        )
    )
    print()


def dominance_grid() -> None:
    """The default grid's machine-checkable dominance verdict."""
    scenarios = default_scenarios()
    report = evaluate_dominance(scenarios, default_policy_grid(scenarios))
    print(report.describe())


def main() -> None:
    controlled_run()
    frozen_contract()
    controller_sweep()
    dominance_grid()


if __name__ == "__main__":
    main()
