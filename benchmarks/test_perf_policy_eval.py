"""Perf benchmark: the adaptive control plane and its policy-eval grid.

PR 9 layered feedback controllers (EWMA recalibration, burn-rate
admission, pressure-scaled reallocation) on the serving kernel plus a
scenario × policy evaluation harness.  The default run pins the
behaviour: the frozen controller is bit-identical to the static policy
on the same trace, the full default dominance grid passes its
machine-checkable verdict, and a ``workers=2`` grid is byte-identical
to serial.  The ``perf``-marked gates (``pytest -m perf benchmarks``)
time the first two: the frozen controller stays within 3x of the
static run, and the default grid finishes inside 60 s.

Run with ``-s`` to see the tables.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    POLICY_EVAL_HEADER,
    default_policy_grid,
    default_scenarios,
    evaluate_dominance,
    format_table,
)
from repro.core.adaptive import (
    AdaptiveRecalibration,
    simulate_adaptive_serving,
)
from repro.core.faults import RecalibrationPolicy, simulate_degraded_serving
from repro.core.traffic import BatchingPolicy
from repro.workloads import fault_scenario, poisson_arrivals, serving_network
from conftest import emit, measure

CONTROLLER_REQUESTS = 20_000
CONTROLLER_RATE_RPS = 2e4
CONTROLLER_CORES = 2
OVERHEAD_CEILING = 3.0  # adaptive wall time over static wall time
GRID_CEILING_S = 60.0  # generous bound for the full default grid


def _controller_runs():
    """The differential scenario, frozen EWMA vs static recalibration,
    as closures over one pre-generated trace."""
    network = serving_network("lenet5")
    arrivals = poisson_arrivals(
        CONTROLLER_RATE_RPS, CONTROLLER_REQUESTS, seed=17
    )
    policy = BatchingPolicy.dynamic(4, 1e-4)
    schedule = fault_scenario(
        "slow-drift", CONTROLLER_CORES, float(arrivals[-1])
    )
    recal = RecalibrationPolicy(error_threshold=0.05)
    return (
        lambda: simulate_degraded_serving(
            network,
            arrivals,
            policy,
            schedule,
            CONTROLLER_CORES,
            recalibration=recal,
        ),
        lambda: simulate_adaptive_serving(
            network,
            arrivals,
            policy,
            schedule,
            CONTROLLER_CORES,
            controller=AdaptiveRecalibration.frozen(recal),
        ),
    )


def test_frozen_controller_matches_static():
    """The adaptive contract pins the frozen controller bit-identical
    to the static policy."""
    run_static, run_adaptive = _controller_runs()
    static = run_static()
    adaptive = run_adaptive()
    assert np.array_equal(static.completion_s, adaptive.completion_s)
    assert np.array_equal(static.accuracy_proxy, adaptive.accuracy_proxy)
    assert static.recalibrations == adaptive.recalibrations


@pytest.mark.perf
def test_frozen_controller_overhead_vs_static():
    """The differential scenario, timed: per-batch observe/decide
    bookkeeping stays a bounded multiplier on the static run."""
    run_static, run_adaptive = _controller_runs()
    static = measure(run_static)
    adaptive = measure(run_adaptive)
    overhead = adaptive.min_s / static.min_s
    emit(
        f"frozen-controller differential ({CONTROLLER_REQUESTS:,} requests): "
        f"static {static.min_s:.3f} s (median {static.median_s:.3f}), "
        f"adaptive {adaptive.min_s:.3f} s (median {adaptive.median_s:.3f}) "
        f"-> {overhead:.2f}x overhead (ceiling {OVERHEAD_CEILING}x)"
    )
    assert overhead <= OVERHEAD_CEILING


def test_default_dominance_grid():
    """The full default scenario × policy grid, verified.

    The grid is the PR's acceptance artifact: at least one adaptive
    policy must sit on the Pareto front and strictly dominate its
    static baseline on >= 2 named fault scenarios.
    """
    scenarios = default_scenarios()
    policies = default_policy_grid(scenarios)
    report = evaluate_dominance(scenarios, policies)

    assert report.passes(min_scenarios=2), report.describe()
    winners = report.winning_policies(min_scenarios=2)
    assert "adaptive-recal" in winners
    emit(
        format_table(
            POLICY_EVAL_HEADER,
            [outcome.row() for outcome in report.outcomes],
            title=(
                f"policy-eval grid ({len(report.outcomes)} cells, "
                f"winners: {', '.join(sorted(winners))})"
            ),
        )
    )


@pytest.mark.perf
def test_default_dominance_grid_within_ceiling():
    """The same grid, timed: it finishes inside 60 s."""
    scenarios = default_scenarios()
    policies = default_policy_grid(scenarios)
    grid = measure(lambda: evaluate_dominance(scenarios, policies), repeats=1)
    cells = len(scenarios) * len(policies)
    emit(
        f"policy-eval grid: {cells} cells in {grid.min_s:.1f} s "
        f"({cells / grid.min_s:.1f} cells/s, ceiling {GRID_CEILING_S} s)"
    )
    assert grid.min_s <= GRID_CEILING_S


def test_dominance_grid_workers_byte_identical():
    """``workers=2`` smoke for the parallel grid executor: a reduced
    dominance grid fanned over two processes must reproduce the serial
    run byte-for-byte — same outcomes, same wins, same Pareto fronts.
    Asserted unconditionally (determinism, not wall time)."""
    scenarios = default_scenarios(num_requests=150, rate_rps=2000.0)
    policies = default_policy_grid(scenarios)
    serial = evaluate_dominance(scenarios, policies)
    fanned = evaluate_dominance(scenarios, policies, workers=2)

    assert fanned.wins == serial.wins
    assert dict(fanned.fronts) == dict(serial.fronts)
    for a, b in zip(serial.outcomes, fanned.outcomes):
        assert a.scenario == b.scenario
        assert a.policy == b.policy
        assert a.availability == b.availability
        assert a.accuracy_error == b.accuracy_error
        assert a.p99_latency_s == b.p99_latency_s
        assert a.downtime_s == b.downtime_s
        assert (a.served, a.offered, a.shed) == (b.served, b.offered, b.shed)
        for r, v in zip(a.report.tenants, b.report.tenants):
            assert r.arrival_s.tobytes() == v.arrival_s.tobytes()
            assert r.completion_s.tobytes() == v.completion_s.tobytes()
            assert tuple(r.batches) == tuple(v.batches)
    emit(
        f"dominance grid workers=2: {len(serial.outcomes)} cells "
        f"byte-identical to serial"
    )
