"""Perf benchmark: the adaptive control plane and its policy-eval grid.

PR 9 layered feedback controllers (EWMA recalibration, burn-rate
admission, pressure-scaled reallocation) on the serving kernel plus a
scenario × policy evaluation harness.  The default run pins the
behaviour: the frozen controller is bit-identical to the static policy
on the same trace, the full default dominance grid passes its
machine-checkable verdict, a ``workers=2`` grid is byte-identical to
serial, and an elastic cluster whose first core move comes early
matches the global loop.  The ``perf``-marked gates (``pytest -m perf
benchmarks``) time them: the frozen controller stays within 3x of the
static run, the default grid finishes inside 60 s, each elastic
policy's cells run within 1.3x of the static-recal cells on the same
scenarios (an elastic cluster is served lane by lane up to its first
possible core move), and the early-move cluster within 1.15x of its
global-loop run (an early cut pays little for serving every lane alone
first).

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
    evaluate_policy,
    format_table,
)
from repro.core.adaptive import AdaptiveRecalibration
from repro.core.cluster import (
    ClusterTenant,
    ElasticReallocation,
    RoutingPolicy,
    simulate_cluster_serving,
)
from repro.core.faults import RecalibrationPolicy, simulate_degraded_serving
from repro.core.traffic import BatchingPolicy
from repro.workloads import (
    alexnet_conv_specs,
    fault_scenario,
    lenet5_conv_specs,
    poisson_arrivals,
    serving_network,
)
from conftest import alternating_min, emit, measure
from oracles import reference_loops

CONTROLLER_REQUESTS = 20_000
CONTROLLER_RATE_RPS = 2e4
CONTROLLER_CORES = 2
OVERHEAD_CEILING = 3.0  # adaptive wall time over static wall time
GRID_CEILING_S = 60.0  # generous bound for the full default grid
ELASTIC_CEILING = 1.3  # elastic cells' wall time over static-recal's
EARLY_MOVE_REQUESTS = 20_000
EARLY_MOVE_CEILING = 1.15  # early-move run over its global-loop run


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
        lambda: simulate_degraded_serving(
            network,
            arrivals,
            policy,
            schedule,
            CONTROLLER_CORES,
            recalibration=AdaptiveRecalibration.frozen(recal),
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


@pytest.mark.perf
@pytest.mark.parametrize("policy", ["static-elastic", "adaptive-pressure"])
def test_elastic_cells_within_1p3x_of_static_recal(policy):
    """An elastic policy's four default cells, timed against the
    static-recal cells on the same scenarios: no core moves at the
    default seed, so every lane is served alone, as without the
    elastic policy."""
    scenarios = default_scenarios()
    policies = {spec.name: spec for spec in default_policy_grid(scenarios)}

    def cells(name):
        return lambda: [
            evaluate_policy(scenario, policies[name]) for scenario in scenarios
        ]

    elastic_s, static_s = alternating_min(
        cells(policy), cells("static-recal"), rounds=10
    )
    ratio = elastic_s / static_s
    emit(
        f"{policy} vs static-recal ({len(scenarios)} cells each): "
        f"{elastic_s * 1e3:.1f} ms vs {static_s * 1e3:.1f} ms "
        f"-> {ratio:.2f}x (ceiling {ELASTIC_CEILING}x)"
    )
    assert ratio <= ELASTIC_CEILING


def _early_move_run():
    """Priority routing over a 6-core pool: a steady interactive
    LeNet-5 holds three cores and a batch AlexNet tenant, backlogged
    from the start, strips it down within the first dispatches."""
    tenants = [
        ClusterTenant(
            "interactive",
            tuple(lenet5_conv_specs()),
            BatchingPolicy.dynamic(4, 1e-4),
            priority=1,
        ),
        ClusterTenant(
            "batch",
            tuple(alexnet_conv_specs()),
            BatchingPolicy.fixed(8),
            priority=0,
        ),
    ]
    arrivals = {
        "interactive": poisson_arrivals(4e4, EARLY_MOVE_REQUESTS, seed=1),
        "batch": poisson_arrivals(2e4, EARLY_MOVE_REQUESTS // 10, seed=2),
    }
    return lambda: simulate_cluster_serving(
        tenants,
        arrivals,
        6,
        routing=RoutingPolicy.priority(),
        elastic=ElasticReallocation(),
    )


def _on_global_loop(run):
    def reference():
        with reference_loops():
            return run()

    return reference


def test_early_move_matches_the_global_loop():
    """The early-move cluster moves its first core within the first
    10% of its dispatches, and matches the global loop byte for byte."""
    run = _early_move_run()
    report = run()
    reference = _on_global_loop(run)()
    dispatches = np.sort(
        np.concatenate(
            [tenant.batches.dispatch_s for tenant in report.tenants]
        )
    )
    first = report.reallocations[0].time_s
    assert np.searchsorted(dispatches, first) < 0.1 * dispatches.size
    assert repr(report.reallocations) == repr(reference.reallocations)
    for fast, slow in zip(report.tenants, reference.tenants, strict=True):
        assert tuple(fast.batches) == tuple(slow.batches)
        assert fast.core_busy_s == slow.core_busy_s
        assert np.array_equal(fast.batch_num_cores, slow.batch_num_cores)


@pytest.mark.perf
def test_early_move_within_1p15x_of_the_global_loop():
    """The early-move cluster, timed against its global-loop run: the
    lanes served alone before the cut cost at most 15% on top."""
    run = _early_move_run()
    fast_s, slow_s = alternating_min(run, _on_global_loop(run), rounds=5)
    ratio = fast_s / slow_s
    emit(
        f"early-move cluster ({EARLY_MOVE_REQUESTS:,} interactive "
        f"requests): {fast_s * 1e3:.1f} ms vs global loop "
        f"{slow_s * 1e3:.1f} ms -> {ratio:.2f}x "
        f"(ceiling {EARLY_MOVE_CEILING}x)"
    )
    assert ratio <= EARLY_MOVE_CEILING
