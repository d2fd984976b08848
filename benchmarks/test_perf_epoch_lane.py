"""Speed gates for the epoch-segmented faulted pipeline.

:class:`~repro.core.faults.DegradedServingSimulator` serves its lone
faulted lane in epochs between fault actions
(``repro.core.cluster._serve_alone``): the stretch up to the next
dispatch where the fault step acts (``PoolHealth.cut``) is planned and
booked with the vectorized kernel and its drift probes are swept over
simulated time.  The per-dispatch lane loop (``_serve_lanes``) stays
the oracle.  The scenario is perfbench's drift-serving: LeNet-5 over 2
cores, slow drift, ``dynamic(4, 1e-4)`` batching and a 0.05
recalibration threshold.

* **Behaviour** (default run): the epoch lane equals the lane loop and
  steps the drift states only at the dispatches where the fault step
  acts, plus the end-of-run advance.
* **Wall time** (``pytest -m perf benchmarks``): the epoch lane is at
  least 3x faster than the lane loop on the scenario, and within 1.1x of
  it when a 1e-6 threshold recalibrates at most dispatches.  Its two
  cores drift alike, so each cut sweeps their one lineage once: at
  least 1.25x faster than sweeping each core
  (:func:`oracles.unshared_sweeps`).  The policy grid's adaptive-burn
  cells take the fault step at every dispatch; on the slow-drift cell,
  whose stage cores drift alike, stepping each lineage once is at least
  1.2x faster than stepping each core (:func:`oracles.unshared_steps`).
"""

from __future__ import annotations

import pytest

from repro.analysis import (
    default_policy_grid,
    default_scenarios,
    evaluate_policy,
)
from repro.core.cluster import _TenantLane
from repro.core.faults import (
    CoreHealthState,
    PoolHealth,
    RecalibrationPolicy,
    simulate_degraded_serving,
)
from repro.core.simkernel import BatchingPolicy
from repro.core.traffic import PipelineServiceModel
from repro.workloads import fault_scenario, poisson_arrivals, serving_network
from conftest import alternating_min, emit, measure
from oracles import lane_loop, unshared_steps, unshared_sweeps

NUM_CORES = 2
SPEEDUP_FLOOR = 3.0
DENSE_RATIO_CEILING = 1.1
SHARING_FLOOR = 1.25
STEP_SHARING_FLOOR = 1.2


def _scenario(requests: int, threshold: float):
    network = serving_network("lenet5")
    arrivals = poisson_arrivals(2e4, requests, seed=17)
    return (
        network,
        arrivals,
        BatchingPolicy.dynamic(4, 1e-4),
        fault_scenario("slow-drift", NUM_CORES, float(arrivals[-1])),
        RecalibrationPolicy(error_threshold=threshold),
    )


def _epochs(network, arrivals, policy, schedule, recalibration):
    return simulate_degraded_serving(
        network,
        arrivals,
        policy,
        schedule,
        NUM_CORES,
        recalibration=recalibration,
    )


def _lane_loop(network, arrivals, policy, schedule, recalibration):
    specs = network.conv_specs()
    health = PoolHealth(schedule, NUM_CORES, recalibration)
    lane = _TenantLane(
        0,
        "pipeline",
        specs,
        policy,
        arrivals,
        PipelineServiceModel.from_specs(specs, NUM_CORES),
        list(range(NUM_CORES)),
        NUM_CORES,
        None,
        fail_error_threshold=0.5,
        record_snapshots=True,
    )
    lane_loop(lane, health)
    return lane, health


def test_epoch_lane_steps_only_where_faults_act(monkeypatch):
    scenario = _scenario(20_000, 0.05)
    calls = []
    advance = CoreHealthState.advance_to

    def counted(state, time_s):
        calls.append(time_s)
        advance(state, time_s)

    monkeypatch.setattr(CoreHealthState, "advance_to", counted)
    report = _epochs(*scenario)
    stepped = len(calls)
    monkeypatch.setattr(CoreHealthState, "advance_to", advance)
    lane, health = _lane_loop(*scenario)
    fields = lane.serving_fields()
    assert report.completion_s.tobytes() == fields["completion_s"].tobytes()
    assert report.batches == lane.batches
    assert report.accuracy_proxy.tobytes() == lane.proxies.tobytes()
    assert report.recalibrations == tuple(health.recalibrations)
    acting = {record.time_s for record in report.recalibrations}
    assert acting
    # One step per core at each acting dispatch, plus the final advance.
    assert stepped <= NUM_CORES * len(acting) + NUM_CORES
    emit(
        f"drift-serving: {len(report.batches)} dispatches, "
        f"{len(report.recalibrations)} recalibrations, {stepped} "
        f"advance_to calls (lane loop: {NUM_CORES * len(report.batches)})"
    )


@pytest.mark.perf
def test_epoch_lane_at_least_3x_the_lane_loop():
    scenario = _scenario(20_000, 0.05)
    loop = measure(lambda: _lane_loop(*scenario))
    epochs = measure(lambda: _epochs(*scenario))
    speedup = loop.min_s / epochs.min_s
    emit(
        f"drift-serving: lane loop {loop.min_s:.3f} s (median "
        f"{loop.median_s:.3f}), epochs {epochs.min_s:.3f} s (median "
        f"{epochs.median_s:.3f}) -> {speedup:.1f}x (floor {SPEEDUP_FLOOR}x)"
    )
    assert speedup >= SPEEDUP_FLOOR


@pytest.mark.perf
def test_dense_recalibration_within_1p1x_of_the_lane_loop():
    """A 1e-6 threshold cuts at most dispatches: the epoch lane must not
    pay for speculation it cannot use."""
    scenario = _scenario(5_000, 1e-6)
    loop = measure(lambda: _lane_loop(*scenario))
    epochs = measure(lambda: _epochs(*scenario))
    ratio = epochs.min_s / loop.min_s
    emit(
        f"dense recalibration ({len(epochs.result.recalibrations)} "
        f"recalibrations, {len(epochs.result.batches)} dispatches): lane "
        f"loop {loop.min_s:.3f} s, epochs {epochs.min_s:.3f} s -> "
        f"{ratio:.2f}x (ceiling {DENSE_RATIO_CEILING}x)"
    )
    assert ratio <= DENSE_RATIO_CEILING


@pytest.mark.perf
def test_shared_sweeps_at_least_1p25x_unshared():
    """Sweeping the two alike cores' lineage once per cut, against
    sweeping each core, timed in alternating rounds."""
    scenario = _scenario(20_000, 0.05)

    def unshared():
        with unshared_sweeps():
            return _epochs(*scenario)

    shared_s, unshared_s = alternating_min(
        lambda: _epochs(*scenario), unshared, rounds=10
    )
    speedup = unshared_s / shared_s
    emit(
        f"drift-serving: unshared sweeps {unshared_s:.3f} s, shared "
        f"{shared_s:.3f} s -> {speedup:.2f}x (floor {SHARING_FLOOR}x)"
    )
    assert speedup >= SHARING_FLOOR


@pytest.mark.perf
def test_shared_steps_at_least_1p2x_unshared():
    """The adaptive-burn policy's slow-drift default cell, stepping each
    lineage once per dispatch against stepping each core, timed in
    alternating rounds."""
    scenarios = default_scenarios()
    (scenario,) = [s for s in scenarios if s.fault == "slow-drift"]
    (policy,) = [
        spec
        for spec in default_policy_grid(scenarios)
        if spec.name == "adaptive-burn"
    ]

    def unshared():
        with unshared_steps():
            return evaluate_policy(scenario, policy)

    shared_s, unshared_s = alternating_min(
        lambda: evaluate_policy(scenario, policy), unshared, rounds=10
    )
    speedup = unshared_s / shared_s
    emit(
        f"adaptive-burn {scenario.name}: unshared steps "
        f"{unshared_s * 1e3:.1f} ms, shared {shared_s * 1e3:.1f} ms -> "
        f"{speedup:.2f}x (floor {STEP_SHARING_FLOOR}x)"
    )
    assert speedup >= STEP_SHARING_FLOOR
