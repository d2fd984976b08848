#!/usr/bin/env python
"""Regenerate the golden regression fixtures.

Run from the repository root (only when an *intentional* numeric change
ships — the diff in the fixtures is the reviewable artifact):

    PYTHONPATH=src python tests/golden/regenerate.py

Each fixture is a compressed ``.npz`` holding a fixed-seed end-to-end
trace of the full accelerator stack: the minibatch outputs and the first
conv layer's photonic feature maps, for LeNet-5 and the GoogLeNet stem,
in ideal and DAC/ADC-quantized modes.  ``tests/test_golden_regression.py``
recomputes the traces and fails loudly on any bit of drift.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from repro.core.accelerator import PCNNA, PhotonicConvolution
from repro.core.adaptive import (
    DECISION_ACTIONS,
    AdaptiveRecalibration,
)
from repro.core.faults import (
    FaultEvent,
    FaultSchedule,
    RecalibrationPolicy,
    replay_on_engine_degraded,
    simulate_degraded_serving,
)
from repro.core.cluster import ClusterTenant, simulate_cluster_serving
from repro.core.fleet import (
    RegionSpec,
    simulate_fleet_serving,
    uniform_rtt,
)
from repro.core.traffic import (
    BatchingPolicy,
    PipelineServiceModel,
    ServingSimulator,
)
from repro.nn.layers import Conv2D
from repro.workloads import (
    cluster_mix,
    fault_scenario,
    lenet5_conv_specs,
    poisson_arrivals,
    serving_batch,
    serving_network,
)

GOLDEN_DIR = Path(__file__).resolve().parent
BATCH = 2
INPUT_SEED = 1234
WEIGHT_SEED = 7
SCALE = 0.02  # GoogLeNet-stem channel scale (tractable, fixed forever)

CASES: tuple[tuple[str, str], ...] = (
    ("lenet5", "ideal"),
    ("lenet5", "quantized"),
    ("googlenet-stem", "ideal"),
    ("googlenet-stem", "quantized"),
)

# -- canonical faulted LeNet-5 serving trace (PR 4) -----------------------
FAULTED_REQUESTS = 10
FAULTED_ARRIVAL_SEED = 21
FAULTED_ARRIVAL_RATE_RPS = 2e4
FAULTED_CORES = 2
FAULTED_DRIFT_TOTAL_K = 0.08  # ambient accumulated over the trace
FAULTED_DEAD_RING_AT = 0.6  # fraction of the horizon


def faulted_schedule(horizon_s: float) -> FaultSchedule:
    """The canonical fault schedule: both cores drift, core 1 loses a
    ring late in the trace (severe, unrecalibratable degradation)."""
    rate = FAULTED_DRIFT_TOTAL_K / horizon_s
    return FaultSchedule(
        name="golden-faulted",
        events=(
            FaultEvent("thermal_ramp", 0, 0.0, rate),
            FaultEvent("thermal_ramp", 1, 0.0, rate),
            FaultEvent(
                "dead_rings",
                1,
                FAULTED_DEAD_RING_AT * horizon_s,
                1.0,
                rings=(7,),
            ),
        ),
    )


def compute_faulted_trace() -> dict[str, np.ndarray]:
    """One deterministic degraded-mode serving trace end to end.

    Covers the whole PR 4 surface in one fixture: drift state machines,
    the online recalibration policy (downtime accounting), the per-batch
    photodiode-level accuracy proxy, and the degraded engine replay with
    its golden-output divergence.
    """
    network = serving_network("lenet5", seed=WEIGHT_SEED)
    inputs = serving_batch(network, FAULTED_REQUESTS, seed=INPUT_SEED)
    arrivals = poisson_arrivals(
        FAULTED_ARRIVAL_RATE_RPS, FAULTED_REQUESTS, seed=FAULTED_ARRIVAL_SEED
    )
    report = simulate_degraded_serving(
        network,
        arrivals,
        BatchingPolicy.dynamic(4, 1e-4),
        faulted_schedule(float(arrivals[-1])),
        num_cores=FAULTED_CORES,
        recalibration=RecalibrationPolicy(),
        repartition=False,
    )
    replay = replay_on_engine_degraded(network, report, inputs)
    return {
        "inputs_sha256": input_digest(inputs),
        "arrival_s": report.arrival_s,
        "dispatch_s": report.dispatch_s,
        "completion_s": report.completion_s,
        "batch_sizes": np.array([b.size for b in report.batches]),
        "accuracy_proxy": report.accuracy_proxy,
        "core_downtime_s": np.array(report.core_downtime_s),
        "outputs": replay.outputs,
        "reference_outputs": replay.reference_outputs,
        "divergence_per_batch": replay.divergence_per_batch,
        "meta_requests": np.array(FAULTED_REQUESTS),
        "meta_input_seed": np.array(INPUT_SEED),
        "meta_weight_seed": np.array(WEIGHT_SEED),
        "meta_arrival_seed": np.array(FAULTED_ARRIVAL_SEED),
        "meta_drift_total_k": np.array(FAULTED_DRIFT_TOTAL_K),
    }


# -- canonical vectorized dynamic-batching serving trace (PR 6) -----------
TRAFFIC_REQUESTS = 2000
TRAFFIC_ARRIVAL_SEED = 37
TRAFFIC_CORES = 3
TRAFFIC_MAX_BATCH = 8
TRAFFIC_MAX_WAIT_S = 1e-4
TRAFFIC_LOAD_FACTOR = 2.0  # offered load over full-batch capacity


def compute_traffic_trace() -> dict[str, np.ndarray]:
    """One deterministic vectorized serving trace end to end.

    The fixture pins the PR 6 vectorized kernel's complete observable
    surface on the canonical dynamic-batching scenario: the per-batch
    plan (heads, widths, dispatches), the per-request streams, the busy
    accounting, and the latency percentiles.  Because the vectorized
    path and the lane-loop oracle are pinned bit-identical elsewhere,
    this one fixture guards both.
    """
    model = PipelineServiceModel.from_specs(lenet5_conv_specs(), TRAFFIC_CORES)
    rate = TRAFFIC_LOAD_FACTOR * model.capacity_rps(TRAFFIC_MAX_BATCH)
    arrivals = poisson_arrivals(
        rate, TRAFFIC_REQUESTS, seed=TRAFFIC_ARRIVAL_SEED
    )
    policy = BatchingPolicy.dynamic(TRAFFIC_MAX_BATCH, TRAFFIC_MAX_WAIT_S)
    report = ServingSimulator(model, policy).run(arrivals)
    return {
        "arrivals_sha256": input_digest(arrivals),
        "dispatch_s": report.dispatch_s,
        "completion_s": report.completion_s,
        "batch_first_request": np.array(
            [b.first_request for b in report.batches]
        ),
        "batch_sizes": np.array([b.size for b in report.batches]),
        "batch_dispatch_s": np.array([b.dispatch_s for b in report.batches]),
        "batch_completion_s": np.array(
            [b.completion_s for b in report.batches]
        ),
        "core_busy_s": np.array(report.core_busy_s),
        "percentiles_s": np.array([report.p50_s, report.p95_s, report.p99_s]),
        "meta_requests": np.array(TRAFFIC_REQUESTS),
        "meta_arrival_seed": np.array(TRAFFIC_ARRIVAL_SEED),
        "meta_cores": np.array(TRAFFIC_CORES),
        "meta_max_batch": np.array(TRAFFIC_MAX_BATCH),
        "meta_max_wait_s": np.array(TRAFFIC_MAX_WAIT_S),
        "meta_load_factor": np.array(TRAFFIC_LOAD_FACTOR),
    }


# -- canonical two-region failover trace (PR 8) ---------------------------
FLEET_REQUESTS_PER_STREAM = 300
FLEET_ARRIVAL_SEED = 53
FLEET_RATE_RPS = 6e3  # per (region, tenant) stream
FLEET_POOL_SIZE = 4
FLEET_RTT_S = 0.01
FLEET_OUTAGE_ONSET = 0.4  # fraction of the horizon
FLEET_OUTAGE_SPAN = 0.3  # fraction of the horizon
FLEET_STREAMS: tuple[tuple[str, str], ...] = (
    ("east", "interactive"),
    ("east", "batch"),
    ("west", "interactive"),
    ("west", "batch"),
)


def compute_fleet_failover_trace() -> dict[str, np.ndarray]:
    """One deterministic two-region failover trace end to end.

    The fixture pins the PR 8 fleet runtime's complete observable
    surface on the canonical failover scenario — a severe mid-run
    TIA-droop outage in the east region under geo-affinity routing:
    every routing decision, the failover window and its measured
    recovery latency, the per-stream latency arrays (RTT legs
    included), and the global and per-region percentiles.
    """
    tenants = (
        ClusterTenant(
            "interactive",
            tuple(lenet5_conv_specs()),
            BatchingPolicy.dynamic(4, 1e-4),
            weight=2.0,
        ),
        ClusterTenant(
            "batch",
            tuple(lenet5_conv_specs()),
            BatchingPolicy.fixed(8),
        ),
    )
    arrival_s: dict[str, dict[str, np.ndarray]] = {"east": {}, "west": {}}
    for position, (region, tenant) in enumerate(FLEET_STREAMS):
        arrival_s[region][tenant] = poisson_arrivals(
            FLEET_RATE_RPS,
            FLEET_REQUESTS_PER_STREAM,
            seed=FLEET_ARRIVAL_SEED + position,
        )
    horizon_s = max(
        float(arrival_s[region][tenant][-1])
        for region, tenant in FLEET_STREAMS
    )
    outage = FaultSchedule(
        name="golden-fleet-outage",
        events=tuple(
            FaultEvent(
                "tia_droop",
                core,
                FLEET_OUTAGE_ONSET * horizon_s,
                0.9,
                duration_s=FLEET_OUTAGE_SPAN * horizon_s,
            )
            for core in range(FLEET_POOL_SIZE)
        ),
    )
    report = simulate_fleet_serving(
        tenants,
        (
            RegionSpec("east", FLEET_POOL_SIZE, schedule=outage),
            RegionSpec("west", FLEET_POOL_SIZE),
        ),
        arrival_s,
        rtt_s=uniform_rtt(2, FLEET_RTT_S),
    )
    assert report.failovers, "the golden scenario must actually fail over"
    record = report.failovers[0]
    fixture: dict[str, np.ndarray] = {
        "arrivals_sha256": input_digest(
            np.concatenate(
                [arrival_s[region][tenant] for region, tenant in FLEET_STREAMS]
            )
        ),
        "failover_window_s": np.array([record.onset_s, record.until_s]),
        "failover_latency_s": np.array(record.failover_latency_s),
        "failover_rerouted": np.array(record.rerouted),
        "global_percentiles_s": np.array(
            [report.p50_s, report.p95_s, report.p99_s]
        ),
        "region_percentiles_s": np.array(
            [
                [outcome.p50_s, outcome.p95_s, outcome.p99_s]
                for outcome in report.regions
            ]
        ),
        "placement_efficiency": np.array(report.placement_efficiency),
        "meta_requests_per_stream": np.array(FLEET_REQUESTS_PER_STREAM),
        "meta_arrival_seed": np.array(FLEET_ARRIVAL_SEED),
        "meta_rtt_s": np.array(FLEET_RTT_S),
        "meta_pool_size": np.array(FLEET_POOL_SIZE),
    }
    for region, tenant in FLEET_STREAMS:
        trace = report.trace(region, tenant)
        prefix = f"{region}_{tenant}"
        fixture[f"{prefix}_server_region"] = trace.server_region
        fixture[f"{prefix}_served"] = trace.served
        fixture[f"{prefix}_latency_s"] = trace.latency_s
    return fixture


# -- canonical adaptive-recalibration trace (PR 9) ------------------------
ADAPTIVE_REQUESTS = 96
ADAPTIVE_ARRIVAL_SEED = 11
ADAPTIVE_ARRIVAL_RATE_RPS = 2e4
ADAPTIVE_CORES = 2
ADAPTIVE_FAULT = "tia-aging"
ADAPTIVE_SMOOTHING = 0.45
ADAPTIVE_LEAD_FRACTION = 0.08  # lead time as a fraction of the horizon
ADAPTIVE_ERROR_THRESHOLD = 0.05


def compute_adaptive_recal_trace() -> dict[str, np.ndarray]:
    """One deterministic EWMA-controlled serving trace end to end.

    The fixture pins the PR 9 adaptive control plane's observable
    surface on the canonical drifting-LeNet scenario: the controller's
    complete decision log (instants, cores, actions, raw/smoothed/
    projected errors), the per-batch accuracy proxy it steered, the
    downtime it spent, and the latency percentiles of the run it shaped.
    """
    network = serving_network("lenet5", seed=WEIGHT_SEED)
    arrivals = poisson_arrivals(
        ADAPTIVE_ARRIVAL_RATE_RPS, ADAPTIVE_REQUESTS, seed=ADAPTIVE_ARRIVAL_SEED
    )
    horizon_s = float(arrivals[-1])
    controller = AdaptiveRecalibration(
        base=RecalibrationPolicy(error_threshold=ADAPTIVE_ERROR_THRESHOLD),
        smoothing=ADAPTIVE_SMOOTHING,
        lead_time_s=ADAPTIVE_LEAD_FRACTION * horizon_s,
    )
    report = simulate_degraded_serving(
        network,
        arrivals,
        BatchingPolicy.dynamic(4, 1e-4),
        fault_scenario(ADAPTIVE_FAULT, ADAPTIVE_CORES, horizon_s),
        ADAPTIVE_CORES,
        recalibration=controller,
    )
    decisions = report.decisions
    return {
        "arrivals_sha256": input_digest(arrivals),
        "dispatch_s": report.dispatch_s,
        "completion_s": report.completion_s,
        "batch_sizes": np.array([b.size for b in report.batches]),
        "accuracy_proxy": report.accuracy_proxy,
        "core_downtime_s": np.array(report.core_downtime_s),
        "decision_time_s": np.array([d.time_s for d in decisions]),
        "decision_core": np.array([d.core for d in decisions]),
        "decision_action": np.array(
            [DECISION_ACTIONS.index(d.action) for d in decisions]
        ),
        "decision_error": np.array([d.error for d in decisions]),
        "decision_smoothed": np.array([d.smoothed for d in decisions]),
        "decision_projected": np.array([d.projected for d in decisions]),
        "num_recalibrations": np.array(len(report.recalibrations)),
        "percentiles_s": np.array([report.p50_s, report.p95_s, report.p99_s]),
        "meta_requests": np.array(ADAPTIVE_REQUESTS),
        "meta_arrival_seed": np.array(ADAPTIVE_ARRIVAL_SEED),
        "meta_weight_seed": np.array(WEIGHT_SEED),
        "meta_cores": np.array(ADAPTIVE_CORES),
        "meta_smoothing": np.array(ADAPTIVE_SMOOTHING),
        "meta_lead_fraction": np.array(ADAPTIVE_LEAD_FRACTION),
        "meta_error_threshold": np.array(ADAPTIVE_ERROR_THRESHOLD),
    }


# -- canonical capped multi-tenant cluster trace (PR 10) ------------------
CLUSTER_MIX = "interactive-batch"
CLUSTER_REQUESTS = 1500  # split 70/30 across the mix's two tenants
CLUSTER_ARRIVAL_SEED = 17
CLUSTER_RATE_RPS = 8e5  # deep overload: the occupancy cap genuinely bites
CLUSTER_POOL_SIZE = 3


def compute_cluster_vectorized_trace() -> dict[str, np.ndarray]:
    """One deterministic capped multi-tenant cluster trace end to end.

    The fixture pins the PR 10 frozen-allocation fast path's complete
    observable surface on the canonical two-tenant capped mix — the
    per-lane batch plans, the per-request streams, the occupancy-cap
    shed sets, the busy ledgers, and the latency percentiles — so any
    change to the lane decomposition, the closed-form admission walk,
    or its verification tiers shows up as a bit difference.  Because
    the vectorized path and the lane-loop oracle are pinned
    bit-identical elsewhere, this one fixture guards both.
    """
    tenants, arrival_s = cluster_mix(
        CLUSTER_MIX, CLUSTER_RATE_RPS, CLUSTER_REQUESTS, seed=CLUSTER_ARRIVAL_SEED
    )
    report = simulate_cluster_serving(tenants, arrival_s, CLUSTER_POOL_SIZE)
    assert report.num_shed > 0, "the golden scenario must actually shed"
    fixture: dict[str, np.ndarray] = {
        "arrivals_sha256": input_digest(
            np.concatenate([arrival_s[t.name] for t in tenants])
        ),
        "meta_requests": np.array(CLUSTER_REQUESTS),
        "meta_arrival_seed": np.array(CLUSTER_ARRIVAL_SEED),
        "meta_rate_rps": np.array(CLUSTER_RATE_RPS),
        "meta_pool_size": np.array(CLUSTER_POOL_SIZE),
    }
    for sub in report.tenants:
        prefix = sub.tenant
        fixture[f"{prefix}_dispatch_s"] = sub.dispatch_s
        fixture[f"{prefix}_completion_s"] = sub.completion_s
        fixture[f"{prefix}_shed_arrival_s"] = sub.shed_arrival_s
        fixture[f"{prefix}_batch_first_request"] = np.array(
            [b.first_request for b in sub.batches]
        )
        fixture[f"{prefix}_batch_sizes"] = np.array(
            [b.size for b in sub.batches]
        )
        fixture[f"{prefix}_batch_dispatch_s"] = np.array(
            [b.dispatch_s for b in sub.batches]
        )
        fixture[f"{prefix}_batch_completion_s"] = np.array(
            [b.completion_s for b in sub.batches]
        )
        fixture[f"{prefix}_core_busy_s"] = np.array(sub.core_busy_s)
        fixture[f"{prefix}_percentiles_s"] = np.array(
            [sub.p50_s, sub.p95_s, sub.p99_s]
        )
    return fixture


def build_accelerator(mode: str) -> PCNNA:
    """The accelerator under golden test for one mode."""
    accelerator = PCNNA()
    if mode == "quantized":
        accelerator.engine = PhotonicConvolution(
            accelerator.config, method="device", quantize=True
        )
    elif mode != "ideal":
        raise ValueError(f"unknown golden mode {mode!r}")
    return accelerator


def compute_trace(network_name: str, mode: str) -> dict[str, np.ndarray]:
    """One deterministic end-to-end trace (outputs + first conv maps)."""
    network = serving_network(network_name, scale=SCALE, seed=WEIGHT_SEED)
    inputs = serving_batch(network, BATCH, seed=INPUT_SEED)
    accelerator = build_accelerator(mode)
    outputs = accelerator.run_network(network, inputs)

    first_conv = next(
        layer for layer in network.layers if isinstance(layer, Conv2D)
    )
    conv_maps = accelerator.convolve(
        inputs, first_conv.weights, first_conv.stride, first_conv.padding
    )
    return {
        # The raw inputs would dominate the fixture size (megabytes for
        # 224x224 stacks); a digest guards the seeded generators just as
        # strictly.
        "inputs_sha256": input_digest(inputs),
        "outputs": outputs,
        "first_conv_maps": conv_maps,
        "meta_batch": np.array(BATCH),
        "meta_input_seed": np.array(INPUT_SEED),
        "meta_weight_seed": np.array(WEIGHT_SEED),
        "meta_scale": np.array(SCALE),
    }


def input_digest(inputs: np.ndarray) -> np.ndarray:
    """SHA-256 of the input batch's exact bytes, as a uint8 array."""
    digest = hashlib.sha256(np.ascontiguousarray(inputs).tobytes()).digest()
    return np.frombuffer(digest, dtype=np.uint8)


def fixture_path(network_name: str, mode: str) -> Path:
    """Location of one golden fixture."""
    return GOLDEN_DIR / f"{network_name}_{mode}.npz"


def main() -> None:
    for network_name, mode in CASES:
        trace = compute_trace(network_name, mode)
        path = fixture_path(network_name, mode)
        np.savez_compressed(path, **trace)
        print(
            f"wrote {path.relative_to(GOLDEN_DIR.parent.parent)} "
            f"(outputs {trace['outputs'].shape}, "
            f"conv {trace['first_conv_maps'].shape})"
        )
    faulted = compute_faulted_trace()
    faulted_path = fixture_path("lenet5", "faulted")
    np.savez_compressed(faulted_path, **faulted)
    print(
        f"wrote {faulted_path.relative_to(GOLDEN_DIR.parent.parent)} "
        f"({len(faulted['batch_sizes'])} batches, max divergence "
        f"{faulted['divergence_per_batch'].max():.4f})"
    )
    traffic = compute_traffic_trace()
    traffic_path = fixture_path("traffic", "vectorized")
    np.savez_compressed(traffic_path, **traffic)
    print(
        f"wrote {traffic_path.relative_to(GOLDEN_DIR.parent.parent)} "
        f"({len(traffic['batch_sizes'])} batches, p99 "
        f"{traffic['percentiles_s'][2]:.3e} s)"
    )
    fleet = compute_fleet_failover_trace()
    fleet_path = fixture_path("fleet", "failover")
    np.savez_compressed(fleet_path, **fleet)
    print(
        f"wrote {fleet_path.relative_to(GOLDEN_DIR.parent.parent)} "
        f"({int(fleet['failover_rerouted'])} rerouted, global p99 "
        f"{fleet['global_percentiles_s'][2]:.3e} s)"
    )
    adaptive = compute_adaptive_recal_trace()
    adaptive_path = fixture_path("adaptive", "recal")
    np.savez_compressed(adaptive_path, **adaptive)
    print(
        f"wrote {adaptive_path.relative_to(GOLDEN_DIR.parent.parent)} "
        f"({len(adaptive['decision_time_s'])} decisions, "
        f"{int(adaptive['num_recalibrations'])} recals)"
    )
    cluster = compute_cluster_vectorized_trace()
    cluster_path = fixture_path("cluster", "vectorized")
    np.savez_compressed(cluster_path, **cluster)
    print(
        f"wrote {cluster_path.relative_to(GOLDEN_DIR.parent.parent)} "
        f"({len(cluster['interactive_shed_arrival_s'])} shed, "
        f"interactive p99 {cluster['interactive_percentiles_s'][2]:.3e} s)"
    )


if __name__ == "__main__":
    main()
