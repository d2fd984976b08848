"""The four benchmark workloads.

Each workload builds its inputs from the benchmark seed (``setup``),
runs one pass (``run``) and checks it (``check``).  A pass ends by
summarising the run through the report accessors a user would call,
inside a ``report`` span; the check runs after the pass, outside the
timed region.

Seed ``DEFAULT_SEED`` reproduces the named scenarios exactly (arrival
seeds 17, 3 and 5, grid seed 3, weight seed 0) and its pass digests are
pinned in ``digests.json``.  Any other seed offsets every trace and
weight seed by the same amount: the digests are then skipped and only
the invariants run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from repro.analysis.policy_eval import (
    default_policy_grid,
    default_scenarios,
    evaluate_dominance,
)
from repro.core.accelerator import PCNNA, PhotonicConvolution
from repro.core.cluster import simulate_cluster_serving
from repro.core.faults import RecalibrationPolicy, simulate_degraded_serving
from repro.core.fleet import simulate_fleet_serving
from repro.core.simkernel import BatchingPolicy
from repro.core.traffic import PipelineServiceModel
from repro.nn.layers import Conv2D
from repro.workloads import (
    cluster_mix,
    fault_scenario,
    fleet_mix,
    poisson_arrivals,
    serving_batch,
    serving_network,
)

from perfbench.layers import conv_key

DEFAULT_SEED = 0
DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"


@dataclasses.dataclass
class Summary:
    """What one pass delivered, as a user of the system sees it.

    Attributes:
        work: requests offered in the pass (images on engine-batch);
            the numerator of ``req_per_s``.
        latencies_s: simulated latency of every served request.
        availability: the workload's simulated availability.
        served / shed / offered: the request ledger.
        figures: workload-specific figures printed beside the metrics.
    """

    work: int
    latencies_s: np.ndarray
    availability: float
    served: int
    shed: int
    offered: int
    figures: dict[str, float]


def _digest(*parts) -> str:
    """sha256 over arrays (by bytes) and anything else (by repr)."""
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            digest.update(np.ascontiguousarray(part).tobytes())
        else:
            digest.update(repr(part).encode())
    return digest.hexdigest()


def _ledger_problems(summary: Summary) -> list[str]:
    """Conservation and finite, positive latencies."""
    problems = []
    if summary.served + summary.shed != summary.offered:
        problems.append(
            f"served {summary.served} + shed {summary.shed} != "
            f"offered {summary.offered}"
        )
    if summary.latencies_s.size != summary.served:
        problems.append(
            f"{summary.latencies_s.size} latencies for "
            f"{summary.served} served requests"
        )
    if not np.all(np.isfinite(summary.latencies_s)):
        problems.append("non-finite latency")
    elif summary.latencies_s.size and summary.latencies_s.min() <= 0.0:
        problems.append("non-positive latency")
    return problems


class Workload:
    """One named workload; ``name`` and ``why`` go into BENCHMARK.json."""

    name = ""
    why = ""

    def prepare(self, state) -> None:
        """Build the correctness-gate inputs once per seed (untimed)."""


class DriftServing(Workload):
    """Faulted LeNet-5 serving on the plugin event loop."""

    name = "drift-serving"
    why = (
        "faulted LeNet-5 serving on the plugin event loop; drift-probe "
        "physics dominates"
    )

    def setup(self, seed: int, smoke: bool = False):
        requests = 1_000 if smoke else 20_000
        arrivals = poisson_arrivals(2e4, requests, seed=17 + seed)
        return SimpleNamespace(
            network=serving_network("lenet5"),
            arrivals=arrivals,
            policy=BatchingPolicy.dynamic(4, 1e-4),
            schedule=fault_scenario("slow-drift", 2, float(arrivals[-1])),
            recalibration=RecalibrationPolicy(error_threshold=0.05),
        )

    def run(self, state, tracer):
        report = simulate_degraded_serving(
            state.network,
            state.arrivals,
            state.policy,
            state.schedule,
            2,
            recalibration=state.recalibration,
        )
        with tracer.span("report"):
            summary = Summary(
                work=state.arrivals.size,
                latencies_s=report.latencies_s,
                availability=float(np.mean(report.availability)),
                served=report.num_requests,
                shed=0,
                offered=state.arrivals.size,
                figures={
                    "sim_accuracy_err": report.mean_accuracy_proxy,
                    "recalibrations": len(report.recalibrations),
                },
            )
        return report, summary

    def check(self, state, report, summary) -> tuple[str, list[str]]:
        problems = _ledger_problems(summary)
        if np.any(report.dispatch_s < report.arrival_s) or np.any(
            report.completion_s <= report.dispatch_s
        ):
            problems.append("a request dispatched early or finished early")
        digest = _digest(
            report.completion_s,
            report.accuracy_proxy,
            [dataclasses.astuple(r) for r in report.recalibrations],
        )
        return digest, problems


class PolicyGrid(Workload):
    """The default scenario x policy dominance grid, run serially."""

    name = "policy-grid"
    why = (
        "24 faulted 6-core cluster cells: the reference cluster loop, "
        "adaptive controllers, scoring and run_grid"
    )

    def setup(self, seed: int, smoke: bool = False):
        scenarios = default_scenarios(num_requests=60 if smoke else 400)
        if smoke:
            scenarios = scenarios[:2]
        scenarios = tuple(
            dataclasses.replace(scenario, seed=scenario.seed + seed)
            for scenario in scenarios
        )
        return SimpleNamespace(
            scenarios=scenarios, policies=default_policy_grid(scenarios)
        )

    def run(self, state, tracer, workers: int = 1):
        report = evaluate_dominance(
            state.scenarios, state.policies, workers=workers
        )
        with tracer.span("report"):
            outcomes = report.outcomes
            summary = Summary(
                work=sum(o.offered for o in outcomes),
                latencies_s=np.concatenate(
                    [
                        tenant.latencies_s
                        for o in outcomes
                        for tenant in o.report.tenants
                    ]
                ),
                availability=float(np.mean([o.availability for o in outcomes])),
                served=sum(o.served for o in outcomes),
                shed=sum(o.shed for o in outcomes),
                offered=sum(o.offered for o in outcomes),
                figures={
                    "cells": len(outcomes),
                    "sim_accuracy_err": float(
                        np.mean([o.accuracy_error for o in outcomes])
                    ),
                    "wins": len(report.wins),
                },
            )
        return report, summary

    def check(self, state, report, summary) -> tuple[str, list[str]]:
        problems = _ledger_problems(summary)
        cells = len(state.scenarios) * len(state.policies)
        if len(report.outcomes) != cells:
            problems.append(f"{len(report.outcomes)} outcomes for {cells} cells")
        rows = []
        for o in report.outcomes:
            if o.served + o.shed != o.offered:
                problems.append(f"{o.scenario}/{o.policy}: ledger broken")
            if not 0.0 <= o.availability <= 1.0:
                problems.append(f"{o.scenario}/{o.policy}: availability")
            rows.append(
                (
                    o.scenario,
                    o.policy,
                    o.availability,
                    o.accuracy_error,
                    o.p99_latency_s,
                    o.downtime_s,
                    o.served,
                    o.offered,
                    o.shed,
                    o.recalibrations,
                )
            )
        return _digest(rows, report.wins), problems


class FrozenServing(Workload):
    """The vectorized fast path: an overloaded cluster, then a fleet."""

    name = "frozen-serving"
    why = (
        "frozen-allocation cluster (overloaded, sheds) then a 3-region "
        "fleet: batch planning, max-plus scans, admission, routing"
    )

    def setup(self, seed: int, smoke: bool = False):
        cluster_requests, fleet_requests = (
            (6_000, 3_000) if smoke else (600_000, 200_000)
        )
        tenants, arrivals = cluster_mix(
            "interactive-batch", 8e5, cluster_requests, seed=3 + seed
        )
        return SimpleNamespace(
            tenants=tenants,
            arrivals=arrivals,
            fleet=fleet_mix("follow-the-sun", 2e5, fleet_requests, seed=5 + seed),
        )

    def run(self, state, tracer):
        fleet = state.fleet
        cluster = simulate_cluster_serving(
            state.tenants, state.arrivals, pool_size=4
        )
        fleet_report = simulate_fleet_serving(
            fleet.tenants,
            fleet.regions,
            fleet.arrival_s,
            rtt_s=fleet.rtt_s,
            routing=fleet.routing,
            autoscaler=fleet.autoscaler,
        )
        with tracer.span("report"):
            offered = cluster.num_offered + fleet_report.num_offered
            served = cluster.num_served + fleet_report.num_served
            shed = cluster.num_shed + fleet_report.num_shed
            summary = Summary(
                work=offered,
                latencies_s=np.concatenate(
                    [tenant.latencies_s for tenant in cluster.tenants]
                    + [fleet_report.latencies_s]
                ),
                # No faults run here, so no capacity is lost to downtime.
                availability=served / offered,
                served=served,
                shed=shed,
                offered=offered,
                figures={
                    "shed_frac": shed / offered,
                    "fleet_remote": fleet_report.num_remote,
                },
            )
        return (cluster, fleet_report), summary

    def check(self, state, result, summary) -> tuple[str, list[str]]:
        cluster, fleet_report = result
        problems = _ledger_problems(summary)
        parts = []
        for tenant in cluster.tenants:
            if tenant.num_offered != state.arrivals[tenant.tenant].size:
                problems.append(f"{tenant.tenant}: offered count changed")
            if np.any(tenant.dispatch_s < tenant.arrival_s):
                problems.append(f"{tenant.tenant}: dispatched before arrival")
            parts += [
                tenant.tenant,
                tenant.arrival_s,
                tenant.dispatch_s,
                tenant.completion_s,
                tenant.shed_arrival_s,
            ]
        for trace in fleet_report.traces:
            parts += [
                trace.home_region,
                trace.tenant,
                trace.server_region,
                trace.served,
                trace.latency_s,
            ]
        return _digest(*parts), problems


class EngineBatch(Workload):
    """GoogLeNet-stem through the functional photonic engine."""

    name = "engine-batch"
    why = (
        "GoogLeNet-stem through PCNNA.run_network: ideal engine at batch "
        "16, then quantized device mode at batch 4"
    )

    def setup(self, seed: int, smoke: bool = False):
        scale, ideal_batch, device_batch = (
            (0.02, 2, 1) if smoke else (0.05, 16, 4)
        )
        network = serving_network("googlenet-stem", scale=scale, seed=seed)
        device = PCNNA()
        device.engine = PhotonicConvolution(
            device.config, method="device", quantize=True
        )
        service = PipelineServiceModel.from_specs(network.conv_specs(), 1)
        return SimpleNamespace(
            network=network,
            batch=serving_batch(network, ideal_batch, seed=seed),
            device_batch=device_batch,
            ideal=PCNNA(),
            device=device,
            # Simulated latency of each image: its batch's service time
            # on one PCNNA core, as the serving model books it.
            latencies_s=np.array(
                [service.core_busy_s(0, ideal_batch)] * ideal_batch
                + [service.core_busy_s(0, device_batch)] * device_batch
            ),
            conv_names={
                id(layer.weights): conv_key(layer.name)
                for layer in network.layers
                if isinstance(layer, Conv2D)
            },
        )

    def prepare(self, state) -> None:
        """The electronic reference output, computed once per seed."""
        state.reference = state.network.forward_batch(state.batch)

    def run(self, state, tracer):
        ideal = state.ideal.run_network(state.network, state.batch)
        device = state.device.run_network(
            state.network, state.batch[: state.device_batch]
        )
        with tracer.span("report"):
            images = ideal.shape[0] + device.shape[0]
            summary = Summary(
                work=images,
                latencies_s=state.latencies_s,
                availability=1.0,
                served=images,
                shed=0,
                offered=images,
                figures={
                    "sim_output_err": _relative_error(
                        device, state.reference[: state.device_batch]
                    ),
                    "ideal_output_err": _relative_error(ideal, state.reference),
                },
            )
        return (ideal, device), summary

    def check(self, state, result, summary) -> tuple[str, list[str]]:
        ideal, device = result
        problems = _ledger_problems(summary)
        if ideal.shape != state.reference.shape:
            problems.append(f"ideal output shape {ideal.shape}")
        if not (np.all(np.isfinite(ideal)) and np.all(np.isfinite(device))):
            problems.append("non-finite engine output")
        # The ideal engine is exact up to rounding; the quantized device
        # mode carries DAC/ADC error well under a percent.
        if not summary.figures["ideal_output_err"] <= 1e-9:
            problems.append(
                f"ideal output off the electronic reference by "
                f"{summary.figures['ideal_output_err']:.3g}"
            )
        if not summary.figures["sim_output_err"] <= 1e-2:
            problems.append(
                f"device output off the electronic reference by "
                f"{summary.figures['sim_output_err']:.3g}"
            )
        return _digest(ideal, device), problems


def _relative_error(output: np.ndarray, reference: np.ndarray) -> float:
    """Max absolute error over the reference's peak magnitude."""
    return float(np.max(np.abs(output - reference)) / np.max(np.abs(reference)))


WORKLOADS = {
    workload.name: workload
    for workload in (DriftServing(), PolicyGrid(), FrozenServing(), EngineBatch())
}


def pinned_digests() -> dict[str, str]:
    """The default-seed pass digests, by workload."""
    return json.loads(DIGESTS_PATH.read_text())
