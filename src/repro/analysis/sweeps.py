"""Design-space parameter sweeps (extension / ablation experiments).

The paper's analytical framework makes several design parameters
explicit; these sweeps quantify their impact:

* input-DAC count — the eq. 8 bottleneck scales as 1/N_DAC until the
  optical clock floor;
* fast-clock frequency — the eq. 7 optical-core scaling;
* stride — eq. 8's front-end load is proportional to s;
* kernel count — PCNNA's headline property: layer time is flat in K
  while ring count grows linearly (paper section V-B);
* serving policy x core count — the request-level simulator's policy
  comparison (:func:`sweep_serving_policies`), quantifying what dynamic
  batching and pipeline width buy under one shared traffic trace;
* tenant mix x pool size — the cluster runtime's capacity planning
  question (:func:`sweep_cluster_serving`): how much pool does a given
  multi-tenant mix need before shedding stops and every tenant's tail
  latency settles;
* global routing policy x region set — the fleet runtime's placement
  question (:func:`sweep_fleet_serving`): over one shared multi-region
  offered load, what do geo-affinity, least-loaded, and
  latency-weighted routing each cost in tail latency, cross-region
  traffic, and placement efficiency.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from repro.core.adaptive import (
    AdaptiveRecalibration,
    simulate_adaptive_serving,
)
from repro.core.analytical import (
    full_system_time_s,
    microrings_filtered,
    optical_core_time_s,
)
from repro.core.cluster import (
    ClusterReport,
    ClusterSimulator,
    ClusterTenant,
    ElasticReallocation,
    RoutingPolicy,
)
from repro.core.config import PCNNAConfig
from repro.core.fleet import (
    FleetAutoscaler,
    FleetReport,
    FleetRuntime,
    GlobalRoutingPolicy,
    RegionSpec,
)
from repro.core.faults import (
    DegradedServingReport,
    DegradedServingSimulator,
    FaultSchedule,
    RecalibrationPolicy,
    simulate_degraded_serving,
)
from repro.analysis.parallel import run_grid
from repro.nn.network import Network
from repro.core.traffic import (
    BatchingPolicy,
    PipelineServiceModel,
    ServingReport,
    ServingSimulator,
)
from repro.nn.shapes import ConvLayerSpec


@dataclass(frozen=True)
class SweepPoint:
    """One point of a 1-D design sweep.

    Attributes:
        parameter: the swept value.
        optical_time_s: eq. 7 layer time at this point.
        full_system_time_s: DAC-bound layer time at this point.
        rings: filtered ring count at this point.
    """

    parameter: float
    optical_time_s: float
    full_system_time_s: float
    rings: int


# repro: allow[API002] closed-form analytical sweep (paper section V):
# pure function of the layer spec and config, nothing stochastic
def sweep_num_dacs(
    spec: ConvLayerSpec,
    dac_counts: list[int],
    config: PCNNAConfig | None = None,
) -> list[SweepPoint]:
    """Sweep the input-DAC count (the paper's N_DAC = 10 choice)."""
    cfg = config if config is not None else PCNNAConfig()
    points = []
    for count in dac_counts:
        swept = cfg.with_dacs(count)
        points.append(
            SweepPoint(
                parameter=float(count),
                optical_time_s=optical_core_time_s(spec, swept),
                full_system_time_s=full_system_time_s(spec, swept),
                rings=microrings_filtered(spec),
            )
        )
    return points


# repro: allow[API002] closed-form analytical sweep: pure function of
# the layer spec and config, nothing stochastic
def sweep_fast_clock(
    spec: ConvLayerSpec,
    clocks_hz: list[float],
    config: PCNNAConfig | None = None,
) -> list[SweepPoint]:
    """Sweep the optical-core clock (the paper's 5 GHz choice)."""
    cfg = config if config is not None else PCNNAConfig()
    points = []
    for clock in clocks_hz:
        swept = cfg.with_fast_clock(clock)
        points.append(
            SweepPoint(
                parameter=clock,
                optical_time_s=optical_core_time_s(spec, swept),
                full_system_time_s=full_system_time_s(spec, swept),
                rings=microrings_filtered(spec),
            )
        )
    return points


# repro: allow[API002] closed-form analytical sweep: pure function of
# the layer spec and config, nothing stochastic
def sweep_stride(
    spec: ConvLayerSpec,
    strides: list[int],
    config: PCNNAConfig | None = None,
) -> list[SweepPoint]:
    """Sweep the layer stride (eq. 8's front-end load is linear in s)."""
    cfg = config if config is not None else PCNNAConfig()
    points = []
    for stride in strides:
        swept_spec = replace(spec, s=stride)
        points.append(
            SweepPoint(
                parameter=float(stride),
                optical_time_s=optical_core_time_s(swept_spec, cfg),
                full_system_time_s=full_system_time_s(swept_spec, cfg),
                rings=microrings_filtered(swept_spec),
            )
        )
    return points


@dataclass(frozen=True)
class ServingSweepPoint:
    """One (policy, core count) cell of a serving-policy sweep.

    Attributes:
        policy: the batching policy's name.
        num_cores: pipeline width of the cell.
        report: the full simulation result (percentiles, utilization,
            batch records) for drill-down.
    """

    policy: str
    num_cores: int
    report: ServingReport

    @property
    def throughput_rps(self) -> float:
        """Sustained completion rate."""
        return self.report.throughput_rps

    @property
    def p99_s(self) -> float:
        """99th-percentile request latency."""
        return self.report.p99_s

    def row(self) -> list[str]:
        """The cell formatted for a comparison table."""
        report = self.report
        return [
            self.policy,
            str(self.num_cores),
            f"{report.throughput_rps:,.0f}",
            f"{report.p50_s * 1e6:.0f}",
            f"{report.p99_s * 1e6:.0f}",
            f"{report.mean_batch_size:.1f}",
            f"{max(report.core_utilization):.0%}",
        ]


SERVING_SWEEP_HEADER = [
    "policy",
    "cores",
    "req/s",
    "p50 (us)",
    "p99 (us)",
    "batch",
    "peak util",
]
"""Column labels matching :meth:`ServingSweepPoint.row`."""


def sweep_serving_policies(
    specs: list[ConvLayerSpec],
    policies: list[BatchingPolicy],
    core_counts: list[int],
    arrival_s: np.ndarray,
    config: PCNNAConfig | None = None,
    clamp_cores: bool = False,
) -> list[ServingSweepPoint]:
    """Simulate every (policy, core count) pair over one shared trace.

    Feeding the identical arrival trace to every cell makes the cells
    directly comparable: differences in percentile latency and
    throughput are attributable to the policy and the pipeline width
    alone.

    Args:
        specs: the served network's conv layers.
        policies: batching policies to compare.
        core_counts: pipeline widths to compare.
        arrival_s: the shared request-arrival trace.
        config: hardware configuration.
        clamp_cores: clamp oversized core counts to ``len(specs)``
            instead of raising (duplicate clamped cells are kept).

    Returns:
        One :class:`ServingSweepPoint` per pair, policies varying
        fastest.

    Raises:
        ValueError: on empty specs/policies/core counts or an invalid
            trace.
    """
    if not policies:
        raise ValueError("need at least one batching policy")
    if not core_counts:
        raise ValueError("need at least one core count")
    points = []
    for num_cores in core_counts:
        model = PipelineServiceModel.from_specs(
            specs, num_cores, config, clamp_cores=clamp_cores
        )
        for policy in policies:
            report = ServingSimulator(model, policy).run(arrival_s)
            points.append(
                ServingSweepPoint(
                    policy=policy.name,
                    num_cores=model.num_cores,
                    report=report,
                )
            )
    return points


@dataclass(frozen=True)
class FaultSweepPoint:
    """One (drift rate, recalibration policy) cell of a fault sweep.

    Attributes:
        drift_rate_k_per_s: uniform ambient drift rate of the cell.
        recalibration: the recalibration policy's name, or ``"none"``.
        report: the full degraded simulation result for drill-down.
    """

    drift_rate_k_per_s: float
    recalibration: str
    report: DegradedServingReport

    @property
    def mean_accuracy_proxy(self) -> float:
        """Batch-weighted mean measured weight error."""
        return self.report.mean_accuracy_proxy

    @property
    def min_availability(self) -> float:
        """The least-available core's availability."""
        return min(self.report.availability)

    def row(self) -> list[str]:
        """The cell formatted for a comparison table."""
        report = self.report
        return [
            f"{self.drift_rate_k_per_s:g}",
            self.recalibration,
            f"{report.mean_accuracy_proxy:.4f}",
            f"{report.final_accuracy_proxy:.4f}",
            f"{report.p99_s * 1e6:.0f}",
            f"{self.min_availability:.2%}",
            str(len(report.recalibrations)),
        ]


FAULT_SWEEP_HEADER = [
    "drift (K/s)",
    "recal",
    "proxy mean",
    "proxy final",
    "p99 (us)",
    "min avail",
    "recals",
]
"""Column labels matching :meth:`FaultSweepPoint.row`."""


def sweep_fault_tolerance(
    specs: list[ConvLayerSpec],
    policy: BatchingPolicy,
    drift_rates_k_per_s: list[float],
    recalibrations: list[RecalibrationPolicy | None],
    arrival_s: np.ndarray,
    num_cores: int,
    config: PCNNAConfig | None = None,
    clamp_cores: bool = False,
) -> list[FaultSweepPoint]:
    """Simulate drift rate x recalibration policy over one shared trace.

    Every cell serves the identical arrival trace under a uniform
    thermal-drift ramp (:meth:`FaultSchedule.uniform_drift`), so the
    accuracy-proxy and availability differences are attributable to the
    drift rate and the recalibration policy alone.  Passing ``None`` in
    ``recalibrations`` produces the no-recalibration baseline column.

    Uniform drift degrades every core in lockstep, so the fault-aware
    repartitioning path (which must keep at least one survivor) can
    never trigger here and is left off; study asymmetric failures via
    :class:`DegradedServingSimulator` with a scenario schedule instead.

    Args:
        specs: the served network's conv layers.
        policy: the batching policy every cell uses.
        drift_rates_k_per_s: ambient drift rates to compare.
        recalibrations: recalibration policies to compare (``None`` =
            recalibration disabled).
        arrival_s: the shared request-arrival trace.
        num_cores: pipeline width.
        config: hardware configuration.
        clamp_cores: clamp an oversized ``num_cores`` to ``len(specs)``.

    Returns:
        One :class:`FaultSweepPoint` per cell, policies varying fastest.

    Raises:
        ValueError: on empty sweep axes, bad specs, or a bad trace.
    """
    if not drift_rates_k_per_s:
        raise ValueError("need at least one drift rate")
    if not recalibrations:
        raise ValueError("need at least one recalibration policy (or None)")
    model = PipelineServiceModel.from_specs(
        specs, num_cores, config, clamp_cores=clamp_cores
    )
    points = []
    for rate in drift_rates_k_per_s:
        schedule = FaultSchedule.uniform_drift(rate, model.num_cores)
        for recalibration in recalibrations:
            simulator = DegradedServingSimulator(
                model,
                policy,
                schedule,
                recalibration=recalibration,
                config=config,
            )
            points.append(
                FaultSweepPoint(
                    drift_rate_k_per_s=rate,
                    recalibration=(
                        "none" if recalibration is None else recalibration.name
                    ),
                    report=simulator.run(arrival_s),
                )
            )
    return points


@dataclass(frozen=True)
class ClusterSweepPoint:
    """One pool-size cell of a tenant-mix x pool-size sweep.

    Attributes:
        pool_size: physical cores in the cell's pool.
        report: the full cluster simulation result for drill-down.
    """

    pool_size: int
    report: ClusterReport

    @property
    def shed_fraction(self) -> float:
        """Fraction of the total offered load shed at this pool size."""
        return self.report.num_shed / self.report.num_offered

    def rows(self) -> list[list[str]]:
        """One formatted row per tenant of the cell."""
        return [
            [
                str(self.pool_size),
                tenant.tenant,
                str(tenant.num_offered),
                str(tenant.num_requests),
                str(tenant.num_shed),
                f"{tenant.p99_s * 1e6:.0f}",
                f"{tenant.mean_batch_size:.1f}",
                str(int(tenant.batch_num_cores[-1])),
            ]
            for tenant in self.report.tenants
        ]


CLUSTER_SWEEP_HEADER = [
    "pool",
    "tenant",
    "offered",
    "served",
    "shed",
    "p99 (us)",
    "batch",
    "cores@end",
]
"""Column labels matching :meth:`ClusterSweepPoint.rows`."""


def _cluster_serving_cell(
    args: tuple[
        tuple[ClusterTenant, ...],
        dict[str, np.ndarray],
        int,
        RoutingPolicy | None,
        ElasticReallocation | None,
        PCNNAConfig | None,
    ],
) -> ClusterSweepPoint:
    """One pool-size cell of :func:`sweep_cluster_serving`.

    Module-level (hence picklable) so :func:`run_grid` can ship it to
    spawn-started workers; the cell carries everything it needs.
    """
    tenants, arrival_s, pool_size, routing, elastic, config = args
    simulator = ClusterSimulator(
        tenants,
        pool_size,
        routing=routing,
        elastic=elastic,
        config=config,
    )
    return ClusterSweepPoint(
        pool_size=pool_size, report=simulator.run(arrival_s)
    )


def sweep_cluster_serving(
    tenants: Sequence[ClusterTenant],
    arrival_s: Mapping[str, np.ndarray],
    pool_sizes: list[int],
    routing: RoutingPolicy | None = None,
    elastic: ElasticReallocation | None = None,
    config: PCNNAConfig | None = None,
    workers: int = 1,
) -> list[ClusterSweepPoint]:
    """Simulate one tenant mix over a range of pool sizes.

    Every cell serves the identical per-tenant arrival traces, so
    differences in shedding, tail latency, and reallocation behaviour
    are attributable to the pool size alone — the capacity-planning
    curve for the mix.

    Args:
        tenants: the co-served tenant mix.
        arrival_s: per-tenant arrival traces shared by every cell.
        pool_sizes: pool sizes to compare (each >= the tenant count).
        routing: pool arbitration policy for every cell.
        elastic: elastic reallocation policy for every cell.
        config: hardware configuration.
        workers: worker processes for the cells; byte-identical to the
            serial result for every count (see
            :func:`repro.analysis.parallel.run_grid`).

    Returns:
        One :class:`ClusterSweepPoint` per pool size, in order.

    Raises:
        ValueError: on an empty pool-size list, a bad worker count, or
            invalid cluster arguments.
    """
    if not pool_sizes:
        raise ValueError("need at least one pool size")
    frozen_tenants = tuple(tenants)
    traces = dict(arrival_s)
    return run_grid(
        _cluster_serving_cell,
        [
            (frozen_tenants, traces, pool_size, routing, elastic, config)
            for pool_size in pool_sizes
        ],
        workers=workers,
    )


@dataclass(frozen=True)
class FleetSweepPoint:
    """One routing-policy cell of a fleet placement sweep.

    Attributes:
        routing: the cell's global routing kind.
        report: the full fleet simulation result for drill-down.
    """

    routing: str
    report: FleetReport

    @property
    def shed_fraction(self) -> float:
        """Fraction of the fleet's offered load shed under the cell."""
        return self.report.num_shed / self.report.num_offered

    @property
    def remote_fraction(self) -> float:
        """Fraction of offered load served away from home."""
        return self.report.num_remote / self.report.num_offered

    @property
    def p99_s(self) -> float:
        """Global 99th-percentile end-to-end latency of the cell."""
        return self.report.p99_s

    def rows(self) -> list[list[str]]:
        """One formatted row per region of the cell."""
        rows = []
        for outcome in self.report.regions:
            p99 = (
                f"{outcome.p99_s * 1e6:.0f}" if outcome.num_served else "-"
            )
            rows.append(
                [
                    self.routing,
                    outcome.name,
                    str(outcome.pool_size),
                    str(outcome.routed_in),
                    str(outcome.remote_in),
                    str(outcome.num_served),
                    str(outcome.num_shed),
                    p99,
                    f"{self.report.placement_efficiency:.2f}",
                ]
            )
        return rows


FLEET_SWEEP_HEADER = [
    "routing",
    "region",
    "pool",
    "routed",
    "remote",
    "served",
    "shed",
    "p99 (us)",
    "placement",
]
"""Column labels matching :meth:`FleetSweepPoint.rows`."""


def _fleet_serving_cell(
    args: tuple[
        tuple[ClusterTenant, ...],
        tuple[RegionSpec, ...],
        dict[str, dict[str, np.ndarray]],
        GlobalRoutingPolicy,
        np.ndarray | None,
        FleetAutoscaler | None,
        PCNNAConfig | None,
    ],
) -> FleetSweepPoint:
    """One routing-policy cell of :func:`sweep_fleet_serving`.

    Module-level (hence picklable) so :func:`run_grid` can ship it to
    spawn-started workers; the cell carries everything it needs.
    """
    tenants, regions, arrival_s, routing, rtt_s, autoscaler, config = args
    runtime = FleetRuntime(
        tenants,
        regions,
        rtt_s=rtt_s,
        routing=routing,
        autoscaler=autoscaler,
        config=config,
    )
    return FleetSweepPoint(routing=routing.kind, report=runtime.run(arrival_s))


def sweep_fleet_serving(
    tenants: Sequence[ClusterTenant],
    regions: Sequence[RegionSpec],
    arrival_s: Mapping[str, Mapping[str, np.ndarray]],
    routings: Sequence[GlobalRoutingPolicy],
    rtt_s: np.ndarray | None = None,
    autoscaler: FleetAutoscaler | None = None,
    config: PCNNAConfig | None = None,
    workers: int = 1,
) -> list[FleetSweepPoint]:
    """Simulate one multi-region offered load under each routing policy.

    Every cell serves the identical per-region, per-tenant traces over
    the identical region set and RTT matrix, so differences in tail
    latency, cross-region traffic, shedding, and placement efficiency
    are attributable to the global routing policy alone.

    Args:
        tenants: the globally replicated tenant set.
        regions: the regional pools shared by every cell.
        arrival_s: per-region, per-tenant traces shared by every cell.
        routings: global routing policies to compare.
        rtt_s: inter-region RTT matrix shared by every cell.
        autoscaler: pool autoscaler shared by every cell.
        config: hardware configuration.
        workers: worker processes for the cells; byte-identical to the
            serial result for every count (see
            :func:`repro.analysis.parallel.run_grid`).

    Returns:
        One :class:`FleetSweepPoint` per routing policy, in order.

    Raises:
        ValueError: on an empty routing list, a bad worker count, or
            invalid fleet arguments.
    """
    if not routings:
        raise ValueError("need at least one global routing policy")
    frozen_tenants = tuple(tenants)
    frozen_regions = tuple(regions)
    traces = {
        region: dict(per_tenant) for region, per_tenant in arrival_s.items()
    }
    return run_grid(
        _fleet_serving_cell,
        [
            (
                frozen_tenants,
                frozen_regions,
                traces,
                routing,
                rtt_s,
                autoscaler,
                config,
            )
            for routing in routings
        ],
        workers=workers,
    )


# repro: allow[API002] closed-form analytical sweep: pure function of
# the layer spec and config, nothing stochastic
def sweep_kernel_count(
    spec: ConvLayerSpec,
    kernel_counts: list[int],
    config: PCNNAConfig | None = None,
) -> list[SweepPoint]:
    """Sweep K — time should stay flat while rings grow linearly."""
    cfg = config if config is not None else PCNNAConfig()
    points = []
    for count in kernel_counts:
        swept_spec = replace(spec, num_kernels=count)
        points.append(
            SweepPoint(
                parameter=float(count),
                optical_time_s=optical_core_time_s(swept_spec, cfg),
                full_system_time_s=full_system_time_s(swept_spec, cfg),
                rings=microrings_filtered(swept_spec),
            )
        )
    return points


@dataclass(frozen=True)
class AdaptiveSweepPoint:
    """One controller cell of an adaptive-recalibration sweep.

    Attributes:
        controller: the controller's (or static policy's) name, or
            ``"none"`` for the no-recalibration baseline.
        report: the full degraded/adaptive run for drill-down.
    """

    controller: str
    report: DegradedServingReport

    @property
    def total_downtime_s(self) -> float:
        """Recalibration downtime summed over the pipeline's cores."""
        return float(sum(self.report.core_downtime_s))

    def row(self) -> list[str]:
        """The cell formatted for a comparison table."""
        report = self.report
        return [
            self.controller,
            f"{report.mean_accuracy_proxy:.4f}",
            f"{min(report.availability):.4f}",
            f"{report.latency_percentile_s(99.0) * 1e6:.1f}",
            f"{self.total_downtime_s * 1e6:.0f}",
            str(len(report.recalibrations)),
        ]


ADAPTIVE_SWEEP_HEADER = [
    "controller",
    "proxy mean",
    "min avail",
    "p99 (us)",
    "downtime (us)",
    "recals",
]
"""Column labels matching :meth:`AdaptiveSweepPoint.row`."""


def sweep_adaptive_recalibration(
    network: Network,
    policy: BatchingPolicy,
    schedule: FaultSchedule,
    controllers: Sequence[AdaptiveRecalibration | RecalibrationPolicy | None],
    arrival_s: np.ndarray,
    num_cores: int,
    config: PCNNAConfig | None = None,
    clamp_cores: bool = False,
) -> list[AdaptiveSweepPoint]:
    """Compare recalibration controllers over one shared faulted trace.

    Every cell serves the identical arrival trace under the identical
    fault schedule, so accuracy-proxy, availability, and downtime
    differences are attributable to the controller alone.  Cells accept
    the static :class:`RecalibrationPolicy`, the adaptive
    :class:`~repro.core.adaptive.AdaptiveRecalibration` controller, and
    ``None`` (the no-recalibration baseline) side by side.

    Raises:
        ValueError: on an empty controller axis or a bad trace.
    """
    if not controllers:
        raise ValueError("need at least one controller (or None)")
    points = []
    for controller in controllers:
        if isinstance(controller, AdaptiveRecalibration):
            report = simulate_adaptive_serving(
                network,
                arrival_s,
                policy,
                schedule,
                num_cores,
                controller=controller,
                config=config,
                clamp_cores=clamp_cores,
            )
        else:
            report = simulate_degraded_serving(
                network,
                arrival_s,
                policy,
                schedule,
                num_cores,
                recalibration=controller,
                config=config,
                clamp_cores=clamp_cores,
            )
        points.append(
            AdaptiveSweepPoint(
                controller=(
                    "none" if controller is None else controller.name
                ),
                report=report,
            )
        )
    return points
