"""Named multi-region scenarios for fleet serving studies.

The fleet runtime (:mod:`repro.core.fleet`) takes arbitrary region and
tenant sets; studies, examples, and tests want *named, reproducible*
ones — the fleet sibling of :mod:`repro.workloads.cluster_mixes`.
Each scenario is a pure function of ``(name, rate_rps, num_requests,
seed)``: the same arguments always build the same tenants, regions,
RTT matrix, and per-region arrival traces, so fleet sweeps and the
hypothesis suite stay bit-reproducible.

The scenarios cover the axes the fleet layer exists for:

* ``follow-the-sun`` — three regions with phase-shifted diurnal peaks
  (each region's crest lands a third of a period after the previous
  one) under latency-weighted routing: offload flows westward around
  the planet as each region peaks;
* ``regional-outage`` — two regions under geo-affinity where a severe
  mid-run TIA-droop fault degrades the primary past the failover
  threshold, diverting its users to the survivor until the fault
  clears;
* ``burst-overflow`` — two active regions carrying bursty MMPP
  traffic plus an idle standby pool, with an SLO-burn autoscaler that
  commissions the standby when the burst pushes burn over threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.core.cluster import ClusterTenant
from repro.core.faults import FaultEvent, FaultSchedule
from repro.core.fleet import (
    FleetAutoscaler,
    GlobalRoutingPolicy,
    RegionSpec,
    estimate_region_capacity_rps,
    uniform_rtt,
)
from repro.core.simkernel import BatchingPolicy, validate_count
from repro.workloads.serving import serving_network
from repro.workloads.traffic import (
    diurnal_arrivals,
    mmpp_arrivals,
    poisson_arrivals,
    validate_positive,
)

FLEET_MIXES: tuple[str, ...] = (
    "follow-the-sun",
    "regional-outage",
    "burst-overflow",
)
"""Names accepted by :func:`fleet_mix`."""

_RTT_S = 0.01
"""Uniform inter-region round trip for the named scenarios (10 ms)."""


@dataclass(frozen=True)
class FleetScenario:
    """One named multi-region scenario, ready for the fleet runtime.

    Every field maps directly onto a
    :func:`~repro.core.fleet.simulate_fleet_serving` argument.

    Attributes:
        name: the scenario's name.
        tenants: the globally replicated tenant set.
        regions: the regional pools, in preference order.
        arrival_s: per-region, per-tenant offered arrival traces.
        rtt_s: the inter-region RTT matrix.
        routing: the global routing policy.
        autoscaler: the pool autoscaler, or ``None``.
    """

    name: str
    tenants: tuple[ClusterTenant, ...]
    regions: tuple[RegionSpec, ...]
    arrival_s: Mapping[str, Mapping[str, np.ndarray]]
    rtt_s: np.ndarray
    routing: GlobalRoutingPolicy
    autoscaler: FleetAutoscaler | None


def fleet_mix(
    name: str,
    rate_rps: float,
    num_requests: int,
    seed: int = 0,
    scale: float = 0.05,
) -> FleetScenario:
    """Build one of the named multi-region scenarios.

    ``rate_rps`` is the *total* offered load; each scenario splits it
    over its regions, and each region's trace length is its share of
    ``num_requests``.  Per-region trace seeds derive from ``seed`` plus
    the region's position, so traces are independent but reproducible.
    Fault onsets and autoscaler epochs scale with the simulated horizon
    (``num_requests / rate_rps``), so the scenarios behave the same at
    any size.

    Args:
        name: one of :data:`FLEET_MIXES`.
        rate_rps: total offered load across the regions.
        num_requests: total requests across the regions.
        seed: base RNG seed.
        scale: channel-count multiplier for the scalable networks.

    Returns:
        The assembled :class:`FleetScenario`.

    Raises:
        KeyError: on an unknown scenario name.
        ValueError: on a rate that is not finite and > 0 or a request
            count that is not an integer >= 1.
    """
    validate_positive(rate_rps, "total rate")
    validate_count(num_requests, "request count")
    horizon_s = num_requests / rate_rps
    # The tenants need only their networks' conv geometry, which does
    # not depend on the weights: build it without drawing any.
    interactive = ClusterTenant.from_network(
        "interactive",
        serving_network("lenet5", draw_weights=False),
        BatchingPolicy.dynamic(4, 1e-4),
        weight=2.0,
    )
    batch = ClusterTenant.from_network(
        "batch",
        serving_network("googlenet-stem", scale=scale, draw_weights=False),
        BatchingPolicy.fixed(8),
        weight=1.0,
    )
    tenants = (interactive, batch)

    if name == "follow-the-sun":
        region_names = ("americas", "emea", "apac")
        share = rate_rps / 3.0
        per_region = max(1, num_requests // 3)
        period_s = 3.0 * per_region / share
        arrival_s = {}
        for position, region_name in enumerate(region_names):
            # Each region's diurnal crest lands a third of a period
            # after the previous region's — the sun moving west.
            phase = position * period_s / 3.0
            interactive_n = max(1, int(round(0.7 * per_region)))
            batch_n = max(1, per_region - interactive_n)
            arrival_s[region_name] = {
                "interactive": phase
                + diurnal_arrivals(
                    0.7 * share / 3.0,
                    0.7 * share * 5.0 / 3.0,
                    interactive_n,
                    period_s,
                    seed=seed + 1000 * (position + 1),
                ),
                "batch": phase
                + diurnal_arrivals(
                    0.3 * share / 3.0,
                    0.3 * share * 5.0 / 3.0,
                    batch_n,
                    period_s,
                    seed=seed + 1000 * (position + 1) + 500,
                ),
            }
        return FleetScenario(
            name=name,
            tenants=tenants,
            regions=(
                RegionSpec("americas", 8),
                RegionSpec("emea", 6),
                RegionSpec("apac", 6),
            ),
            arrival_s=arrival_s,
            rtt_s=uniform_rtt(3, _RTT_S),
            routing=GlobalRoutingPolicy.latency_weighted(),
            autoscaler=None,
        )

    if name == "regional-outage":
        half = rate_rps / 2.0
        per_region = max(1, num_requests // 2)
        outage = FaultSchedule(
            name="primary-outage",
            events=tuple(
                FaultEvent(
                    kind="tia_droop",
                    core=core,
                    onset_s=0.3 * horizon_s,
                    magnitude=0.9,
                    duration_s=0.3 * horizon_s,
                )
                for core in range(8)
            ),
        )
        arrival_s = {}
        for position, region_name in enumerate(("primary", "fallback")):
            interactive_n = max(1, int(round(0.7 * per_region)))
            batch_n = max(1, per_region - interactive_n)
            arrival_s[region_name] = {
                "interactive": poisson_arrivals(
                    0.7 * half,
                    interactive_n,
                    seed=seed + 1000 * (position + 1),
                ),
                "batch": poisson_arrivals(
                    0.3 * half,
                    batch_n,
                    seed=seed + 1000 * (position + 11),
                ),
            }
        return FleetScenario(
            name=name,
            tenants=tenants,
            regions=(
                RegionSpec("primary", 8, schedule=outage),
                RegionSpec("fallback", 8),
            ),
            arrival_s=arrival_s,
            rtt_s=uniform_rtt(2, _RTT_S),
            routing=GlobalRoutingPolicy.geo_affinity(),
            autoscaler=None,
        )

    if name == "burst-overflow":
        half = rate_rps / 2.0
        per_region = max(1, num_requests // 2)
        arrival_s = {"standby": {}}
        for position, region_name in enumerate(("east", "west")):
            interactive_n = max(1, int(round(0.7 * per_region)))
            batch_n = max(1, per_region - interactive_n)
            arrival_s[region_name] = {
                "interactive": mmpp_arrivals(
                    0.7 * half / 3.0,
                    0.7 * half * 5.0 / 3.0,
                    interactive_n,
                    mean_dwell_s=horizon_s / 10.0,
                    seed=seed + 1000 * (position + 1),
                ),
                "batch": mmpp_arrivals(
                    0.3 * half / 3.0,
                    0.3 * half * 5.0 / 3.0,
                    batch_n,
                    mean_dwell_s=horizon_s / 10.0,
                    seed=seed + 1000 * (position + 1) + 500,
                ),
            }
        regions = (
            RegionSpec("east", 6),
            RegionSpec("west", 6),
            RegionSpec("standby", 8),
        )
        # SLO-burn thresholds sit relative to the *mean* burn of the
        # two home pools, so the MMPP burst state (5/3 of the mean
        # rate) reliably trips commissioning at any absolute rate.
        mean_burn = rate_rps / (
            estimate_region_capacity_rps(tenants, regions[0])
            + estimate_region_capacity_rps(tenants, regions[1])
        )
        return FleetScenario(
            name=name,
            tenants=tenants,
            regions=regions,
            arrival_s=arrival_s,
            rtt_s=uniform_rtt(3, _RTT_S),
            routing=GlobalRoutingPolicy.least_loaded(),
            autoscaler=FleetAutoscaler(
                epoch_s=horizon_s / 10.0,
                burn_up=1.2 * mean_burn,
                burn_down=0.7 * mean_burn,
                warmup_s=horizon_s / 20.0,
                min_pools=2,
                max_pools=3,
            ),
        )

    raise KeyError(f"unknown fleet mix {name!r}; have {FLEET_MIXES}")


__all__ = ["FLEET_MIXES", "FleetScenario", "fleet_mix"]
