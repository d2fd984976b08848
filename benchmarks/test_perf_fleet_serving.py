"""Perf benchmark: the planet-scale fleet runtime.

PR 8 layered a global router, failover, and autoscaling on top of the
regional cluster runtime.  The default run pins the behaviour: a
single-region fleet is bit-identical to the plain cluster run on the
same trace, and a >=1M-request multi-region geo-affinity soak conserves
every request.  The ``perf``-marked gates (``pytest -m perf
benchmarks``) time the same two scenarios: the fleet layer stays
within 2x of the cluster run it wraps, and the soak finishes inside a
generous 60 s bound.

Run with ``-s`` to see the figures.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cluster import ClusterTenant, simulate_cluster_serving
from repro.core.fleet import (
    RegionSpec,
    simulate_fleet_serving,
    uniform_rtt,
)
from repro.core.traffic import BatchingPolicy
from repro.workloads import lenet5_conv_specs, poisson_arrivals
from conftest import emit, measure

POOL_SIZE = 3
RATE_RPS = 2e6  # keeps every regional pool continuously busy
DIFFERENTIAL = 200_000  # single-region fleet-vs-cluster comparison
SOAK_REGIONS = 4
SOAK = 1_000_000  # total requests across the soak regions
OVERHEAD_CEILING = 2.0  # fleet wall time over cluster wall time
SOAK_CEILING_S = 60.0  # generous "completes in seconds" bound


def _tenants() -> tuple[ClusterTenant, ...]:
    # Single pluginless tenant: both the cluster and the per-region
    # fleet runs take the vectorized kernel, so the timings compare the
    # fleet layer itself, not two different kernels.
    return (
        ClusterTenant(
            "solo",
            tuple(lenet5_conv_specs()),
            BatchingPolicy.dynamic(8, 1e-4),
        ),
    )


def _differential():
    """One healthy zero-RTT region: the cluster and fleet runs, as
    closures over one pre-generated trace."""
    tenants = _tenants()
    arrival = {"solo": poisson_arrivals(RATE_RPS, DIFFERENTIAL, seed=31)}
    return (
        lambda: simulate_cluster_serving(
            tenants, arrival, pool_size=POOL_SIZE
        ),
        lambda: simulate_fleet_serving(
            tenants, (RegionSpec("solo", POOL_SIZE),), {"solo": arrival}
        ),
    )


def test_single_region_fleet_matches_cluster():
    """The differential scenario: the fleet contract pins a healthy
    single-region run bit-identical to the plain cluster simulator."""
    run_cluster, run_fleet = _differential()
    cluster_tenant = run_cluster().tenant("solo")
    fleet_tenant = run_fleet().regions[0].report.tenant("solo")
    assert np.array_equal(cluster_tenant.arrival_s, fleet_tenant.arrival_s)
    assert np.array_equal(cluster_tenant.dispatch_s, fleet_tenant.dispatch_s)
    assert np.array_equal(
        cluster_tenant.completion_s, fleet_tenant.completion_s
    )
    assert cluster_tenant.batches == fleet_tenant.batches


@pytest.mark.perf
def test_single_region_fleet_overhead_vs_cluster():
    """The differential scenario, timed: the routing pre-pass, merge
    fast path, and back-mapping stay a bounded multiplier on the
    cluster run they wrap."""
    run_cluster, run_fleet = _differential()
    cluster = measure(run_cluster)
    fleet = measure(run_fleet)
    overhead = fleet.min_s / cluster.min_s
    emit(
        f"single-region differential ({DIFFERENTIAL:,} requests): "
        f"cluster {cluster.min_s:.3f} s (median {cluster.median_s:.3f}), "
        f"fleet {fleet.min_s:.3f} s (median {fleet.median_s:.3f}) "
        f"-> {overhead:.2f}x overhead (ceiling {OVERHEAD_CEILING}x)"
    )
    assert overhead <= OVERHEAD_CEILING


def _soak_runner():
    """Four healthy regions under geo-affinity, uniform 10 ms RTT.

    Returns the run as a closure over its pre-generated traces.
    """
    tenants = _tenants()
    per_region = SOAK // SOAK_REGIONS
    regions = tuple(
        RegionSpec(f"region-{index}", POOL_SIZE)
        for index in range(SOAK_REGIONS)
    )
    arrival = {
        region.name: {
            "solo": poisson_arrivals(
                RATE_RPS / SOAK_REGIONS, per_region, seed=41 + index
            )
        }
        for index, region in enumerate(regions)
    }
    return lambda: simulate_fleet_serving(
        tenants,
        regions,
        arrival,
        rtt_s=uniform_rtt(SOAK_REGIONS, 0.01),
    )


def test_million_request_multi_region_soak():
    """The >=1M-request multi-region soak: the router pre-pass, the
    per-region vectorized runs, and the back-mapping conserve every
    request and keep every served latency finite."""
    run_soak = _soak_runner()
    report = run_soak()
    assert report.num_offered == SOAK
    assert report.num_served + report.num_shed == SOAK
    assert report.num_remote == 0  # healthy geo-affinity never diverts
    assert np.all(np.isfinite(report.latencies_s))
    assert report.p99_s > 0.0
    emit(
        f"1M-request fleet soak ({SOAK_REGIONS} regions, geo-affinity): "
        f"global p99 {report.p99_s:.3e} s"
    )


@pytest.mark.perf
def test_million_request_soak_within_ceiling():
    """The same soak, timed: it finishes in seconds."""
    soak = measure(_soak_runner(), repeats=1)
    emit(
        f"1M-request fleet soak: {soak.min_s:.1f} s wall, "
        f"{SOAK / soak.min_s:,.0f} req/s (ceiling {SOAK_CEILING_S} s)"
    )
    assert soak.min_s <= SOAK_CEILING_S
