"""Perf benchmark: the planet-scale fleet runtime.

PR 8 layered a global router, failover, and autoscaling on top of the
regional cluster runtime.  The default run pins the behaviour: a
single-region fleet is bit-identical to the plain cluster run on the
same trace, and a >=1M-request multi-region geo-affinity soak conserves
every request.  The ``perf``-marked gates (``pytest -m perf
benchmarks``) time the same two scenarios: the fleet layer stays
within 2x of the cluster run it wraps, and the soak finishes inside a
generous 60 s bound.

The load-aware router runs as speculate, verify and repair over
array ledgers, with the scalar walk as its oracle and fallback.  The
default run pins the two equal on every named mix under both load-aware
kinds; the ``perf`` gate bounds the router on an overloaded
least-loaded fleet, where it repairs densely and falls back to the
walk, at 1.1x the walk itself.

Run with ``-s`` to see the figures.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from repro.core import fleet as fleet_module
from repro.core.cluster import ClusterTenant, simulate_cluster_serving
from repro.core.fleet import (
    GlobalRoutingPolicy,
    RegionSpec,
    simulate_fleet_serving,
    uniform_rtt,
)
from repro.core.traffic import BatchingPolicy
from repro.workloads import (
    FLEET_MIXES,
    fleet_mix,
    lenet5_conv_specs,
    poisson_arrivals,
)
from conftest import emit, measure

POOL_SIZE = 3
RATE_RPS = 2e6  # keeps every regional pool continuously busy
DIFFERENTIAL = 200_000  # single-region fleet-vs-cluster comparison
SOAK_REGIONS = 4
SOAK = 1_000_000  # total requests across the soak regions
OVERHEAD_CEILING = 2.0  # fleet wall time over cluster wall time
SOAK_CEILING_S = 60.0  # generous "completes in seconds" bound
ROUTER_PIN = 20_000  # requests per mix in the router-vs-walk pin
DENSE_ROUTE = 200_000  # requests in the overloaded least-loaded case
DENSE_CEILING = 1.1  # router wall time over scalar-walk wall time


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


def _router_inputs(mix, rate_rps, num_requests, kind):
    """The sorted stream a fleet run hands its load-aware router."""
    scenario = fleet_mix(mix, rate_rps, num_requests, seed=5)
    captured = []
    speculative = fleet_module._route_speculative

    def capture(*args):
        captured.append(args)
        return speculative(*args)

    with mock.patch.object(fleet_module, "_route_speculative", capture):
        simulate_fleet_serving(
            scenario.tenants,
            scenario.regions,
            scenario.arrival_s,
            rtt_s=scenario.rtt_s,
            routing=GlobalRoutingPolicy(kind=kind),
            autoscaler=scenario.autoscaler,
        )
    (args,) = captured
    return args


def _walk(times, homes, avail, rtt_s, quantum, weighted):
    """The scalar walk over the whole stream: the router's oracle."""
    out = np.empty(times.size, dtype=np.int64)
    fleet_module._route_walk(
        times, homes, avail, rtt_s, quantum, weighted,
        [0.0] * len(quantum), 0, times.size, out,
    )
    return out


@pytest.mark.parametrize("kind", ["least-loaded", "latency-weighted"])
@pytest.mark.parametrize("mix", FLEET_MIXES)
def test_array_router_matches_scalar_walk(mix, kind):
    """Speculate, verify and repair assigns exactly what the walk
    assigns; latency-weighted follow-the-sun (the frozen-serving fleet)
    speculates right first time."""
    args = _router_inputs(mix, 2e5, ROUTER_PIN, kind)
    assignment, repairs = fleet_module._route_speculative(*args)
    assert np.array_equal(assignment, _walk(*args))
    if (mix, kind) == ("follow-the-sun", "latency-weighted"):
        assert repairs == 0


@pytest.mark.perf
def test_dense_repair_router_within_walk_ceiling():
    """An overloaded least-loaded fleet repairs densely; the windows
    and the scalar-walk fallback keep the router near the walk's cost."""
    args = _router_inputs(
        "follow-the-sun", 2e6, DENSE_ROUTE, "least-loaded"
    )
    router = measure(lambda: fleet_module._route_speculative(*args), 5)
    walk = measure(lambda: _walk(*args), 5)
    ratio = router.min_s / walk.min_s
    emit(
        f"overloaded least-loaded routing ({DENSE_ROUTE:,} requests, "
        f"{router.result[1]} repairs): router {router.min_s:.3f} s, "
        f"scalar walk {walk.min_s:.3f} s -> {ratio:.2f}x "
        f"(ceiling {DENSE_CEILING}x)"
    )
    assert np.array_equal(router.result[0], walk.result)
    assert ratio <= DENSE_CEILING
