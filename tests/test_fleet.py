"""Tests for the planet-scale fleet serving layer."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import FLEET_SWEEP_HEADER, sweep_fleet_serving
from repro.core import fleet as fleet_module
from repro.core.cluster import (
    ClusterTenant,
    ElasticReallocation,
    RoutingPolicy,
    simulate_cluster_serving,
)
from repro.core.faults import FaultEvent, FaultSchedule
from repro.core.fleet import (
    FLEET_ROUTING_KINDS,
    FleetAutoscaler,
    FleetRuntime,
    GlobalRoutingPolicy,
    RegionSpec,
    estimate_region_capacity_rps,
    simulate_fleet_serving,
    uniform_rtt,
    validate_rtt_matrix,
)
from repro.core.simkernel import BatchingPolicy
from repro.workloads import (
    FLEET_MIXES,
    fleet_mix,
    lenet5_conv_specs,
    poisson_arrivals,
)

LENET = tuple(lenet5_conv_specs())


def tenant(name, policy=None, **kwargs) -> ClusterTenant:
    policy = policy if policy is not None else BatchingPolicy.dynamic(8, 1e-3)
    return ClusterTenant(name, LENET, policy, **kwargs)


def two_tenants():
    return (
        tenant("interactive", BatchingPolicy.dynamic(4, 1e-4), weight=2.0),
        tenant("batch", BatchingPolicy.fixed(4), queue_cap=16),
    )


def traces(num=300, rate=4000.0, seed=0):
    return {
        "interactive": poisson_arrivals(0.7 * rate, int(0.7 * num), seed=seed),
        "batch": poisson_arrivals(0.3 * rate, int(0.3 * num), seed=seed + 1),
    }


def outage_schedule(onset_s, duration_s, num_cores=6, magnitude=0.9):
    return FaultSchedule(
        name="outage",
        events=tuple(
            FaultEvent(
                kind="tia_droop",
                core=core,
                onset_s=onset_s,
                magnitude=magnitude,
                duration_s=duration_s,
            )
            for core in range(num_cores)
        ),
    )


class TestFleetConfigValidation:
    def test_zero_region_fleet_rejected(self):
        with pytest.raises(ValueError, match="at least one region"):
            FleetRuntime(two_tenants(), [])

    def test_duplicate_region_names_rejected(self):
        with pytest.raises(ValueError, match="region names must be unique"):
            FleetRuntime(
                two_tenants(), [RegionSpec("r", 4), RegionSpec("r", 6)]
            )

    def test_empty_and_duplicate_tenants_rejected(self):
        with pytest.raises(ValueError, match="at least one tenant"):
            FleetRuntime((), [RegionSpec("r", 4)])
        with pytest.raises(ValueError, match="tenant names must be unique"):
            FleetRuntime(
                (tenant("t"), tenant("t")), [RegionSpec("r", 4)]
            )

    def test_region_spec_validation(self):
        with pytest.raises(ValueError, match="name"):
            RegionSpec("", 4)
        with pytest.raises(ValueError, match="pool size"):
            RegionSpec("r", 0)

    def test_pool_too_small_for_tenants_rejected(self):
        with pytest.raises(ValueError, match="cannot host"):
            FleetRuntime(two_tenants(), [RegionSpec("r", 1)])

    def test_rtt_matrix_validation(self):
        with pytest.raises(ValueError, match="square"):
            validate_rtt_matrix(np.zeros((2, 3)), 2)
        with pytest.raises(ValueError, match="square"):
            validate_rtt_matrix(np.zeros((3, 3)), 2)
        with pytest.raises(ValueError, match=">= 0"):
            validate_rtt_matrix(np.array([[0.0, -0.1], [0.1, 0.0]]), 2)
        with pytest.raises(ValueError, match="finite"):
            validate_rtt_matrix(
                np.array([[0.0, np.inf], [0.1, 0.0]]), 2
            )
        with pytest.raises(ValueError, match="diagonal"):
            validate_rtt_matrix(np.array([[0.5, 0.1], [0.1, 0.0]]), 2)
        assert np.array_equal(
            validate_rtt_matrix(None, 2), np.zeros((2, 2))
        )

    def test_uniform_rtt_validation(self):
        with pytest.raises(ValueError, match="region"):
            uniform_rtt(0, 0.01)
        with pytest.raises(ValueError, match="RTT"):
            uniform_rtt(2, -0.01)
        matrix = uniform_rtt(3, 0.02)
        assert np.all(np.diagonal(matrix) == 0.0)
        assert matrix[0, 1] == 0.02

    def test_autoscaler_inverted_bounds_rejected(self):
        with pytest.raises(ValueError, match="bounds inverted"):
            FleetAutoscaler(epoch_s=1.0, min_pools=3, max_pools=2)

    def test_autoscaler_parameter_validation(self):
        with pytest.raises(ValueError, match="epoch"):
            FleetAutoscaler(epoch_s=0.0)
        with pytest.raises(ValueError, match="burn-down"):
            FleetAutoscaler(epoch_s=1.0, burn_down=0.0)
        with pytest.raises(ValueError, match="burn-up"):
            FleetAutoscaler(epoch_s=1.0, burn_up=0.1, burn_down=0.2)
        with pytest.raises(ValueError, match="warm-up"):
            FleetAutoscaler(epoch_s=1.0, warmup_s=-1.0)
        with pytest.raises(ValueError, match="min pools"):
            FleetAutoscaler(epoch_s=1.0, min_pools=0)

    def test_autoscaler_min_pools_above_region_count_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            FleetRuntime(
                two_tenants(),
                [RegionSpec("r", 4)],
                autoscaler=FleetAutoscaler(epoch_s=1.0, min_pools=2),
            )

    def test_routing_policy_validation(self):
        with pytest.raises(ValueError, match="routing kind"):
            GlobalRoutingPolicy(kind="random")
        with pytest.raises(ValueError, match="threshold"):
            GlobalRoutingPolicy(failover_threshold=0.0)
        with pytest.raises(ValueError, match="threshold"):
            GlobalRoutingPolicy(failover_threshold=True)
        for kind in FLEET_ROUTING_KINDS:
            assert GlobalRoutingPolicy(kind=kind).kind == kind

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="kernel mode"):
            FleetRuntime(
                two_tenants(), [RegionSpec("r", 4)], mode="warp"
            )

    def test_run_trace_validation(self):
        runtime = FleetRuntime(
            two_tenants(), [RegionSpec("r0", 4), RegionSpec("r1", 4)]
        )
        with pytest.raises(ValueError, match="per region"):
            runtime.run({"r0": traces()})
        with pytest.raises(ValueError, match="unknown tenant"):
            runtime.run(
                {"r0": {"ghost": poisson_arrivals(1e3, 10)}, "r1": {}}
            )
        with pytest.raises(ValueError, match="no requests"):
            runtime.run({"r0": {}, "r1": {}})
        with pytest.raises(ValueError, match="sorted"):
            runtime.run(
                {
                    "r0": {"interactive": np.array([2.0, 1.0])},
                    "r1": {},
                }
            )


class TestFleetDifferential:
    """The load-bearing contract: one healthy region == the cluster."""

    def assert_region_matches_cluster(self, fleet_report, cluster_report):
        region = fleet_report.regions[0].report
        assert region is not None
        for tenant_report in cluster_report.tenants:
            name = tenant_report.tenant
            fleet_tenant = region.tenant(name)
            assert np.array_equal(
                tenant_report.offered_arrival_s,
                fleet_tenant.offered_arrival_s,
            )
            assert np.array_equal(
                tenant_report.arrival_s, fleet_tenant.arrival_s
            )
            assert np.array_equal(
                tenant_report.dispatch_s, fleet_tenant.dispatch_s
            )
            assert np.array_equal(
                tenant_report.completion_s, fleet_tenant.completion_s
            )
            assert np.array_equal(
                tenant_report.shed_arrival_s, fleet_tenant.shed_arrival_s
            )
            assert tenant_report.batches == fleet_tenant.batches
            assert tenant_report.core_busy_s == fleet_tenant.core_busy_s
            assert np.array_equal(
                tenant_report.batch_num_cores, fleet_tenant.batch_num_cores
            )

    def test_bit_identical_to_cluster_run(self):
        tenants = two_tenants()
        arrival = traces(num=400, rate=6000.0, seed=3)
        cluster = simulate_cluster_serving(tenants, arrival, pool_size=5)
        fleet = simulate_fleet_serving(
            tenants, [RegionSpec("solo", 5)], {"solo": arrival}
        )
        self.assert_region_matches_cluster(fleet, cluster)
        assert fleet.num_offered == cluster.num_offered
        assert fleet.num_served == cluster.num_served
        assert fleet.num_shed == cluster.num_shed
        assert fleet.num_remote == 0
        # End-to-end latency streams equal the cluster's bitwise.
        for tenant_report in cluster.tenants:
            trace = fleet.trace("solo", tenant_report.tenant)
            assert np.array_equal(
                trace.latency_s[trace.served],
                tenant_report.completion_s - tenant_report.arrival_s,
            )
        assert fleet.p50_s == pytest.approx(cluster_p50(cluster), abs=0.0)

    def test_differential_pin_sheds_identically(self):
        tenants = (
            tenant("capped", BatchingPolicy.dynamic(4, 1e-4), queue_cap=2),
        )
        arrival = {"capped": poisson_arrivals(5e5, 600, seed=4)}
        cluster = simulate_cluster_serving(tenants, arrival, pool_size=3)
        assert cluster.num_shed > 0  # the pin must cover admission
        fleet = simulate_fleet_serving(
            tenants, [RegionSpec("solo", 3)], {"solo": arrival}
        )
        self.assert_region_matches_cluster(fleet, cluster)
        assert fleet.num_shed == cluster.num_shed

    def test_explicit_zero_rtt_matches_default(self):
        tenants = two_tenants()
        arrival = traces(num=200, seed=5)
        base = simulate_fleet_serving(
            tenants, [RegionSpec("solo", 4)], {"solo": arrival}
        )
        explicit = simulate_fleet_serving(
            tenants,
            [RegionSpec("solo", 4)],
            {"solo": arrival},
            rtt_s=np.zeros((1, 1)),
        )
        for left, right in zip(base.traces, explicit.traces):
            assert np.array_equal(left.latency_s, right.latency_s)

    @pytest.mark.parametrize("kind", FLEET_ROUTING_KINDS)
    def test_every_routing_kind_degenerates_identically(self, kind):
        tenants = two_tenants()
        arrival = traces(num=200, seed=6)
        cluster = simulate_cluster_serving(tenants, arrival, pool_size=4)
        fleet = simulate_fleet_serving(
            tenants,
            [RegionSpec("solo", 4)],
            {"solo": arrival},
            routing=GlobalRoutingPolicy(kind=kind),
        )
        self.assert_region_matches_cluster(fleet, cluster)

    def test_priority_routing_and_elastic_pass_through(self):
        tenants = (
            tenant("hi", BatchingPolicy.dynamic(4, 1e-4), priority=1),
            tenant("lo", BatchingPolicy.fixed(8), priority=0),
        )
        arrival = {
            "hi": poisson_arrivals(3000.0, 200, seed=7),
            "lo": poisson_arrivals(2000.0, 150, seed=8),
        }
        routing = RoutingPolicy.priority()
        elastic = ElasticReallocation(pressure_ratio=2.0, min_queue=4)
        cluster = simulate_cluster_serving(
            tenants, arrival, pool_size=5, routing=routing, elastic=elastic
        )
        fleet = simulate_fleet_serving(
            tenants,
            [RegionSpec("solo", 5, routing=routing, elastic=elastic)],
            {"solo": arrival},
        )
        self.assert_region_matches_cluster(fleet, cluster)
        region = fleet.regions[0].report
        assert region.reallocations == cluster.reallocations

    def test_sub_threshold_faults_do_not_fail_over(self):
        tenants = two_tenants()
        arrival = traces(num=250, seed=9)
        schedule = outage_schedule(0.01, 0.02, magnitude=0.4)
        cluster = simulate_cluster_serving(
            tenants, arrival, pool_size=5, schedule=schedule
        )
        fleet = simulate_fleet_serving(
            tenants,
            [RegionSpec("solo", 5, schedule=schedule)],
            {"solo": arrival},
        )
        assert fleet.failovers == ()
        self.assert_region_matches_cluster(fleet, cluster)

    def test_reference_mode_matches_auto(self):
        tenants = two_tenants()
        arrival = traces(num=200, seed=10)
        auto = simulate_fleet_serving(
            tenants, [RegionSpec("solo", 4)], {"solo": arrival}, mode="auto"
        )
        reference = simulate_fleet_serving(
            tenants,
            [RegionSpec("solo", 4)],
            {"solo": arrival},
            mode="reference",
        )
        for left, right in zip(auto.traces, reference.traces):
            assert np.array_equal(left.latency_s, right.latency_s)
            assert np.array_equal(left.server_region, right.server_region)


def cluster_p50(cluster):
    latencies = np.concatenate(
        [
            report.completion_s - report.arrival_s
            for report in cluster.tenants
        ]
    )
    return float(np.percentile(latencies, 50.0))


class TestFleetRouting:
    def test_geo_affinity_keeps_healthy_fleet_home(self):
        tenants = two_tenants()
        fleet = simulate_fleet_serving(
            tenants,
            [RegionSpec("east", 4), RegionSpec("west", 4)],
            {"east": traces(seed=11), "west": traces(seed=12)},
            rtt_s=uniform_rtt(2, 0.01),
        )
        assert fleet.num_remote == 0
        for trace in fleet.traces:
            assert np.all(trace.server_region == trace.home_index)

    def test_failover_diverts_and_drains(self):
        tenants = two_tenants()
        onset, duration = 0.03, 0.04
        schedule = outage_schedule(onset, duration)
        east = traces(num=400, rate=6000.0, seed=13)
        fleet = simulate_fleet_serving(
            tenants,
            [
                RegionSpec("east", 4, schedule=schedule),
                RegionSpec("west", 4),
            ],
            {"east": east, "west": traces(num=100, rate=1500.0, seed=14)},
            rtt_s=uniform_rtt(2, 0.01),
        )
        assert len(fleet.failovers) == 1
        record = fleet.failovers[0]
        assert record.region == "east"
        assert record.survivor == "west"
        assert record.onset_s == onset
        assert record.until_s == pytest.approx(onset + duration)
        assert record.rerouted > 0
        assert math.isfinite(record.failover_latency_s)
        assert record.failover_latency_s > 0.0
        assert fleet.failover_time_s == record.failover_latency_s
        for name in ("interactive", "batch"):
            trace = fleet.trace("east", name)
            times = trace.offered_arrival_s
            inside = (times >= onset) & (times < onset + duration)
            # New arrivals divert during the window; everything
            # already routed before the onset drains at home.
            assert np.all(trace.server_region[inside] == 1)
            assert np.all(trace.server_region[~inside] == 0)
        # Diverted requests pay both RTT legs on top of service.
        diverted = np.concatenate(
            [
                fleet.trace("east", name).latency_s[
                    (fleet.trace("east", name).server_region == 1)
                    & fleet.trace("east", name).served
                ]
                for name in ("interactive", "batch")
            ]
        )
        assert np.all(diverted >= 0.01)

    def test_permanent_fault_diverts_forever(self):
        tenants = (tenant("solo", BatchingPolicy.dynamic(4, 1e-4)),)
        schedule = FaultSchedule(
            name="dead",
            events=(
                FaultEvent(
                    kind="dead_rings",
                    core=0,
                    onset_s=0.02,
                    magnitude=1.0,
                    rings=(0, 1, 2, 3),
                ),
            ),
        )
        arrival = {"solo": poisson_arrivals(4000.0, 200, seed=15)}
        fleet = simulate_fleet_serving(
            tenants,
            [
                RegionSpec("east", 2, schedule=schedule),
                RegionSpec("west", 2),
            ],
            {"east": arrival, "west": {}},
            rtt_s=uniform_rtt(2, 0.005),
        )
        record = fleet.failovers[0]
        assert record.until_s == math.inf
        trace = fleet.trace("east", "solo")
        late = trace.offered_arrival_s >= 0.02
        assert np.all(trace.server_region[late] == 1)

    def test_least_loaded_spreads_overload(self):
        tenants = (tenant("solo", BatchingPolicy.dynamic(8, 1e-3)),)
        # All load lands in one region; least-loaded must overflow to
        # the idle neighbour once the home backlog builds.
        arrival = {"solo": poisson_arrivals(2e6, 2000, seed=16)}
        fleet = simulate_fleet_serving(
            tenants,
            [RegionSpec("east", 3), RegionSpec("west", 3)],
            {"east": arrival, "west": {}},
            routing=GlobalRoutingPolicy.least_loaded(),
        )
        assert fleet.num_remote > 0
        assert fleet.regions[1].remote_in > 0

    def test_latency_weighted_prefers_home_under_huge_rtt(self):
        tenants = (tenant("solo", BatchingPolicy.dynamic(8, 1e-3)),)
        arrival = {"solo": poisson_arrivals(2e6, 2000, seed=16)}
        fleet = simulate_fleet_serving(
            tenants,
            [RegionSpec("east", 3), RegionSpec("west", 3)],
            {"east": arrival, "west": {}},
            rtt_s=uniform_rtt(2, 10.0),
            routing=GlobalRoutingPolicy.latency_weighted(),
        )
        assert fleet.num_remote == 0

    def test_remote_latency_includes_rtt_legs(self):
        tenants = (tenant("solo", BatchingPolicy.dynamic(4, 1e-4)),)
        rtt = 0.02
        schedule = outage_schedule(0.0, math.inf, magnitude=0.9)
        arrival = {"solo": poisson_arrivals(3000.0, 100, seed=17)}
        fleet = simulate_fleet_serving(
            tenants,
            [
                RegionSpec("east", 2, schedule=schedule),
                RegionSpec("west", 2),
            ],
            {"east": arrival, "west": {}},
            rtt_s=uniform_rtt(2, rtt),
        )
        trace = fleet.trace("east", "solo")
        assert np.all(trace.server_region == 1)
        assert np.all(trace.latency_s[trace.served] >= rtt)


def walk_router(times, homes, avail, rtt_s, quantum, weighted):
    """The scalar walk over the whole sorted stream, shaped like
    :func:`~repro.core.fleet._route_speculative` (no repairs)."""
    out = np.empty(times.size, dtype=np.int64)
    fleet_module._route_walk(
        times, homes, avail, rtt_s, quantum, weighted,
        [0.0] * len(quantum), 0, times.size, out,
    )
    return out, 0


def route_both(run):
    """Run a fleet under the array router and under the scalar walk;
    return both reports and the array router's repair count."""
    repairs = []
    speculative = fleet_module._route_speculative

    def counted(*args):
        assignment, count = speculative(*args)
        repairs.append(count)
        return assignment, count

    with mock.patch.object(fleet_module, "_route_speculative", counted):
        fast = run()
    with mock.patch.object(fleet_module, "_route_speculative", walk_router):
        oracle = run()
    return fast, oracle, sum(repairs)


def assert_same_routing(fast, oracle):
    assert len(fast.traces) == len(oracle.traces)
    for got, want in zip(fast.traces, oracle.traces):
        assert (got.home_region, got.tenant) == (want.home_region, want.tenant)
        assert np.array_equal(got.server_region, want.server_region)


@st.composite
def load_aware_fleets(draw):
    """A small load-aware fleet run: 1-4 unequal regions, zero, uniform
    or asymmetric RTTs, outages over the failover threshold (permanent
    dead rings too), an optional warm-up autoscaler, and arrival times
    on a coarse grid so equal times recur within and across streams."""
    num_regions = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    tenants = (
        tenant("a", BatchingPolicy.dynamic(4, 1e-5)),
        tenant("b", BatchingPolicy.fifo()),
    )
    schedules = []
    for _ in range(num_regions):
        outage = draw(st.sampled_from(["none", "window", "dead"]))
        if outage == "none":
            schedules.append(None)
            continue
        onset = draw(st.sampled_from([0.0, 2e-5, 5e-5]))
        event = (
            FaultEvent(
                kind="dead_rings", core=0, onset_s=onset, magnitude=1.0,
                rings=(0, 1),
            )
            if outage == "dead"
            else FaultEvent(
                kind="tia_droop", core=0, onset_s=onset, magnitude=0.9,
                duration_s=draw(st.sampled_from([1e-5, 4e-5])),
            )
        )
        schedules.append(FaultSchedule(name=outage, events=(event,)))
    regions = [
        RegionSpec(f"r{index}", draw(st.integers(2, 5)), schedule=schedule)
        for index, schedule in enumerate(schedules)
    ]
    rtt_kind = draw(st.sampled_from(["zero", "uniform", "asymmetric"]))
    if rtt_kind == "zero":
        rtt = None
    elif rtt_kind == "uniform":
        rtt = uniform_rtt(num_regions, draw(st.sampled_from([1e-6, 1e-3])))
    else:
        # Few distinct values, so (score, rtt) ties are common.
        rtt = rng.choice([0.0, 1e-6, 2e-6], size=(num_regions, num_regions))
        np.fill_diagonal(rtt, 0.0)
    tick = 2.5e-7  # about a quarter of a region's service quantum
    arrival = {}
    for region in regions:
        arrival[region.name] = {}
        for name in ("a", "b"):
            count = int(rng.integers(0, 120))
            if count:
                arrival[region.name][name] = (
                    np.sort(rng.integers(0, 2 * count, size=count)) * tick
                )
    if not any(arrival.values()):
        arrival["r0"]["a"] = np.zeros(3)
    autoscaler = None
    if num_regions > 1 and draw(st.booleans()):
        autoscaler = FleetAutoscaler(
            epoch_s=1e-5,
            burn_up=draw(st.sampled_from([0.5, 2.0])),
            burn_down=0.1,
            warmup_s=draw(st.sampled_from([0.0, 5e-6])),
            min_pools=1,
            max_pools=num_regions,
        )
    kind = draw(st.sampled_from(["least-loaded", "latency-weighted"]))
    return lambda: simulate_fleet_serving(
        tenants,
        regions,
        arrival,
        rtt_s=rtt,
        routing=GlobalRoutingPolicy(kind=kind),
        autoscaler=autoscaler,
    )


class TestLoadAwareRouterPin:
    """The array router (speculate, verify against max-plus ledgers,
    repair) assigns exactly what the scalar walk assigns."""

    @given(run=load_aware_fleets())
    @settings(max_examples=40, deadline=None)
    def test_array_router_matches_scalar_walk(self, run):
        fast, oracle, _ = route_both(run)
        assert_same_routing(fast, oracle)

    def test_dense_repairs_take_the_walk_fallback(self):
        """An overloaded least-loaded fleet repairs at almost every
        request, so the windows shrink and the scalar walk takes over;
        the assignment must not change."""
        scenario = fleet_mix("follow-the-sun", 2e6, 6000, seed=5)
        walked = []
        walk = fleet_module._route_walk

        def spy(*args):
            walked.append(args[8] - args[7])
            return walk(*args)

        def run():
            return simulate_fleet_serving(
                scenario.tenants,
                scenario.regions,
                scenario.arrival_s,
                rtt_s=scenario.rtt_s,
                routing=GlobalRoutingPolicy.least_loaded(),
            )

        with mock.patch.object(fleet_module, "_route_walk", spy):
            fast, oracle, repairs = route_both(run)
        assert_same_routing(fast, oracle)
        assert repairs >= 3
        # Dense repairs grew a scalar run past the repaired request.
        assert max(walked) > 1

    def test_backlog_carries_across_windows(self):
        """While the only other region is out, every request must go
        home, so speculation verifies clean while home's backlog grows
        across many windows; once the outage ends, least-loaded
        routing reads that carried backlog."""
        tenants = (tenant("solo", BatchingPolicy.dynamic(8, 1e-3)),)
        arrival = {"solo": poisson_arrivals(2e6, 4000, seed=18)}

        def run():
            return simulate_fleet_serving(
                tenants,
                [
                    RegionSpec("east", 2),
                    RegionSpec(
                        "west", 2, schedule=outage_schedule(0.0, 1e-3)
                    ),
                ],
                {"east": arrival, "west": {}},
                routing=GlobalRoutingPolicy.least_loaded(),
            )

        fast, oracle, _ = route_both(run)
        assert_same_routing(fast, oracle)
        trace = fast.trace("east", "solo")
        assert np.all(trace.server_region[trace.offered_arrival_s < 1e-3] == 0)
        assert np.any(trace.server_region == 1)

    def test_admitted_positions_match_the_matching_loop(self):
        """The shed back-map's searchsorted form equals the
        admitted-first matching walk on traces full of equal times."""
        rng = np.random.default_rng(3)
        for _ in range(50):
            size = int(rng.integers(1, 40))
            times = np.sort(rng.integers(0, 12, size=size)).astype(float)
            kept = int(rng.integers(0, size + 1))
            admitted = times[np.sort(rng.choice(size, kept, replace=False))]
            assert np.array_equal(
                fleet_module._admitted_positions(times, admitted),
                matching_loop(times, admitted),
            )

    def test_shed_back_map_with_equal_times_across_homes(self):
        """Two homes send identical arrival times to one shedding
        region; the back-map must attribute sheds exactly as the
        matching walk does."""
        tenants = (tenant("solo", BatchingPolicy.fifo(), queue_cap=2),)
        times = np.repeat(np.arange(60) * 1e-6, 2)
        schedule = outage_schedule(0.0, math.inf, num_cores=2)

        def run():
            return simulate_fleet_serving(
                tenants,
                [
                    RegionSpec("east", 2, schedule=schedule),
                    RegionSpec("west", 2),
                ],
                {"east": {"solo": times}, "west": {"solo": times.copy()}},
            )

        with mock.patch.object(
            fleet_module, "_admitted_positions", matching_loop
        ):
            oracle = run()
        fast = run()
        assert fast.num_shed > 0
        assert fast.regions[1].remote_in > 0
        for got, want in zip(fast.traces, oracle.traces):
            assert np.array_equal(got.served, want.served)
            assert np.array_equal(
                got.latency_s, want.latency_s, equal_nan=True
            )


def matching_loop(times, admitted):
    """The admitted-first matching walk the shed back-map replaced."""
    positions = np.full(times.size, -1)
    at = 0
    for position in range(times.size):
        if at < admitted.size and admitted[at] == times[position]:
            positions[position] = at
            at += 1
    return positions


class TestFleetAutoscaler:
    def test_idle_standby_region_diverts_its_locals(self):
        tenants = two_tenants()
        autoscaler = FleetAutoscaler(
            epoch_s=1.0, burn_up=1e9, burn_down=1e-12, min_pools=1
        )
        fleet = simulate_fleet_serving(
            tenants,
            [RegionSpec("east", 4), RegionSpec("standby", 4)],
            {"east": traces(seed=18), "standby": traces(seed=19)},
            autoscaler=autoscaler,
        )
        for name in ("interactive", "batch"):
            trace = fleet.trace("standby", name)
            assert np.all(trace.server_region == 0)
        assert fleet.regions[1].routed_in == 0

    def test_burn_commissions_and_drains(self):
        tenants = (tenant("solo", BatchingPolicy.dynamic(8, 1e-3)),)
        regions = [
            RegionSpec("east", 3),
            RegionSpec("west", 3),
        ]
        capacity = estimate_region_capacity_rps(tenants, regions[0])
        rate = 0.5 * capacity
        # Load at half of one pool's capacity: burn on the single
        # active pool is ~0.5 (commission at 0.3); once both pools are
        # active burn halves to ~0.25 (drain at 0.3 applies only after
        # the commissioned epoch's burn is re-evaluated).
        arrival = {
            "east": {"solo": poisson_arrivals(rate, 4000, seed=20)},
            "west": {},
        }
        fleet = simulate_fleet_serving(
            tenants,
            regions,
            arrival,
            routing=GlobalRoutingPolicy.least_loaded(),
            autoscaler=FleetAutoscaler(
                epoch_s=400.0 / rate,
                burn_up=0.3,
                burn_down=0.28,
                min_pools=1,
                max_pools=2,
            ),
        )
        actions = [event.action for event in fleet.autoscale_events]
        assert "commission" in actions
        assert "drain" in actions
        first = fleet.autoscale_events[0]
        assert first.action == "commission"
        assert first.region == "west"
        assert first.burn > 0.3
        assert first.active_after == 2

    def test_commissioned_pool_serves_after_warmup(self):
        tenants = (tenant("solo", BatchingPolicy.dynamic(8, 1e-3)),)
        regions = [RegionSpec("east", 3), RegionSpec("west", 3)]
        capacity = estimate_region_capacity_rps(tenants, regions[0])
        rate = 0.8 * capacity
        arrival = {
            "east": {"solo": poisson_arrivals(rate, 4000, seed=21)},
            "west": {},
        }
        fleet = simulate_fleet_serving(
            tenants,
            regions,
            arrival,
            routing=GlobalRoutingPolicy.least_loaded(),
            autoscaler=FleetAutoscaler(
                epoch_s=400.0 / rate,
                burn_up=0.5,
                burn_down=0.01,
                warmup_s=100.0 / rate,
                min_pools=1,
                max_pools=2,
            ),
        )
        commissions = [
            event
            for event in fleet.autoscale_events
            if event.action == "commission"
        ]
        assert commissions
        assert fleet.regions[1].routed_in > 0
        trace = fleet.trace("east", "solo")
        west_served = trace.offered_arrival_s[trace.server_region == 1]
        # Nothing lands on the standby before commissioning + warm-up.
        earliest_allowed = commissions[0].time_s + 100.0 / rate
        assert np.all(west_served >= earliest_allowed)


class TestFleetReport:
    def build(self):
        tenants = two_tenants()
        return simulate_fleet_serving(
            tenants,
            [
                RegionSpec("east", 4, schedule=outage_schedule(0.02, 0.02)),
                RegionSpec("west", 5),
            ],
            {"east": traces(seed=22), "west": traces(seed=23)},
            rtt_s=uniform_rtt(2, 0.004),
        )

    def test_conservation_and_accessors(self):
        report = self.build()
        assert report.num_offered == report.num_served + report.num_shed
        assert report.region("east").name == "east"
        with pytest.raises(KeyError, match="unknown region"):
            report.region("mars")
        trace = report.trace("east", "interactive")
        assert trace.num_offered == trace.num_served + trace.num_shed
        with pytest.raises(KeyError, match="no stream"):
            report.trace("east", "ghost")

    def test_percentiles_and_describe(self):
        report = self.build()
        assert 0.0 < report.p50_s <= report.p95_s <= report.p99_s
        for outcome in report.regions:
            assert outcome.p50_s <= outcome.p99_s
        text = report.describe()
        assert "east" in text and "west" in text
        assert "failover" in text

    def test_placement_efficiency_bounds(self):
        report = self.build()
        assert 0.0 <= report.placement_efficiency <= 1.0

    def test_idle_region_percentiles_raise(self):
        tenants = (tenant("solo"),)
        fleet = simulate_fleet_serving(
            tenants,
            [RegionSpec("east", 2), RegionSpec("idle", 2)],
            {
                "east": {"solo": poisson_arrivals(2000.0, 50, seed=24)},
                "idle": {},
            },
        )
        idle = fleet.region("idle")
        assert idle.report is None
        assert idle.num_served == 0
        with pytest.raises(ValueError, match="percentiles"):
            idle.p99_s
        assert math.isnan(fleet.failover_time_s)
        assert "idle" in fleet.describe()

    def test_fleet_latencies_match_traces(self):
        report = self.build()
        from_traces = np.sort(
            np.concatenate(
                [trace.latency_s[trace.served] for trace in report.traces]
            )
        )
        from_regions = np.sort(report.latencies_s)
        assert np.array_equal(from_traces, from_regions)


class TestFleetMixes:
    @pytest.mark.parametrize("name", FLEET_MIXES)
    def test_mix_runs_and_conserves(self, name):
        scenario = fleet_mix(name, rate_rps=6000.0, num_requests=600, seed=0)
        report = simulate_fleet_serving(
            scenario.tenants,
            scenario.regions,
            scenario.arrival_s,
            rtt_s=scenario.rtt_s,
            routing=scenario.routing,
            autoscaler=scenario.autoscaler,
        )
        assert report.num_offered == report.num_served + report.num_shed
        assert report.num_offered > 0

    def test_mix_is_reproducible(self):
        left = fleet_mix("follow-the-sun", 6000.0, 300, seed=7)
        right = fleet_mix("follow-the-sun", 6000.0, 300, seed=7)
        for region in left.arrival_s:
            for name in left.arrival_s[region]:
                assert np.array_equal(
                    left.arrival_s[region][name],
                    right.arrival_s[region][name],
                )

    def test_regional_outage_mix_fails_over(self):
        scenario = fleet_mix(
            "regional-outage", rate_rps=6000.0, num_requests=600, seed=0
        )
        report = simulate_fleet_serving(
            scenario.tenants,
            scenario.regions,
            scenario.arrival_s,
            rtt_s=scenario.rtt_s,
            routing=scenario.routing,
            autoscaler=scenario.autoscaler,
        )
        assert report.failovers
        assert report.failovers[0].region == "primary"
        assert report.failovers[0].rerouted > 0

    def test_burst_overflow_mix_commissions_standby(self):
        scenario = fleet_mix(
            "burst-overflow", rate_rps=6000.0, num_requests=900, seed=0
        )
        report = simulate_fleet_serving(
            scenario.tenants,
            scenario.regions,
            scenario.arrival_s,
            rtt_s=scenario.rtt_s,
            routing=scenario.routing,
            autoscaler=scenario.autoscaler,
        )
        actions = {
            (event.action, event.region)
            for event in report.autoscale_events
        }
        assert ("commission", "standby") in actions

    def test_unknown_mix_rejected(self):
        with pytest.raises(KeyError, match="unknown fleet mix"):
            fleet_mix("full-moon", 1000.0, 100)
        with pytest.raises(ValueError, match="rate"):
            fleet_mix("follow-the-sun", 0.0, 100)
        with pytest.raises(ValueError, match="request count"):
            fleet_mix("follow-the-sun", 1000.0, 0)


class TestFleetSweep:
    def test_sweep_compares_routing_policies(self):
        tenants = two_tenants()
        regions = [RegionSpec("east", 4), RegionSpec("west", 4)]
        arrival = {"east": traces(seed=25), "west": traces(seed=26)}
        points = sweep_fleet_serving(
            tenants,
            regions,
            arrival,
            [GlobalRoutingPolicy(kind=kind) for kind in FLEET_ROUTING_KINDS],
            rtt_s=uniform_rtt(2, 0.01),
        )
        assert [point.routing for point in points] == list(
            FLEET_ROUTING_KINDS
        )
        for point in points:
            assert 0.0 <= point.shed_fraction <= 1.0
            assert 0.0 <= point.remote_fraction <= 1.0
            assert point.p99_s > 0.0
            rows = point.rows()
            assert len(rows) == len(regions)
            for row in rows:
                assert len(row) == len(FLEET_SWEEP_HEADER)

    def test_sweep_requires_policies(self):
        with pytest.raises(ValueError, match="routing policy"):
            sweep_fleet_serving(
                two_tenants(),
                [RegionSpec("east", 4)],
                {"east": traces()},
                [],
            )
