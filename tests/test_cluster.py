"""Tests for the multi-tenant cluster serving runtime."""

from contextlib import nullcontext

import numpy as np
import pytest
from oracles import reference_loops

from repro.analysis import (
    CLUSTER_SWEEP_HEADER,
    sweep_cluster_serving,
)
from repro.core import PCNNA
from repro.core.cluster import (
    ClusterSimulator,
    ClusterTenant,
    ElasticReallocation,
    RoutingPolicy,
    allocate_pool,
    replay_tenant_on_engine,
    simulate_cluster_serving,
)
from repro.core.faults import FaultSchedule, RecalibrationPolicy
from repro.core.simkernel import BatchingPolicy
from repro.core.traffic import (
    ServingReport,
    simulate_serving,
    replay_on_engine,
)
from repro.workloads import (
    CLUSTER_MIXES,
    alexnet_conv_specs,
    cluster_mix,
    lenet5_conv_specs,
    poisson_arrivals,
    serving_batch,
    serving_network,
)

ALEXNET = tuple(alexnet_conv_specs())
LENET = tuple(lenet5_conv_specs())


def tenant(name, specs=ALEXNET, policy=None, **kwargs) -> ClusterTenant:
    policy = policy if policy is not None else BatchingPolicy.dynamic(8, 1e-3)
    return ClusterTenant(name, tuple(specs), policy, **kwargs)


class TestClusterTenant:
    def test_validation(self):
        with pytest.raises(ValueError, match="name"):
            tenant("")
        with pytest.raises(ValueError, match="conv layer"):
            ClusterTenant("t", (), BatchingPolicy.fifo())
        with pytest.raises(ValueError, match="weight"):
            tenant("t", weight=0.0)
        with pytest.raises(ValueError, match="queue cap"):
            tenant("t", queue_cap=0)

    @pytest.mark.parametrize("bad", [float("nan"), 1.5, True, "hi", None])
    def test_priority_must_be_an_integer(self, bad):
        """A NaN priority used to rank by list position under priority
        routing, and a string failed only at run time."""
        with pytest.raises(ValueError, match="t: priority must be an integer"):
            tenant("t", priority=bad)

    @pytest.mark.parametrize("priority", [-3, 0, 2, np.int64(1)])
    def test_priority_accepts_integers_of_any_sign(self, priority):
        assert tenant("t", priority=priority).priority == priority

    def test_from_network(self):
        network = serving_network("lenet5")
        built = ClusterTenant.from_network(
            "lenet", network, BatchingPolicy.fifo(), queue_cap=8
        )
        assert built.specs == tuple(network.conv_specs())
        assert built.max_useful_cores == len(network.conv_specs())
        assert built.queue_cap == 8


class TestAllocatePool:
    def test_weights_drive_the_split(self):
        tenants = [tenant("a", weight=3.0), tenant("b", weight=1.0)]
        allocations, free = allocate_pool(tenants, 4)
        assert [len(a) for a in allocations] == [3, 1]
        assert free == []
        # Core ids are contiguous and disjoint.
        assert allocations[0] == [0, 1, 2] and allocations[1] == [3]

    def test_useful_maximum_caps_a_tenant(self):
        tenants = [tenant("small", specs=LENET), tenant("big")]
        allocations, free = allocate_pool(tenants, 8)
        assert len(allocations[0]) == len(LENET)  # capped at conv layers
        assert len(allocations[1]) == len(ALEXNET)
        assert len(free) == 8 - len(LENET) - len(ALEXNET)

    def test_every_tenant_gets_a_core(self):
        tenants = [tenant("a", weight=100.0), tenant("b", weight=0.01)]
        allocations, _ = allocate_pool(tenants, 4)
        assert len(allocations[1]) >= 1

    def test_all_tenants_capped_leaves_the_rest_free(self):
        tenants = [tenant("small", specs=LENET), tenant("big")]
        allocations, free = allocate_pool(tenants, 10)
        assert len(allocations[0]) == len(LENET)
        assert len(allocations[1]) == len(ALEXNET)
        assert len(free) == 10 - len(LENET) - len(ALEXNET)

    def test_pool_too_small(self):
        with pytest.raises(ValueError, match="cannot host"):
            allocate_pool([tenant("a"), tenant("b")], 1)

    def test_priority_routing_allocates_by_rank(self):
        """Weights decide nothing under priority routing: the surplus
        goes to the highest priority first, regardless of order."""
        tenants = [
            tenant("low", weight=4.0, priority=0),
            tenant("high", weight=1.0, priority=2),
        ]
        allocations, free = allocate_pool(
            tenants, 5, RoutingPolicy.priority()
        )
        assert len(allocations[1]) == 4  # high rank fills first
        assert len(allocations[0]) == 1
        assert free == []


class TestPolicyValidation:
    def test_routing(self):
        assert RoutingPolicy.weighted_fair().kind == "weighted-fair"
        assert RoutingPolicy.priority().kind == "priority"
        with pytest.raises(ValueError, match="routing"):
            RoutingPolicy(kind="round-robin")

    def test_elastic(self):
        with pytest.raises(ValueError, match="pressure ratio"):
            ElasticReallocation(pressure_ratio=0.5)
        with pytest.raises(ValueError, match="min queue"):
            ElasticReallocation(min_queue=0)

    def test_simulator_validation(self):
        with pytest.raises(ValueError, match="at least one tenant"):
            ClusterSimulator([], 2)
        with pytest.raises(ValueError, match="unique"):
            ClusterSimulator([tenant("a"), tenant("a")], 4)
        simulator = ClusterSimulator([tenant("a")], 2)
        with pytest.raises(ValueError, match="trace per tenant"):
            simulator.run({"b": poisson_arrivals(100.0, 5)})

    def test_static_elastic_thresholds_are_its_constants(self):
        policy = ElasticReallocation(pressure_ratio=3.0, min_queue=5)
        assert policy.thresholds(0.0) == (3.0, 5)
        assert policy.thresholds(1e9) == (3.0, 5)

    def test_mistyped_controllers_raise(self):
        """A lookalike policy fails loudly at construction instead of
        silently running as the static policy."""
        from types import SimpleNamespace

        from repro.core.adaptive import (
            AdaptiveRecalibration,
            PressureController,
        )

        recal_lookalike = SimpleNamespace(
            name="recal",
            error_threshold=0.05,
            max_iterations=20,
            iteration_time_s=50e-6,
            overhead_s=200e-6,
        )
        elastic_lookalike = SimpleNamespace(pressure_ratio=4.0, min_queue=16)
        frozen = AdaptiveRecalibration.frozen(RecalibrationPolicy())
        tenants = [tenant("a")]
        for bad in (recal_lookalike, PressureController.inert()):
            with pytest.raises(TypeError, match="recalibration must be"):
                ClusterSimulator(
                    tenants,
                    2,
                    schedule=FaultSchedule.uniform_drift(1.0, 2),
                    recalibration=bad,
                )
        for bad in (elastic_lookalike, frozen):
            with pytest.raises(TypeError, match="elastic must be"):
                ClusterSimulator(tenants, 2, elastic=bad)
        with pytest.raises(TypeError, match="recalibration must be"):
            simulate_cluster_serving(
                tenants,
                {"a": poisson_arrivals(100.0, 5)},
                2,
                recalibration=recal_lookalike,
            )
        # Both interfaces of each kind are accepted.
        ClusterSimulator(tenants, 2, recalibration=frozen)
        ClusterSimulator(tenants, 2, elastic=PressureController.inert())

    @pytest.mark.parametrize(
        "bad", [3, RecalibrationPolicy(), "x"], ids=["int", "recal", "str"]
    )
    def test_mistyped_admission_raises(self, bad):
        """A non-controller admission value used to construct and then
        crash the run with an AttributeError."""
        with pytest.raises(
            TypeError, match=r"admission\['a'\] must be BurnRateAdmission"
        ):
            ClusterSimulator(
                [tenant("a"), tenant("b")], 2, admission={"a": bad}
            )

    def test_none_admission_is_no_entry(self):
        tenants = [tenant("a", queue_cap=4), tenant("b")]
        arrivals = {
            "a": poisson_arrivals(2e4, 300, seed=1),
            "b": poisson_arrivals(1e3, 50, seed=2),
        }
        plain = simulate_cluster_serving(tenants, arrivals, 2)
        simulator = ClusterSimulator(tenants, 2, admission={"a": None})
        assert simulator.admission == {}
        for oracle in (nullcontext(), reference_loops()):
            with oracle:
                with_none = simulator.run(arrivals)
            for name in ("a", "b"):
                got, want = with_none.tenant(name), plain.tenant(name)
                assert got.batches == want.batches
                assert got.shed_arrival_s.tobytes() == (
                    want.shed_arrival_s.tobytes()
                )


class TestSingleTenantDifferential:
    """The acceptance pin: one tenant, zero faults == PR 3 simulator."""

    def test_bit_identical_to_serving_simulator(self):
        network = serving_network("lenet5")
        arrivals = poisson_arrivals(3e4, 400, seed=8)
        policy = BatchingPolicy.dynamic(4, 1e-4)
        base = simulate_serving(network, arrivals, policy, num_cores=2)
        report = simulate_cluster_serving(
            [ClusterTenant.from_network("solo", network, policy)],
            {"solo": arrivals},
            pool_size=2,
        ).tenant("solo")
        assert np.array_equal(base.arrival_s, report.arrival_s)
        assert np.array_equal(base.dispatch_s, report.dispatch_s)
        assert np.array_equal(base.completion_s, report.completion_s)
        assert base.batches == report.batches
        assert base.core_busy_s == report.core_busy_s
        assert base.p50_s == report.p50_s
        assert base.p99_s == report.p99_s
        assert report.num_shed == 0
        assert np.all(report.batch_num_cores == 2)
        assert np.all(report.accuracy_proxy == 0.0)

    def test_bit_identical_to_engine_replay(self):
        network = serving_network("lenet5")
        requests = 10
        inputs = serving_batch(network, requests, seed=9)
        arrivals = poisson_arrivals(3e4, requests, seed=8)
        policy = BatchingPolicy.dynamic(4, 1e-4)
        base = simulate_serving(network, arrivals, policy, num_cores=2)
        cluster = simulate_cluster_serving(
            [ClusterTenant.from_network("solo", network, policy)],
            {"solo": arrivals},
            pool_size=2,
        ).tenant("solo")
        base_outputs = replay_on_engine(network, base, inputs)
        cluster_outputs = replay_tenant_on_engine(network, cluster, inputs)
        assert np.array_equal(base_outputs, cluster_outputs)
        # And both are the per-request single-image answers.
        alone = np.stack(
            [PCNNA().run_network(network, image) for image in inputs]
        )
        assert np.array_equal(cluster_outputs, alone)

    def test_replay_validates_inputs(self):
        network = serving_network("lenet5")
        report = simulate_cluster_serving(
            [ClusterTenant.from_network("solo", network, BatchingPolicy.fifo())],
            {"solo": poisson_arrivals(1e4, 4, seed=0)},
            pool_size=1,
        ).tenant("solo")
        with pytest.raises(ValueError, match="one input per"):
            replay_tenant_on_engine(
                network, report, np.zeros((3, *network.input_shape))
            )


class TestAdmissionControl:
    def test_saturated_capped_tenant_sheds_the_overload(self):
        """Offered 20k req/s against ~13.6k capacity: admission control
        must shed close to the overload fraction and keep the tail
        latency bounded, instead of letting the queue (and p99) grow
        with the trace length."""
        capped = tenant("capped", queue_cap=32)
        arrivals = {"capped": poisson_arrivals(20_000.0, 3000, seed=1)}
        report = simulate_cluster_serving([capped], arrivals, pool_size=2)
        served = report.tenant("capped")
        assert served.num_requests + served.num_shed == served.num_offered
        assert 0.2 < served.shed_fraction < 0.45
        # Bounded tail: at most queue_cap requests ever sit ahead of an
        # admitted one, so p99 is a few batch makespans, not the horizon.
        uncapped = simulate_cluster_serving(
            [tenant("capped")], arrivals, pool_size=2
        ).tenant("capped")
        assert uncapped.num_shed == 0
        assert served.p99_s < 0.2 * uncapped.p99_s

    def test_shed_times_lie_inside_the_offered_trace(self):
        capped = tenant("t", queue_cap=16)
        trace = poisson_arrivals(30_000.0, 1500, seed=4)
        report = simulate_cluster_serving(
            [capped], {"t": trace}, pool_size=2
        ).tenant("t")
        assert report.num_shed > 0
        assert np.all(np.isin(report.shed_arrival_s, trace))
        assert np.all(np.diff(report.shed_arrival_s) >= 0.0)
        # Served + shed partition the offered trace exactly.
        merged = np.sort(
            np.concatenate([report.arrival_s, report.shed_arrival_s])
        )
        assert np.array_equal(merged, trace)

    def test_cap_below_max_batch_caps_the_batches(self):
        capped = tenant(
            "t", policy=BatchingPolicy.dynamic(8, 1e-3), queue_cap=4
        )
        report = simulate_cluster_serving(
            [capped],
            {"t": poisson_arrivals(20_000.0, 500, seed=2)},
            pool_size=2,
        ).tenant("t")
        assert max(batch.size for batch in report.batches) <= 4


class TestRoutingAndElastic:
    @staticmethod
    def _two_tenants(**heavy_kwargs):
        heavy = tenant("heavy", priority=1, **heavy_kwargs)
        light = tenant(
            "light", policy=BatchingPolicy.dynamic(4, 1e-3), priority=0
        )
        arrivals = {
            "heavy": poisson_arrivals(20_000.0, 3000, seed=1),
            "light": poisson_arrivals(500.0, 150, seed=2),
        }
        return heavy, light, arrivals

    def test_priority_routing_allocates_the_surplus_up_front(self):
        heavy, light, arrivals = self._two_tenants()
        report = simulate_cluster_serving(
            [heavy, light],
            arrivals,
            pool_size=4,
            routing=RoutingPolicy.priority(),
        )
        assert report.tenant("heavy").batch_num_cores[0] == 3
        assert np.all(report.tenant("light").batch_num_cores == 1)

    def test_priority_routing_strips_an_equal_priority_donor(self):
        """With equal priorities the first tenant hoards the surplus at
        allocation; once the second one's queue pressure diverges, the
        reallocator strips the idle donor down to its floor of one."""
        light = tenant("light", policy=BatchingPolicy.dynamic(4, 1e-3))
        heavy = tenant("heavy")
        arrivals = {
            "light": poisson_arrivals(500.0, 150, seed=2),
            "heavy": poisson_arrivals(20_000.0, 3000, seed=1),
        }
        report = simulate_cluster_serving(
            [light, heavy],  # light first: it gets the surplus
            arrivals,
            pool_size=4,
            routing=RoutingPolicy.priority(),
            elastic=ElasticReallocation(),
        )
        moves = [
            move
            for move in report.reallocations
            if move.from_tenant == "light"
        ]
        assert moves and moves[0].to_tenant == "heavy"
        assert report.tenant("light").batch_num_cores.min() == 1
        assert report.tenant("heavy").batch_num_cores.max() >= 2

    def test_weighted_fair_guarantees_the_minority_share(self):
        """Under weighted-fair routing the same pressure moves nothing:
        the light tenant's initial share is a floor."""
        heavy, light, arrivals = self._two_tenants()
        report = simulate_cluster_serving(
            [heavy, light],
            arrivals,
            pool_size=4,
            elastic=ElasticReallocation(),
        )
        stripped = [
            move
            for move in report.reallocations
            if move.from_tenant == "light"
            and move.time_s <= report.tenant("light").completion_s.max()
        ]
        assert stripped == []
        assert np.all(report.tenant("light").batch_num_cores == 2)

    def test_finished_tenant_releases_cores_to_the_pressured_one(self):
        heavy = tenant("heavy")
        burst = tenant("burst", policy=BatchingPolicy.dynamic(4, 1e-4))
        arrivals = {
            "heavy": poisson_arrivals(20_000.0, 3000, seed=1),
            "burst": poisson_arrivals(50_000.0, 60, seed=2),  # ends early
        }
        report = simulate_cluster_serving(
            [heavy, burst], arrivals, pool_size=4,
            elastic=ElasticReallocation(),
        )
        grabs = [
            move
            for move in report.reallocations
            if move.from_tenant is None and move.to_tenant == "heavy"
        ]
        assert grabs
        widths = report.tenant("heavy").batch_num_cores
        assert widths[0] == 2 and widths.max() > 2
        assert np.all(np.diff(widths) >= 0)

    def test_pressure_ratio_gates_the_move(self):
        """Two similarly-pressured tenants under a high ratio: the
        reallocator must hold still instead of thrashing cores."""
        a = tenant("a", priority=1)
        b = tenant("b", priority=0)
        arrivals = {
            "a": poisson_arrivals(20_000.0, 1500, seed=1),
            "b": poisson_arrivals(20_000.0, 1500, seed=2),
        }
        report = simulate_cluster_serving(
            [a, b],
            arrivals,
            pool_size=4,
            routing=RoutingPolicy.priority(),
            elastic=ElasticReallocation(pressure_ratio=100.0),
        )
        # Free-core grabs after a tenant finishes are fine; stripping a
        # live donor under a 100x ratio requirement is not.
        assert all(
            move.from_tenant is None for move in report.reallocations
        )

    def test_reallocation_preserves_conservation_and_causality(self):
        heavy, light, arrivals = self._two_tenants()
        report = simulate_cluster_serving(
            [heavy, light],
            arrivals,
            pool_size=4,
            routing=RoutingPolicy.priority(),
            elastic=ElasticReallocation(),
        )
        for sub in report.tenants:
            assert sub.num_requests + sub.num_shed == sub.num_offered
            assert np.all(sub.dispatch_s >= sub.arrival_s)
            assert np.all(sub.completion_s > sub.dispatch_s)
            assert sum(batch.size for batch in sub.batches) == sub.num_requests


class TestFaultedCluster:
    def test_recalibration_downtime_and_proxies_are_visible(self):
        a = tenant("a")
        b = tenant("b", policy=BatchingPolicy.fifo())
        arrivals = {
            "a": poisson_arrivals(5000.0, 600, seed=1),
            "b": poisson_arrivals(1000.0, 150, seed=2),
        }
        horizon = max(float(trace[-1]) for trace in arrivals.values())
        report = simulate_cluster_serving(
            [a, b],
            arrivals,
            pool_size=4,
            schedule=FaultSchedule.uniform_drift(0.3 / horizon, 4),
            recalibration=RecalibrationPolicy(),
        )
        assert len(report.recalibrations) > 0
        assert any(downtime > 0.0 for downtime in report.core_downtime_s)
        assert report.schedule_name is not None
        for sub in report.tenants:
            assert sub.accuracy_proxy.max() > 0.0
            assert len(sub.accuracy_proxy) == len(sub.batches)

    def test_faults_without_recalibration_degrade_unchecked(self):
        a = tenant("a")
        arrivals = {"a": poisson_arrivals(5000.0, 300, seed=1)}
        horizon = float(arrivals["a"][-1])
        report = simulate_cluster_serving(
            [a],
            arrivals,
            pool_size=2,
            schedule=FaultSchedule.uniform_drift(0.5 / horizon, 2),
        )
        assert report.recalibrations == ()
        assert all(d == 0.0 for d in report.core_downtime_s)
        sub = report.tenant("a")
        # The proxy trajectory never improves without the closed loop.
        assert np.all(np.diff(sub.accuracy_proxy) >= 0.0)
        assert sub.accuracy_proxy[-1] > sub.accuracy_proxy[0]
        assert max(report.final_core_errors) > 0.0

    def test_zero_magnitude_schedule_is_bit_identical_to_fault_free(self):
        a = tenant("a")
        b = tenant("b", policy=BatchingPolicy.fifo())
        arrivals = {
            "a": poisson_arrivals(5000.0, 400, seed=1),
            "b": poisson_arrivals(1000.0, 100, seed=2),
        }
        horizon = max(float(trace[-1]) for trace in arrivals.values())
        schedule = FaultSchedule.uniform_drift(0.5 / horizon, 4).scaled(0.0)
        faulted = simulate_cluster_serving(
            [a, b],
            arrivals,
            pool_size=4,
            schedule=schedule,
            recalibration=RecalibrationPolicy(),
        )
        clean = simulate_cluster_serving([a, b], arrivals, pool_size=4)
        for name in ("a", "b"):
            assert faulted.tenant(name).batches == clean.tenant(name).batches
            assert np.array_equal(
                faulted.tenant(name).completion_s,
                clean.tenant(name).completion_s,
            )
        assert faulted.recalibrations == ()
        assert all(d == 0.0 for d in faulted.core_downtime_s)


class TestClusterReport:
    @staticmethod
    def _report():
        tenants, arrivals = cluster_mix("minority-majority", 30_000.0, 800, 3)
        return simulate_cluster_serving(tenants, arrivals, pool_size=2)

    def test_describe_and_aggregates(self):
        report = self._report()
        text = report.describe()
        assert "cluster [weighted-fair]" in text
        assert "majority" in text and "minority" in text
        assert report.num_served + report.num_shed == report.num_offered
        assert report.makespan_s > 0.0
        assert len(report.pool_core_busy_s) == 2
        assert all(0.0 <= u <= 1.0 for u in report.pool_utilization)

    def test_unknown_tenant_raises(self):
        with pytest.raises(KeyError, match="unknown tenant"):
            self._report().tenant("nobody")


class TestEmptyReportPercentiles:
    def test_latency_percentile_raises_on_empty_trace(self):
        """Direct construction can produce an empty report; percentiles
        must fail loudly instead of returning numpy's nan."""
        empty = ServingReport(
            policy=BatchingPolicy.fifo(),
            num_cores=1,
            arrival_s=np.array([]),
            dispatch_s=np.array([]),
            completion_s=np.array([]),
            batches=(),
            core_busy_s=(0.0,),
        )
        with pytest.raises(ValueError, match="no requests"):
            empty.latency_percentile_s(50.0)
        with pytest.raises(ValueError, match="no requests"):
            _ = empty.p99_s


class TestClusterMixesAndSweep:
    def test_every_mix_builds_and_serves(self):
        for name in CLUSTER_MIXES:
            tenants, arrivals = cluster_mix(name, 10_000.0, 300, seed=5)
            assert {t.name for t in tenants} == set(arrivals)
            report = simulate_cluster_serving(
                tenants, arrivals, pool_size=len(tenants) * 2
            )
            for sub in report.tenants:
                assert sub.num_requests + sub.num_shed == sub.num_offered

    def test_mix_is_deterministic_and_validates(self):
        first = cluster_mix("model-zoo", 5000.0, 200, seed=9)
        second = cluster_mix("model-zoo", 5000.0, 200, seed=9)
        for name in first[1]:
            assert np.array_equal(first[1][name], second[1][name])
        with pytest.raises(KeyError):
            cluster_mix("nope", 100.0, 10)
        with pytest.raises(ValueError):
            cluster_mix("model-zoo", 0.0, 10)
        with pytest.raises(ValueError):
            cluster_mix("model-zoo", 100.0, 0)

    def test_pool_size_sweep_rows(self):
        tenants, arrivals = cluster_mix(
            "minority-majority", 30_000.0, 600, seed=3
        )
        points = sweep_cluster_serving(tenants, arrivals, [2, 3])
        assert [point.pool_size for point in points] == [2, 3]
        for point in points:
            rows = point.rows()
            assert len(rows) == len(tenants)
            assert all(len(row) == len(CLUSTER_SWEEP_HEADER) for row in rows)
            assert 0.0 <= point.shed_fraction <= 1.0
        with pytest.raises(ValueError, match="pool size"):
            sweep_cluster_serving(tenants, arrivals, [])
