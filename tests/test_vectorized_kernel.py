"""Differential pins: the vectorized kernel vs the reference event loop.

PR 6 rebuilds the fault-free serving hot path on array ops (batch
planning, max-plus completion scans, cumulative busy accounting) while
keeping a per-event loop as the oracle: a pristine lone lane of the
cluster lane loop, reached through ``oracles.reference_loops``.  The
contract is *bit-identity*, not tolerance: every dispatch, completion,
batch record, busy total, and percentile must match the reference loop
byte for byte, on every batching policy crossed with every arrival
process, including the degenerate traces (single request, simultaneous
arrivals) where the closed forms are easiest to get subtly wrong.

These pins are what lets the vectorized path be the only one served
without re-validating every downstream consumer: if the streams are
bit-identical, so is everything computed from them.
"""

import math
from contextlib import nullcontext
from dataclasses import replace

import numpy as np
import pytest
from oracles import lane_loop, reference_loops

from repro.core import cluster as cluster_module
from repro.core.cluster import (
    _ADMISSION_MAX_PASSES,
    ClusterTenant,
    ElasticReallocation,
    RoutingPolicy,
    simulate_cluster_serving,
)
from repro.core.adaptive import BurnRateAdmission
from repro.core.faults import (
    DegradedServingSimulator,
    FaultEvent,
    FaultSchedule,
    RecalibrationPolicy,
)
from repro.core.simkernel import (
    BatchTable,
    EventLoopKernel,
    plan_batches,
)
from repro.core.traffic import (
    BatchingPolicy,
    PipelineServiceModel,
    ServingSimulator,
    replay_on_engine,
    simulate_serving,
)
from repro.analysis import (
    default_policy_grid,
    default_scenarios,
    evaluate_policy,
)
from repro.workloads import (
    CLUSTER_MIXES,
    cluster_mix,
    fault_scenario,
    lenet5_conv_specs,
    make_arrivals,
    poisson_arrivals,
    serving_network,
)

POLICIES = (
    ("fifo", BatchingPolicy.fifo()),
    ("dynamic", BatchingPolicy.dynamic(8, 1e-4)),
    ("fixed", BatchingPolicy.fixed(6)),
)
PATTERNS = ("poisson", "mmpp", "diurnal")


def lenet_model(num_cores: int = 3) -> PipelineServiceModel:
    return PipelineServiceModel.from_specs(lenet5_conv_specs(), num_cores)


def both_paths(model, policy, arrivals):
    with reference_loops():
        ref = ServingSimulator(model, policy).run(arrivals)
    vec = ServingSimulator(model, policy).run(arrivals)
    return ref, vec


def assert_bit_identical(ref, vec):
    """Byte-level equality of every stream and metric in two reports."""
    assert ref.arrival_s.tobytes() == vec.arrival_s.tobytes()
    assert ref.dispatch_s.tobytes() == vec.dispatch_s.tobytes()
    assert ref.completion_s.tobytes() == vec.completion_s.tobytes()
    assert ref.batches == vec.batches
    assert vec.batches == ref.batches  # symmetric: BatchTable vs tuple
    assert ref.core_busy_s == vec.core_busy_s
    assert ref.p50_s == vec.p50_s
    assert ref.p95_s == vec.p95_s
    assert ref.p99_s == vec.p99_s
    assert ref.makespan_s == vec.makespan_s
    assert ref.throughput_rps == vec.throughput_rps
    assert ref.core_utilization == vec.core_utilization
    assert ref.max_queue_depth == vec.max_queue_depth
    assert ref.mean_queue_depth == vec.mean_queue_depth


class TestBitIdentityAcrossPoliciesAndArrivals:
    """All three policies x all three arrival processes, several loads."""

    @pytest.mark.parametrize(
        ("policy_name", "policy"), POLICIES, ids=[p[0] for p in POLICIES]
    )
    @pytest.mark.parametrize("pattern", PATTERNS)
    @pytest.mark.parametrize("load", [0.4, 1.0, 4.0])
    def test_streams_match_reference(self, policy_name, policy, pattern, load):
        model = lenet_model()
        rate = load * model.capacity_rps(max(policy.max_batch, 1))
        arrivals = make_arrivals(pattern, rate, 400, seed=13)
        ref, vec = both_paths(model, policy, arrivals)
        assert_bit_identical(ref, vec)

    @pytest.mark.parametrize("num_cores", [1, 2, 3])
    def test_streams_match_across_core_counts(self, num_cores):
        model = lenet_model(num_cores)
        policy = BatchingPolicy.dynamic(4, 1e-4)
        arrivals = poisson_arrivals(2.0 * model.capacity_rps(4), 600, seed=5)
        ref, vec = both_paths(model, policy, arrivals)
        assert_bit_identical(ref, vec)

    @pytest.mark.parametrize(
        ("policy_name", "policy"), POLICIES, ids=[p[0] for p in POLICIES]
    )
    def test_zero_wait_and_tiny_wait_budgets(self, policy_name, policy):
        """max_wait_s edge cases route through every planner branch."""
        model = lenet_model()
        arrivals = poisson_arrivals(4.0 * model.capacity_rps(4), 300, seed=3)
        for extra in (
            BatchingPolicy.dynamic(4, 0.0),
            BatchingPolicy.dynamic(2, 1e-9),
            policy,
        ):
            ref, vec = both_paths(model, extra, arrivals)
            assert_bit_identical(ref, vec)


class TestDegenerateTraces:
    """Empty / single-request / all-tie traces, on both paths."""

    @pytest.mark.parametrize(
        "oracle", [reference_loops, nullcontext], ids=["reference", "auto"]
    )
    def test_empty_trace_rejected_in_both_modes(self, oracle):
        model = lenet_model()
        sim = ServingSimulator(model, BatchingPolicy.fifo())
        with oracle(), pytest.raises(ValueError, match="empty"):
            sim.run(np.array([]))

    @pytest.mark.parametrize(
        ("policy_name", "policy"), POLICIES, ids=[p[0] for p in POLICIES]
    )
    def test_single_request_trace(self, policy_name, policy):
        model = lenet_model()
        ref, vec = both_paths(model, policy, np.array([0.125]))
        assert_bit_identical(ref, vec)
        assert len(vec.batches) == 1
        assert vec.batches[0].size == 1

    @pytest.mark.parametrize(
        ("policy_name", "policy"), POLICIES, ids=[p[0] for p in POLICIES]
    )
    @pytest.mark.parametrize(
        "trace",
        [
            np.zeros(17),
            np.full(9, 1.5),
            np.repeat([0.0, 1e-6, 2e-6], 5),
        ],
        ids=["all-zero", "all-equal", "tie-clusters"],
    )
    def test_simultaneous_arrival_ties(self, policy_name, policy, trace):
        model = lenet_model()
        ref, vec = both_paths(model, policy, trace)
        assert_bit_identical(ref, vec)

    def test_quantized_trace_with_many_ties(self):
        """Rounding a Poisson trace to a coarse grid forces tie runs."""
        model = lenet_model()
        rng = np.random.default_rng(42)
        raw = np.cumsum(rng.exponential(1e-4, size=500))
        trace = np.round(raw, 3)  # many arrivals collapse onto the grid
        for _, policy in POLICIES:
            ref, vec = both_paths(model, policy, trace)
            assert_bit_identical(ref, vec)


class TestTieOrderContract:
    """plan_dispatch / plan_batches order simultaneous arrivals by index.

    Requests that arrive at the same instant are served in trace order
    (FIFO within the tie), so the k-th request of a tie cluster always
    lands in the same batch slot on both paths.  This is the regression
    pin for the tie-order contract documented on ``plan_dispatch``.
    """

    def test_ties_fill_batches_in_trace_order(self):
        model = lenet_model()
        policy = BatchingPolicy.fixed(4)
        trace = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 5.0])
        heads, sizes, disp = plan_batches(trace, policy, model)
        # Two full tie batches in index order, then the straggler.
        assert heads.tolist() == [0, 4, 8]
        assert sizes.tolist() == [4, 4, 1]
        run = EventLoopKernel(model, policy).run(trace)
        with reference_loops():
            ref = EventLoopKernel(model, policy).run(trace)
        assert [b.first_request for b in run.batches] == [0, 4, 8]
        assert run.batches == ref.batches
        # Per-request streams stay sorted within the tie cluster.
        assert run.dispatch_s.tobytes() == ref.dispatch_s.tobytes()
        assert run.completion_s.tobytes() == ref.completion_s.tobytes()

    def test_dynamic_ties_dispatch_as_one_full_batch(self):
        model = lenet_model()
        policy = BatchingPolicy.dynamic(4, 1e-3)
        trace = np.array([1.0, 1.0, 1.0, 1.0, 9.0])
        heads, sizes, _ = plan_batches(trace, policy, model)
        assert heads.tolist() == [0, 4]
        assert sizes.tolist() == [4, 1]


class TestZeroMagnitudeFaultPin:
    """The PR 4 zero-magnitude pin, re-asserted against vectorized mode.

    A zero-magnitude fault schedule runs the *reference* lane loop (a
    fault run always does), so comparing it to a plain vectorized
    run pins reference ≡ vectorized through the full degraded-serving
    stack, not just the bare kernel.
    """

    def zero_schedule(self, horizon_s: float) -> FaultSchedule:
        return FaultSchedule(
            name="zero",
            events=(
                FaultEvent("thermal_ramp", 0, 0.1 * horizon_s, 0.2),
                FaultEvent("tia_droop", 1, 0.3 * horizon_s, 0.3),
                FaultEvent(
                    "dead_rings", 2, 0.5 * horizon_s, 1.0, rings=(3, 4)
                ),
            ),
        ).scaled(0.0)

    def test_zero_schedule_matches_vectorized_plain_run(self):
        model = lenet_model()
        policy = BatchingPolicy.dynamic(8, 1e-3)
        arrivals = poisson_arrivals(2.0 * model.capacity_rps(8), 800, seed=17)
        vec = ServingSimulator(model, policy).run(arrivals)
        zero = DegradedServingSimulator(
            model,
            policy,
            self.zero_schedule(float(arrivals[-1])),
            recalibration=RecalibrationPolicy(),
            specs=lenet5_conv_specs(),
        ).run(arrivals)
        assert vec.dispatch_s.tobytes() == zero.dispatch_s.tobytes()
        assert vec.completion_s.tobytes() == zero.completion_s.tobytes()
        assert vec.batches == tuple(zero.batches)
        assert vec.core_busy_s == zero.core_busy_s
        assert vec.p50_s == zero.p50_s
        assert vec.p99_s == zero.p99_s


class TestSingleTenantClusterPin:
    """A lone fault-free tenant collapses to one plain kernel run."""

    def make_tenant(self, policy=None):
        return ClusterTenant(
            name="solo",
            specs=lenet5_conv_specs(),
            policy=policy or BatchingPolicy.dynamic(4, 1e-4),
        )

    def test_vectorized_matches_reference_cluster(self):
        tenant = self.make_tenant()
        arrivals = {"solo": poisson_arrivals(3e4, 500, seed=23)}
        with reference_loops():
            ref = simulate_cluster_serving([tenant], arrivals, pool_size=3)
        vec = simulate_cluster_serving([tenant], arrivals, pool_size=3)
        r, o = ref.tenant("solo"), vec.tenant("solo")
        assert r.arrival_s.tobytes() == o.arrival_s.tobytes()
        assert r.dispatch_s.tobytes() == o.dispatch_s.tobytes()
        assert r.completion_s.tobytes() == o.completion_s.tobytes()
        assert tuple(r.batches) == tuple(o.batches)
        assert r.core_busy_s == o.core_busy_s
        assert np.array_equal(r.batch_num_cores, o.batch_num_cores)
        assert np.array_equal(r.accuracy_proxy, o.accuracy_proxy)
        assert r.shed_arrival_s.size == o.shed_arrival_s.size == 0
        assert vec.reallocations == ref.reallocations == ()
        assert vec.recalibrations == ref.recalibrations == ()

    def test_elastic_single_tenant_stays_on_reference(self):
        """Elastic reallocation is feedback — auto must not vectorize."""
        tenant = self.make_tenant()
        arrivals = {"solo": poisson_arrivals(3e4, 200, seed=7)}
        elastic = ElasticReallocation(pressure_ratio=1.0, min_queue=1)
        with reference_loops():
            ref = simulate_cluster_serving(
                [tenant], arrivals, pool_size=3, elastic=elastic
            )
        auto = simulate_cluster_serving(
            [tenant], arrivals, pool_size=3, elastic=elastic
        )
        r, a = ref.tenant("solo"), auto.tenant("solo")
        assert r.dispatch_s.tobytes() == a.dispatch_s.tobytes()
        assert r.completion_s.tobytes() == a.completion_s.tobytes()


class TestMultiTenantClusterPin:
    """Frozen-allocation multi-tenant runs decompose into independent
    lanes; the vectorized path must match the reference event loop
    byte for byte on every stream — including shed accounting under
    occupancy caps and batch composition under arrival ties."""

    @staticmethod
    def assert_cluster_identical(ref, vec):
        assert ref.pool_size == vec.pool_size
        assert ref.routing == vec.routing
        assert len(ref.tenants) == len(vec.tenants)
        for r, v in zip(ref.tenants, vec.tenants):
            assert r.tenant == v.tenant
            assert r.arrival_s.tobytes() == v.arrival_s.tobytes()
            assert r.dispatch_s.tobytes() == v.dispatch_s.tobytes()
            assert r.completion_s.tobytes() == v.completion_s.tobytes()
            assert (
                r.offered_arrival_s.tobytes() == v.offered_arrival_s.tobytes()
            )
            assert r.shed_arrival_s.tobytes() == v.shed_arrival_s.tobytes()
            assert tuple(r.batches) == tuple(v.batches)
            assert r.core_busy_s == v.core_busy_s
            assert np.array_equal(r.batch_num_cores, v.batch_num_cores)
            assert np.array_equal(r.accuracy_proxy, v.accuracy_proxy)
        assert ref.reallocations == vec.reallocations == ()
        assert ref.recalibrations == vec.recalibrations == ()

    @pytest.mark.parametrize("mix_name", CLUSTER_MIXES)
    @pytest.mark.parametrize(
        "routing",
        [RoutingPolicy.weighted_fair(), RoutingPolicy.priority()],
        ids=["weighted-fair", "priority"],
    )
    def test_named_mixes_bit_identical(self, mix_name, routing):
        """Every named mix x routing kind: caps, weights, priorities."""
        tenants, arrivals = cluster_mix(mix_name, 4e4, 1200, seed=5)
        with reference_loops():
            ref = simulate_cluster_serving(
                tenants, arrivals, pool_size=len(tenants) + 1, routing=routing
            )
        vec = simulate_cluster_serving(
            tenants, arrivals, pool_size=len(tenants) + 1, routing=routing
        )
        self.assert_cluster_identical(ref, vec)

    def test_tight_caps_shed_identically(self):
        """Deep overload against shallow occupancy caps: the admission
        walk's shed set and the survivors' batches must match the
        reference judgment for judgment."""
        specs = lenet5_conv_specs()
        tenants = [
            ClusterTenant(
                "greedy",
                specs,
                BatchingPolicy.dynamic(8, 1e-4),
                queue_cap=2,
            ),
            ClusterTenant(
                "frugal",
                specs,
                BatchingPolicy.fixed(4),
                queue_cap=3,
            ),
        ]
        arrivals = {
            "greedy": poisson_arrivals(2e5, 3000, seed=31),
            "frugal": poisson_arrivals(1e5, 1500, seed=32),
        }
        with reference_loops():
            ref = simulate_cluster_serving(tenants, arrivals, pool_size=2)
        vec = simulate_cluster_serving(tenants, arrivals, pool_size=2)
        self.assert_cluster_identical(ref, vec)
        assert ref.tenant("greedy").num_shed > 0  # the cap actually bit

    def test_tied_arrivals_under_caps_bit_identical(self):
        """Tie-order regression: quantized traces pile simultaneous
        arrivals onto cap boundaries, where one mis-ordered judgment
        shifts every later batch."""
        specs = lenet5_conv_specs()
        rng = np.random.default_rng(77)
        base = np.cumsum(rng.exponential(1.0 / 5e4, 120))
        trace = np.sort(rng.choice(base, size=400))  # heavy duplication
        tenants = [
            ClusterTenant(
                "tied",
                specs,
                BatchingPolicy.dynamic(4, 2e-4),
                queue_cap=3,
            ),
            ClusterTenant("steady", specs, BatchingPolicy.fifo()),
        ]
        arrivals = {
            "tied": trace,
            "steady": poisson_arrivals(3e4, 200, seed=78),
        }
        with reference_loops():
            ref = simulate_cluster_serving(tenants, arrivals, pool_size=2)
        vec = simulate_cluster_serving(tenants, arrivals, pool_size=2)
        self.assert_cluster_identical(ref, vec)

    def test_lane_fallback_is_exercised_and_exact(self, monkeypatch):
        """When the speculative admission plan fails verification the
        lane falls back to the per-dispatch lane loop — prove the
        fallback fires on a hostile trace and stays bit-identical."""
        specs = lenet5_conv_specs()
        calls = []
        original = cluster_module._TenantLane.serve

        def counting(lane, *args, **kwargs):
            calls.append(lane.name)
            return original(lane, *args, **kwargs)

        monkeypatch.setattr(cluster_module._TenantLane, "serve", counting)
        rng = np.random.default_rng(101)
        base = np.cumsum(rng.exponential(1.0 / 2e4, 60))
        trace = np.sort(rng.choice(base, size=300))
        tenants = [
            ClusterTenant(
                "hostile",
                specs,
                BatchingPolicy.dynamic(4, 2e-4),
                queue_cap=3,
            )
        ]
        vec = simulate_cluster_serving(tenants, {"hostile": trace}, pool_size=1)
        # The plan was rejected: every batch is served one by one.
        assert calls == ["hostile"] * len(vec.tenant("hostile").batches)
        monkeypatch.undo()
        with reference_loops():
            ref = simulate_cluster_serving(
                tenants, {"hostile": trace}, pool_size=1
            )
        self.assert_cluster_identical(ref, vec)

    def test_admission_walk_passes_are_bounded(self, monkeypatch):
        """Adversarial trace for the fixpoint walk: uniform arrivals just
        faster than a cap-1 FIFO lane drains shed every other request,
        and each pass fixes only about two more decisions — the
        uncapped walk needs n/2 + 1 passes of O(n) work.  The walk must
        stop at its pass cap and hand the lane to the exact scalar
        loop, bit-identical to the reference run."""
        specs = tuple(lenet5_conv_specs())
        model = PipelineServiceModel.from_specs(list(specs), 2)
        trace = np.arange(4000) * (0.99 * model.batch_makespan_s(1))
        tenants = [
            ClusterTenant("tight", specs, BatchingPolicy.fifo(), queue_cap=1)
        ]
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return plan_batches(*args, **kwargs)

        monkeypatch.setattr(cluster_module, "plan_batches", counting)
        vec = simulate_cluster_serving(tenants, {"tight": trace}, pool_size=2)
        monkeypatch.undo()
        assert len(calls) <= _ADMISSION_MAX_PASSES
        with reference_loops():
            ref = simulate_cluster_serving(
                tenants, {"tight": trace}, pool_size=2
            )
        self.assert_cluster_identical(ref, vec)
        assert ref.tenant("tight").num_shed == 2000


def _frozen_shapes():
    """``(tenants, arrivals, pool)`` of the frozen-allocation runs the
    cluster pins above take on the fast path."""
    specs = lenet5_conv_specs()
    rng = np.random.default_rng(77)
    tied = np.sort(rng.choice(np.cumsum(rng.exponential(2e-5, 120)), 400))
    yield (
        [ClusterTenant("solo", specs, BatchingPolicy.dynamic(4, 1e-4))],
        {"solo": poisson_arrivals(3e4, 500, seed=23)},
        3,
    )
    for name in CLUSTER_MIXES:
        tenants, arrivals = cluster_mix(name, 4e4, 300, seed=5)
        yield tenants, arrivals, len(tenants) + 1
    yield (
        [
            ClusterTenant(
                "tied", specs, BatchingPolicy.dynamic(4, 2e-4), queue_cap=3
            ),
            ClusterTenant("steady", specs, BatchingPolicy.fifo()),
        ],
        {"tied": tied, "steady": poisson_arrivals(3e4, 200, seed=78)},
        2,
    )


class TestAutoModeRouting:
    """The inputs alone pick the path, so a spy proves which path each
    shape takes: every frozen-allocation lane served
    alone by the one path dispatcher (``_serve_alone``) with no
    per-dispatch loop, the lane event loop wherever state feeds back
    mid-run."""

    @staticmethod
    def spy(monkeypatch):
        calls = {"alone": 0, "lanes": 0}
        serve_alone = cluster_module._serve_alone
        serve_lanes = cluster_module._serve_lanes

        def count_alone(*args, **kwargs):
            calls["alone"] += 1
            return serve_alone(*args, **kwargs)

        def count_lanes(*args, **kwargs):
            calls["lanes"] += 1
            return serve_lanes(*args, **kwargs)

        monkeypatch.setattr(cluster_module, "_serve_alone", count_alone)
        monkeypatch.setattr(cluster_module, "_serve_lanes", count_lanes)
        return calls

    def test_frozen_shapes_take_lane_decomposition(self, monkeypatch):
        calls = self.spy(monkeypatch)
        lanes = 0
        for tenants, arrivals, pool in _frozen_shapes():
            for routing in (RoutingPolicy.weighted_fair(), RoutingPolicy.priority()):
                simulate_cluster_serving(
                    tenants, arrivals, pool, routing=routing
                )
                lanes += len(tenants)
                assert calls["alone"] == lanes
        assert calls["lanes"] == 0
        # Admission reads only its own lane, so a capped tenant stays
        # frozen under a disabled or an enabled burn-rate controller
        # (its lane may still take the exact per-dispatch loop).
        tenants, arrivals, pool = next(_frozen_shapes())
        capped = [replace(tenants[0], queue_cap=4)]
        for controller in (
            BurnRateAdmission.disabled(),
            BurnRateAdmission(slo_latency_s=1e-4),
        ):
            simulate_cluster_serving(
                capped, arrivals, pool, admission={"solo": controller}
            )
            lanes += 1
            assert calls["alone"] == lanes
        # A faulted pool shares no lane state either: each lane's fault
        # steps touch only its own cores.
        horizon = float(arrivals["solo"][-1])
        simulate_cluster_serving(
            tenants,
            arrivals,
            pool,
            schedule=FaultSchedule.uniform_drift(1.0 / horizon, pool),
        )
        assert calls == {"alone": lanes + 1, "lanes": 0}

    def test_kernel_auto_runs_no_per_dispatch_loop(self, monkeypatch):
        calls = self.spy(monkeypatch)
        arrivals = poisson_arrivals(3e4, 500, seed=23)
        for policy in (
            BatchingPolicy.fifo(),
            BatchingPolicy.dynamic(4, 1e-4),
            BatchingPolicy.fixed(4),
        ):
            EventLoopKernel(lenet_model(), policy).run(arrivals)
        assert calls == {"alone": 3, "lanes": 0}

    @pytest.mark.parametrize("feedback", ["elastic", "elastic-faulted"])
    def test_feedback_shapes_take_the_lane_loop(self, monkeypatch, feedback):
        """An elastic cluster is served lane by lane, and the lane loop
        takes over only from a dispatch that can move a core.  The
        default grid's mix moves none at its own seed; two seeds on, the
        batch tenant takes a freed core near the end, so the still
        active lanes are served again up to there and the loop runs
        the rest."""
        calls = self.spy(monkeypatch)
        # Two lanes served alone; at seed 5 the batch lane, still active
        # at the cut, is served alone once more (interactive has
        # released its cores by then).
        for seed, moves, alone, loops in ((3, 0, 2, 0), (5, 1, 3, 1)):
            tenants, arrivals = cluster_mix(
                "interactive-batch", 2000.0, 400, seed=seed
            )
            horizon = max(float(trace[-1]) for trace in arrivals.values())
            options = {"elastic": ElasticReallocation()}
            if feedback == "elastic-faulted":
                options["schedule"] = fault_scenario("tia-aging", 6, horizon)
                options["recalibration"] = RecalibrationPolicy()
            calls.update(alone=0, lanes=0)
            report = simulate_cluster_serving(tenants, arrivals, 6, **options)
            assert len(report.reallocations) == moves
            assert calls == {"alone": alone, "lanes": loops}

    @pytest.mark.parametrize("offset, most", [(0, 0), (2, 3)])
    def test_default_grid_rebalances_only_past_the_cut(
        self, monkeypatch, offset, most
    ):
        """``_rebalance`` runs only on the global loop: never in the
        default grid's elastic cells at their own seed, where no core
        moves, and at most three times a cell two seeds on, where one
        moves in the last dispatches."""
        calls = []
        rebalance = cluster_module.ClusterSimulator._rebalance

        def count(*args, **kwargs):
            calls[-1] += 1
            return rebalance(*args, **kwargs)

        monkeypatch.setattr(
            cluster_module.ClusterSimulator, "_rebalance", count
        )
        scenarios = tuple(
            replace(scenario, seed=scenario.seed + offset)
            for scenario in default_scenarios()
        )
        moved = 0
        for policy in default_policy_grid(scenarios):
            if policy.elastic is None:
                continue
            for scenario in scenarios:
                calls.append(0)
                report = evaluate_policy(scenario, policy).report
                moved += bool(report.reallocations)
        assert len(calls) == 8
        assert max(calls) <= most
        assert moved == (8 if most else 0)


class TestReplayFidelity:
    """Vectorized batch streams drive the engine replay identically."""

    def test_replay_on_engine_bit_identical(self):
        network = serving_network("lenet5", seed=7)
        with reference_loops():
            report_ref = simulate_serving(
                network, poisson_arrivals(2e4, 40, seed=3),
                BatchingPolicy.fixed(4), num_cores=2,
            )
        report_vec = simulate_serving(
            network, poisson_arrivals(2e4, 40, seed=3), BatchingPolicy.fixed(4),
            num_cores=2,
        )
        rng = np.random.default_rng(0)
        inputs = rng.normal(size=(40, 1, 32, 32))
        out_ref = replay_on_engine(network, report_ref, inputs)
        out_vec = replay_on_engine(network, report_vec, inputs)
        assert len(out_ref) == len(out_vec)
        for a, b in zip(out_ref, out_vec):
            assert np.array_equal(a, b)


class TestBatchTable:
    """The array-backed batch sequence honours the Sequence contract."""

    def table(self):
        model = lenet_model()
        arrivals = poisson_arrivals(3e4, 100, seed=31)
        run = EventLoopKernel(model, BatchingPolicy.dynamic(4, 1e-4)).run(
            arrivals
        )
        return run.batches

    def test_sequence_protocol(self):
        table = self.table()
        assert isinstance(table, BatchTable)
        assert len(table) > 1
        assert table[0].first_request == 0
        assert table[-1] == table[len(table) - 1]
        assert isinstance(table[1:3], tuple)
        assert table[1:3] == tuple(table)[1:3]
        with pytest.raises(IndexError):
            table[len(table)]

    def test_equality_vs_tuple_and_hash(self):
        table = self.table()
        assert table == tuple(table.records)
        assert tuple(table.records) == tuple(table)
        assert table == self.table()
        assert table != tuple(table.records)[:-1]
        with pytest.raises(TypeError):
            hash(table)

    def test_records_cached(self):
        table = self.table()
        assert table.records is table.records

    def test_repr_is_compact(self):
        table = self.table()
        text = repr(table)
        assert "BatchTable" in text
        assert str(len(table)) in text


class TestMaxPlusScanExactness:
    """The max-plus scan is exact even when speculation fails.

    Serving traces are benign (monotone arrivals, positive service
    times), so the speculative pass almost always verifies clean.  Wide
    magnitudes alone rarely break it; arrivals within one ulp of the
    stage freeing up do (about one tie draw in seven here), so the
    verify/repair machinery actually runs, pinning the property the
    bit-identity contract rests on: the scan equals the scalar fold on
    *any* float input, with an array or a scalar hold and any start
    state.
    """

    @staticmethod
    def scalar_scan(e, d, start):
        d = np.broadcast_to(d, e.shape)
        y = np.empty(e.size)
        prev = start
        for k in range(e.size):
            y[k] = prev = max(float(e[k]), prev) + float(d[k])
        return y

    def assert_exact(self, seed, draw_hold):
        """Array or scalar hold, three start states and one-ulp ties."""
        from repro.core.simkernel import _maxplus_scan

        rng = np.random.default_rng(seed)
        for _ in range(100):
            n = int(rng.integers(2, 60))
            e = np.sort(
                np.cumsum(np.abs(rng.normal(size=n)))
                * 10.0 ** rng.uniform(-8, 8, size=n)
            )
            spread = float(np.abs(rng.normal()) * 10.0 ** rng.uniform(-8, 8))
            d = draw_hold(rng, n)
            # Each arrival one ulp either side of the stage's free time.
            ties = np.empty(n)
            free = float(e[0])
            for k, dk in enumerate(np.broadcast_to(d, e.shape)):
                side = math.inf if rng.integers(2) else -math.inf
                ties[k] = np.nextafter(free, side)
                free = max(float(ties[k]), free) + float(dk)
            cases = [(e, e[0] - spread), (e, e[0]), (e, e[0] + spread)]
            for arrivals, start in cases + [(ties, e[0])]:
                assert np.array_equal(
                    _maxplus_scan(arrivals.copy(), d, float(start)),
                    self.scalar_scan(arrivals, d, float(start)),
                )

    def test_scan_exact_on_wide_magnitude_inputs(self):
        self.assert_exact(
            0,
            lambda rng, n: np.abs(rng.normal(size=n))
            * 10.0 ** rng.uniform(-8, 8, size=n),
        )

    def test_const_scan_exact_on_wide_magnitude_inputs(self):
        self.assert_exact(
            1,
            lambda rng, n: float(
                np.abs(rng.normal()) * 10.0 ** rng.uniform(-4, 4)
            ),
        )


class TestLaneColumns:
    """A lane records each batch once, in its columns; the burn-rate
    window is re-derived from them and must equal the per-request
    definition over the served streams."""

    WINDOW = 5

    def served_lane(self):
        model = lenet_model()
        arrivals = poisson_arrivals(1.2 * model.capacity_rps(4), 400, seed=9)
        lane = cluster_module._TenantLane(
            0,
            "burn",
            None,
            BatchingPolicy.dynamic(4, 1e-4),
            arrivals,
            model,
            [0, 1, 2],
            3,
            None,
            queue_cap=16,
            admission=BurnRateAdmission(
                slo_latency_s=1e-3, window=self.WINDOW
            ),
        )
        lane_loop(lane, None)
        return lane

    def test_burn_window_matches_the_per_request_definition(self):
        lane = self.served_lane()
        fields = lane.serving_fields()
        arrival, completion = fields["arrival_s"], fields["completion_s"]
        batches = lane.batches
        ends = batches.first_request + batches.size
        probes = [float(batches.completion_s[0])]  # sees no completions
        probes += np.nextafter(batches.completion_s, np.inf).tolist()
        starts = set()
        for time_s in probes:
            done = int(np.searchsorted(batches.completion_s, time_s))
            completed = int(ends[done - 1]) if done else 0
            start = max(completed - self.WINDOW, 0)
            starts.add(
                "empty" if not completed
                else "zero" if start == 0
                else "batch" if start in batches.first_request
                else "mid"
            )
            want = completion[start:completed] - arrival[start:completed]
            got = lane._recent_latencies(time_s)
            assert got.tobytes() == want.tobytes()
        assert starts == {"empty", "zero", "batch", "mid"}

    def test_whole_trace_book_allocates_exactly_its_batches(self):
        lane = cluster_module.serve_pipeline(
            lenet_model(),
            BatchingPolicy.dynamic(8, 1e-4),
            poisson_arrivals(3e4, 2000, seed=4),
            None,
        )
        assert lane.batch_first.size == lane.num_batches == len(lane.batches)


class TestBoundedMemory:
    """``tracemalloc`` peaks of a frozen capped cluster run and of a
    kernel run stay within 5% of the peaks measured before the lane
    stored each batch once (numpy 2.4, CPython 3.11): preallocating the
    lane's columns to the trace length, or copying the trace into an
    uncapped lane's admitted queue, breaks the bound."""

    CLUSTER_PEAK = 11_172_859
    KERNEL_PEAK = 8_004_111

    @staticmethod
    def peak(run) -> int:
        import tracemalloc

        run()
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_frozen_capped_cluster_peak(self):
        tenants, arrivals = cluster_mix(
            "interactive-batch", 8e5, 60_000, seed=3
        )
        assert any(tenant.queue_cap for tenant in tenants)
        peak = self.peak(
            lambda: simulate_cluster_serving(tenants, arrivals, 4)
        )
        assert peak <= 1.05 * self.CLUSTER_PEAK

    def test_kernel_peak(self):
        model = lenet_model()
        trace = poisson_arrivals(0.9 * model.capacity_rps(8), 100_000, seed=1)
        kernel = EventLoopKernel(model, BatchingPolicy.dynamic(8, 1e-4))
        peak = self.peak(lambda: kernel.run(trace))
        assert peak <= 1.05 * self.KERNEL_PEAK
