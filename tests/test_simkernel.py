"""Tests for the unified discrete-event serving kernel."""

from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reference_loops

from repro.analysis.policy_eval import EvalScenario
from repro.core import simkernel, traffic
from repro.core.adaptive import (
    AdaptiveRecalibration,
    BurnRateAdmission,
    simulate_adaptive_serving,
)
from repro.core.cluster import (
    ClusterSimulator,
    ClusterTenant,
    ElasticReallocation,
    _TenantLane,
)
from repro.core.faults import (
    DegradedServingSimulator,
    FaultSchedule,
    RecalibrationPolicy,
    simulate_degraded_serving,
)
from repro.core.fleet import (
    FleetAutoscaler,
    RegionSpec,
    simulate_fleet_serving,
    uniform_rtt,
)
from repro.core.simkernel import (
    BatchingPolicy,
    BatchTable,
    EventLoopKernel,
    pipeline_completions,
    plan_batches,
    plan_dispatch,
    validate_arrival_trace,
)
from repro.core.traffic import (
    PipelineServiceModel,
    ServingReport,
    ServingSimulator,
)
from repro.workloads import (
    alexnet_conv_specs,
    diurnal_arrivals,
    fault_scenario,
    lenet5_conv_specs,
    mmpp_arrivals,
    poisson_arrivals,
    serving_network,
)


def model(cores: int = 3) -> PipelineServiceModel:
    return PipelineServiceModel.from_specs(alexnet_conv_specs(), cores)


class TestReExports:
    def test_traffic_re_exports_the_kernel_front_door(self):
        """traffic re-exports the kernel's BatchingPolicy itself, not a
        copy, and none of the kernel internals it only uses."""
        assert traffic.BatchingPolicy is BatchingPolicy
        assert not {
            "BatchRecord",
            "BatchTable",
            "EventLoopKernel",
            "plan_dispatch",
            "validate_arrival_trace",
        } & set(traffic.__all__)


class TestBatchingPolicyCapped:
    def test_non_binding_cap_returns_self(self):
        policy = BatchingPolicy.dynamic(8, 1e-3)
        assert policy.capped(8) is policy
        assert policy.capped(99) is policy

    def test_binding_cap_clamps_max_batch_only(self):
        policy = BatchingPolicy.dynamic(8, 1e-3)
        capped = policy.capped(3)
        assert capped.max_batch == 3
        assert capped.max_wait_s == policy.max_wait_s
        assert capped.name == policy.name

    def test_invalid_cap(self):
        with pytest.raises(ValueError, match="cap"):
            BatchingPolicy.fifo().capped(0)


# Every constructor that takes a request/batch count, by field.
COUNT_FIELDS = {
    "max batch": lambda v: BatchingPolicy("p", max_batch=v, max_wait_s=0.0),
    "batch cap": lambda v: BatchingPolicy.dynamic(8, 1e-3).capped(v),
    "queue cap": lambda v: ClusterTenant(
        "t", tuple(lenet5_conv_specs()), BatchingPolicy.fifo(), queue_cap=v
    ),
    "min queue": lambda v: ElasticReallocation(min_queue=v),
    "admission queue cap": lambda v: BurnRateAdmission(
        slo_latency_s=1e-3, queue_cap=v
    ),
    "admission window": lambda v: BurnRateAdmission(
        slo_latency_s=1e-3, window=v
    ),
    "recalibration pressure hold": lambda v: AdaptiveRecalibration(
        base=RecalibrationPolicy(), pressure_hold=v
    ),
    "eval scenario request count": lambda v: EvalScenario(
        name="s", fault="slow-drift", mix="model-zoo", num_requests=v
    ),
    "eval scenario pool size": lambda v: EvalScenario(
        name="s", fault="slow-drift", mix="model-zoo", pool_size=v
    ),
    "poisson request count": lambda v: poisson_arrivals(1000.0, v),
    "mmpp request count": lambda v: mmpp_arrivals(500.0, 2000.0, v, 0.01),
    "diurnal request count": lambda v: diurnal_arrivals(
        500.0, 2000.0, v, 0.01
    ),
    "cluster pool size": lambda v: ClusterSimulator(
        [
            ClusterTenant(
                "t", tuple(lenet5_conv_specs()), BatchingPolicy.fifo()
            )
        ],
        v,
    ),
    "region pool size": lambda v: RegionSpec("r", v),
    "autoscaler min pools": lambda v: FleetAutoscaler(
        epoch_s=1.0, min_pools=v
    ),
    "autoscaler max pools": lambda v: FleetAutoscaler(
        epoch_s=1.0, max_pools=v
    ),
    "uniform RTT region count": lambda v: uniform_rtt(v, 0.01),
    "recalibration max iterations": lambda v: RecalibrationPolicy(
        max_iterations=v
    ),
    "uniform drift core count": lambda v: FaultSchedule.uniform_drift(1.0, v),
    "random schedule core count": lambda v: FaultSchedule.random(0, v, 1.0),
    "random schedule events per core": lambda v: FaultSchedule.random(
        0, 1, 1.0, events_per_core=v
    ),
    "fault scenario core count": lambda v: fault_scenario(
        "slow-drift", v, 1.0
    ),
}


class TestIntegerCounts:
    """Non-integer counts are rejected at construction, not deep in
    the kernel (where the two modes used to fail differently)."""

    @pytest.mark.parametrize("field", sorted(COUNT_FIELDS))
    @pytest.mark.parametrize("bad", [2.5, 3.0, np.float64(3.0), True, "3"])
    def test_non_integers_rejected(self, field, bad):
        with pytest.raises(ValueError, match="must be an integer"):
            COUNT_FIELDS[field](bad)

    @pytest.mark.parametrize("field", sorted(COUNT_FIELDS))
    def test_numpy_integers_accepted(self, field):
        COUNT_FIELDS[field](np.int64(3))


class TestValidateArrivalTrace:
    def test_empty_trace_has_its_own_message(self):
        with pytest.raises(ValueError, match="empty"):
            validate_arrival_trace(np.array([]))

    def test_non_1d_and_unsorted_still_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            validate_arrival_trace(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="sorted"):
            validate_arrival_trace(np.array([2.0, 1.0]))


def _kernel_on_reference_loops(arrivals):
    with reference_loops():
        return EventLoopKernel(model(), BatchingPolicy.dynamic(4, 1e-4)).run(
            arrivals
        )


# Every simulator front door that takes an arrival trace, by name.
ARRIVAL_FRONT_DOORS = {
    "kernel auto": lambda t: EventLoopKernel(
        model(), BatchingPolicy.dynamic(4, 1e-4)
    ).run(t),
    "kernel reference": _kernel_on_reference_loops,
    "serving simulator": lambda t: ServingSimulator(
        model(), BatchingPolicy.dynamic(4, 1e-4)
    ).run(t),
    "cluster simulator": lambda t: ClusterSimulator(
        [
            ClusterTenant(
                "t", tuple(lenet5_conv_specs()), BatchingPolicy.fifo()
            )
        ],
        2,
    ).run({"t": t}),
    "degraded serving": lambda t: simulate_degraded_serving(
        serving_network("lenet5"),
        t,
        BatchingPolicy.dynamic(4, 1e-4),
        FaultSchedule.uniform_drift(1.0, 2),
        2,
    ),
    "fleet serving": lambda t: simulate_fleet_serving(
        [
            ClusterTenant(
                "t", tuple(lenet5_conv_specs()), BatchingPolicy.fifo()
            )
        ],
        [RegionSpec("r", 2)],
        {"r": {"t": t}},
    ),
}


class TestNonFiniteArrivals:
    """NaN passes the sort check (every comparison with it is false)
    and an infinite arrival yields infinite completions, so every front
    door rejects non-finite arrivals before either path sees them."""

    @pytest.mark.parametrize("door", sorted(ARRIVAL_FRONT_DOORS))
    @pytest.mark.parametrize(
        "trace",
        [
            [0.0, np.nan, 1e-3],
            [np.nan],
            [0.0, 1e-3, np.inf],
            [-np.inf, 0.0],
        ],
        ids=["nan-inside", "lone-nan", "inf", "minus-inf"],
    )
    def test_rejected_at_every_front_door(self, door, trace):
        with pytest.raises(ValueError, match="finite"):
            ARRIVAL_FRONT_DOORS[door](np.array(trace))


class TestEventLoopKernel:
    def test_facade_matches_kernel(self):
        """ServingSimulator is the kernel under its serving name."""
        assert ServingSimulator is EventLoopKernel
        arrivals = poisson_arrivals(5000.0, 500, seed=5)
        policy = BatchingPolicy.fixed(16)
        report = ServingSimulator(model(), policy).run(arrivals)
        run = EventLoopKernel(model(), policy).run(arrivals)
        assert np.array_equal(report.completion_s, run.completion_s)
        assert report.batches == run.batches
        assert report.num_cores == run.num_cores

    def test_rejects_bad_traces(self):
        kernel = EventLoopKernel(model(), BatchingPolicy.fifo())
        with pytest.raises(ValueError, match="empty"):
            kernel.run(np.array([]))
        with pytest.raises(ValueError, match="sorted"):
            kernel.run(np.array([3.0, 1.0]))

    def test_degraded_simulator_is_reusable_across_runs(self):
        """Every run starts from fresh drift state and records, so one
        simulator run twice gives identical reports."""
        simulator = DegradedServingSimulator(
            model(),
            BatchingPolicy.dynamic(8, 1e-3),
            FaultSchedule.uniform_drift(50.0, 3),
            recalibration=RecalibrationPolicy(),
            specs=alexnet_conv_specs(),
        )
        arrivals = poisson_arrivals(2000.0, 100, seed=1)
        first = simulator.run(arrivals)
        second = simulator.run(arrivals)
        assert first.recalibrations
        assert first.batches == second.batches
        assert first.completion_s.tobytes() == second.completion_s.tobytes()
        assert first.core_busy_s == second.core_busy_s
        assert first.accuracy_proxy.tobytes() == second.accuracy_proxy.tobytes()
        assert first.batch_snapshots == second.batch_snapshots
        assert first.core_downtime_s == second.core_downtime_s
        assert first.final_core_errors == second.final_core_errors
        assert first.recalibrations == second.recalibrations
        assert first.repartitions == second.repartitions


class TestOneBatchFormat:
    """Every front door reports its batches as one BatchTable, built
    without a BatchRecord, and equal across the paths that serve the
    same fault-free schedule."""

    def test_every_front_door_reports_one_batch_table(self, monkeypatch):
        network = serving_network("lenet5")
        specs = network.conv_specs()
        cores = len(specs)
        svc = PipelineServiceModel.from_specs(specs, cores)
        policy = BatchingPolicy.dynamic(4, 1e-4)
        arrivals = poisson_arrivals(0.8 * svc.capacity_rps(4), 600, seed=7)
        zero = fault_scenario("slow-drift", cores, float(arrivals[-1]))
        zero = zero.scaled(0.0)
        tenant = ClusterTenant("t", tuple(specs), policy)

        def no_records(*args, **kwargs):
            raise AssertionError("a BatchRecord was built during a run")

        monkeypatch.setattr(simkernel, "BatchRecord", no_records)
        reports = {"serving auto": ServingSimulator(svc, policy).run(arrivals)}
        with reference_loops():
            reports["serving reference"] = ServingSimulator(svc, policy).run(
                arrivals
            )
        reports["degraded epochs"] = DegradedServingSimulator(
            svc, policy, zero, recalibration=RecalibrationPolicy(), specs=specs
        ).run(arrivals)
        reports["adaptive per dispatch"] = simulate_adaptive_serving(
            network,
            arrivals,
            policy,
            zero,
            cores,
            AdaptiveRecalibration.frozen(RecalibrationPolicy()),
        )
        simulator = ClusterSimulator([tenant], cores)
        reports["cluster auto"] = simulator.run({"t": arrivals}).tenants[0]
        with reference_loops():
            cluster = simulator.run({"t": arrivals})
        reports["cluster reference"] = cluster.tenants[0]
        fleet = simulate_fleet_serving(
            [tenant], [RegionSpec("r", cores)], {"r": {"t": arrivals}}
        )
        reports["fleet region"] = fleet.regions[0].report.tenants[0]
        monkeypatch.undo()
        expected = reports["serving reference"].batches
        assert len(expected) > 1
        for name, report in reports.items():
            assert isinstance(report.batches, BatchTable), name
            assert report.batches == expected, name
        assert expected.records == reports["serving auto"].batches.records

    def test_serving_simulator_and_kernel_return_one_report_type(self):
        arrivals = poisson_arrivals(5000.0, 200, seed=2)
        policy = BatchingPolicy.dynamic(8, 1e-4)
        for oracle in (nullcontext(), reference_loops()):
            with oracle:
                served = ServingSimulator(model(), policy).run(arrivals)
                kernel = EventLoopKernel(model(), policy).run(arrivals)
            assert type(served) is type(kernel) is ServingReport


class TestExecuteDispatch:
    def test_busy_time_charged_to_physical_cores(self):
        """Stage→core indirection keeps per-physical-core accounting
        correct after a repartition re-maps the pipeline."""
        arrivals = validate_arrival_trace(np.array([0.0, 1e-5]))
        svc = model(2)
        lane = _TenantLane(
            0, "t", None, BatchingPolicy.fifo(), arrivals, svc, [3, 1], 4, None
        )
        lane.commit(0.0, 1)
        batch = lane.batches[0]
        assert batch.size == 1 and batch.first_request == 0
        assert lane.core_busy[0] == 0.0 and lane.core_busy[2] == 0.0
        assert lane.core_busy[3] == svc.core_busy_s(0, 1)
        assert lane.core_busy[1] == svc.core_busy_s(1, 1)
        assert lane.head == 1


class TestResumedPlanning:
    """plan_batches and pipeline_completions resumed mid-run are the
    per-batch loop: the stretches between pushed core clocks (what a
    recalibration's downtime does) plan and book bit for bit."""

    @given(
        policy=st.sampled_from(
            [
                BatchingPolicy.fifo(),
                BatchingPolicy.dynamic(4, 1e-4),
                BatchingPolicy.dynamic(8, 1e-3),
                BatchingPolicy.fixed(4),
            ]
        ),
        cores=st.integers(1, 3),
        seed=st.integers(0, 1000),
        rate=st.sampled_from([2e3, 2e4, 2e5]),
        pushes=st.dictionaries(
            st.integers(0, 60),
            st.tuples(st.integers(0, 2), st.floats(0.0, 5e-3)),
            max_size=6,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_stretches_between_pushes_match(
        self, policy, cores, seed, rate, pushes
    ):
        svc = model(cores)
        arrivals = poisson_arrivals(rate, 300, seed=seed)
        lane = _TenantLane(
            0, "t", None, policy, arrivals, svc, list(range(cores)), cores, None
        )
        before: dict[int, tuple[list, list]] = {}
        resumes = [(0, 0, list(lane.core_free), list(lane.core_busy))]
        while lane.head < arrivals.size:
            k = len(lane.batches)
            before[k] = (list(lane.core_free), list(lane.core_busy))
            dispatch, size = plan_dispatch(
                arrivals, lane.head, policy, lane.core_free[0]
            )
            if k in pushes:
                stage, delay = pushes[k]
                stage %= cores
                pushed = max(lane.core_free[stage], dispatch) + delay
                lane.core_free[stage] = pushed
            lane.commit(dispatch, size)
            if k in pushes:
                resumes.append(
                    (k + 1, lane.head, list(lane.core_free), list(lane.core_busy))
                )
        total = len(lane.batches)
        before[total] = (list(lane.core_free), list(lane.core_busy))
        for first, head, free, busy in resumes:
            if first == total:
                continue
            stop = min([k for k in pushes if k >= first] + [total])
            heads, sizes, disp = plan_batches(
                arrivals, policy, svc, head, free[0]
            )
            # The pushed batch's own plan is exact too: the push comes
            # after its seal.
            expected = lane.batches[first : stop + 1]
            assert heads[: len(expected)].tolist() == [
                b.first_request for b in expected
            ]
            assert sizes[: len(expected)].tolist() == [
                b.size for b in expected
            ]
            assert disp[: len(expected)].tolist() == [
                b.dispatch_s for b in expected
            ]
            if stop == first:
                continue
            count = stop - first
            completion, ledger = pipeline_completions(
                sizes[:count], disp[:count], svc, free, busy
            )
            assert completion.tolist() == [
                b.completion_s for b in lane.batches[first:stop]
            ]
            assert free == before[stop][0]
            assert list(ledger) == before[stop][1]
