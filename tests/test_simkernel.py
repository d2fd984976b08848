"""Tests for the unified discrete-event serving kernel."""

import numpy as np
import pytest

from repro.core import traffic
from repro.core.adaptive import BurnRateAdmission
from repro.core.cluster import ClusterTenant, ElasticReallocation
from repro.core.faults import (
    DegradedServingSimulator,
    FaultSchedule,
    RecalibrationPolicy,
)
from repro.core.simkernel import (
    BatchingPolicy,
    DispatchContext,
    EventLoopKernel,
    execute_dispatch,
    plan_dispatch,
    validate_arrival_trace,
)
from repro.core.traffic import PipelineServiceModel, ServingSimulator
from repro.workloads import (
    alexnet_conv_specs,
    lenet5_conv_specs,
    poisson_arrivals,
)


def model(cores: int = 3) -> PipelineServiceModel:
    return PipelineServiceModel.from_specs(alexnet_conv_specs(), cores)


class TestReExports:
    def test_traffic_re_exports_the_kernel_front_door(self):
        """The historical traffic API is the kernel's objects, not
        copies — one definition, every simulator shares it."""
        assert traffic.BatchingPolicy is BatchingPolicy
        assert traffic.plan_dispatch is plan_dispatch
        assert traffic.validate_arrival_trace is validate_arrival_trace


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


class TestEventLoopKernel:
    def test_facade_matches_kernel(self):
        """ServingSimulator is a facade over the kernel."""
        arrivals = poisson_arrivals(5000.0, 500, seed=5)
        policy = BatchingPolicy.fixed(16)
        report = ServingSimulator(model(), policy).run(arrivals)
        run = EventLoopKernel(model(), policy).run(arrivals)
        assert np.array_equal(report.completion_s, run.completion_s)
        assert report.batches == run.batches
        assert report.num_cores == run.initial_num_cores

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


class TestExecuteDispatch:
    def test_busy_time_charged_to_physical_cores(self):
        """Stage→core indirection keeps per-physical-core accounting
        correct after a repartition re-maps the pipeline."""
        arrivals = validate_arrival_trace(np.array([0.0, 1e-5]))
        svc = model(2)
        ctx = DispatchContext(svc, BatchingPolicy.fifo(), arrivals)
        ctx.core_busy = [0.0, 0.0, 0.0, 0.0]
        ctx.stage_to_core = [3, 1]
        batch = execute_dispatch(ctx, 0.0, 1)
        assert batch.size == 1 and batch.first_request == 0
        assert ctx.core_busy[0] == 0.0 and ctx.core_busy[2] == 0.0
        assert ctx.core_busy[3] == svc.core_busy_s(0, 1)
        assert ctx.core_busy[1] == svc.core_busy_s(1, 1)
        assert ctx.head == 1
