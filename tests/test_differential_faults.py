"""Differential tests for the fault-injection scenario engine.

The engine's load-bearing guarantees are differential, pinned here:

* a **zero-magnitude** fault schedule (same events, zero physical
  effect) is *bit-identical* to the fault-free ``ServingSimulator`` —
  every dispatch, completion, batch record, and busy time, and the
  engine replay of the schedule's batches;
* **monotone drift monotonically worsens** the measured accuracy proxy,
  both across drift rates (faster ambient ramp, strictly larger error)
  and along one run (the proxy trajectory of an un-recalibrated ramp
  never improves);
* **recalibration strictly helps**: the same drift sweep with the
  closed calibration loop enabled shows a strictly better accuracy
  proxy than without, and the recalibration downtime is visible in the
  per-core availability / utilization accounting.
"""

from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reference_loops

from repro.analysis import sweep_fault_tolerance
from repro.core.faults import (
    CoreHealthState,
    DegradedServingSimulator,
    FaultEvent,
    FaultSchedule,
    RecalibrationPolicy,
    replay_on_engine_degraded,
    simulate_degraded_serving,
)
from repro.core.traffic import (
    BatchingPolicy,
    PipelineServiceModel,
    ServingSimulator,
    replay_on_engine,
    simulate_serving,
)
from repro.workloads import (
    FAULT_SCENARIOS,
    alexnet_conv_specs,
    fault_scenario,
    mmpp_arrivals,
    poisson_arrivals,
    serving_batch,
    serving_network,
)


def mixed_schedule(num_cores: int, horizon_s: float) -> FaultSchedule:
    """A schedule exercising every fault kind across the cores."""
    return FaultSchedule(
        name="mixed",
        events=(
            FaultEvent("thermal_ramp", 0, 0.1 * horizon_s, 0.3 / horizon_s),
            FaultEvent(
                "crosstalk",
                1 % num_cores,
                0.2 * horizon_s,
                0.2,
                duration_s=0.3 * horizon_s,
            ),
            FaultEvent(
                "dead_rings",
                (num_cores - 1),
                0.5 * horizon_s,
                1.0,
                rings=(7, 6),
            ),
            FaultEvent(
                "stuck_rings", 0, 0.3 * horizon_s, 1.0, rings=(5,)
            ),
            FaultEvent(
                "tia_droop",
                1 % num_cores,
                0.1 * horizon_s,
                0.2,
                duration_s=0.5 * horizon_s,
            ),
        ),
    )


class TestZeroMagnitudeBitIdentity:
    """scaled(0) must be indistinguishable from no schedule at all."""

    def test_simulator_bit_identical_to_fault_free(self):
        specs = alexnet_conv_specs()
        model = PipelineServiceModel.from_specs(specs, 3)
        policy = BatchingPolicy.dynamic(8, 1e-3)
        arrivals = poisson_arrivals(5000.0, 1500, seed=11)
        horizon = float(arrivals[-1])

        base = ServingSimulator(model, policy).run(arrivals)
        zero = DegradedServingSimulator(
            model,
            policy,
            mixed_schedule(3, horizon).scaled(0.0),
            recalibration=RecalibrationPolicy(),
            specs=specs,
        ).run(arrivals)

        assert np.array_equal(base.arrival_s, zero.arrival_s)
        assert np.array_equal(base.dispatch_s, zero.dispatch_s)
        assert np.array_equal(base.completion_s, zero.completion_s)
        assert base.batches == zero.batches
        assert base.core_busy_s == zero.core_busy_s
        assert base.p50_s == zero.p50_s
        assert base.p99_s == zero.p99_s
        # And the degradation side reports a perfectly healthy run.
        assert zero.accuracy_proxy.max() < 1e-5
        assert zero.recalibrations == ()
        assert zero.repartitions == ()
        assert zero.core_downtime_s == (0.0, 0.0, 0.0)
        assert all(a == 1.0 for a in zero.availability)
        assert np.all(zero.batch_num_cores == 3)

    def test_engine_replay_bit_identical_to_fault_free(self):
        network = serving_network("lenet5")
        requests = 10
        inputs = serving_batch(network, requests, seed=9)
        arrivals = poisson_arrivals(3e4, requests, seed=8)
        policy = BatchingPolicy.dynamic(4, 1e-4)
        horizon = float(arrivals[-1])

        base = simulate_serving(network, arrivals, policy, num_cores=2)
        zero = simulate_degraded_serving(
            network,
            arrivals,
            policy,
            mixed_schedule(2, horizon).scaled(0.0),
            num_cores=2,
            recalibration=RecalibrationPolicy(),
        )
        assert base.batches == zero.batches

        base_outputs = replay_on_engine(network, base, inputs)
        degraded = replay_on_engine_degraded(network, zero, inputs)
        assert np.array_equal(degraded.outputs, base_outputs)
        assert np.array_equal(degraded.reference_outputs, base_outputs)
        assert degraded.max_divergence == 0.0

    def test_zero_scaling_is_exact_for_every_kind(self):
        """Every event survives scaling (same kinds, cores, onsets) with
        exactly zero magnitude — the schedule stays structurally rich."""
        schedule = mixed_schedule(3, 1.0)
        zero = schedule.scaled(0.0)
        assert len(zero.events) == len(schedule.events)
        for original, scaled in zip(schedule.events, zero.events):
            assert scaled.kind == original.kind
            assert scaled.core == original.core
            assert scaled.onset_s == original.onset_s
            assert scaled.magnitude == 0.0
            assert scaled.affected_rings == ()


class TestMonotoneDriftWorsensAccuracy:
    @staticmethod
    def _run(rate: float, arrivals: np.ndarray):
        network = serving_network("lenet5")
        return simulate_degraded_serving(
            network,
            arrivals,
            BatchingPolicy.dynamic(4, 1e-4),
            FaultSchedule.uniform_drift(rate, 2),
            num_cores=2,
            recalibration=None,
            repartition=False,
        )

    def test_faster_drift_strictly_worse_proxy(self):
        arrivals = poisson_arrivals(3e4, 12, seed=8)
        horizon = float(arrivals[-1])
        rates = [0.0, 0.05 / horizon, 0.2 / horizon, 1.0 / horizon]
        proxies = [self._run(rate, arrivals).mean_accuracy_proxy for rate in rates]
        for slower, faster in zip(proxies, proxies[1:]):
            assert faster > slower

    def test_proxy_trajectory_never_improves_without_recalibration(self):
        arrivals = poisson_arrivals(3e4, 20, seed=4)
        horizon = float(arrivals[-1])
        report = self._run(0.5 / horizon, arrivals)
        trajectory = report.accuracy_proxy
        assert np.all(np.diff(trajectory) >= 0.0)
        assert trajectory[-1] > trajectory[0]

    def test_replay_divergence_grows_with_drift(self):
        network = serving_network("lenet5")
        inputs = serving_batch(network, 12, seed=5)
        arrivals = poisson_arrivals(3e4, 12, seed=8)
        horizon = float(arrivals[-1])
        divergences = []
        # Rates inside the responsive regime: LeNet's softmax output
        # bounds the divergence, which saturates near 0.25 beyond this.
        for rate in [0.0, 0.005 / horizon, 0.02 / horizon]:
            report = self._run(rate, arrivals)
            replay = replay_on_engine_degraded(network, report, inputs)
            divergences.append(replay.max_divergence)
        assert divergences[0] == 0.0
        assert divergences[1] > 0.0
        assert divergences[2] > divergences[1]


class TestRecalibrationStrictlyHelps:
    def test_sweep_with_recalibration_beats_without(self):
        """The acceptance sweep: at every drift rate, recalibration gives
        a strictly better accuracy proxy, and its downtime is visible in
        per-core availability (and only there — the no-recal column pays
        none)."""
        specs = alexnet_conv_specs()
        arrivals = poisson_arrivals(6000.0, 1200, seed=3)
        horizon = float(arrivals[-1])
        rates = [0.1 / horizon, 0.3 / horizon]
        points = sweep_fault_tolerance(
            specs,
            BatchingPolicy.dynamic(8, 1e-3),
            rates,
            [None, RecalibrationPolicy()],
            arrivals,
            num_cores=3,
        )
        assert len(points) == 4
        by_cell = {
            (point.drift_rate_k_per_s, point.recalibration): point
            for point in points
        }
        for rate in rates:
            none = by_cell[(rate, "none")]
            recal = by_cell[(rate, "recal")]
            assert recal.mean_accuracy_proxy < none.mean_accuracy_proxy
            assert recal.report.final_accuracy_proxy < (
                none.report.final_accuracy_proxy
            )
            # Downtime is real and visible: availability dips below 1
            # exactly when recalibrations happened.
            assert len(recal.report.recalibrations) > 0
            assert recal.min_availability < 1.0
            assert all(d > 0.0 for d in recal.report.core_downtime_s)
            assert none.report.recalibrations == ()
            assert all(a == 1.0 for a in none.report.availability)

    def test_recalibration_downtime_shifts_completions(self):
        """Downtime rides the shared clock: the recalibrating run's
        completions lag the no-recalibration run's."""
        network = serving_network("lenet5")
        arrivals = poisson_arrivals(3e4, 20, seed=4)
        horizon = float(arrivals[-1])
        schedule = FaultSchedule.uniform_drift(0.3 / horizon, 2)
        args = (network, arrivals, BatchingPolicy.dynamic(4, 1e-4), schedule)
        none = simulate_degraded_serving(
            *args, num_cores=2, recalibration=None, repartition=False
        )
        recal = simulate_degraded_serving(
            *args,
            num_cores=2,
            recalibration=RecalibrationPolicy(),
            repartition=False,
        )
        assert len(recal.recalibrations) > 0
        assert np.all(recal.completion_s >= none.completion_s)
        assert recal.completion_s.max() > none.completion_s.max()


class TestRecalibrationCompensatesReplay:
    def test_tia_droop_compensation_reaches_the_replay(self):
        """Regression: a successful recalibration absorbs TIA droop via
        the command boost, so the degraded replay must apply only the
        *residual* gain — a batch whose proxy recalibration restored to
        ~0 used to still diverge by the full raw droop."""
        network = serving_network("lenet5")
        inputs = serving_batch(network, 12, seed=3)
        arrivals = poisson_arrivals(2e4, 12, seed=1)
        horizon = float(arrivals[-1])
        schedule = fault_scenario("tia-aging", 2, horizon)
        args = (network, arrivals, BatchingPolicy.dynamic(4, 1e-4), schedule)
        recal = simulate_degraded_serving(
            *args,
            num_cores=2,
            recalibration=RecalibrationPolicy(),
            repartition=False,
        )
        none = simulate_degraded_serving(
            *args, num_cores=2, recalibration=None, repartition=False
        )
        recal_replay = replay_on_engine_degraded(network, recal, inputs)
        none_replay = replay_on_engine_degraded(network, none, inputs)
        # Restored batches replay clean: divergence 0 where proxy ~ 0.
        restored = recal.accuracy_proxy < 1e-6
        assert restored.any()
        assert np.all(recal_replay.divergence_per_batch[restored] == 0.0)
        # And overall the recalibrated run diverges strictly less.
        assert recal_replay.max_divergence < none_replay.max_divergence


class TestFaultAwareRepartitioning:
    def test_dead_core_is_drained_and_pipeline_narrows(self):
        specs = alexnet_conv_specs()
        model = PipelineServiceModel.from_specs(specs, 3)
        policy = BatchingPolicy.dynamic(8, 1e-3)
        arrivals = poisson_arrivals(5000.0, 800, seed=6)
        horizon = float(arrivals[-1])
        schedule = fault_scenario("ring-death", 3, horizon)
        report = DegradedServingSimulator(
            model,
            policy,
            schedule,
            recalibration=RecalibrationPolicy(),
            specs=specs,
        ).run(arrivals)
        assert len(report.repartitions) == 1
        event = report.repartitions[0]
        assert event.failed_cores == (2,)
        assert event.num_cores_after == 2
        # The pipeline narrows mid-run and stays narrow.
        assert report.batch_num_cores[0] == 3
        assert report.batch_num_cores[-1] == 2
        assert np.all(np.diff(report.batch_num_cores) <= 0)
        # After the drain the proxy recovers (dead core excluded).
        assert report.accuracy_proxy[-1] < 1e-5
        # Requests are conserved through the repartition.
        assert sum(batch.size for batch in report.batches) == 800

    def test_drained_core_error_reports_end_of_run_state(self):
        """A drained core's hardware keeps degrading on the schedule;
        final_core_errors must report the end-of-run error, not the
        drain-time snapshot."""
        specs = alexnet_conv_specs()
        model = PipelineServiceModel.from_specs(specs, 2)
        arrivals = poisson_arrivals(5000.0, 600, seed=6)
        horizon = float(arrivals[-1])
        # Core 1 dies early AND keeps drifting after it is drained.
        schedule = FaultSchedule(
            "death+ramp",
            (
                FaultEvent(
                    "dead_rings", 1, 0.1 * horizon, 1.0, rings=(7,)
                ),
                FaultEvent("thermal_ramp", 1, 0.1 * horizon, 2.0 / horizon),
            ),
        )
        report = DegradedServingSimulator(
            model,
            BatchingPolicy.dynamic(8, 1e-3),
            schedule,
            specs=specs,
        ).run(arrivals)
        assert len(report.repartitions) == 1
        drain_time = report.repartitions[0].time_s
        final_time = report.batches[-1].dispatch_s
        assert final_time > drain_time
        # Recompute both instants on a fresh state machine: the report
        # must carry the end-of-run error, not the drain-time snapshot.
        probe = CoreHealthState(1, schedule)
        probe.advance_to(drain_time)
        drain_error = probe.error
        probe.advance_to(final_time)
        assert report.final_core_errors[1] == probe.error
        assert report.final_core_errors[1] != drain_error

    def test_core_exactly_at_the_fail_threshold_is_drained(self):
        """The failing-core test is inclusive: a core whose error equals
        the threshold is drained, one just below it is not."""
        specs = alexnet_conv_specs()
        arrivals = poisson_arrivals(5000.0, 400, seed=6)
        onset = 0.3 * float(arrivals[-1])
        # Dead rings step the error once; without recalibration it then
        # holds exactly, so the threshold can equal it bit for bit.
        schedule = FaultSchedule(
            "death", (FaultEvent("dead_rings", 1, onset, 1.0, rings=(7,)),)
        )
        probe = CoreHealthState(1, schedule)
        probe.advance_to(onset)
        error = probe.error

        def serve(threshold):
            return DegradedServingSimulator(
                PipelineServiceModel.from_specs(specs, 3),
                BatchingPolicy.dynamic(8, 1e-3),
                schedule,
                specs=specs,
                fail_error_threshold=threshold,
            ).run(arrivals)

        drained = serve(error)
        assert [r.failed_cores for r in drained.repartitions] == [(1,)]
        assert drained.repartitions[0].time_s >= onset
        kept = serve(float(np.nextafter(error, np.inf)))
        assert kept.repartitions == ()

    def test_repartition_disabled_serves_degraded(self):
        specs = alexnet_conv_specs()
        model = PipelineServiceModel.from_specs(specs, 3)
        arrivals = poisson_arrivals(5000.0, 400, seed=6)
        horizon = float(arrivals[-1])
        schedule = fault_scenario("ring-death", 3, horizon)
        report = DegradedServingSimulator(
            model,
            BatchingPolicy.dynamic(8, 1e-3),
            schedule,
            recalibration=None,
            specs=None,
        ).run(arrivals)
        assert report.repartitions == ()
        assert np.all(report.batch_num_cores == 3)
        # The dead rings stay in the serving pipeline: proxy ends high.
        assert report.final_accuracy_proxy > 1.0


class TestDegradedReplayValidation:
    def test_replay_validates_inputs(self):
        network = serving_network("lenet5")
        arrivals = poisson_arrivals(1e4, 4, seed=0)
        report = simulate_degraded_serving(
            network,
            arrivals,
            BatchingPolicy.fifo(),
            FaultSchedule.none(),
            num_cores=1,
        )
        with pytest.raises(ValueError, match="one input per"):
            replay_on_engine_degraded(
                network, report, np.zeros((3, *network.input_shape))
            )


def _same_serving(cluster_report, degraded, tenant="pipeline") -> None:
    """A one-tenant cluster report equals a degraded single-pipeline run."""
    lane = cluster_report.tenant(tenant)
    assert lane.num_shed == 0
    assert lane.arrival_s.tobytes() == degraded.arrival_s.tobytes()
    assert lane.dispatch_s.tobytes() == degraded.dispatch_s.tobytes()
    assert lane.completion_s.tobytes() == degraded.completion_s.tobytes()
    assert tuple(lane.batches) == tuple(degraded.batches)
    assert lane.core_busy_s == degraded.core_busy_s
    assert lane.accuracy_proxy.tobytes() == degraded.accuracy_proxy.tobytes()
    assert np.array_equal(lane.batch_num_cores, degraded.batch_num_cores)
    assert cluster_report.core_downtime_s == degraded.core_downtime_s
    assert cluster_report.recalibrations == degraded.recalibrations
    assert cluster_report.final_core_errors == degraded.final_core_errors


class TestSingleTenantFaultPin:
    """One faulted tenant on the cluster loop is the single-pipeline
    degraded simulator, byte for byte, on every stream and record."""

    NUM_CORES = 2

    def serve_both(self, scenario, policy, recalibration):
        from repro.core.cluster import ClusterTenant, simulate_cluster_serving

        network = serving_network("lenet5")
        arrivals = poisson_arrivals(2e4, 1500, seed=17)
        schedule = fault_scenario(
            scenario, self.NUM_CORES, float(arrivals[-1])
        )
        cluster = simulate_cluster_serving(
            [ClusterTenant.from_network("pipeline", network, policy)],
            {"pipeline": arrivals},
            pool_size=self.NUM_CORES,
            schedule=schedule,
            recalibration=recalibration,
        )
        return cluster, network, arrivals, schedule

    @pytest.mark.parametrize(
        "policy",
        [
            BatchingPolicy.dynamic(4, 1e-4),
            BatchingPolicy.fifo(),
            BatchingPolicy.fixed(4),
        ],
        ids=["dynamic", "fifo", "fixed"],
    )
    @pytest.mark.parametrize("scenario", FAULT_SCENARIOS)
    def test_static_recalibration(self, scenario, policy):
        recalibration = RecalibrationPolicy(error_threshold=0.05)
        cluster, network, arrivals, schedule = self.serve_both(
            scenario, policy, recalibration
        )
        degraded = simulate_degraded_serving(
            network,
            arrivals,
            policy,
            schedule,
            self.NUM_CORES,
            recalibration=recalibration,
            repartition=False,
        )
        assert degraded.repartitions == ()
        _same_serving(cluster, degraded)

    def test_frozen_adaptive_recalibration(self):
        from repro.core.adaptive import (
            AdaptiveRecalibration,
            simulate_adaptive_serving,
        )

        controller = AdaptiveRecalibration.frozen(
            RecalibrationPolicy(error_threshold=0.05)
        )
        policy = BatchingPolicy.dynamic(4, 1e-4)
        cluster, network, arrivals, schedule = self.serve_both(
            "tia-aging", policy, controller
        )
        adaptive = simulate_adaptive_serving(
            network,
            arrivals,
            policy,
            schedule,
            self.NUM_CORES,
            controller,
            repartition=False,
        )
        assert adaptive.recalibrations
        _same_serving(cluster, adaptive)


class TestPristineLoneLanePin:
    """A pristine lone lane of the lane event loop is the fault-free
    kernel on every path, byte for byte, on every stream and ledger."""

    @pytest.mark.parametrize(
        "policy",
        [
            BatchingPolicy.fifo(),
            BatchingPolicy.dynamic(8, 1e-4),
            BatchingPolicy.fixed(4),
        ],
        ids=["fifo", "dynamic", "fixed"],
    )
    @pytest.mark.parametrize("cores", [1, 3, 4])
    @pytest.mark.parametrize("trace", ["poisson", "mmpp"])
    def test_matches_the_kernel(self, trace, cores, policy):
        from repro.core.cluster import _lone_lane, _serve_lanes, _TenantLane
        from repro.core.simkernel import EventLoopKernel

        model = PipelineServiceModel.from_specs(alexnet_conv_specs(), cores)
        capacity = model.capacity_rps(policy.max_batch)
        if trace == "poisson":
            arrivals = poisson_arrivals(1.5 * capacity, 3000, seed=cores)
        else:
            arrivals = mmpp_arrivals(
                0.5 * capacity, 4.0 * capacity, 3000, 200 / capacity, seed=cores
            )
        lane = _TenantLane(
            0,
            "pipeline",
            None,
            policy,
            arrivals,
            model,
            list(range(cores)),
            cores,
            None,
        )
        _serve_lanes([lane], None, _lone_lane)
        fields = lane.serving_fields()
        for oracle in (nullcontext(), reference_loops()):
            with oracle:
                run = EventLoopKernel(model, policy).run(arrivals)
            assert run.dispatch_s.tobytes() == fields["dispatch_s"].tobytes()
            assert (
                run.completion_s.tobytes() == fields["completion_s"].tobytes()
            )
            assert run.batches == lane.batches
            assert repr(run.core_busy_s) == repr(tuple(lane.core_busy))


REPARTITION_DIGEST = (
    "53fc7c6d8640245bedaea0528d2dd453f556eda2a27b13c7b995e59158ffe0fd"
)
"""sha256 of the ring-death repartitioning run below, as first recorded."""


def test_repartitioning_run_digest_is_pinned():
    """Byte pin of a run that drains a dead core and re-partitions."""
    import dataclasses
    import hashlib

    specs = alexnet_conv_specs()
    arrivals = poisson_arrivals(5000.0, 800, seed=6)
    report = DegradedServingSimulator(
        PipelineServiceModel.from_specs(specs, 3),
        BatchingPolicy.dynamic(8, 1e-3),
        fault_scenario("ring-death", 3, float(arrivals[-1])),
        recalibration=RecalibrationPolicy(),
        specs=specs,
    ).run(arrivals)
    assert len(report.repartitions) == 1
    digest = hashlib.sha256()
    for part in (
        [dataclasses.astuple(batch) for batch in report.batches],
        report.batch_num_cores.tolist(),
        report.accuracy_proxy.tobytes(),
        report.completion_s.tobytes(),
        report.core_busy_s,
        report.core_downtime_s,
        report.final_core_errors,
        [dataclasses.astuple(r) for r in report.recalibrations],
        [dataclasses.astuple(r) for r in report.repartitions],
        [
            [dataclasses.astuple(snapshot) for snapshot in snapshots]
            for snapshots in report.batch_snapshots
        ],
    ):
        digest.update(part if isinstance(part, bytes) else repr(part).encode())
    assert digest.hexdigest() == REPARTITION_DIGEST


def _lone_lane_oracle(model, policy, arrivals, schedule, recalibration, specs):
    """The per-dispatch lane loop serving what serve_pipeline serves."""
    from repro.core.cluster import _lone_lane, _serve_lanes, _TenantLane
    from repro.core.faults import PoolHealth

    width = model.num_cores
    health = PoolHealth(schedule, width, recalibration)
    lane = _TenantLane(
        0,
        "pipeline",
        specs,
        policy,
        arrivals,
        model,
        list(range(width)),
        width,
        None,
        fail_error_threshold=0.5,
        record_snapshots=True,
    )
    _serve_lanes([lane], health, _lone_lane)
    return lane, health


def _serve_both(model, policy, arrivals, schedule, recalibration, specs):
    """serve_pipeline and its per-dispatch oracle on the same inputs."""
    from repro.core.cluster import serve_pipeline
    from repro.core.faults import PoolHealth

    health = PoolHealth(schedule, model.num_cores, recalibration)
    lane = serve_pipeline(model, policy, arrivals, health, specs, None, 0.5)
    oracle, oracle_health = _lone_lane_oracle(
        model, policy, arrivals, schedule, recalibration, specs
    )
    fields, oracle_fields = lane.serving_fields(), oracle.serving_fields()
    for stream in ("dispatch_s", "completion_s"):
        assert fields[stream].tobytes() == oracle_fields[stream].tobytes()
    assert repr(lane.batches.records) == repr(oracle.batches.records)
    assert repr(lane.core_busy) == repr(oracle.core_busy)
    assert repr(lane.core_free) == repr(oracle.core_free)
    assert lane.widths.tobytes() == oracle.widths.tobytes()
    assert lane.proxies.tobytes() == oracle.proxies.tobytes()
    assert len(lane.snapshots) == len(oracle.snapshots) == lane.num_batches
    assert repr(tuple(lane.snapshots)) == repr(tuple(oracle.snapshots))
    assert repr(lane.repartitions) == repr(oracle.repartitions)
    assert repr(health.recalibrations) == repr(oracle_health.recalibrations)
    assert repr(health.downtime) == repr(oracle_health.downtime)
    assert repr([state.error for state in health.states]) == repr(
        [state.error for state in oracle_health.states]
    )
    return oracle, oracle_health


class TestEpochLanePin:
    """serve_pipeline runs the lone faulted lane in epochs between fault
    actions; the per-dispatch lane loop is its oracle, on every stream
    and record, field types included (digests hash their repr)."""

    @given(
        seed=st.integers(0, 10_000),
        cores=st.integers(1, 3),
        events=st.integers(1, 4),
        drift=st.floats(0.0, 40.0),
        policy=st.sampled_from(
            [
                BatchingPolicy.fifo(),
                BatchingPolicy.dynamic(4, 1e-4),
                BatchingPolicy.dynamic(8, 1e-3),
                BatchingPolicy.fixed(4),
            ]
        ),
        threshold=st.sampled_from([None, 1e-6, 1e-3, 0.05]),
        requests=st.integers(50, 600),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_the_lane_loop(
        self, seed, cores, events, drift, policy, threshold, requests
    ):
        specs = alexnet_conv_specs()
        arrivals = poisson_arrivals(2e4, requests, seed=seed)
        schedule = FaultSchedule.random(
            seed,
            cores,
            float(arrivals[-1]),
            events_per_core=events,
            max_drift_k_per_s=drift / float(arrivals[-1]),
        )
        recalibration = (
            None
            if threshold is None
            else RecalibrationPolicy(error_threshold=threshold)
        )
        _serve_both(
            PipelineServiceModel.from_specs(specs, cores),
            policy,
            arrivals,
            schedule,
            recalibration,
            specs,
        )

    ARRIVALS = poisson_arrivals(2e4, 1500, seed=17)
    HORIZON = float(ARRIVALS[-1])

    def serve(self, schedule, recalibration, cores=3):
        specs = alexnet_conv_specs()
        return _serve_both(
            PipelineServiceModel.from_specs(specs, cores),
            BatchingPolicy.dynamic(4, 1e-4),
            self.ARRIVALS,
            schedule,
            recalibration,
            specs,
        )

    def test_exhausted_core_rearms_after_an_excursion(self):
        """Cut kind: an exhausted core re-arming.  A crosstalk excursion
        exhausts recalibration; its end re-arms it, and the stale
        compensation triggers again.  One core, so no drain (which
        needs a survivor) can cut there instead."""
        schedule = FaultSchedule(
            "excursion",
            (
                FaultEvent(
                    "crosstalk",
                    0,
                    0.2 * self.HORIZON,
                    0.3,
                    duration_s=0.3 * self.HORIZON,
                ),
            ),
        )
        _, health = self.serve(schedule, RecalibrationPolicy(), cores=1)
        exhausted = [
            i for i, r in enumerate(health.recalibrations) if not r.restored
        ]
        assert exhausted and exhausted[0] < len(health.recalibrations) - 1

    def test_failing_core_is_drained(self):
        """Cut kind: some but not all cores past the fail threshold.
        Without recalibration no trigger can cut at the same dispatch."""
        schedule = fault_scenario("ring-death", 3, self.HORIZON)
        oracle, _ = self.serve(schedule, None)
        assert len(oracle.repartitions) == 1

    def test_every_core_failing_is_not_a_cut(self):
        """All cores past the fail threshold leave nowhere to drain to,
        so the lane runs on in epochs."""
        schedule = FaultSchedule(
            "all-dead",
            tuple(
                FaultEvent(
                    "dead_rings", core, 0.3 * self.HORIZON, 1.0, rings=(7,)
                )
                for core in range(2)
            ),
        )
        oracle, _ = self.serve(schedule, None, cores=2)
        assert oracle.repartitions == []
        assert oracle.proxies.max() >= 0.5

    def test_dense_triggers(self):
        """Cut kind: the trigger at almost every dispatch."""
        schedule = fault_scenario("slow-drift", 2, self.HORIZON)
        _, health = self.serve(
            schedule, RecalibrationPolicy(error_threshold=1e-6), cores=2
        )
        assert len(health.recalibrations) > 100
