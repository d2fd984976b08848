"""Tests for the adaptive control plane (core/adaptive.py).

The load-bearing suite: differential pins proving every controller at
its frozen/degenerate setting is bit-identical to the static policy it
subsumes, monotonicity pins for the cost gates, edge cases for the
controller inputs, and the machine-checkable dominance gate of the
policy-evaluation harness.
"""

import math
from functools import partial

import numpy as np
import pytest

from repro.analysis import (
    ADAPTIVE_SWEEP_HEADER,
    POLICY_EVAL_HEADER,
    DominanceReport,
    EvalScenario,
    PolicySpec,
    default_policy_grid,
    default_scenarios,
    evaluate_dominance,
    evaluate_policy,
    evaluate_policy_grid,
    pareto_front,
    sweep_adaptive_recalibration,
)
from repro.core.adaptive import (
    DECISION_ACTIONS,
    AdaptiveRecalibration,
    BurnRateAdmission,
    EwmaRecalDecider,
    PressureController,
    simulate_adaptive_serving,
)
from repro.core.cluster import (
    ClusterSimulator,
    ClusterTenant,
    ElasticReallocation,
    simulate_cluster_serving,
)
from repro.core.faults import (
    FaultSchedule,
    RecalibrationPolicy,
    simulate_degraded_serving,
)
from repro.core.fleet import FleetAutoscaler
from repro.core.simkernel import BatchingPolicy
from repro.workloads import (
    cluster_mix,
    fault_scenario,
    poisson_arrivals,
    serving_network,
)

LENET = serving_network("lenet5")
POLICY = BatchingPolicy.dynamic(4, 1e-4)
RECAL = RecalibrationPolicy(error_threshold=0.05)


def drift_schedule(arrivals, num_cores=2, total_k=0.3):
    horizon = float(arrivals[-1])
    return FaultSchedule.uniform_drift(total_k / horizon, num_cores)


def assert_serving_reports_identical(static, adaptive):
    """Every float stream and record of the two runs must match."""
    for name in ("arrival_s", "dispatch_s", "completion_s"):
        np.testing.assert_array_equal(
            getattr(static, name), getattr(adaptive, name)
        )
    assert tuple(static.batches) == tuple(adaptive.batches)
    assert static.core_busy_s == adaptive.core_busy_s
    np.testing.assert_array_equal(
        static.accuracy_proxy, adaptive.accuracy_proxy
    )
    np.testing.assert_array_equal(
        static.batch_num_cores, adaptive.batch_num_cores
    )
    assert static.batch_snapshots == adaptive.batch_snapshots
    assert static.core_downtime_s == adaptive.core_downtime_s
    assert static.final_core_errors == adaptive.final_core_errors
    assert static.recalibrations == adaptive.recalibrations
    assert static.repartitions == adaptive.repartitions


def assert_cluster_reports_identical(static, adaptive):
    assert static.core_downtime_s == adaptive.core_downtime_s
    assert static.final_core_errors == adaptive.final_core_errors
    assert static.recalibrations == adaptive.recalibrations
    assert static.reallocations == adaptive.reallocations
    for left in static.tenants:
        right = next(
            t for t in adaptive.tenants if t.tenant == left.tenant
        )
        for name in (
            "arrival_s",
            "dispatch_s",
            "completion_s",
            "offered_arrival_s",
            "shed_arrival_s",
            "accuracy_proxy",
            "batch_num_cores",
        ):
            np.testing.assert_array_equal(
                getattr(left, name), getattr(right, name)
            )
        assert tuple(left.batches) == tuple(right.batches)
        assert left.core_busy_s == right.core_busy_s


# Every controller float field, with the other required arguments bound.
FLOAT_FIELDS = [
    (partial(AdaptiveRecalibration, RECAL), "smoothing"),
    (partial(AdaptiveRecalibration, RECAL), "lead_time_s"),
    (partial(AdaptiveRecalibration, RECAL), "hold_ceiling"),
    (partial(AdaptiveRecalibration, RECAL), "downtime_budget_s"),
    (partial(BurnRateAdmission), "slo_latency_s"),
    (partial(BurnRateAdmission, 1e-3), "max_burn_rate"),
    (partial(PressureController, ElasticReallocation()), "gain"),
    (partial(ElasticReallocation), "pressure_ratio"),
    (partial(FleetAutoscaler), "epoch_s"),
    (partial(FleetAutoscaler, 1e-3), "warmup_s"),
    (partial(FleetAutoscaler, 1e-3), "burn_up"),
    (partial(FleetAutoscaler, 1e-3, burn_up=2.0), "burn_down"),
]


class TestControllerValidation:
    def test_recalibration_gains(self):
        for bad in (0.0, -0.1, 1.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="smoothing"):
                AdaptiveRecalibration(base=RECAL, smoothing=bad)
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="lead time"):
                AdaptiveRecalibration(base=RECAL, lead_time_s=bad)
        with pytest.raises(ValueError, match="pressure hold"):
            AdaptiveRecalibration(base=RECAL, pressure_hold=0)
        for bad in (0.5, -1.0, math.nan):
            with pytest.raises(ValueError, match="hold ceiling"):
                AdaptiveRecalibration(base=RECAL, hold_ceiling=bad)
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="downtime budget"):
                AdaptiveRecalibration(base=RECAL, downtime_budget_s=bad)

    def test_burn_rate_gains(self):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="SLO latency"):
                BurnRateAdmission(slo_latency_s=bad)
        for bad in (-0.5, math.nan):
            with pytest.raises(ValueError, match="burn rate"):
                BurnRateAdmission(slo_latency_s=1e-3, max_burn_rate=bad)
        with pytest.raises(ValueError, match="window"):
            BurnRateAdmission(slo_latency_s=1e-3, window=0)
        with pytest.raises(ValueError, match="queue cap"):
            BurnRateAdmission(slo_latency_s=1e-3, queue_cap=0)

    def test_pressure_gains(self):
        for bad in (-0.25, math.nan, math.inf):
            with pytest.raises(ValueError, match="gain"):
                PressureController(base=ElasticReallocation(), gain=bad)

    @pytest.mark.parametrize(
        ("build", "field"),
        FLOAT_FIELDS,
        ids=[f"{build.func.__name__}.{field}" for build, field in FLOAT_FIELDS],
    )
    def test_float_fields_reject_bools(self, build, field):
        """A bool compares as 0 or 1, so ``True`` would pass every
        range check above and serve as a gain of one."""
        for value in (True, False):
            with pytest.raises(ValueError):
                build(**{field: value})

    def test_frozen_settings_are_valid(self):
        frozen = AdaptiveRecalibration.frozen(RECAL)
        assert frozen.smoothing == 1.0
        assert frozen.lead_time_s == 0.0
        assert frozen.pressure_hold is None
        assert math.isinf(frozen.downtime_budget_s)
        assert BurnRateAdmission.disabled().enabled is False
        assert PressureController.inert().gain == 0.0


class TestFrozenServingPin:
    """Frozen EWMA controller ≡ static RecalibrationPolicy, bit-exact."""

    def test_frozen_matches_static(self):
        arrivals = poisson_arrivals(2e4, 96, seed=0)
        schedule = drift_schedule(arrivals)
        static = simulate_degraded_serving(
            LENET, arrivals, POLICY, schedule, 2, recalibration=RECAL
        )
        adaptive = simulate_adaptive_serving(
            LENET,
            arrivals,
            POLICY,
            schedule,
            2,
            controller=AdaptiveRecalibration.frozen(RECAL),
        )
        assert_serving_reports_identical(static, adaptive)
        assert static.recalibrations  # the pin must exercise recals
        assert len(adaptive.decisions) == len(adaptive.recalibrations)
        assert all(
            d.action == "recalibrate" for d in adaptive.decisions
        )
        # Frozen estimator: the projection is the raw error, bit-exact.
        assert all(
            d.projected == d.error and d.smoothed == d.error
            for d in adaptive.decisions
        )

    def test_frozen_matches_static_on_scenarios(self):
        arrivals = poisson_arrivals(2e4, 48, seed=4)
        horizon = float(arrivals[-1])
        for name in ("tia-aging", "tia-burnin", "crosstalk-blip"):
            schedule = fault_scenario(name, 2, horizon)
            static = simulate_degraded_serving(
                LENET, arrivals, POLICY, schedule, 2, recalibration=RECAL
            )
            adaptive = simulate_adaptive_serving(
                LENET,
                arrivals,
                POLICY,
                schedule,
                2,
                controller=AdaptiveRecalibration.frozen(RECAL),
            )
            assert_serving_reports_identical(static, adaptive)

    def test_zero_downtime_recalibration(self):
        free = RecalibrationPolicy(
            error_threshold=0.05, iteration_time_s=0.0, overhead_s=0.0
        )
        arrivals = poisson_arrivals(2e4, 48, seed=1)
        schedule = drift_schedule(arrivals)
        static = simulate_degraded_serving(
            LENET, arrivals, POLICY, schedule, 2, recalibration=free
        )
        adaptive = simulate_adaptive_serving(
            LENET,
            arrivals,
            POLICY,
            schedule,
            2,
            controller=AdaptiveRecalibration.frozen(free),
        )
        assert_serving_reports_identical(static, adaptive)
        assert static.core_downtime_s == (0.0, 0.0)
        assert static.recalibrations

    def test_report_surface(self):
        arrivals = poisson_arrivals(2e4, 48, seed=2)
        schedule = drift_schedule(arrivals)
        report = simulate_adaptive_serving(
            LENET,
            arrivals,
            POLICY,
            schedule,
            2,
            controller=AdaptiveRecalibration(base=RECAL, smoothing=0.3),
        )
        text = report.describe()
        assert "controller" in text
        assert "deferred" in text
        assert report.num_deferrals == len(
            [d for d in report.decisions if d.action != "recalibrate"]
        )
        assert all(
            d.action in DECISION_ACTIONS for d in report.decisions
        )


class TestClusterPins:
    """Cluster-level frozen pins: recal, admission, and elastic."""

    @staticmethod
    def _mix(num_requests=64):
        return cluster_mix(
            "interactive-batch",
            rate_rps=400.0,
            num_requests=num_requests,
            seed=1,
        )

    def test_frozen_recal_and_inert_pressure(self):
        tenants, arrivals = self._mix()
        horizon = max(float(a[-1]) for a in arrivals.values())
        schedule = fault_scenario("slow-drift", 6, horizon)
        elastic = ElasticReallocation(pressure_ratio=4.0, min_queue=16)
        static = simulate_cluster_serving(
            tenants,
            arrivals,
            pool_size=6,
            elastic=elastic,
            schedule=schedule,
            recalibration=RECAL,
        )
        adaptive = simulate_cluster_serving(
            tenants,
            arrivals,
            pool_size=6,
            elastic=PressureController.inert(elastic),
            schedule=schedule,
            recalibration=AdaptiveRecalibration.frozen(RECAL),
        )
        assert_cluster_reports_identical(static, adaptive)
        assert static.recalibrations  # the pin must exercise recals

    def test_disabled_burn_matches_occupancy_cap(self):
        tenants, arrivals = self._mix()
        horizon = max(float(a[-1]) for a in arrivals.values())
        schedule = fault_scenario("slow-drift", 6, horizon)
        admission = {
            t.name: BurnRateAdmission.disabled(queue_cap=t.queue_cap)
            for t in tenants
        }
        static = simulate_cluster_serving(
            tenants,
            arrivals,
            pool_size=6,
            schedule=schedule,
            recalibration=RECAL,
        )
        adaptive = simulate_cluster_serving(
            tenants,
            arrivals,
            pool_size=6,
            schedule=schedule,
            recalibration=RECAL,
            admission=admission,
        )
        assert_cluster_reports_identical(static, adaptive)

    def test_disabled_burn_preserves_shedding(self):
        # A tight cap sheds; the disabled burn controller must shed the
        # identical arrivals.
        tenants, arrivals = cluster_mix(
            "interactive-batch",
            rate_rps=8000.0,
            num_requests=96,
            seed=1,
        )
        tenants = tuple(
            ClusterTenant(
                t.name, t.specs, t.policy, weight=t.weight, queue_cap=1
            )
            for t in tenants
        )
        admission = {
            t.name: BurnRateAdmission.disabled(queue_cap=1)
            for t in tenants
        }
        static = simulate_cluster_serving(
            tenants, arrivals, pool_size=6
        )
        adaptive = simulate_cluster_serving(
            tenants, arrivals, pool_size=6, admission=admission
        )
        assert sum(t.num_shed for t in static.tenants) > 0
        assert_cluster_reports_identical(static, adaptive)

    def test_enabled_burn_sheds_on_slo(self):
        tenants, arrivals = cluster_mix(
            "interactive-batch",
            rate_rps=8000.0,
            num_requests=96,
            seed=1,
        )
        admission = {
            t.name: BurnRateAdmission(
                slo_latency_s=1e-6, max_burn_rate=0.0, window=8
            )
            for t in tenants
        }
        report = simulate_cluster_serving(
            tenants, arrivals, pool_size=6, admission=admission
        )
        offered = sum(t.num_offered for t in report.tenants)
        served = sum(t.num_requests for t in report.tenants)
        shed = sum(t.num_shed for t in report.tenants)
        assert served + shed == offered
        assert shed > 0  # an impossible SLO must burn and shed

    def test_admission_validation(self):
        tenants, arrivals = self._mix()
        with pytest.raises(ValueError, match="admission"):
            ClusterSimulator(
                tenants,
                6,
                admission={
                    "nobody": BurnRateAdmission.disabled(queue_cap=4)
                },
            )

    def test_pressure_controller_moves_sooner(self):
        base = ElasticReallocation(pressure_ratio=4.0, min_queue=16)
        hot = PressureController(base=base, gain=0.5)
        ratio, min_queue = hot.thresholds(8.0)
        assert ratio < base.pressure_ratio
        assert min_queue < base.min_queue
        assert hot.thresholds(0.0) == (
            base.pressure_ratio,
            base.min_queue,
        )
        calm_ratio, calm_min = PressureController.inert(base).thresholds(
            1e9
        )
        assert (calm_ratio, calm_min) == (
            base.pressure_ratio,
            base.min_queue,
        )


class TestCostGates:
    def test_downtime_budget_binds(self):
        arrivals = poisson_arrivals(2e4, 96, seed=0)
        schedule = drift_schedule(arrivals, total_k=0.6)
        budget = 1e-9
        report = simulate_adaptive_serving(
            LENET,
            arrivals,
            POLICY,
            schedule,
            2,
            controller=AdaptiveRecalibration(
                base=RECAL, smoothing=1.0, downtime_budget_s=budget
            ),
        )
        # One recal fits under the budget; after it the gate defers.
        worst = RECAL.downtime_s(RECAL.max_iterations)
        assert all(
            downtime <= budget + worst
            for downtime in report.core_downtime_s
        )
        assert any(
            d.action == "defer-budget" for d in report.decisions
        )
        per_core = {}
        for record in report.recalibrations:
            per_core[record.core] = per_core.get(record.core, 0) + 1
        assert all(count == 1 for count in per_core.values())

    def test_pressure_hold_defers_under_load(self):
        arrivals = poisson_arrivals(5e4, 96, seed=0)
        schedule = drift_schedule(arrivals, total_k=0.6)
        report = simulate_adaptive_serving(
            LENET,
            arrivals,
            POLICY,
            schedule,
            2,
            controller=AdaptiveRecalibration(
                base=RECAL,
                smoothing=1.0,
                pressure_hold=1,
                hold_ceiling=1e6,
            ),
        )
        assert report.decisions
        assert all(
            d.action == "defer-pressure" and d.queued >= 1
            for d in report.decisions
        )
        assert not report.recalibrations

    def test_adaptive_recal_never_worse_than_no_recal(self):
        # Monotonicity pin: at any downtime budget, folding recals in
        # must not hurt the mean accuracy proxy.
        arrivals = poisson_arrivals(2e4, 96, seed=5)
        schedule = drift_schedule(arrivals, total_k=0.6)
        bare = simulate_degraded_serving(
            LENET, arrivals, POLICY, schedule, 2, recalibration=None
        )
        for budget in (1e-4, 1e-3, math.inf):
            adaptive = simulate_adaptive_serving(
                LENET,
                arrivals,
                POLICY,
                schedule,
                2,
                controller=AdaptiveRecalibration(
                    base=RECAL, smoothing=0.3, downtime_budget_s=budget
                ),
            )
            assert (
                adaptive.mean_accuracy_proxy <= bare.mean_accuracy_proxy
            )


class TestDeciderRuntime:
    def test_single_sample_warmup(self):
        # One observation: level seeds from the raw error, no slope.
        decider = EwmaRecalDecider(
            AdaptiveRecalibration(
                base=RECAL, smoothing=0.3, lead_time_s=1.0
            )
        )
        assert decider.observe(0, 0.04, 1.0) == 0.04

    def test_decisions_deterministic(self):
        controller = AdaptiveRecalibration(
            base=RECAL, smoothing=0.3, lead_time_s=0.01
        )
        samples = [(0, 0.01, 1.0), (0, 0.03, 2.0), (0, 0.06, 3.0)]
        left = controller.decider()
        right = controller.decider()
        for core, error, time_s in samples:
            assert left.observe(core, error, time_s) == right.observe(
                core, error, time_s
            )

    def test_single_batch_run(self):
        # EWMA warmup edge: a one-request trace makes exactly one batch.
        arrivals = np.array([1e-4])
        schedule = FaultSchedule.none()
        report = simulate_adaptive_serving(
            LENET,
            arrivals,
            POLICY,
            schedule,
            2,
            controller=AdaptiveRecalibration(base=RECAL, smoothing=0.3),
        )
        assert report.num_requests == 1
        assert len(report.batches) == 1
        assert report.decisions == ()

    def test_burn_rate_zero_offered_load(self):
        admission = BurnRateAdmission(slo_latency_s=1e-3)
        assert admission.burn_rate(np.array([])) == 0.0
        assert not admission.sheds(admission.burn_rate(np.array([])))

    def test_burn_rate_windowing(self):
        admission = BurnRateAdmission(
            slo_latency_s=1.0, max_burn_rate=0.25, window=4
        )
        latencies = np.array([2.0, 2.0, 0.5, 0.5, 0.5, 0.5])
        assert admission.burn_rate(latencies) == 0.0  # old burn aged out
        assert admission.burn_rate(np.array([0.5, 2.0])) == 0.5
        assert admission.sheds(0.5)
        assert not admission.sheds(0.25)


class TestPolicyEvalHarness:
    def test_validation(self):
        scenario = EvalScenario(
            name="s", fault="slow-drift", mix="interactive-batch"
        )
        with pytest.raises(ValueError, match="scenario"):
            evaluate_policy_grid([], [PolicySpec(name="x")])
        with pytest.raises(ValueError, match="policy"):
            evaluate_policy_grid([scenario], [])
        with pytest.raises(ValueError, match="unique"):
            evaluate_policy_grid(
                [scenario],
                [PolicySpec(name="x"), PolicySpec(name="x")],
            )
        with pytest.raises(ValueError, match="baseline"):
            evaluate_policy_grid(
                [scenario],
                [PolicySpec(name="x", baseline="missing")],
            )
        with pytest.raises(ValueError, match="fault scenario"):
            EvalScenario(name="s", fault="volcano", mix="model-zoo")
        with pytest.raises(ValueError, match="cluster mix"):
            EvalScenario(name="s", fault="slow-drift", mix="nope")
        with pytest.raises(ValueError, match="rate"):
            EvalScenario(
                name="s",
                fault="slow-drift",
                mix="model-zoo",
                rate_rps=0.0,
            )
        with pytest.raises(ValueError, match="request"):
            EvalScenario(
                name="s",
                fault="slow-drift",
                mix="model-zoo",
                num_requests=0,
            )
        with pytest.raises(ValueError, match="core"):
            EvalScenario(
                name="s",
                fault="slow-drift",
                mix="model-zoo",
                pool_size=0,
            )

    def test_outcome_surface_and_conservation(self):
        scenario = EvalScenario(
            name="tiny",
            fault="slow-drift",
            mix="interactive-batch",
            rate_rps=400.0,
            num_requests=48,
            seed=1,
        )
        outcome = evaluate_policy(
            scenario, PolicySpec(name="static-recal", recalibration=RECAL)
        )
        assert outcome.served + outcome.shed == outcome.offered
        assert 0.0 < outcome.availability <= 1.0
        assert outcome.accuracy_error >= 0.0
        assert outcome.p99_latency_s > 0.0
        assert len(outcome.row()) == len(POLICY_EVAL_HEADER)

    def test_dominance_report_mechanics(self):
        scenario = EvalScenario(
            name="tiny",
            fault="tia-aging",
            mix="interactive-batch",
            rate_rps=400.0,
            num_requests=48,
            seed=1,
        )
        outcomes = evaluate_policy_grid(
            [scenario],
            [
                PolicySpec(name="static-recal", recalibration=RECAL),
                PolicySpec(
                    name="adaptive-recal",
                    recalibration=AdaptiveRecalibration.frozen(RECAL),
                    baseline="static-recal",
                ),
            ],
        )
        report = DominanceReport.from_outcomes(outcomes)
        # A frozen controller is bit-identical to its baseline, so it
        # can never *strictly* dominate it.
        assert report.wins == ()
        assert not report.passes()
        front = pareto_front(outcomes)
        assert front  # something is always non-dominated
        text = report.describe()
        assert "pareto[tiny]" in text
        assert "dominance" in text

    def test_default_grid_passes_dominance_gate(self):
        # The acceptance gate: at least one adaptive policy strictly
        # dominates its static baseline on >= 2 named fault scenarios
        # and sits on those scenarios' Pareto fronts.
        report = evaluate_dominance(
            default_scenarios(), default_policy_grid()
        )
        assert report.passes(min_scenarios=2), report.describe()
        winners = report.winning_policies(min_scenarios=2)
        assert "adaptive-recal" in winners
        dominated_faults = {
            scenario.split("/")[0]
            for scenario, policy, _ in report.wins
            if policy == "adaptive-recal"
        }
        assert len(dominated_faults) >= 2


class TestAdaptiveSweep:
    def test_controller_cells_and_frozen_tie(self):
        arrivals = poisson_arrivals(2e4, 48, seed=3)
        schedule = drift_schedule(arrivals)
        points = sweep_adaptive_recalibration(
            LENET,
            POLICY,
            schedule,
            [None, RECAL, AdaptiveRecalibration.frozen(RECAL)],
            arrivals,
            2,
        )
        assert [p.controller for p in points] == [
            "none",
            "recal",
            "recal-frozen",
        ]
        for point in points:
            assert len(point.row()) == len(ADAPTIVE_SWEEP_HEADER)
        static, frozen = points[1], points[2]
        assert (
            static.report.mean_accuracy_proxy
            == frozen.report.mean_accuracy_proxy
        )
        assert static.total_downtime_s == frozen.total_downtime_s
        assert points[0].total_downtime_s == 0.0

    def test_empty_axis(self):
        arrivals = poisson_arrivals(2e4, 8, seed=0)
        with pytest.raises(ValueError, match="controller"):
            sweep_adaptive_recalibration(
                LENET,
                POLICY,
                FaultSchedule.none(),
                [],
                arrivals,
                2,
            )
