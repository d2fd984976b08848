"""Tests for the request-level serving simulator and traffic generators."""

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.analysis import (
    SERVING_SWEEP_HEADER,
    sweep_serving_policies,
)
from repro.core import PCNNA
from repro.core.cluster import ClusterTenant
from repro.core.fleet import RegionSpec, simulate_fleet_serving
from repro.core.traffic import (
    BatchingPolicy,
    LatencyPercentiles,
    PipelineServiceModel,
    ServingReport,
    ServingSimulator,
    replay_batches,
    replay_on_engine,
    simulate_serving,
)
from repro.workloads import (
    TRAFFIC_PATTERNS,
    alexnet_conv_specs,
    cluster_mix,
    diurnal_arrivals,
    fleet_mix,
    lenet5_conv_specs,
    make_arrivals,
    mmpp_arrivals,
    poisson_arrivals,
    serving_batch,
    serving_network,
)


class TestArrivalGenerators:
    def test_sorted_positive_and_deterministic(self):
        for pattern in TRAFFIC_PATTERNS:
            first = make_arrivals(pattern, 1000.0, 500, seed=3)
            second = make_arrivals(pattern, 1000.0, 500, seed=3)
            other = make_arrivals(pattern, 1000.0, 500, seed=4)
            assert first.shape == (500,), pattern
            assert np.all(first > 0.0), pattern
            assert np.all(np.diff(first) >= 0.0), pattern
            assert np.array_equal(first, second), pattern
            assert not np.array_equal(first, other), pattern

    def test_poisson_mean_rate(self):
        arrivals = poisson_arrivals(2000.0, 20_000, seed=0)
        observed = arrivals.size / arrivals[-1]
        assert observed == pytest.approx(2000.0, rel=0.05)

    def test_mmpp_is_burstier_than_poisson(self):
        """Same mean gap, but the MMPP's gap variance must be higher —
        the defining property of the bursty model."""
        poisson = poisson_arrivals(1000.0, 20_000, seed=5)
        mmpp = mmpp_arrivals(500.0, 1500.0, 20_000, mean_dwell_s=0.05, seed=5)
        poisson_cv = np.std(np.diff(poisson)) / np.mean(np.diff(poisson))
        mmpp_cv = np.std(np.diff(mmpp)) / np.mean(np.diff(mmpp))
        assert mmpp_cv > poisson_cv

    def test_diurnal_rate_oscillates(self):
        period = 1.0
        arrivals = diurnal_arrivals(200.0, 2000.0, 20_000, period, seed=6)
        phase = (arrivals % period) / period
        # Peak phase (around 0.5) must collect far more arrivals than
        # the trough phase (around 0.0).
        peak = int(((phase > 0.35) & (phase < 0.65)).sum())
        trough = int(((phase < 0.15) | (phase > 0.85)).sum())
        assert peak > 2 * trough

    def test_named_patterns_share_the_mean_rate(self):
        """make_arrivals' one shared knob really is the long-run mean
        rate, for every pattern — cross-pattern comparisons at 'the
        same rate' must be fair."""
        for pattern in TRAFFIC_PATTERNS:
            arrivals = make_arrivals(pattern, 1000.0, 100_000, seed=2)
            observed = arrivals.size / arrivals[-1]
            assert observed == pytest.approx(1000.0, rel=0.1), pattern

    def test_validation(self):
        with pytest.raises(ValueError):
            poisson_arrivals(0.0, 10)
        with pytest.raises(ValueError):
            poisson_arrivals(10.0, 0)
        with pytest.raises(ValueError):
            mmpp_arrivals(10.0, 20.0, 5, mean_dwell_s=0.0)
        with pytest.raises(ValueError):
            diurnal_arrivals(20.0, 10.0, 5, period_s=1.0)  # peak < off-peak
        with pytest.raises(KeyError):
            make_arrivals("sawtooth", 10.0, 5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True])
    @pytest.mark.parametrize(
        "call",
        [
            lambda v: poisson_arrivals(v, 3),
            lambda v: mmpp_arrivals(v, 5.0, 3, 1.0),
            lambda v: mmpp_arrivals(1.0, v, 3, 1.0),
            lambda v: mmpp_arrivals(1.0, 5.0, 3, v),
            lambda v: diurnal_arrivals(v, 5.0, 3, 1.0),
            lambda v: diurnal_arrivals(1.0, v, 3, 1.0),
            lambda v: diurnal_arrivals(1.0, 5.0, 3, v),
            lambda v: make_arrivals("poisson", v, 3),
            lambda v: make_arrivals("diurnal", v, 3),
            lambda v: cluster_mix("interactive-batch", v, 10),
            lambda v: fleet_mix("follow-the-sun", v, 10),
        ],
        ids=[
            "poisson-rate",
            "mmpp-quiet",
            "mmpp-burst",
            "mmpp-dwell",
            "diurnal-offpeak",
            "diurnal-peak",
            "diurnal-period",
            "make-poisson",
            "make-diurnal",
            "cluster-mix",
            "fleet-mix",
        ],
    )
    def test_non_finite_and_bool_knobs_rejected(self, call, bad):
        """A NaN rate or period used to hang the thinning loop, an
        infinite one to build an all-zero trace; both are refused."""
        with pytest.raises(ValueError, match="must be finite and > 0"):
            call(bad)


class TestBatchingPolicy:
    def test_constructors(self):
        assert BatchingPolicy.fifo().max_batch == 1
        assert BatchingPolicy.dynamic(8, 1e-3).max_wait_s == 1e-3
        assert math.isinf(BatchingPolicy.fixed(16).max_wait_s)

    def test_validation(self):
        with pytest.raises(ValueError):
            BatchingPolicy(name="bad", max_batch=0, max_wait_s=0.0)
        with pytest.raises(ValueError):
            BatchingPolicy(name="bad", max_batch=2, max_wait_s=-1.0)
        with pytest.raises(ValueError):
            BatchingPolicy(name="bad", max_batch=2, max_wait_s=math.nan)


class TestPipelineServiceModel:
    def test_from_specs_matches_partition(self):
        specs = alexnet_conv_specs()
        model = PipelineServiceModel.from_specs(specs, 3)
        assert model.num_cores == 3
        assert model.conv_time_s == model.partition.core_times_s
        assert len(model.weight_load_s) == 3
        assert all(w > 0 for w in model.weight_load_s)

    def test_batching_amortizes_weight_loads(self):
        model = PipelineServiceModel.from_specs(alexnet_conv_specs(), 2)
        assert model.capacity_rps(32) > 3.0 * model.capacity_rps(1)
        assert model.capacity_rps(10**6) == pytest.approx(
            model.stationary_capacity_rps, rel=1e-3
        )

    def test_clamp_and_validation(self):
        specs = alexnet_conv_specs()
        clamped = PipelineServiceModel.from_specs(
            specs, 99, clamp_cores=True
        )
        assert clamped.num_cores == len(specs)
        with pytest.raises(ValueError, match="core count"):
            PipelineServiceModel.from_specs(specs, 99)
        with pytest.raises(ValueError, match="core count"):
            PipelineServiceModel.from_specs(specs, 0)
        with pytest.raises(ValueError, match="conv layer"):
            PipelineServiceModel.from_specs([], 1)

    def test_from_network(self):
        network = serving_network("lenet5")
        model = PipelineServiceModel.from_network(network, 2)
        assert model.num_cores == 2


class TestServingSimulator:
    @staticmethod
    def _model(cores=4):
        return PipelineServiceModel.from_specs(alexnet_conv_specs(), cores)

    def test_deterministic_under_fixed_seed(self):
        """The tentpole's headline guarantee: identical percentile
        latencies across runs for the same seed."""
        model = self._model()
        policy = BatchingPolicy.dynamic(16, 1e-3)
        first = ServingSimulator(model, policy).run(
            poisson_arrivals(5000.0, 3000, seed=11)
        )
        second = ServingSimulator(model, policy).run(
            poisson_arrivals(5000.0, 3000, seed=11)
        )
        assert first.p50_s == second.p50_s
        assert first.p95_s == second.p95_s
        assert first.p99_s == second.p99_s
        assert np.array_equal(first.completion_s, second.completion_s)

    def test_conservation_and_causality(self):
        model = self._model()
        report = ServingSimulator(model, BatchingPolicy.dynamic(8, 1e-3)).run(
            poisson_arrivals(4000.0, 2000, seed=2)
        )
        assert report.num_requests == 2000
        assert sum(batch.size for batch in report.batches) == 2000
        # No request is dispatched before it arrives or completed before
        # it is dispatched.
        assert np.all(report.dispatch_s >= report.arrival_s)
        assert np.all(report.completion_s > report.dispatch_s)
        # Batches cover the requests contiguously in arrival order.
        cursor = 0
        for batch in report.batches:
            assert batch.first_request == cursor
            cursor += batch.size
        assert np.all(np.diff([b.dispatch_s for b in report.batches]) >= 0)

    def test_fifo_dispatches_every_request_alone(self):
        report = ServingSimulator(self._model(), BatchingPolicy.fifo()).run(
            poisson_arrivals(1000.0, 200, seed=3)
        )
        assert len(report.batches) == 200
        assert report.mean_batch_size == 1.0

    def test_fixed_policy_fills_batches(self):
        report = ServingSimulator(
            self._model(), BatchingPolicy.fixed(32)
        ).run(poisson_arrivals(50_000.0, 1000, seed=4))
        sizes = [batch.size for batch in report.batches]
        # Every batch but the trace-end flush is exactly full.
        assert all(size == 32 for size in sizes[:-1])
        assert sizes[-1] == 1000 - 32 * (len(sizes) - 1)

    def test_fixed_policy_flushes_sparse_tail_as_one_batch(self):
        """Once the trace can no longer fill a batch, the remainder is
        flushed as a single partial batch (not FIFO singletons), after
        the last request has arrived."""
        model = self._model()
        arrivals = poisson_arrivals(10.0, 10, seed=7)  # far below capacity
        report = ServingSimulator(model, BatchingPolicy.fixed(32)).run(
            arrivals
        )
        assert len(report.batches) == 1
        assert report.batches[0].size == 10
        assert report.batches[0].dispatch_s >= arrivals[-1]

    def test_dynamic_wait_bounds_queueing_delay(self):
        """Under light load the head never waits longer than max_wait
        before its batch is formed."""
        model = self._model()
        max_wait = 5e-4
        report = ServingSimulator(
            model, BatchingPolicy.dynamic(32, max_wait)
        ).run(poisson_arrivals(2000.0, 2000, seed=5))
        waits = report.dispatch_s - report.arrival_s
        # The *head* of each batch triggers the dispatch; its wait is
        # bounded by max_wait plus any residual core-0 busy time, which
        # light load keeps near zero.
        heads = [batch.first_request for batch in report.batches]
        assert np.max(waits[heads]) <= max_wait + model.core_busy_s(0, 32)

    def test_utilization_and_queue_metrics_are_sane(self):
        report = ServingSimulator(
            self._model(), BatchingPolicy.dynamic(16, 1e-3)
        ).run(poisson_arrivals(20_000.0, 2000, seed=6))
        assert all(0.0 < u <= 1.0 for u in report.core_utilization)
        assert 0.0 <= report.mean_queue_depth <= report.max_queue_depth
        assert report.max_queue_depth <= 2000
        assert report.throughput_rps > 0.0
        assert "req/s" in report.describe()

    def test_rejects_bad_traces(self):
        simulator = ServingSimulator(self._model(), BatchingPolicy.fifo())
        with pytest.raises(ValueError, match="empty"):
            simulator.run(np.array([]))
        with pytest.raises(ValueError, match="sorted"):
            simulator.run(np.array([2.0, 1.0]))
        with pytest.raises(ValueError, match="non-empty"):
            simulator.run(np.zeros((2, 2)))


class TestExecutedReplay:
    def test_replay_bit_identical_to_per_request_execution(self):
        network = serving_network("lenet5")
        requests = 10
        inputs = serving_batch(network, requests, seed=9)
        report = simulate_serving(
            network,
            poisson_arrivals(3e4, requests, seed=8),
            BatchingPolicy.dynamic(4, 1e-4),
            num_cores=2,
        )
        replayed = replay_on_engine(network, report, inputs)
        alone = np.stack(
            [PCNNA().run_network(network, image) for image in inputs]
        )
        assert np.array_equal(replayed, alone)

    def test_replay_validates_inputs(self):
        network = serving_network("lenet5")
        report = simulate_serving(
            network,
            poisson_arrivals(1e4, 4, seed=0),
            BatchingPolicy.fifo(),
            num_cores=1,
        )
        with pytest.raises(ValueError, match="one input per"):
            replay_on_engine(
                network, report, np.zeros((3, *network.input_shape))
            )

    def test_replay_batches_rejects_mismatched_widths(self):
        """A widths list shorter than the batches would zip-truncate
        and return uninitialized output rows — must fail loudly."""
        network = serving_network("lenet5")
        report = simulate_serving(
            network,
            poisson_arrivals(1e4, 4, seed=0),
            BatchingPolicy.fifo(),
            num_cores=1,
        )
        inputs = serving_batch(network, 4, seed=1)
        with pytest.raises(ValueError, match="width per batch"):
            replay_batches(network, report.batches, [1], inputs)


def _percentile_reports():
    """One served and one empty report of each ``LatencyPercentiles``
    kind, with the latency stream each reads and its empty-stream
    error."""
    serving = ServingSimulator(
        PipelineServiceModel.from_specs(alexnet_conv_specs(), 2),
        BatchingPolicy.dynamic(8, 1e-3),
    ).run(poisson_arrivals(4000.0, 300, seed=8))
    empty_serving = ServingReport(
        policy=BatchingPolicy.fifo(),
        num_cores=1,
        arrival_s=np.array([]),
        dispatch_s=np.array([]),
        completion_s=np.array([]),
        batches=(),
        core_busy_s=(0.0,),
    )
    fleet = simulate_fleet_serving(
        (
            ClusterTenant(
                "solo",
                tuple(lenet5_conv_specs()),
                BatchingPolicy.dynamic(8, 1e-3),
            ),
        ),
        [RegionSpec("east", 2), RegionSpec("idle", 2)],
        {"east": {"solo": poisson_arrivals(2000.0, 200, seed=9)}, "idle": {}},
    )
    idle = fleet.region("idle")
    return {
        "serving": (
            serving,
            serving.latencies_s,
            empty_serving,
            "no requests in the trace",
        ),
        "region": (
            fleet.region("east"),
            fleet.region("east").latency_s,
            idle,
            "'idle' served no requests",
        ),
        "fleet": (
            fleet,
            fleet.latencies_s,
            replace(fleet, regions=(idle,)),
            "fleet served no requests",
        ),
    }


PERCENTILE_KINDS = ("serving", "region", "fleet")
HEADLINE_PERCENTILES = (("p50_s", 50.0), ("p95_s", 95.0), ("p99_s", 99.0))


class TestLatencyPercentiles:
    """``p50_s``/``p95_s``/``p99_s`` are defined once, on
    ``LatencyPercentiles``, over each report's own
    ``latency_percentile_s``."""

    @pytest.fixture(scope="class")
    def reports(self):
        return _percentile_reports()

    @pytest.mark.parametrize("kind", PERCENTILE_KINDS)
    def test_headline_percentiles_read_the_report_stream(self, reports, kind):
        report, stream, _, _ = reports[kind]
        assert isinstance(report, LatencyPercentiles)
        assert stream.size > 0
        for name, percentile in HEADLINE_PERCENTILES:
            assert name not in vars(type(report)), name
            value = getattr(report, name)
            assert type(value) is float, name
            assert value == report.latency_percentile_s(percentile), name
            assert value == float(np.percentile(stream, percentile)), name

    @pytest.mark.parametrize("kind", PERCENTILE_KINDS)
    def test_empty_stream_keeps_its_own_error(self, reports, kind):
        _, _, empty, message = reports[kind]
        with pytest.raises(ValueError, match=message):
            empty.latency_percentile_s(50.0)
        for name, _ in HEADLINE_PERCENTILES:
            with pytest.raises(ValueError, match=message):
                getattr(empty, name)


class TestServingSweep:
    def test_sweep_grid_and_rows(self):
        specs = alexnet_conv_specs()
        arrivals = poisson_arrivals(5000.0, 500, seed=1)
        policies = [BatchingPolicy.fifo(), BatchingPolicy.dynamic(8, 1e-3)]
        points = sweep_serving_policies(specs, policies, [1, 2], arrivals)
        assert len(points) == 4
        assert [p.num_cores for p in points] == [1, 1, 2, 2]
        assert {p.policy for p in points} == {
            policy.name for policy in policies
        }
        for point in points:
            assert point.throughput_rps > 0
            assert len(point.row()) == len(SERVING_SWEEP_HEADER)

    def test_sweep_validation(self):
        specs = alexnet_conv_specs()
        arrivals = poisson_arrivals(100.0, 10)
        with pytest.raises(ValueError, match="policy"):
            sweep_serving_policies(specs, [], [1], arrivals)
        with pytest.raises(ValueError, match="core count"):
            sweep_serving_policies(
                specs, [BatchingPolicy.fifo()], [], arrivals
            )
