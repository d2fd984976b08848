"""Guards for the reference-loop oracle (``tests/oracles.py``).

Every differential pin compares a front door's fast path against the
same front door inside :func:`oracles.reference_loops`.  If a selection
point were renamed or bypassed, the helper would patch nothing and every
such pin would quietly compare the fast path with itself.  These tests
spy on the loops themselves: under the helper each batch is served by
one ``_TenantLane.serve`` call and each wave by one
``BroadcastAndWeightLayer.compute`` call, and the fast paths are never
entered (an elastic cluster never looks for its first core move);
without it, the fast paths run.
"""

import numpy as np
import pytest
from oracles import reference_loops

from repro.core import cluster
from repro.core.accelerator import PhotonicConvolution
from repro.core.cluster import ElasticReallocation
from repro.core.faults import DegradedServingSimulator, FaultSchedule
from repro.core.simkernel import BatchingPolicy, EventLoopKernel
from repro.core.traffic import PipelineServiceModel
from repro.photonics.broadcast_weight import BroadcastAndWeightLayer
from repro.workloads import cluster_mix, lenet5_conv_specs, poisson_arrivals


@pytest.fixture
def spies(monkeypatch):
    """Count lane serves, fast-path entries on the cluster module,
    epoch cuts of the fault step, and searches for a first core move."""
    calls = {
        "serve": 0,
        "_plan_admitted": 0,
        "_plan_epoch": 0,
        "cut": 0,
        "_first_move": 0,
    }
    for owner, name in (
        (cluster._TenantLane, "serve"),
        (cluster, "_plan_admitted"),
        (cluster, "_plan_epoch"),
        (cluster.PoolHealth, "cut"),
        (cluster.ClusterSimulator, "_first_move"),
    ):
        original = getattr(owner, name)

        def count(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, count)
    return calls


def _model() -> PipelineServiceModel:
    return PipelineServiceModel.from_specs(lenet5_conv_specs(), 3)


def _pristine_kernel_run():
    model = _model()
    arrivals = poisson_arrivals(2.0 * model.capacity_rps(4), 600, seed=3)
    return EventLoopKernel(model, BatchingPolicy.dynamic(4, 1e-4)).run(arrivals)


def _capped_frozen_cluster_run():
    tenants, arrivals = cluster_mix("interactive-batch", 4e4, 600, seed=5)
    assert any(tenant.queue_cap is not None for tenant in tenants)
    return cluster.simulate_cluster_serving(tenants, arrivals, len(tenants) + 1)


def _moving_elastic_cluster_run():
    """The default grid's mix two seeds on: the batch tenant takes a
    freed core in the last dispatches."""
    tenants, arrivals = cluster_mix("interactive-batch", 2000.0, 400, seed=5)
    return cluster.simulate_cluster_serving(
        tenants, arrivals, 6, elastic=ElasticReallocation()
    )


def _faulted_lone_lane_run():
    model = _model()
    arrivals = poisson_arrivals(model.capacity_rps(4), 400, seed=7)
    schedule = FaultSchedule.uniform_drift(1.0 / float(arrivals[-1]), 3)
    return DegradedServingSimulator(
        model, BatchingPolicy.dynamic(4, 1e-4), schedule
    ).run(arrivals)


class TestServingOracle:
    def test_pristine_kernel_serves_each_batch_on_the_lane_loop(self, spies):
        with reference_loops():
            report = _pristine_kernel_run()
        assert spies == {
            "serve": len(report.batches),
            "_plan_admitted": 0,
            "_plan_epoch": 0,
            "cut": 0,
            "_first_move": 0,
        }

    def test_pristine_kernel_fast_path_serves_no_batch(self, spies):
        _pristine_kernel_run()
        assert spies["serve"] == 0
        assert spies["_plan_epoch"] == 1

    def test_capped_frozen_cluster_serves_each_batch(self, spies):
        with reference_loops():
            report = _capped_frozen_cluster_run()
        batches = sum(len(tenant.batches) for tenant in report.tenants)
        assert batches > 0
        assert spies == {
            "serve": batches,
            "_plan_admitted": 0,
            "_plan_epoch": 0,
            "cut": 0,
            "_first_move": 0,
        }

    def test_capped_frozen_cluster_fast_path_walks_admission(self, spies):
        _capped_frozen_cluster_run()
        assert spies["_plan_admitted"] > 0
        assert spies["serve"] == 0

    def test_elastic_cluster_serves_each_batch_on_the_global_loop(
        self, spies
    ):
        with reference_loops():
            report = _moving_elastic_cluster_run()
        assert report.reallocations
        batches = sum(len(tenant.batches) for tenant in report.tenants)
        assert spies == {
            "serve": batches,
            "_plan_admitted": 0,
            "_plan_epoch": 0,
            "cut": 0,
            "_first_move": 0,
        }

    def test_elastic_cluster_fast_path_loops_only_past_the_cut(self, spies):
        report = _moving_elastic_cluster_run()
        batches = sum(len(tenant.batches) for tenant in report.tenants)
        assert spies["_first_move"] == 1
        assert spies["_plan_admitted"] > 0
        assert 0 < spies["serve"] < batches

    def test_faulted_lone_lane_leaves_the_epochs(self, spies):
        with reference_loops():
            report = _faulted_lone_lane_run()
        assert spies["_plan_epoch"] == spies["cut"] == 0
        assert spies["serve"] == len(report.batches)
        spies["serve"] = 0
        _faulted_lone_lane_run()
        assert spies["_plan_epoch"] > 0 and spies["cut"] > 0
        assert spies["serve"] == 0


class TestEngineOracle:
    def test_engine_runs_wave_by_wave(self, monkeypatch):
        calls = {"compute": 0, "compute_batch": 0}
        for name in calls:
            original = getattr(BroadcastAndWeightLayer, name)

            def count(layer, *args, _name=name, _original=original):
                calls[_name] += 1
                return _original(layer, *args)

            monkeypatch.setattr(BroadcastAndWeightLayer, name, count)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 1, 6, 6))
        k = rng.normal(size=(2, 1, 3, 3))
        engine = PhotonicConvolution(method="device")
        with reference_loops():
            engine.convolve(x, k)
        # One wave per kernel location of each image: 2 images x 4 x 4.
        assert calls == {"compute": 32, "compute_batch": 0}
        engine.convolve(x, k)
        assert calls == {"compute": 32, "compute_batch": 1}
