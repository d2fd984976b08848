"""Tests for the executable pipelined minibatch runner."""

import numpy as np
import pytest

from repro.core import PCNNA
from repro.core.multicore import balanced_partition
from repro.core.serving import run_network_pipelined, stage_layer_slices
from repro.nn import build_lenet5
from repro.nn.layers import ReLU
from repro.nn.network import Network
from repro.workloads import SERVING_NETWORKS, serving_batch, serving_network


class TestStageLayerSlices:
    def test_slices_cover_all_layers_contiguously(self):
        net = build_lenet5()
        for cores in (1, 2, 3):
            _, slices = stage_layer_slices(net, cores)
            assert slices[0][0] == 0
            assert slices[-1][1] == len(net.layers)
            for (_, end), (start, _) in zip(slices[:-1], slices[1:]):
                assert end == start

    def test_every_stage_after_first_starts_at_a_conv(self):
        from repro.nn.layers import Conv2D

        net = build_lenet5()
        _, slices = stage_layer_slices(net, 3)
        for start, _ in slices[1:]:
            assert isinstance(net.layers[start], Conv2D)

    def test_partition_matches_multicore_model(self):
        net = build_lenet5()
        partition, _ = stage_layer_slices(net, 2)
        expected = balanced_partition(net.conv_specs(), 2)
        assert partition.slices == expected.slices
        assert partition.core_times_s == expected.core_times_s

    def test_rejects_networks_without_convs(self):
        net = Network([ReLU()], input_shape=(3,))
        with pytest.raises(ValueError, match="no conv layers"):
            stage_layer_slices(net, 1)

    def test_rejects_bad_core_counts(self):
        net = build_lenet5()
        with pytest.raises(ValueError, match="core count"):
            stage_layer_slices(net, 0)
        with pytest.raises(ValueError, match="core count"):
            stage_layer_slices(net, 4)
        with pytest.raises(ValueError, match="integer"):
            stage_layer_slices(net, 2.5)
        with pytest.raises(ValueError, match="integer"):
            stage_layer_slices(net, True)

    def test_clamp_cores_shrinks_oversized_requests(self):
        net = build_lenet5()
        partition, slices = stage_layer_slices(net, 64, clamp_cores=True)
        assert partition.num_cores == len(net.conv_specs())
        assert slices[-1][1] == len(net.layers)
        # Valid requests are untouched by clamping.
        exact, _ = stage_layer_slices(net, 2, clamp_cores=True)
        assert exact.slices == stage_layer_slices(net, 2)[0].slices


class TestRunNetworkPipelined:
    def test_outputs_bit_identical_to_single_core(self):
        net = build_lenet5(seed=3)
        accelerator = PCNNA()
        x = np.random.default_rng(1).normal(size=(4, 1, 32, 32))
        single = accelerator.run_network(net, x)
        for cores in (1, 2, 3):
            result = run_network_pipelined(net, x, cores)
            assert np.array_equal(result.outputs, single), cores

    def test_unbatched_input(self):
        net = build_lenet5(seed=3)
        x = np.random.default_rng(2).normal(size=(1, 32, 32))
        result = run_network_pipelined(net, x, 2)
        assert result.batch_size == 1
        assert np.array_equal(result.outputs, PCNNA().run_network(net, x))

    def test_report_contents(self):
        net = build_lenet5(seed=0)
        x = np.random.default_rng(3).normal(size=(2, 1, 32, 32))
        result = run_network_pipelined(net, x, 3)
        assert result.num_cores == 3
        assert result.batch_size == 2
        assert result.images_per_s == pytest.approx(
            1.0 / result.bottleneck_s
        )
        assert result.bottleneck_s == max(
            stage.service_time_s for stage in result.stages
        )
        assert result.single_image_latency_s == pytest.approx(
            sum(stage.service_time_s for stage in result.stages)
        )
        covered = [
            name for stage in result.stages for name in stage.layer_names
        ]
        assert covered == [layer.name for layer in net.layers]
        assert "img/s" in result.describe()

    def test_rejects_empty_batch_up_front(self):
        net = build_lenet5()
        with pytest.raises(ValueError, match="at least one image"):
            run_network_pipelined(net, np.zeros((0, 1, 32, 32)), 2)

    def test_single_conv_layer_network(self):
        from repro.nn.layers import Conv2D

        rng = np.random.default_rng(0)
        net = Network(
            [Conv2D(rng.normal(size=(2, 1, 3, 3))), ReLU()],
            input_shape=(1, 8, 8),
        )
        x = rng.normal(size=(3, 1, 8, 8))
        result = run_network_pipelined(net, x, 1)
        assert result.num_cores == 1
        assert np.array_equal(result.outputs, PCNNA().run_network(net, x))
        # More cores than conv layers: clear error, or clamp on request.
        with pytest.raises(ValueError, match="core count"):
            run_network_pipelined(net, x, 2)
        clamped = run_network_pipelined(net, x, 2, clamp_cores=True)
        assert clamped.num_cores == 1

    def test_validation_happens_before_partitioning(self):
        """The error arrives from the up-front validator (clear message),
        not as a TypeError deep inside the DP recurrence."""
        net = build_lenet5()
        with pytest.raises(ValueError, match="core count must be an integer"):
            run_network_pipelined(
                net, np.zeros((1, 1, 32, 32)), 1.5  # type: ignore[arg-type]
            )

    def test_accepts_prebuilt_accelerator(self):
        net = build_lenet5(seed=0)
        x = np.random.default_rng(4).normal(size=(2, 1, 32, 32))
        accelerator = PCNNA()
        result = run_network_pipelined(net, x, 2, accelerator=accelerator)
        assert np.array_equal(
            result.outputs, accelerator.run_network(net, x)
        )


class TestServingWorkloads:
    def test_serving_network_names(self):
        for name in SERVING_NETWORKS:
            net = serving_network(name, scale=0.02)
            assert net.conv_specs(), name
        with pytest.raises(KeyError):
            serving_network("resnet")

    def test_serving_batch_shape_and_determinism(self):
        net = serving_network("lenet5")
        x = serving_batch(net, 3, seed=5)
        assert x.shape == (3, *net.input_shape)
        assert np.array_equal(x, serving_batch(net, 3, seed=5))
        with pytest.raises(ValueError):
            serving_batch(net, 0)

    @pytest.mark.parametrize("name", ["alexnet", "googlenet-stem"])
    def test_scaled_stacks_run_pipelined_end_to_end(self, name):
        net = serving_network(name, scale=0.02)
        x = serving_batch(net, 2)
        single = PCNNA().run_network(net, x)
        result = run_network_pipelined(net, x, 2)
        assert np.array_equal(result.outputs, single)
        assert result.outputs.shape == (2, 100)
