"""Tests for workload tables and the PCNNA configuration."""

import numpy as np
import pytest

from repro.core.config import PAPER_CONFIG, PCNNAConfig, paper_assumptions
from repro.nn.models import build_vgg16
from repro.nn.shapes import ConvLayerSpec
from repro.workloads import (
    ALEXNET_CONV_LAYERS,
    CLUSTER_MIXES,
    FLEET_MIXES,
    LENET5_CONV_LAYERS,
    SERVING_NETWORKS,
    VGG16_CONV_LAYERS,
    alexnet_conv_specs,
    alexnet_layer,
    cluster_mix,
    fleet_mix,
    lenet5_conv_specs,
    serving_network,
    synthetic_layer_sweep,
    vgg16_conv_specs,
)


class TestAlexNetTable:
    def test_five_layers(self):
        assert len(ALEXNET_CONV_LAYERS) == 5

    def test_paper_conv1_geometry(self):
        spec = alexnet_layer("conv1")
        assert (spec.n, spec.m, spec.nc, spec.num_kernels) == (224, 11, 3, 96)
        assert (spec.s, spec.p) == (4, 2)

    def test_feature_map_chaining(self):
        # conv1 -> 55 -> pool 27; conv2 -> 27 -> pool 13; conv3-5 at 13.
        assert alexnet_layer("conv1").output_side == 55
        assert alexnet_layer("conv2").output_side == 27
        assert alexnet_layer("conv3").output_side == 13
        assert alexnet_layer("conv4").output_side == 13
        assert alexnet_layer("conv5").output_side == 13

    def test_unknown_layer(self):
        with pytest.raises(KeyError):
            alexnet_layer("conv6")

    def test_specs_returns_fresh_list(self):
        first = alexnet_conv_specs()
        first.pop()
        assert len(alexnet_conv_specs()) == 5


class TestOtherSuites:
    def test_vgg_has_thirteen(self):
        assert len(VGG16_CONV_LAYERS) == 13
        assert len(vgg16_conv_specs()) == 13

    def test_vgg_all_3x3(self):
        assert all(spec.m == 3 for spec in VGG16_CONV_LAYERS)

    def test_lenet_layers(self):
        assert len(LENET5_CONV_LAYERS) == 3
        assert lenet5_conv_specs()[0].n == 32

    def test_synthetic_sweep_valid_specs(self):
        specs = list(synthetic_layer_sweep())
        assert len(specs) > 50
        for spec in specs:
            assert isinstance(spec, ConvLayerSpec)
            assert spec.output_side >= 1

    def test_synthetic_sweep_skips_oversized_kernels(self):
        specs = list(
            synthetic_layer_sweep(input_sides=[4], kernel_sizes=[3, 9])
        )
        assert all(spec.m <= 4 for spec in specs)

    def test_synthetic_sweep_custom_lists(self):
        specs = list(
            synthetic_layer_sweep(
                input_sides=[8],
                kernel_sizes=[3],
                channel_counts=[4],
                kernel_counts=[2],
                strides=[1],
            )
        )
        assert len(specs) == 1


class TestConfig:
    def test_paper_defaults(self):
        config = PAPER_CONFIG
        assert config.fast_clock_hz == pytest.approx(5e9)
        assert config.num_input_dacs == 10
        assert config.num_weight_dacs == 1
        assert config.input_dac.sample_rate_hz == pytest.approx(6e9)
        assert config.adc.sample_rate_hz == pytest.approx(2.8e9)
        assert config.sram.capacity_words == 8192

    def test_fast_clock_period(self):
        assert PCNNAConfig().fast_clock_period_s == pytest.approx(0.2e-9)

    def test_value_bytes(self):
        assert PCNNAConfig(value_bits=16).value_bytes == 2
        assert PCNNAConfig(value_bits=12).value_bytes == 2
        assert PCNNAConfig(value_bits=8).value_bytes == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            PCNNAConfig(fast_clock_hz=0.0)
        with pytest.raises(ValueError):
            PCNNAConfig(num_input_dacs=0)
        with pytest.raises(ValueError):
            PCNNAConfig(num_adcs=-1)
        with pytest.raises(ValueError):
            PCNNAConfig(value_bits=0)
        with pytest.raises(ValueError):
            PCNNAConfig(max_parallel_kernels=0)

    def test_with_helpers_create_copies(self):
        base = PCNNAConfig()
        more_dacs = base.with_dacs(20)
        assert more_dacs.num_input_dacs == 20
        assert base.num_input_dacs == 10
        faster = base.with_fast_clock(10e9)
        assert faster.fast_clock_hz == pytest.approx(10e9)

    def test_with_noise(self):
        from repro.photonics.noise import realistic

        noisy = PCNNAConfig().with_noise(realistic(3))
        assert noisy.noise.enabled

    def test_paper_assumptions_unbounded_memory(self):
        assert (
            paper_assumptions().dram.bandwidth_bytes_per_s
            > PCNNAConfig().dram.bandwidth_bytes_per_s
        )


# The network each named mix's tenant serves, by tenant name.
_TENANT_NETWORKS = {
    "interactive": lambda scale, seed: serving_network("lenet5", seed=seed),
    "batch": lambda scale, seed: serving_network(
        "googlenet-stem", scale=scale, seed=seed
    ),
    "majority": lambda scale, seed: serving_network("lenet5", seed=seed),
    "minority": lambda scale, seed: serving_network("lenet5", seed=seed),
    "lenet5": lambda scale, seed: serving_network("lenet5", seed=seed),
    "alexnet": lambda scale, seed: serving_network(
        "alexnet", scale=scale, seed=seed
    ),
    "googlenet-stem": lambda scale, seed: serving_network(
        "googlenet-stem", scale=scale, seed=seed
    ),
    "vgg16": lambda scale, seed: build_vgg16(scale=0.02, seed=seed),
}


class TestWeightFreeTenantSpecs:
    """The serving mixes build their tenants' conv specs without
    drawing weights; the specs equal the weighted networks'."""

    @pytest.mark.parametrize("scale", [0.05, 0.1])
    @pytest.mark.parametrize("seed", [0, 3, 17])
    @pytest.mark.parametrize("mix", CLUSTER_MIXES)
    def test_cluster_mix_specs(self, mix, seed, scale):
        tenants, _ = cluster_mix(mix, 2000.0, 400, seed=seed, scale=scale)
        for tenant in tenants:
            network = _TENANT_NETWORKS[tenant.name](scale, seed)
            assert tenant.specs == tuple(network.conv_specs())

    @pytest.mark.parametrize("scale", [0.05, 0.1])
    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("mix", FLEET_MIXES)
    def test_fleet_mix_specs(self, mix, seed, scale):
        scenario = fleet_mix(mix, 2000.0, 300, seed=seed, scale=scale)
        for tenant in scenario.tenants:
            network = _TENANT_NETWORKS[tenant.name](scale, seed)
            assert tenant.specs == tuple(network.conv_specs())

    @pytest.mark.parametrize("name", SERVING_NETWORKS)
    def test_shape_only_build_draws_nothing(self, name, monkeypatch):
        def refuse(seed=None):
            raise AssertionError("a shape-only build drew weights")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        network = serving_network(name, draw_weights=False)
        assert network.conv_specs()
