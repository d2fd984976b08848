"""Tests for the cycle-level timing simulator and its agreement with the
paper's analytical model."""

from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import simulate_layer_loop

from repro.core.config import PCNNAConfig, paper_assumptions
from repro.core.timing import simulate_layer, simulate_network
from repro.electronics.sram import SramSpec
from repro.nn.shapes import ConvLayerSpec
from repro.workloads import (
    alexnet_conv_specs,
    alexnet_layer,
    lenet5_conv_specs,
)

PIN_CONFIGS = {
    "default": PCNNAConfig(),
    "paper": paper_assumptions(),
    "banks64": PCNNAConfig(max_parallel_kernels=64),
    "adc1": PCNNAConfig(num_adcs=1),
}


def _exact_fields(result) -> dict:
    """Every field of a timing result with its type and round-trip repr
    (equal reprs of floats are equal bits)."""
    return {name: (type(v), repr(v)) for name, v in vars(result).items()}


class TestLoopOraclePin:
    """The table reductions reproduce the per-location component loop
    (``oracles.simulate_layer_loop``) in every field, byte for byte."""

    @pytest.mark.parametrize("include_adc", [True, False])
    @pytest.mark.parametrize("config_name", sorted(PIN_CONFIGS))
    def test_lenet5_and_alexnet(self, config_name, include_adc):
        config = PIN_CONFIGS[config_name]
        for spec in lenet5_conv_specs() + alexnet_conv_specs():
            assert _exact_fields(
                simulate_layer(spec, config, include_adc)
            ) == _exact_fields(
                simulate_layer_loop(spec, config, include_adc)
            ), spec.name

    @given(
        n=st.integers(min_value=1, max_value=12),
        m=st.integers(min_value=1, max_value=5),
        nc=st.integers(min_value=1, max_value=4),
        s=st.integers(min_value=1, max_value=4),
        p=st.integers(min_value=0, max_value=2),
        kernels=st.integers(min_value=1, max_value=40),
        banks=st.one_of(st.none(), st.integers(min_value=1, max_value=16)),
        dacs=st.integers(min_value=1, max_value=8),
        adcs=st.integers(min_value=1, max_value=8),
        sram_slack=st.sampled_from([-1, 0, 1]),
        adc_at_dac_rate=st.booleans(),
        include_adc=st.booleans(),
    )
    @example(  # convert and digitize tie mid-row: 2 conversions each
        n=4, m=2, nc=1, s=1, p=0, kernels=2, banks=None, dacs=1, adcs=1,
        sram_slack=0, adc_at_dac_rate=True, include_adc=True,
    )
    @settings(max_examples=60, deadline=None)
    def test_random_layers_and_configs(
        self, n, m, nc, s, p, kernels, banks, dacs, adcs, sram_slack,
        adc_at_dac_rate, include_adc,
    ):
        if m > n + 2 * p:
            return
        spec = ConvLayerSpec("t", n=n, m=m, nc=nc, num_kernels=kernels, s=s, p=p)
        base = paper_assumptions()
        # The SRAM holds the live band, exactly, or one word short; an
        # ADC at the DAC's rate ties the convert and digitize stages.
        band_words = nc * m * (n + 2 * p)
        config = replace(
            base,
            max_parallel_kernels=banks,
            num_input_dacs=dacs,
            num_adcs=adcs,
            sram=SramSpec(capacity_bits=16 * max(band_words + sram_slack, 1)),
            adc=replace(base.adc, sample_rate_hz=base.input_dac.sample_rate_hz)
            if adc_at_dac_rate
            else base.adc,
        )
        assert _exact_fields(
            simulate_layer(spec, config, include_adc)
        ) == _exact_fields(simulate_layer_loop(spec, config, include_adc))


class TestAgreementWithAnalyticalModel:
    """Under the paper's implicit assumptions (memory keeps up, no ADC
    serialization), the simulator must track eq. 7/8 closely."""

    def test_alexnet_agreement_within_25_percent(self):
        config = paper_assumptions()
        for spec in alexnet_conv_specs():
            result = simulate_layer(spec, config, include_adc=False)
            # Slack comes from row-start window refills and per-DAC ceil.
            assert 1.0 <= result.analytical_agreement < 1.25, spec.name

    def test_simulated_never_faster_than_analytical(self):
        config = paper_assumptions()
        for spec in alexnet_conv_specs():
            result = simulate_layer(spec, config, include_adc=False)
            assert result.pipelined_time_s >= result.analytical_full_s

    def test_pipelined_never_slower_than_serial(self):
        config = paper_assumptions()
        for spec in alexnet_conv_specs():
            result = simulate_layer(spec, config)
            # Serial = sum of all stages; pipelined overlaps them.
            assert result.pipelined_time_s <= result.serial_time_s * 1.01


class TestBottleneckIdentification:
    def test_dac_bound_under_paper_assumptions(self):
        config = paper_assumptions()
        result = simulate_layer(
            alexnet_layer("conv4"), config, include_adc=False
        )
        assert result.bottleneck == "convert"
        assert result.dac_bound_locations > 0

    def test_adc_binds_large_k_with_one_adc(self):
        # Digitizing 384 outputs per location at 2.8 GSa/s exceeds the
        # DAC refill — the serialization the paper's model omits.
        config = paper_assumptions()
        result = simulate_layer(alexnet_layer("conv4"), config, include_adc=True)
        assert result.bottleneck == "digitize"
        assert result.adc_bound_locations > 0

    def test_parallel_adcs_restore_dac_bound(self):
        from dataclasses import replace

        config = replace(paper_assumptions(), num_adcs=64)
        result = simulate_layer(alexnet_layer("conv4"), config, include_adc=True)
        assert result.bottleneck == "convert"

    def test_ddr3_is_memory_bound(self):
        # With a realistic DDR3 channel the fetch stage dominates — the
        # extension finding recorded in EXPERIMENTS.md.
        result = simulate_layer(
            alexnet_layer("conv4"), PCNNAConfig(), include_adc=False
        )
        assert result.bottleneck == "fetch"


class TestTrafficAndWeights:
    def test_dram_traffic_positive(self):
        result = simulate_layer(alexnet_layer("conv5"), paper_assumptions())
        assert result.dram_bytes > 0

    def test_weight_load_accounts_all_weights(self):
        spec = alexnet_layer("conv1")
        result = simulate_layer(spec, paper_assumptions())
        # One 6 GSa/s weight DAC: >= 34 848 conversions.
        assert result.weight_load_time_s >= spec.total_weights / 6e9

    def test_sram_capacity_changes_fetch_traffic(self):
        from dataclasses import replace

        from repro.electronics.sram import SramSpec

        spec = alexnet_layer("conv4")  # Working set exceeds 8 K words.
        small = simulate_layer(spec, paper_assumptions(), include_adc=False)
        big_sram = replace(
            paper_assumptions(), sram=SramSpec(capacity_bits=1024 * 1024)
        )
        large = simulate_layer(spec, big_sram, include_adc=False)
        # A big enough cache enables first-touch-only fetching.
        assert large.dram_bytes < small.dram_bytes


class TestKernelPasses:
    def test_bank_cap_scales_time(self):
        from dataclasses import replace

        spec = alexnet_layer("conv4")
        full = simulate_layer(spec, paper_assumptions(), include_adc=False)
        capped_config = replace(paper_assumptions(), max_parallel_kernels=96)
        capped = simulate_layer(spec, capped_config, include_adc=False)
        # 384 kernels over 96 banks = 4 passes, ~4x the time.
        assert capped.pipelined_time_s == pytest.approx(
            4 * full.pipelined_time_s, rel=0.05
        )


class TestSimulateNetwork:
    def test_layer_order_preserved(self):
        results = simulate_network(alexnet_conv_specs(), paper_assumptions())
        assert [result.name for result in results] == [
            "conv1", "conv2", "conv3", "conv4", "conv5",
        ]

    def test_small_synthetic_layer(self):
        spec = ConvLayerSpec("tiny", n=6, m=3, nc=2, num_kernels=4)
        result = simulate_layer(spec, paper_assumptions())
        assert result.pipelined_time_s > 0
        assert result.stages.compute_s == pytest.approx(
            spec.n_locs * 0.2e-9
        )
