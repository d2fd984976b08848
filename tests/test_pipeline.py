"""Tests for the discrete-event pipeline simulator."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import pipeline_des

from repro.core.config import PCNNAConfig, paper_assumptions
from repro.core.pipeline import (
    STAGE_NAMES,
    max_approximation_error,
    simulate_pipeline,
    stage_service_times,
)
from repro.nn.shapes import ConvLayerSpec
from repro.workloads import (
    alexnet_conv_specs,
    alexnet_layer,
    lenet5_conv_specs,
)


class TestServiceTimes:
    def test_shape(self):
        spec = ConvLayerSpec("t", n=8, m=3, nc=2, num_kernels=4)
        service = stage_service_times(spec)
        assert service.shape == (4, spec.n_locs)

    def test_compute_stage_is_one_fast_cycle(self):
        spec = ConvLayerSpec("t", n=8, m=3, nc=2, num_kernels=4)
        service = stage_service_times(spec)
        assert np.allclose(service[2], 0.2e-9)

    def test_adc_disabled_zeroes_digitize(self):
        spec = ConvLayerSpec("t", n=8, m=3, nc=2, num_kernels=4)
        service = stage_service_times(spec, include_adc=False)
        assert np.all(service[3] == 0.0)

    def test_all_times_nonnegative(self):
        service = stage_service_times(alexnet_layer("conv2"))
        assert np.all(service >= 0.0)

    def test_first_location_has_largest_convert(self):
        # The first location converts the full window.
        spec = ConvLayerSpec("t", n=10, m=3, nc=4, num_kernels=2)
        service = stage_service_times(spec)
        assert service[1, 0] == service[1].max()


class TestPipelineSimulation:
    def test_makespan_at_least_critical_stage(self):
        spec = alexnet_layer("conv4")
        result = simulate_pipeline(spec, paper_assumptions(), include_adc=False)
        assert result.makespan_s >= max(result.stage_busy_s)

    def test_makespan_at_most_serial_sum(self):
        spec = alexnet_layer("conv3")
        result = simulate_pipeline(spec, paper_assumptions())
        assert result.makespan_s <= sum(result.stage_busy_s) + 1e-12

    def test_critical_stage_is_convert_under_paper_assumptions(self):
        result = simulate_pipeline(
            alexnet_layer("conv4"), paper_assumptions(), include_adc=False
        )
        assert result.critical_stage == "convert"
        # The bottleneck stage is essentially saturated.
        assert result.stage_utilization[1] > 0.95

    def test_critical_stage_is_digitize_with_one_adc(self):
        result = simulate_pipeline(
            alexnet_layer("conv4"), paper_assumptions(), include_adc=True
        )
        assert result.critical_stage == "digitize"

    def test_stage_names_order(self):
        assert STAGE_NAMES == ("fetch", "convert", "compute", "digitize")

    def test_single_location_layer(self):
        spec = ConvLayerSpec("t", n=3, m=3, nc=1, num_kernels=2)
        result = simulate_pipeline(spec, paper_assumptions())
        # One job: makespan is the serial traversal.
        assert result.makespan_s == pytest.approx(sum(result.stage_busy_s))


class TestDesOraclePin:
    """Folding each stage with ``_maxplus_scan`` reproduces the
    job-by-stage recurrence (``oracles.pipeline_des``) over the same
    stage-time table, byte for byte."""

    @pytest.mark.parametrize("include_adc", [True, False])
    @pytest.mark.parametrize(
        "config",
        [
            PCNNAConfig(),
            paper_assumptions(),
            PCNNAConfig(max_parallel_kernels=64),
            PCNNAConfig(num_adcs=1),
        ],
        ids=["default", "paper", "banks64", "adc1"],
    )
    def test_makespan_equals_double_loop(self, config, include_adc):
        for spec in lenet5_conv_specs() + alexnet_conv_specs():
            service = stage_service_times(spec, config, include_adc)
            result = simulate_pipeline(spec, config, include_adc)
            assert result.makespan_s == pipeline_des(service), spec.name
            assert result.stage_busy_s == tuple(
                float(row.sum()) for row in service
            )

    @given(
        n=st.integers(min_value=1, max_value=12),
        m=st.integers(min_value=1, max_value=5),
        nc=st.integers(min_value=1, max_value=4),
        s=st.integers(min_value=1, max_value=6),
        p=st.integers(min_value=0, max_value=2),
        kernels=st.integers(min_value=1, max_value=40),
        dacs=st.integers(min_value=1, max_value=8),
        adcs=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_layers(self, n, m, nc, s, p, kernels, dacs, adcs):
        assume(m <= n + 2 * p)
        spec = ConvLayerSpec("t", n=n, m=m, nc=nc, num_kernels=kernels, s=s, p=p)
        config = replace(paper_assumptions(), num_input_dacs=dacs, num_adcs=adcs)
        assert simulate_pipeline(spec, config).makespan_s == pipeline_des(
            stage_service_times(spec, config)
        )


class TestClosedFormBracket:
    def test_timing_model_overestimates_slightly(self):
        """The timing.py max() model must be an upper bound within ~10 %."""
        for spec in alexnet_conv_specs():
            error = max_approximation_error(
                spec, paper_assumptions(), include_adc=False
            )
            assert 0.0 <= error < 0.10, spec.name

    def test_bracket_holds_with_adc(self):
        for spec in alexnet_conv_specs():
            error = max_approximation_error(spec, paper_assumptions())
            assert -0.01 <= error < 0.15, spec.name

    def test_exact_vs_analytical_order_of_magnitude(self):
        from repro.core.analytical import full_system_time_s

        spec = alexnet_layer("conv4")
        exact = simulate_pipeline(
            spec, paper_assumptions(), include_adc=False
        ).makespan_s
        assert exact == pytest.approx(full_system_time_s(spec), rel=0.25)
