"""Tests for the batching model and the layer-sequencing controller."""

import pytest

from repro.core.batching import (
    layer_batch_time_s,
    network_batch_timing,
    network_batch_timing_simulated,
    weight_stationary_crossover,
)
from repro.core.controller import LayerController, Phase
from repro.core.timing import simulate_layer_batch
from repro.nn.shapes import ConvLayerSpec
from repro.workloads import alexnet_conv_specs, alexnet_layer


class TestBatching:
    def test_layer_batch_time_composition(self):
        from repro.core.analytical import full_system_time_s, weight_load_time_s

        spec = alexnet_layer("conv3")
        time_s = layer_batch_time_s(spec, 10)
        assert time_s == pytest.approx(
            weight_load_time_s(spec) + 10 * full_system_time_s(spec)
        )

    def test_rejects_bad_batch(self):
        with pytest.raises(ValueError):
            layer_batch_time_s(alexnet_layer("conv1"), 0)
        with pytest.raises(ValueError):
            network_batch_timing(alexnet_conv_specs(), -1)

    @pytest.mark.parametrize(
        "batch_time",
        [
            lambda b: layer_batch_time_s(alexnet_layer("conv5"), b),
            lambda b: network_batch_timing(alexnet_conv_specs(), b),
            lambda b: network_batch_timing_simulated(alexnet_conv_specs(), b),
            lambda b: simulate_layer_batch(alexnet_layer("conv5"), b),
        ],
        ids=[
            "layer_batch_time_s",
            "network_batch_timing",
            "network_batch_timing_simulated",
            "simulate_layer_batch",
        ],
    )
    @pytest.mark.parametrize("batch_size", [True, 2.5, float("nan"), 0])
    def test_rejects_non_count_batch(self, batch_time, batch_size):
        # A bool, a float, or nan is not a batch size; nan once slipped
        # through a bare `<= 0` check and returned a nan total.
        with pytest.raises(ValueError, match="batch size"):
            batch_time(batch_size)

    def test_throughput_improves_with_batch(self):
        specs = alexnet_conv_specs()
        small = network_batch_timing(specs, 1)
        large = network_batch_timing(specs, 256)
        assert large.images_per_s > small.images_per_s

    def test_weight_load_fraction_shrinks(self):
        specs = alexnet_conv_specs()
        assert (
            network_batch_timing(specs, 128).weight_load_fraction
            < network_batch_timing(specs, 1).weight_load_fraction
        )

    def test_batch_of_one_is_load_dominated(self):
        # The extension finding: single-image AlexNet is weight-bound.
        timing = network_batch_timing(alexnet_conv_specs(), 1)
        assert timing.weight_load_fraction > 0.9

    def test_crossover_batch(self):
        specs = alexnet_conv_specs()
        crossover = weight_stationary_crossover(specs)
        below = network_batch_timing(specs, max(crossover - 1, 1))
        above = network_batch_timing(specs, crossover)
        assert below.weight_load_s >= below.conv_time_s or crossover == 1
        assert above.conv_time_s >= above.weight_load_s

    def test_per_image_latency_approaches_conv_time(self):
        from repro.core.analytical import full_system_time_s

        specs = alexnet_conv_specs()
        conv_only = sum(full_system_time_s(spec) for spec in specs)
        amortized = network_batch_timing(specs, 10_000).per_image_s
        assert amortized == pytest.approx(conv_only, rel=0.01)


class TestController:
    def small_spec(self) -> ConvLayerSpec:
        return ConvLayerSpec("small", n=8, m=3, nc=2, num_kernels=4)

    def test_every_location_executed_once(self):
        spec = self.small_spec()
        report = LayerController().run_layer(spec)
        assert report.locations_executed == spec.n_locs
        waves = report.events_in_phase(Phase.STREAM_LOCATIONS)
        assert sorted(event.detail for event in waves) == list(range(spec.n_locs))

    def test_all_outputs_written(self):
        spec = self.small_spec()
        report = LayerController().run_layer(spec)
        assert report.outputs_written == spec.n_output

    def test_weights_loaded_before_streaming(self):
        report = LayerController().run_layer(self.small_spec())
        phases = [event.phase for event in report.events]
        first_stream = phases.index(Phase.STREAM_LOCATIONS)
        assert Phase.LOAD_WEIGHTS in phases[:first_stream]
        assert Phase.PROGRAM_BANKS in phases[:first_stream]

    def test_trace_timestamps_monotone(self):
        report = LayerController().run_layer(self.small_spec())
        times = [event.time_s for event in report.events]
        assert all(a <= b for a, b in zip(times, times[1:]))

    def test_finish_time_positive(self):
        report = LayerController().run_layer(self.small_spec())
        assert report.finish_time_s > 0
        assert report.events[-1].phase == Phase.DONE

    def test_small_output_buffer_forces_flushes(self):
        spec = self.small_spec()
        controller = LayerController(output_buffer_capacity=8)
        report = controller.run_layer(spec)
        flushes = report.events_in_phase(Phase.DRAIN_OUTPUTS)
        assert len(flushes) > 1
        assert report.outputs_written == spec.n_output

    def test_kernel_cap_respected(self):
        from repro.core.config import PCNNAConfig

        spec = self.small_spec()
        controller = LayerController(PCNNAConfig(max_parallel_kernels=2))
        report = controller.run_layer(spec)
        # 2 of 4 kernels per wave -> half the outputs per pass.
        assert report.outputs_written == spec.n_locs * 2

    def test_alexnet_conv5_runs(self):
        report = LayerController().run_layer(alexnet_layer("conv5"))
        assert report.locations_executed == 169
        assert report.finish_time_s > 0
