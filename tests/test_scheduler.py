"""Tests for the receptive-field dataflow scheduler."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import first_touch_walk, schedule_walk

from repro.core.scheduler import LayerSchedule, dram_traffic_bytes
from repro.nn.shapes import ConvLayerSpec
from repro.workloads import alexnet_layer


class TestScheduleStructure:
    def test_number_of_steps_is_nlocs(self):
        spec = ConvLayerSpec("t", n=10, m=3, nc=2, num_kernels=4)
        schedule = LayerSchedule(spec)
        assert len(list(schedule.steps())) == spec.n_locs

    def test_first_step_loads_full_window(self):
        spec = ConvLayerSpec("t", n=10, m=3, nc=2, num_kernels=4)
        first = next(iter(LayerSchedule(spec).steps()))
        assert first.new_values == spec.n_kernel
        assert first.retired_values == 0
        assert first.is_row_start

    def test_working_set_is_always_nkernel(self):
        spec = ConvLayerSpec("t", n=8, m=3, nc=3, num_kernels=2, p=1, s=2)
        for step in LayerSchedule(spec).steps():
            assert step.working_set == spec.n_kernel

    def test_rows_and_cols_raster_order(self):
        spec = ConvLayerSpec("t", n=6, m=3, nc=1, num_kernels=1)
        steps = list(LayerSchedule(spec).steps())
        side = spec.output_side
        assert steps[0].row == 0 and steps[0].col == 0
        assert steps[side].row == 1 and steps[side].col == 0
        assert steps[side].is_row_start

    def test_indices_for_bounds(self):
        spec = ConvLayerSpec("t", n=6, m=3, nc=1, num_kernels=1)
        schedule = LayerSchedule(spec)
        with pytest.raises(IndexError):
            schedule.indices_for(spec.n_locs)
        with pytest.raises(IndexError):
            schedule.indices_for(-1)


class TestClosedFormSchedule:
    """The closed-form counts equal the set walk over the receptive
    fields, step for step."""

    @given(
        n=st.integers(min_value=1, max_value=9),
        m=st.integers(min_value=1, max_value=5),
        nc=st.integers(min_value=1, max_value=3),
        s=st.integers(min_value=1, max_value=6),
        p=st.integers(min_value=0, max_value=2),
    )
    @example(n=9, m=2, nc=2, s=5, p=0)  # stride > kernel
    @example(n=7, m=3, nc=3, s=2, p=2)  # padding, row wrap-around
    @example(n=3, m=3, nc=2, s=1, p=0)  # one location
    @example(n=1, m=3, nc=1, s=4, p=1)  # one location, all padding
    @settings(max_examples=150, deadline=None)
    def test_steps_and_first_touch_match_the_walk(self, n, m, nc, s, p):
        assume(m <= n + 2 * p)
        spec = ConvLayerSpec("t", n=n, m=m, nc=nc, num_kernels=1, s=s, p=p)
        schedule = LayerSchedule(spec)
        walked = list(schedule_walk(spec))
        assert list(schedule.steps()) == walked
        assert schedule.new_value_counts().tolist() == [
            step.new_values for step in walked
        ]
        assert schedule.total_values_loaded() == sum(
            step.new_values for step in walked
        )
        assert schedule.first_touch_counts().tolist() == (
            first_touch_walk(spec).tolist()
        )


class TestSteadyStateBound:
    @given(
        n=st.integers(min_value=4, max_value=20),
        m=st.integers(min_value=1, max_value=5),
        nc=st.integers(min_value=1, max_value=4),
        s=st.integers(min_value=1, max_value=3),
        p=st.integers(min_value=0, max_value=2),
    )
    @settings(max_examples=60, deadline=None)
    def test_mid_row_steps_obey_paper_bound(self, n, m, nc, s, p):
        """Paper section V-B: consecutive locations update <= nc * m * s."""
        if m > n + 2 * p:
            return
        spec = ConvLayerSpec("t", n=n, m=m, nc=nc, num_kernels=1, s=s, p=p)
        schedule = LayerSchedule(spec)
        bound = schedule.steady_state_bound()
        for step in schedule.steps():
            if not step.is_row_start:
                assert step.new_values <= bound

    def test_conv4_mid_row_update_is_1152(self):
        spec = alexnet_layer("conv4")
        schedule = LayerSchedule(spec)
        steps = list(schedule.steps())
        # Steady-state mid-row steps update exactly nc * m * s values.
        assert steps[1].new_values == 1152
        assert steps[2].new_values == 1152

    def test_row_start_can_exceed_bound(self):
        spec = ConvLayerSpec("t", n=10, m=3, nc=1, num_kernels=1)
        schedule = LayerSchedule(spec)
        steps = list(schedule.steps())
        row_start = steps[spec.output_side]
        assert row_start.new_values > schedule.steady_state_bound()


class TestConservation:
    @given(
        n=st.integers(min_value=4, max_value=16),
        m=st.integers(min_value=1, max_value=4),
        nc=st.integers(min_value=1, max_value=3),
        s=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_new_minus_retired_balances(self, n, m, nc, s):
        if m > n:
            return
        spec = ConvLayerSpec("t", n=n, m=m, nc=nc, num_kernels=1, s=s)
        steps = list(LayerSchedule(spec).steps())
        net = sum(step.new_values - step.retired_values for step in steps)
        # What remains in the window after the last step is exactly Nkernel.
        assert net == spec.n_kernel

    def test_total_loaded_at_least_distinct_values(self):
        spec = ConvLayerSpec("t", n=8, m=3, nc=2, num_kernels=1)
        schedule = LayerSchedule(spec)
        distinct = len(
            set(np.unique(np.concatenate([schedule.indices_for(i)
                                          for i in range(spec.n_locs)])))
        )
        assert schedule.total_values_loaded() >= distinct

    def test_first_touch_sums_to_distinct_values(self):
        spec = ConvLayerSpec("t", n=8, m=3, nc=2, num_kernels=1, s=2, p=1)
        schedule = LayerSchedule(spec)
        all_indices = np.concatenate(
            [schedule.indices_for(i) for i in range(spec.n_locs)]
        )
        assert schedule.first_touch_counts().sum() == len(np.unique(all_indices))

    def test_first_touch_never_exceeds_new_values(self):
        spec = ConvLayerSpec("t", n=10, m=3, nc=1, num_kernels=1)
        schedule = LayerSchedule(spec)
        first_touch = schedule.first_touch_counts()
        for step in schedule.steps():
            assert first_touch[step.index] <= step.new_values

    def test_non_overlapping_stride_loads_each_value_once(self):
        spec = ConvLayerSpec("t", n=8, m=2, nc=1, num_kernels=1, s=2)
        schedule = LayerSchedule(spec)
        # Stride == kernel: windows tile the input exactly.
        assert schedule.total_values_loaded() == spec.n_input


class TestWorkingSet:
    def test_working_set_formula(self):
        spec = ConvLayerSpec("t", n=13, m=3, nc=384, num_kernels=1, p=1)
        assert LayerSchedule(spec).working_set_values() == 384 * 3 * 15

    def test_conv1_fits_paper_sram(self):
        # conv1's 11-row band: 3 * 11 * 228 = 7524 < 8192 words.
        schedule = LayerSchedule(alexnet_layer("conv1"))
        assert schedule.working_set_values() <= 8192

    def test_conv4_exceeds_paper_sram(self):
        schedule = LayerSchedule(alexnet_layer("conv4"))
        assert schedule.working_set_values() > 8192


class TestDramTraffic:
    def test_traffic_components(self):
        spec = ConvLayerSpec("t", n=8, m=3, nc=2, num_kernels=4)
        traffic = dram_traffic_bytes(spec, value_bytes=2)
        assert traffic["weight_read"] == spec.total_weights * 2
        assert traffic["output_write"] == spec.n_output * 2
        assert traffic["total"] == (
            traffic["input_read"] + traffic["weight_read"] + traffic["output_write"]
        )

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            dram_traffic_bytes(alexnet_layer("conv5"), value_bytes=0)

    def test_stride_reuse_cuts_input_traffic(self):
        overlapping = ConvLayerSpec("t", n=16, m=4, nc=1, num_kernels=1, s=1)
        traffic = dram_traffic_bytes(overlapping, value_bytes=2)
        naive = overlapping.n_locs * overlapping.n_kernel * 2
        assert traffic["input_read"] < naive
