"""Tests for broadcast-and-weight MAC units and layers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.photonics.broadcast_weight import (
    BroadcastAndWeightLayer,
    PhotonicMacUnit,
)
from repro.photonics.noise import NoiseConfig, realistic
from repro.photonics.photodiode import PhotodiodeSpec
from repro.photonics.wdm import WdmGrid


class TestPhotonicMacUnit:
    def test_ideal_dot_product_exact(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, 16)
        w = rng.uniform(-1, 1, 16)
        mac = PhotonicMacUnit(16)
        assert mac.dot(x, w) == pytest.approx(float(x @ w), abs=1e-12)

    @given(
        x=arrays(float, 9, elements=st.floats(min_value=0.0, max_value=1.0, width=64)),
        w=arrays(float, 9, elements=st.floats(min_value=-1.0, max_value=1.0, width=64)),
    )
    @settings(max_examples=40, deadline=None)
    def test_ideal_dot_product_property(self, x, w):
        mac = PhotonicMacUnit(9)
        assert mac.dot(x, w) == pytest.approx(float(x @ w), abs=1e-9)

    def test_rejects_nonpositive_inputs(self):
        with pytest.raises(ValueError):
            PhotonicMacUnit(0)

    def test_grid_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PhotonicMacUnit(4, grid=WdmGrid(5))

    def test_zero_weights_give_zero(self):
        mac = PhotonicMacUnit(8)
        assert mac.dot(np.full(8, 0.7), np.zeros(8)) == pytest.approx(0.0, abs=1e-12)

    def test_negative_weights_give_negative_output(self):
        mac = PhotonicMacUnit(4)
        result = mac.dot(np.full(4, 0.5), np.full(4, -1.0))
        assert result == pytest.approx(-2.0, abs=1e-12)

    def test_noisy_mode_close_but_not_exact(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 1, 32)
        w = rng.uniform(-1, 1, 32)
        mac = PhotonicMacUnit(
            32,
            noise=NoiseConfig(enabled=True, ring_tuning_sigma=0.002, seed=4),
        )
        result = mac.dot(x, w)
        exact = float(x @ w)
        assert result != pytest.approx(exact, abs=1e-12)
        assert result == pytest.approx(exact, abs=0.5)

    def test_calibration_scale_positive(self):
        assert PhotonicMacUnit(4).calibration_scale > 0


class TestBroadcastAndWeightLayer:
    def test_ideal_matvec_exact(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 1, 12)
        W = rng.uniform(-1, 1, (7, 12))
        layer = BroadcastAndWeightLayer(12, 7)
        assert np.allclose(layer.matvec(x, W), W @ x, atol=1e-12)

    def test_output_shape(self):
        layer = BroadcastAndWeightLayer(5, 3)
        layer.set_weight_matrix(np.zeros((3, 5)))
        assert layer.compute(np.zeros(5)).shape == (3,)

    def test_total_rings_is_k_times_nkernel(self):
        layer = BroadcastAndWeightLayer(9, 5)
        assert layer.total_rings == 45

    def test_weight_matrix_shape_check(self):
        layer = BroadcastAndWeightLayer(5, 3)
        with pytest.raises(ValueError):
            layer.set_weight_matrix(np.zeros((3, 4)))

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError):
            BroadcastAndWeightLayer(0, 3)
        with pytest.raises(ValueError):
            BroadcastAndWeightLayer(3, 0)

    def test_splitter_loss_calibrated_out(self):
        # Result must be independent of the number of banks sharing the bus.
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 1, 6)
        w = rng.uniform(-1, 1, 6)
        few = BroadcastAndWeightLayer(6, 2)
        many = BroadcastAndWeightLayer(6, 50)
        few_result = few.matvec(x, np.tile(w, (2, 1)))[0]
        many_result = many.matvec(x, np.tile(w, (50, 1)))[0]
        assert few_result == pytest.approx(many_result, abs=1e-12)
        assert few_result == pytest.approx(float(w @ x), abs=1e-12)

    def test_kernels_computed_in_parallel_agree_with_sequential(self):
        # The PCNNA claim: K banks on one broadcast equal K separate MACs.
        rng = np.random.default_rng(4)
        x = rng.uniform(0, 1, 10)
        W = rng.uniform(-1, 1, (4, 10))
        layer = BroadcastAndWeightLayer(10, 4)
        parallel = layer.matvec(x, W)
        mac = PhotonicMacUnit(10)
        sequential = np.array([mac.dot(x, W[k]) for k in range(4)])
        assert np.allclose(parallel, sequential, atol=1e-12)

    def test_realistic_noise_bounded_error(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 1, 27)
        W = rng.uniform(-1, 1, (3, 27))
        layer = BroadcastAndWeightLayer(27, 3, noise=realistic(seed=6))
        result = layer.matvec(x, W)
        exact = W @ x
        # Crosstalk at Q=8000 / 100 GHz dominates; errors stay bounded.
        assert np.max(np.abs(result - exact)) < 2.0


class TestRinBandwidth:
    """RIN integrates over the detectors' bandwidth in every device."""

    @staticmethod
    def _rin_only():
        return NoiseConfig(
            enabled=True,
            shot_noise=False,
            thermal_noise=False,
            relative_intensity_noise_db_per_hz=-130.0,
            seed=4,
        )

    def test_layer_and_mac_unit_draw_rin_with_the_same_sigma(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(0.2, 1.0, (6, 8))
        w = rng.uniform(0.2, 1.0, 8)
        exact = x @ w
        # A non-default bandwidth: RIN's sigma scales with its square root.
        spec = PhotodiodeSpec(bandwidth_hz=25e9)
        unit = PhotonicMacUnit(8, photodiode_spec=spec, noise=self._rin_only())
        unit.set_weights(w)
        layer = BroadcastAndWeightLayer(
            8, 1, photodiode_spec=spec, noise=self._rin_only()
        )
        layer.set_weight_matrix(w[None])
        # The same seed draws the same unit normals, so the relative
        # errors match only if both scale them by the same sigma.
        unit_err = unit.compute_batch(x) / exact - 1.0
        layer_err = layer.compute_batch(x)[:, 0] / exact - 1.0
        assert np.all(unit_err != 0.0)
        assert np.allclose(layer_err, unit_err, rtol=1e-9, atol=0.0)
        unit_err = unit.compute(x[0]) / exact[0] - 1.0
        layer_err = layer.compute(x[0])[0] / exact[0] - 1.0
        assert unit_err != 0.0
        assert layer_err == pytest.approx(unit_err, rel=1e-9)
