"""Tests for photodiode and balanced-photodetector models."""

import numpy as np
import pytest

from repro.photonics.noise import NoiseConfig, ideal
from repro.photonics.photodiode import (
    BalancedPhotodetector,
    Photodiode,
    PhotodiodeSpec,
)


class TestPhotodiodeSpec:
    def test_rejects_nonpositive_responsivity(self):
        with pytest.raises(ValueError):
            PhotodiodeSpec(responsivity_a_per_w=0.0)

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ValueError):
            PhotodiodeSpec(bandwidth_hz=-1.0)

    def test_rejects_negative_dark_current(self):
        with pytest.raises(ValueError):
            PhotodiodeSpec(dark_current_a=-1e-9)

    def test_shot_noise_grows_with_current(self):
        spec = PhotodiodeSpec()
        assert spec.shot_noise_sigma_a(1e-3) > spec.shot_noise_sigma_a(1e-6)

    def test_shot_noise_formula(self):
        spec = PhotodiodeSpec(bandwidth_hz=1e9, dark_current_a=0.0)
        # sigma^2 = 2 q I B.
        expected = np.sqrt(2 * 1.602176634e-19 * 1e-3 * 1e9)
        assert spec.shot_noise_sigma_a(1e-3) == pytest.approx(expected)

    def test_thermal_noise_formula(self):
        spec = PhotodiodeSpec(
            bandwidth_hz=1e9, load_resistance_ohm=50.0, temperature_k=300.0
        )
        expected = np.sqrt(4 * 1.380649e-23 * 300.0 * 1e9 / 50.0)
        assert spec.thermal_noise_sigma_a() == pytest.approx(expected)


class TestPhotodiode:
    def test_ideal_detection_sums_channels(self):
        pd = Photodiode(PhotodiodeSpec(responsivity_a_per_w=0.8))
        powers = np.array([1e-3, 2e-3, 3e-3])
        assert pd.detect(powers) == pytest.approx(0.8 * 6e-3)

    def test_rejects_negative_power(self):
        pd = Photodiode()
        with pytest.raises(ValueError):
            pd.detect(np.array([1e-3, -1e-6]))
        with pytest.raises(ValueError, match="cannot be negative"):
            pd.detect(np.array([[1e-3, 1e-3], [1e-3, -1e-9]]))

    def test_empty_power_vector_gives_zero(self):
        assert Photodiode().detect(np.array([])) == pytest.approx(0.0)

    def test_noise_perturbs_current(self):
        noise = NoiseConfig(enabled=True, seed=0)
        pd = Photodiode(noise=noise)
        powers = np.full(8, 1e-3)
        samples = {pd.detect(powers) for _ in range(5)}
        assert len(samples) > 1

    def test_noise_zero_mean(self):
        noise = NoiseConfig(enabled=True, seed=3)
        pd = Photodiode(noise=noise)
        powers = np.full(4, 1e-3)
        mean_current = np.mean([pd.detect(powers) for _ in range(3000)])
        ideal_current = Photodiode().detect(powers)
        assert mean_current == pytest.approx(ideal_current, rel=1e-2)

    def test_to_voltage_uses_tia_gain(self):
        pd = Photodiode(PhotodiodeSpec(tia_gain_ohm=1000.0))
        assert pd.to_voltage(1e-3) == pytest.approx(1.0)


class TestBalancedPhotodetector:
    def test_balanced_subtracts(self):
        bpd = BalancedPhotodetector(PhotodiodeSpec(responsivity_a_per_w=1.0))
        drop = np.array([3e-3])
        through = np.array([1e-3])
        assert bpd.detect(drop, through) == pytest.approx(2e-3)

    def test_balanced_can_be_negative(self):
        bpd = BalancedPhotodetector()
        assert bpd.detect(np.array([1e-3]), np.array([2e-3])) < 0

    def test_equal_arms_cancel(self):
        bpd = BalancedPhotodetector()
        powers = np.array([1e-3, 2e-3])
        assert bpd.detect(powers, powers) == pytest.approx(0.0, abs=1e-15)

    def test_implements_signed_weight(self):
        # Drop fraction d realizes weight 2d - 1 for unit power.
        bpd = BalancedPhotodetector(PhotodiodeSpec(responsivity_a_per_w=1.0))
        power = 1e-3
        for weight in (-1.0, -0.5, 0.0, 0.5, 1.0):
            drop_fraction = (1.0 + weight) / 2.0
            current = bpd.detect(
                np.array([power * drop_fraction]),
                np.array([power * (1.0 - drop_fraction)]),
            )
            assert current == pytest.approx(weight * power, abs=1e-18)

    def test_noise_shared_config(self):
        noise = NoiseConfig(enabled=True, seed=5)
        bpd = BalancedPhotodetector(noise=noise)
        assert bpd.noise is noise
