"""Tests for closed-loop weight-bank calibration."""

import numpy as np
import pytest

from repro.photonics.calibration import calibrate_bank, measure_effective_weights
from repro.photonics.microring import MicroringDesign
from repro.photonics.noise import NoiseConfig, ideal
from repro.photonics.wdm import WdmGrid
from repro.photonics.weight_bank import WeightBank


def crosstalk_bank(num_rings=8, quality_factor=20_000) -> WeightBank:
    noise = NoiseConfig(
        enabled=True, shot_noise=False, thermal_noise=False, crosstalk=True, seed=0
    )
    return WeightBank(
        WdmGrid(num_rings), MicroringDesign(quality_factor=quality_factor), noise
    )


class TestMeasurement:
    def test_ideal_bank_measures_programmed(self):
        bank = WeightBank(WdmGrid(4), noise=ideal())
        weights = np.array([0.3, -0.5, 0.0, 1.0])
        bank.set_weights(weights)
        assert np.allclose(measure_effective_weights(bank), weights, atol=1e-12)

    def test_crosstalk_bank_measures_deviation(self):
        bank = crosstalk_bank(quality_factor=5_000)
        weights = np.full(8, 0.5)
        bank.set_weights(weights)
        measured = measure_effective_weights(bank)
        assert not np.allclose(measured, weights, atol=1e-3)


class TestCalibration:
    def test_converges_with_moderate_crosstalk(self):
        bank = crosstalk_bank(quality_factor=20_000)
        rng = np.random.default_rng(1)
        target = rng.uniform(-0.7, 0.7, 8)
        result = calibrate_bank(bank, target)
        assert result.converged
        assert result.residual < 1e-6
        assert result.improvement > 1_000

    def test_open_loop_error_recorded(self):
        bank = crosstalk_bank(quality_factor=10_000)
        target = np.full(8, 0.4)
        result = calibrate_bank(bank, target)
        assert result.initial_residual > result.residual

    def test_ideal_bank_needs_no_iterations(self):
        bank = WeightBank(WdmGrid(6), noise=ideal())
        target = np.linspace(-0.9, 0.9, 6)
        result = calibrate_bank(bank, target)
        assert result.converged
        assert result.iterations == 0

    def test_severe_crosstalk_fails_gracefully(self):
        # Q = 5000 on a 100 GHz grid: the crosstalk floor exceeds the
        # correctable range (commands clip at +-1), so calibration cannot
        # converge — a real design constraint, reported not raised.
        bank = crosstalk_bank(quality_factor=5_000)
        rng = np.random.default_rng(0)
        target = rng.uniform(-0.7, 0.7, 8)
        result = calibrate_bank(bank, target, max_iterations=30)
        assert not result.converged
        assert result.residual > 1e-2

    def test_commanded_weights_stay_in_range(self):
        bank = crosstalk_bank(quality_factor=10_000)
        target = np.full(8, 0.95)  # Near the rail.
        result = calibrate_bank(bank, target, max_iterations=30)
        assert np.all(np.abs(result.commanded) <= 1.0)

    def test_lower_gain_converges_slower(self):
        rng = np.random.default_rng(3)
        target = rng.uniform(-0.6, 0.6, 8)
        fast = calibrate_bank(crosstalk_bank(), target, gain=1.0, max_iterations=80)
        slow = calibrate_bank(crosstalk_bank(), target, gain=0.3, max_iterations=80)
        assert fast.converged and slow.converged
        assert slow.iterations >= fast.iterations

    def test_rejects_bad_inputs(self):
        bank = crosstalk_bank()
        with pytest.raises(ValueError):
            calibrate_bank(bank, np.zeros(5))
        with pytest.raises(ValueError):
            calibrate_bank(bank, np.full(8, 1.5))
        with pytest.raises(ValueError):
            calibrate_bank(bank, np.zeros(8), gain=0.0)

    @pytest.mark.parametrize("max_iterations", [True, False, -3, 2.5, "3"])
    def test_rejects_bad_max_iterations(self, max_iterations):
        # True used to run one iteration, -3 none, and 2.5 died with a
        # bare TypeError inside `range`.
        with pytest.raises(ValueError, match="max iterations"):
            calibrate_bank(
                crosstalk_bank(), np.zeros(8), max_iterations=max_iterations
            )

    @pytest.mark.parametrize("tolerance", [np.nan, -1e-6, -np.inf])
    def test_rejects_nan_or_negative_tolerance(self, tolerance):
        # A NaN tolerance used to run every iteration and never converge.
        with pytest.raises(ValueError, match="tolerance"):
            calibrate_bank(crosstalk_bank(), np.zeros(8), tolerance=tolerance)

    def test_zero_iterations_runs_open_loop(self):
        result = calibrate_bank(crosstalk_bank(), np.zeros(8), max_iterations=0)
        assert result.iterations == 0
        assert result.residual == result.initial_residual

    def test_accepts_numpy_integer_iterations(self):
        result = calibrate_bank(
            crosstalk_bank(), np.zeros(8), max_iterations=np.int64(2)
        )
        assert result.iterations <= 2

    def test_rejects_nan_targets(self):
        """Regression: `abs(nan) > 1` is False, so NaN targets used to
        slip past the range check and calibrate towards NaN."""
        target = np.zeros(8)
        target[2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            calibrate_bank(crosstalk_bank(), target)
