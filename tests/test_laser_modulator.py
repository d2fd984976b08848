"""Tests for the laser bank and Mach-Zehnder modulator models."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.photonics.laser import LaserBank, LaserSpec
from repro.photonics.modulator import MachZehnderModulator, ModulatorSpec
from repro.photonics.noise import NoiseConfig, ideal
from repro.photonics.wdm import WdmGrid


class TestLaserSpec:
    def test_rejects_nonpositive_power(self):
        with pytest.raises(ValueError):
            LaserSpec(power_w=0.0)

    def test_rejects_bad_efficiency(self):
        with pytest.raises(ValueError):
            LaserSpec(wall_plug_efficiency=0.0)
        with pytest.raises(ValueError):
            LaserSpec(wall_plug_efficiency=1.5)

    def test_electrical_power(self):
        spec = LaserSpec(power_w=1e-3, wall_plug_efficiency=0.1)
        assert spec.electrical_power_w == pytest.approx(10e-3)


class TestLaserBank:
    def test_ideal_emission_is_uniform_nominal(self):
        bank = LaserBank(WdmGrid(8), LaserSpec(power_w=2e-3))
        powers = bank.emit()
        assert powers.shape == (8,)
        assert np.allclose(powers, 2e-3)

    def test_emission_nonnegative_under_rin(self):
        noise = NoiseConfig(
            enabled=True, relative_intensity_noise_db_per_hz=-110.0, seed=1
        )
        bank = LaserBank(WdmGrid(64), noise=noise)
        for _ in range(10):
            assert np.all(bank.emit() >= 0.0)

    def test_rin_perturbs_power(self):
        noise = NoiseConfig(
            enabled=True, relative_intensity_noise_db_per_hz=-130.0, seed=2
        )
        bank = LaserBank(WdmGrid(16), noise=noise)
        powers = bank.emit()
        assert not np.allclose(powers, bank.spec.power_w)

    def test_rin_disabled_when_master_switch_off(self):
        noise = NoiseConfig(
            enabled=False, relative_intensity_noise_db_per_hz=-110.0
        )
        bank = LaserBank(WdmGrid(16), noise=noise)
        assert np.allclose(bank.emit(), bank.spec.power_w)

    def test_total_powers(self):
        bank = LaserBank(WdmGrid(10), LaserSpec(power_w=1e-3, wall_plug_efficiency=0.2))
        assert bank.total_optical_power_w() == pytest.approx(10e-3)
        assert bank.total_electrical_power_w() == pytest.approx(50e-3)

    def test_reproducible_with_seed(self):
        noise_a = NoiseConfig(
            enabled=True, relative_intensity_noise_db_per_hz=-120.0, seed=7
        )
        noise_b = NoiseConfig(
            enabled=True, relative_intensity_noise_db_per_hz=-120.0, seed=7
        )
        a = LaserBank(WdmGrid(8), noise=noise_a).emit()
        b = LaserBank(WdmGrid(8), noise=noise_b).emit()
        assert np.array_equal(a, b)


class TestModulatorSpec:
    def test_rejects_nonpositive_vpi(self):
        with pytest.raises(ValueError):
            ModulatorSpec(v_pi=0.0)

    def test_infinite_extinction_means_zero_floor(self):
        assert ModulatorSpec().min_transmission == 0.0

    def test_finite_extinction_floor(self):
        spec = ModulatorSpec(extinction_ratio_db=20.0)
        assert spec.min_transmission == pytest.approx(0.01)

    def test_insertion_loss_transmission(self):
        spec = ModulatorSpec(insertion_loss_db=3.0)
        assert spec.insertion_transmission == pytest.approx(0.501, rel=1e-2)

    def test_rejects_negative_insertion_loss(self):
        with pytest.raises(ValueError):
            ModulatorSpec(insertion_loss_db=-1.0)


class TestMachZehnderModulator:
    def test_raw_transfer_extremes(self):
        mzm = MachZehnderModulator(ModulatorSpec(v_pi=2.0))
        assert mzm.raw_transfer(0.0) == pytest.approx(1.0)
        assert mzm.raw_transfer(2.0) == pytest.approx(0.0, abs=1e-12)

    def test_raw_transfer_quadrature(self):
        mzm = MachZehnderModulator(ModulatorSpec(v_pi=2.0))
        assert mzm.raw_transfer(1.0) == pytest.approx(0.5)

    def test_ideal_encode_is_identity(self):
        mzm = MachZehnderModulator()
        values = np.linspace(0, 1, 11)
        assert np.allclose(mzm.encode(values), values)

    def test_encode_respects_extinction_floor(self):
        mzm = MachZehnderModulator(ModulatorSpec(extinction_ratio_db=10.0))
        encoded = mzm.encode(0.0)
        assert encoded[0] == pytest.approx(0.1)

    def test_encode_rejects_out_of_range(self):
        mzm = MachZehnderModulator()
        with pytest.raises(ValueError):
            mzm.encode(np.array([0.5, 1.2]))
        with pytest.raises(ValueError):
            mzm.encode(-0.3)

    def test_encode_tolerates_float_fuzz(self):
        mzm = MachZehnderModulator()
        encoded = mzm.encode(np.array([1.0 + 1e-14, -1e-14]))
        assert encoded[0] == pytest.approx(1.0)
        assert encoded[1] == pytest.approx(0.0, abs=1e-12)

    def test_encode_range_edges_and_nan(self):
        mzm = MachZehnderModulator()
        # The tolerance bounds themselves pass, and so does NaN: it
        # compares false against both bounds.
        encoded = mzm.encode(np.array([np.nan, -1e-12, 1.0 + 1e-12]))
        assert np.isnan(encoded[0])
        assert encoded[1:].tolist() == [0.0, 1.0]
        assert np.isnan(mzm.encode(np.full((2, 3), np.nan))).all()
        assert mzm.encode(np.array([])).shape == (0,)
        # A NaN does not hide an out-of-range neighbour.
        for bad in ([np.nan, 1.0 + 1e-11], [[np.nan], [-1e-11]]):
            with pytest.raises(ValueError, match="out-of-range"):
                mzm.encode(np.array(bad))

    @given(value=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_drive_voltage_inverts_raw_transfer(self, value):
        mzm = MachZehnderModulator(ModulatorSpec(v_pi=2.0))
        voltage = mzm.drive_voltage_for(value)
        assert float(mzm.raw_transfer(voltage)) == pytest.approx(value, abs=1e-9)

    def test_drive_voltage_rejects_out_of_range(self):
        mzm = MachZehnderModulator()
        with pytest.raises(ValueError):
            mzm.drive_voltage_for(1.5)

    def test_encode_monotonic(self):
        mzm = MachZehnderModulator(ModulatorSpec(extinction_ratio_db=15.0))
        values = np.linspace(0, 1, 21)
        encoded = mzm.encode(values)
        assert np.all(np.diff(encoded) > 0)
