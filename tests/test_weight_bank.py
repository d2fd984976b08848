"""Tests for the MRR weight bank."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.photonics.microring import (
    MicroringDesign,
    drop_transmission_profile,
    lorentzian_lineshape,
)
from repro.photonics.noise import NoiseConfig, ideal
from repro.photonics.wdm import WdmGrid
from repro.photonics.weight_bank import WeightBank, bus_transmission


def make_bank(num_rings=8, noise=None, **design_kwargs) -> WeightBank:
    return WeightBank(
        WdmGrid(num_rings),
        MicroringDesign(**design_kwargs),
        noise if noise is not None else ideal(),
    )


class TestConfiguration:
    def test_one_ring_per_channel(self):
        bank = make_bank(12)
        assert bank.num_rings == 12
        assert len(bank.rings) == 12

    def test_set_weights_shape_check(self):
        bank = make_bank(4)
        with pytest.raises(ValueError):
            bank.set_weights(np.zeros(5))

    def test_set_weights_range_check(self):
        bank = make_bank(3)
        with pytest.raises(ValueError):
            bank.set_weights(np.array([0.0, 1.5, 0.0]))

    def test_set_weights_rejects_nan(self):
        """Regression: `abs(nan) > 1` is False, so a NaN weight used to
        be accepted and read out as NaN."""
        bank = make_bank(3)
        with pytest.raises(ValueError, match="finite"):
            bank.set_weights(np.array([0.1, np.nan, 0.2]))

    def test_weights_property_returns_copy(self):
        bank = make_bank(3)
        weights = np.array([0.1, -0.2, 0.3])
        bank.set_weights(weights)
        returned = bank.weights
        returned[0] = 99.0
        assert bank.weights[0] == pytest.approx(0.1)

    def test_extreme_weights_accepted(self):
        bank = make_bank(2)
        bank.set_weights(np.array([-1.0, 1.0]))
        effective = bank.effective_weights()
        assert effective[0] == pytest.approx(-1.0)
        assert effective[1] == pytest.approx(1.0)


class TestIdealTransfer:
    @given(
        weights=arrays(
            float,
            6,
            elements=st.floats(min_value=-1.0, max_value=1.0, width=64),
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_effective_weights_match_programmed(self, weights):
        bank = make_bank(6)
        bank.set_weights(weights)
        assert np.allclose(bank.effective_weights(), weights, atol=1e-12)

    def test_transmission_fractions_bounded(self):
        bank = make_bank(5)
        bank.set_weights(np.linspace(-1, 1, 5))
        drop, through = bank.transmission_matrix()
        assert np.all(drop >= 0) and np.all(drop <= 1)
        assert np.all(through >= 0) and np.all(through <= 1)
        assert np.all(drop + through <= 1.0 + 1e-12)

    def test_apply_weights_power(self):
        bank = make_bank(4)
        bank.set_weights(np.array([1.0, 0.0, -1.0, 0.5]))
        powers = np.full(4, 2e-3)
        drop, through = bank.apply(powers)
        # weight 1 -> all power dropped; weight -1 -> all passed through.
        assert drop[0] == pytest.approx(2e-3)
        assert through[0] == pytest.approx(0.0, abs=1e-12)
        assert drop[2] == pytest.approx(0.0, abs=1e-12)
        assert through[2] == pytest.approx(2e-3)
        # weight 0 -> split evenly.
        assert drop[1] == pytest.approx(1e-3)

    def test_apply_shape_check(self):
        bank = make_bank(4)
        bank.set_weights(np.zeros(4))
        with pytest.raises(ValueError):
            bank.apply(np.zeros(3))

    def test_apply_rejects_negative_power(self):
        bank = make_bank(2)
        bank.set_weights(np.zeros(2))
        with pytest.raises(ValueError):
            bank.apply(np.array([1e-3, -1e-3]))
        with pytest.raises(ValueError, match="cannot be negative"):
            bank.apply(np.array([[1e-3, 1e-3], [1e-3, -1e-9]]))


class TestNonIdealTransfer:
    def test_tuning_error_perturbs_weights(self):
        noise = NoiseConfig(enabled=True, ring_tuning_sigma=0.01, seed=1)
        bank = make_bank(16, noise=noise)
        target = np.zeros(16)
        bank.set_weights(target)
        effective = bank.effective_weights()
        assert not np.allclose(effective, target)
        assert np.max(np.abs(effective - target)) < 0.1

    def test_crosstalk_perturbs_neighbours(self):
        noise = NoiseConfig(enabled=True, shot_noise=False, thermal_noise=False,
                            crosstalk=True, seed=0)
        bank = make_bank(8, noise=noise, quality_factor=5_000)
        weights = np.zeros(8)
        weights[3] = 1.0
        bank.set_weights(weights)
        effective = bank.effective_weights()
        # The tuned ring's neighbours see some leakage.
        assert effective[2] != pytest.approx(0.0, abs=1e-6)

    def test_crosstalk_shrinks_with_quality_factor(self):
        def worst_error(q):
            noise = NoiseConfig(enabled=True, shot_noise=False,
                                thermal_noise=False, crosstalk=True, seed=0)
            bank = make_bank(8, noise=noise, quality_factor=q)
            weights = np.full(8, 0.5)
            bank.set_weights(weights)
            return float(np.max(np.abs(bank.effective_weights() - weights)))

        assert worst_error(50_000) < worst_error(5_000)

    def test_crosstalk_conserves_energy(self):
        noise = NoiseConfig(enabled=True, shot_noise=False, thermal_noise=False,
                            crosstalk=True, seed=0)
        bank = make_bank(6, noise=noise)
        bank.set_weights(np.linspace(-0.9, 0.9, 6))
        drop, through = bank.transmission_matrix()
        assert np.all(drop + through <= 1.0 + 1e-9)
        assert np.all(drop >= -1e-12)
        assert np.all(through >= -1e-12)

    def test_tuning_error_reproducible(self):
        def effective(seed):
            noise = NoiseConfig(enabled=True, ring_tuning_sigma=0.02, seed=seed)
            bank = make_bank(8, noise=noise)
            bank.set_weights(np.zeros(8))
            return bank.effective_weights()

        assert np.array_equal(effective(9), effective(9))
        assert not np.array_equal(effective(9), effective(10))


@st.composite
def ring_buses(draw):
    """A random ring bus: detunings in linewidths, some rings parked."""
    num_rings = draw(st.integers(1, 12))
    quality_factor = draw(st.floats(1e3, 1e5))
    detuning_linewidths = np.array(
        draw(
            st.lists(
                st.one_of(st.floats(-50.0, 50.0), st.just(1e4)),
                min_size=num_rings,
                max_size=num_rings,
            )
        )
    )
    grid = WdmGrid(num_rings)
    linewidths = grid.frequencies_hz / quality_factor
    resonances = grid.frequencies_hz + detuning_linewidths * linewidths
    # Carriers: the channel grid plus a sweep across and beyond it.
    span = max(grid.span_hz, grid.spacing_hz)
    sweep = np.linspace(
        grid.center_frequency_hz - span,
        grid.center_frequency_hz + span,
        draw(st.integers(2, 40)),
    )
    carriers = np.concatenate([grid.frequencies_hz, sweep])
    peak = draw(st.floats(1e-3, 1.0))
    tia_gain = draw(st.floats(0.0, 1.0))
    return carriers, resonances, linewidths, peak, tia_gain


class TestBusTransmissionInvariants:
    """Physical bounds of the shared Lorentzian bus cascade.

    Light is only ever split between the drop bus and what remains on
    the through bus, never created — the total-power boundary a flux
    monitor would check.
    """

    @given(bus=ring_buses())
    @settings(max_examples=100, deadline=None)
    def test_power_is_bounded(self, bus):
        carriers, resonances, linewidths, peak, tia_gain = bus
        lineshape = drop_transmission_profile(
            carriers[None, :], resonances[:, None], linewidths[:, None], peak
        )
        assert np.all(lineshape <= peak)
        drop, through = bus_transmission(carriers, resonances, linewidths, peak)
        assert drop.shape == through.shape == carriers.shape
        assert np.all(drop >= 0.0)
        assert np.all(through >= 0.0)
        # 1e-12: rounding slack of the row-by-row fold.
        assert np.all(drop + through <= 1.0 + 1e-12)
        readout = tia_gain * (drop - through)
        assert np.all(np.abs(readout) <= tia_gain + 1e-12)

    @given(bus=ring_buses())
    @settings(max_examples=100, deadline=None)
    def test_drop_and_through_account_for_all_power(self, bus):
        """The bus is lossless — each ring passes on what it does not
        drop — so per carrier the drop and through powers telescope to
        the carrier's whole power; only the cascade's rounding, a few
        ulps, separates them."""
        carriers, resonances, linewidths, peak, _ = bus
        drop, through = bus_transmission(carriers, resonances, linewidths, peak)
        assert np.all(np.abs(drop + through - 1.0) <= _CONSERVATION_ULPS)


_CONSERVATION_ULPS = 4 * np.finfo(float).eps
"""How far per-carrier ``drop + through`` may sit from 1: rounding in
the cascade's products and row-by-row sum (3 ulps is the worst seen over
random buses of up to 12 rings)."""


class TestLorentzianLineshape:
    """The unit-peak line shape every ring's drop response scales."""

    @given(
        linewidth=st.floats(1e6, 1e11),
        detunings=st.lists(
            st.floats(0.0, 1e3), min_size=2, max_size=30, unique=True
        ),
        side=st.sampled_from([-1.0, 1.0]),
    )
    @settings(max_examples=100, deadline=None)
    def test_peaks_at_one_and_falls_with_detuning(
        self, linewidth, detunings, side
    ):
        resonance = 193.4e12
        # Detunings in linewidths, growing; carriers on one side.
        carriers = resonance + side * np.sort(detunings) * linewidth
        shape = lorentzian_lineshape(carriers, resonance, linewidth)
        assert lorentzian_lineshape(resonance, resonance, linewidth) == 1.0
        assert np.all(shape <= 1.0)
        assert np.all(shape >= 0.0)
        assert np.all(np.diff(shape) <= 0.0)


@st.composite
def ring_bus_stacks(draw):
    """A random bus read out at a stack of bank states (one per row)."""
    carriers, resonances, linewidths, peak, _ = draw(ring_buses())
    rows = draw(st.integers(1, 6))
    offsets = np.array(
        draw(
            st.lists(
                st.floats(-30.0, 30.0),
                min_size=rows * resonances.size,
                max_size=rows * resonances.size,
            )
        )
    ).reshape(rows, resonances.size)
    return carriers, resonances + offsets * linewidths, linewidths, peak


class TestBatchedBusTransmission:
    """The time-batched readout: a leading axis of bank states through
    the same cascade, as the drift probe's epoch sweep reads it."""

    @given(bus=ring_bus_stacks())
    @settings(max_examples=100, deadline=None)
    def test_rows_match_the_single_state_call_and_conserve_power(self, bus):
        carriers, stack, linewidths, peak = bus
        drop, through = bus_transmission(carriers, stack, linewidths, peak)
        assert drop.shape == through.shape == (stack.shape[0], carriers.size)
        for row, resonances in enumerate(stack):
            one_drop, one_through = bus_transmission(
                carriers, resonances, linewidths, peak
            )
            assert one_drop.tobytes() == drop[row].tobytes()
            assert one_through.tobytes() == through[row].tobytes()
        assert np.all(drop >= 0.0)
        assert np.all(through >= 0.0)
        # 1e-12: rounding slack of the row-by-row fold.
        assert np.all(drop + through <= 1.0 + 1e-12)
        # Every row conserves its carriers' power, as the 1-D call does.
        assert np.all(np.abs(drop + through - 1.0) <= _CONSERVATION_ULPS)

    def test_long_stacks_match_row_by_row(self):
        """Thousands of rows (an epoch's dispatch instants) still fold
        each row in bus order."""
        grid = WdmGrid(8)
        linewidths = grid.frequencies_hz / 2e4
        rng = np.random.default_rng(0)
        stack = grid.frequencies_hz + rng.uniform(-5.0, 5.0, (3000, 8)) * (
            linewidths
        )
        drop, through = bus_transmission(
            grid.frequencies_hz, stack, linewidths, 0.9
        )
        for row in (0, 1, 511, 512, 2999):
            one_drop, one_through = bus_transmission(
                grid.frequencies_hz, stack[row], linewidths, 0.9
            )
            assert one_drop.tobytes() == drop[row].tobytes()
            assert one_through.tobytes() == through[row].tobytes()
