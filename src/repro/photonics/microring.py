"""Microring resonator (MRR) device model.

A microring resonator is a circular waveguide evanescently coupled to one
(all-pass) or two (add-drop) bus waveguides.  Near a resonance the
through-port transmission dips and the drop-port transmission peaks, both
with a Lorentzian line shape.  Tuning the ring's resonance relative to a
fixed laser wavelength changes how much of that wavelength is transmitted
— this is the "weighting" mechanism of broadcast-and-weight photonic
neural networks (Tait et al. 2017) that PCNNA builds on.

The model implemented here is the standard coupled-mode-theory Lorentzian:

    T_drop(delta)    = T_peak / (1 + (2 * delta / FWHM)**2)
    T_through(delta) = 1 - (1 - T_min) / (1 + (2 * delta / FWHM)**2)

where ``delta`` is the detuning between the optical carrier and the ring
resonance, ``FWHM = f_res / Q`` is the linewidth, ``T_peak`` is the peak
drop-port transmission and ``T_min`` the minimum through-port transmission
(limited by the extinction ratio).  The inverse maps (transmission ->
detuning) are closed-form, which is what makes weight calibration exact.

Both the forward and inverse transfer functions exist in two forms: the
object-oriented :class:`Microring` (one physical ring) and array-first
module functions (:func:`lorentzian_lineshape`,
:func:`drop_transmission_profile`, :func:`detunings_for_drop`) that
evaluate whole banks of rings — arbitrary ``(rings,)`` / ``(rings,
channels)`` / ``(batch, channels)`` arrays — in a single NumPy expression.
The vectorized execution engine is built on the array forms; the scalar
class delegates to them so the two can never drift apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.photonics.constants import (
    DEFAULT_EFFECTIVE_INDEX,
    DEFAULT_GROUP_INDEX,
    DEFAULT_QUALITY_FACTOR,
    DEFAULT_RING_FOOTPRINT_M,
    DEFAULT_RING_RADIUS_M,
    SPEED_OF_LIGHT,
    wavelength_to_frequency,
)


def lorentzian_lineshape(
    carrier_hz: np.ndarray | float,
    resonance_hz: np.ndarray | float,
    linewidth_hz: np.ndarray | float,
) -> np.ndarray:
    """Unit-peak Lorentzian response, broadcast over any array shapes.

    Args:
        carrier_hz: optical carrier frequencies (any broadcastable shape).
        resonance_hz: ring resonance frequencies.
        linewidth_hz: FWHM linewidths.

    Returns:
        ``1 / (1 + (2 * (carrier - resonance) / FWHM)**2)`` elementwise.
    """
    delta = np.asarray(carrier_hz, dtype=float) - np.asarray(
        resonance_hz, dtype=float
    )
    half_width = 0.5 * np.asarray(linewidth_hz, dtype=float)
    return 1.0 / (1.0 + (delta / half_width) ** 2)


def drop_transmission_profile(
    carrier_hz: np.ndarray | float,
    resonance_hz: np.ndarray | float,
    linewidth_hz: np.ndarray | float,
    peak_drop_transmission: float = 1.0,
) -> np.ndarray:
    """Drop-port power transmission for banks of rings, vectorized.

    All frequency arguments broadcast together, so one call can evaluate
    e.g. every ring of a bank at every WDM channel (``(rings, 1)`` against
    ``(channels,)``) or a ``(batch, channels)`` carrier grid at once.
    """
    return peak_drop_transmission * lorentzian_lineshape(
        carrier_hz, resonance_hz, linewidth_hz
    )


def through_transmission_profile(
    carrier_hz: np.ndarray | float,
    resonance_hz: np.ndarray | float,
    linewidth_hz: np.ndarray | float,
    min_through_transmission: float = 0.0,
) -> np.ndarray:
    """Through-port power transmission for banks of rings, vectorized."""
    depth = 1.0 - min_through_transmission
    return 1.0 - depth * lorentzian_lineshape(
        carrier_hz, resonance_hz, linewidth_hz
    )


def detunings_for_drop(
    transmissions: np.ndarray,
    linewidth_hz: np.ndarray | float,
    peak_drop_transmission: float = 1.0,
    max_detuning_linewidths: float = 1e4,
) -> np.ndarray:
    """Vectorized inverse Lorentzian: detunings realizing drop fractions.

    The whole-bank counterpart of :meth:`Microring.detuning_for_drop`:
    inverts ``T = T_peak / (1 + (2 delta / FWHM)**2)`` elementwise.
    Targets at (or numerically below) zero transmission are mapped to a
    large-but-finite parking detuning of ``max_detuning_linewidths``
    linewidths, the same convention weight banks use to realize a ~zero
    drop fraction.

    Args:
        transmissions: target drop transmissions in ``[0, T_peak]``.
        linewidth_hz: FWHM linewidths (broadcastable to the targets).
        peak_drop_transmission: on-resonance drop transmission.
        max_detuning_linewidths: parking detuning for zero targets.

    Returns:
        Non-negative detunings, same shape as the broadcast inputs.

    Raises:
        ValueError: if any target exceeds the peak transmission.
    """
    targets = np.asarray(transmissions, dtype=float)
    if np.any(targets > peak_drop_transmission + 1e-12):
        raise ValueError(
            f"drop transmission cannot exceed the peak "
            f"{peak_drop_transmission}; got max {targets.max()!r}"
        )
    linewidths = np.broadcast_to(
        np.asarray(linewidth_hz, dtype=float), targets.shape
    )
    half_widths = 0.5 * linewidths
    parked = targets <= 0.0
    safe = np.where(parked, peak_drop_transmission, targets)
    detunings = half_widths * np.sqrt(
        np.maximum(peak_drop_transmission / safe - 1.0, 0.0)
    )
    return np.where(parked, max_detuning_linewidths * linewidths, detunings)


@dataclass(frozen=True)
class MicroringDesign:
    """Static design parameters of a microring resonator.

    Attributes:
        radius_m: ring radius in meters.
        quality_factor: loaded quality factor (resonance f / linewidth).
        group_index: waveguide group index (sets the free spectral range).
        effective_index: waveguide effective index.
        peak_drop_transmission: drop-port transmission exactly on resonance.
        min_through_transmission: through-port transmission on resonance
            (1 / extinction ratio); 0 means infinite extinction.
        footprint_m: side of the square layout area reserved per ring.
        max_detuning_hz: largest resonance shift the tuner can apply.  A
            thermal tuner can typically shift by about one free spectral
            range; the default is set from the FSR at construction sites
            that need it.
    """

    radius_m: float = DEFAULT_RING_RADIUS_M
    quality_factor: float = DEFAULT_QUALITY_FACTOR
    group_index: float = DEFAULT_GROUP_INDEX
    effective_index: float = DEFAULT_EFFECTIVE_INDEX
    peak_drop_transmission: float = 1.0
    min_through_transmission: float = 0.0
    footprint_m: float = DEFAULT_RING_FOOTPRINT_M

    def __post_init__(self) -> None:
        if self.radius_m <= 0:
            raise ValueError(f"ring radius must be positive, got {self.radius_m!r}")
        if self.quality_factor <= 0:
            raise ValueError(
                f"quality factor must be positive, got {self.quality_factor!r}"
            )
        if not 0.0 < self.peak_drop_transmission <= 1.0:
            raise ValueError(
                "peak drop transmission must be in (0, 1], got "
                f"{self.peak_drop_transmission!r}"
            )
        if not 0.0 <= self.min_through_transmission < 1.0:
            raise ValueError(
                "min through transmission must be in [0, 1), got "
                f"{self.min_through_transmission!r}"
            )
        if self.footprint_m <= 0:
            raise ValueError(f"footprint must be positive, got {self.footprint_m!r}")

    @property
    def circumference_m(self) -> float:
        """Ring circumference (m)."""
        return 2.0 * math.pi * self.radius_m

    @property
    def footprint_area_m2(self) -> float:
        """Layout area reserved for one ring (m^2)."""
        return self.footprint_m * self.footprint_m

    def free_spectral_range_hz(self) -> float:
        """Free spectral range in frequency (Hz): FSR = c / (n_g * L)."""
        return SPEED_OF_LIGHT / (self.group_index * self.circumference_m)

    def linewidth_hz(self, resonance_hz: float) -> float:
        """Full-width-at-half-maximum linewidth (Hz) at a given resonance."""
        if resonance_hz <= 0:
            raise ValueError(f"resonance must be positive, got {resonance_hz!r}")
        return resonance_hz / self.quality_factor

    def finesse(self, resonance_hz: float) -> float:
        """Finesse = FSR / linewidth; how many channels fit between modes."""
        return self.free_spectral_range_hz() / self.linewidth_hz(resonance_hz)


class Microring:
    """A tunable microring resonator bound to a target wavelength channel.

    The ring is built to resonate at ``target_frequency_hz`` when untuned;
    applying a detuning moves the resonance away from the carrier, which
    lowers the drop-port transmission (and raises the through-port one).

    The class exposes both the forward transfer functions and the inverse
    (transmission -> required detuning) used for weight calibration.
    """

    def __init__(
        self,
        target_frequency_hz: float,
        design: MicroringDesign | None = None,
    ) -> None:
        if target_frequency_hz <= 0:
            raise ValueError(
                f"target frequency must be positive, got {target_frequency_hz!r}"
            )
        self.design = design if design is not None else MicroringDesign()
        self.target_frequency_hz = float(target_frequency_hz)
        self._detuning_hz = 0.0

    # -- tuning ------------------------------------------------------------

    @property
    def detuning_hz(self) -> float:
        """Current resonance offset from the target carrier (Hz)."""
        return self._detuning_hz

    @detuning_hz.setter
    def detuning_hz(self, value: float) -> None:
        self._detuning_hz = float(value)

    @property
    def resonance_hz(self) -> float:
        """Current resonance frequency (Hz)."""
        return self.target_frequency_hz + self._detuning_hz

    @property
    def linewidth_hz(self) -> float:
        """FWHM linewidth at the target channel (Hz)."""
        return self.design.linewidth_hz(self.target_frequency_hz)

    # -- forward transfer --------------------------------------------------

    def drop_transmission(self, carrier_hz: np.ndarray | float) -> np.ndarray | float:
        """Power transmission from input port to drop port at ``carrier_hz``."""
        return drop_transmission_profile(
            carrier_hz,
            self.resonance_hz,
            self.linewidth_hz,
            self.design.peak_drop_transmission,
        )

    def through_transmission(
        self, carrier_hz: np.ndarray | float
    ) -> np.ndarray | float:
        """Power transmission from input port to through port at ``carrier_hz``."""
        return through_transmission_profile(
            carrier_hz,
            self.resonance_hz,
            self.linewidth_hz,
            self.design.min_through_transmission,
        )

    def drop_at_target(self) -> float:
        """Drop-port transmission at the ring's own target channel."""
        return float(self.drop_transmission(self.target_frequency_hz))

    def through_at_target(self) -> float:
        """Through-port transmission at the ring's own target channel."""
        return float(self.through_transmission(self.target_frequency_hz))

    # -- inverse transfer (calibration) --------------------------------------

    def detuning_for_drop(self, transmission: float) -> float:
        """Detuning that yields ``transmission`` at the drop port (>= 0 branch).

        Inverts the Lorentzian: delta = (FWHM/2) * sqrt(T_peak/T - 1).

        Raises:
            ValueError: if the transmission is outside (0, T_peak].
        """
        peak = self.design.peak_drop_transmission
        if not 0.0 < transmission <= peak:
            raise ValueError(
                f"drop transmission must be in (0, {peak}], got {transmission!r}"
            )
        half_width = 0.5 * self.linewidth_hz
        return half_width * math.sqrt(peak / transmission - 1.0)

    def detuning_for_through(self, transmission: float) -> float:
        """Detuning that yields ``transmission`` at the through port.

        Raises:
            ValueError: if the transmission is outside [T_min, 1).
        """
        t_min = self.design.min_through_transmission
        if not t_min <= transmission < 1.0:
            raise ValueError(
                f"through transmission must be in [{t_min}, 1), got {transmission!r}"
            )
        depth = 1.0 - t_min
        lorentzian = (1.0 - transmission) / depth
        half_width = 0.5 * self.linewidth_hz
        return half_width * math.sqrt(1.0 / lorentzian - 1.0)

    def set_drop_transmission(self, transmission: float) -> None:
        """Tune the ring so its drop port transmits ``transmission``."""
        self.detuning_hz = self.detuning_for_drop(transmission)

    def __repr__(self) -> str:
        return (
            f"Microring(target={self.target_frequency_hz / 1e12:.4f} THz, "
            f"Q={self.design.quality_factor:g}, "
            f"detuning={self._detuning_hz / 1e9:.3f} GHz)"
        )


def rings_area_m2(num_rings: int, design: MicroringDesign | None = None) -> float:
    """Total layout area of ``num_rings`` rings at the design footprint (m^2).

    This is the area model the paper uses for its "2.2 mm^2" example:
    rings * (25 um)^2.

    Raises:
        ValueError: if ``num_rings`` is negative.
    """
    if num_rings < 0:
        raise ValueError(f"number of rings must be non-negative, got {num_rings!r}")
    chosen = design if design is not None else MicroringDesign()
    return num_rings * chosen.footprint_area_m2
