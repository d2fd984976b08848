"""MRR weight bank: the multiply stage of broadcast-and-weight.

A weight bank is a row of add-drop microrings on a bus waveguide, one ring
per WDM channel.  Ring ``k`` is tuned so that a fraction ``d_k`` of its
channel's power exits at the drop port and the remaining ``1 - d_k`` at
the through port.  Routing all drop ports to one photodiode and all
through ports to another, the balanced photocurrent for channel powers
``P_k`` is

    I = R * sum_k P_k * (d_k - (1 - d_k)) = R * sum_k P_k * (2 d_k - 1)

so choosing ``d_k = (1 + w_k) / 2`` realizes an arbitrary signed weight
``w_k`` in [-1, +1]: the bank physically computes ``R * sum_k P_k w_k``,
a multiply-and-accumulate (Tait et al. 2017; PCNNA section III).

Two fidelity levels are implemented:

* **ideal** — each ring affects only its own channel and the drop
  fraction equals the calibrated target exactly.  The bank output is the
  exact dot product.
* **physical** (``noise.crosstalk_active`` or tuning error) — drop
  fractions come from the Lorentzian line shape of every ring evaluated
  at every channel, with the bus cascade ordering taken into account, so
  inter-channel crosstalk and miscalibration perturb the result.

The transfer path is array-first: calibration inverts the Lorentzian for
the whole bank in one vectorized evaluation, the physical-mode response
is a single ``(rings, channels)`` line-shape matrix with a cumulative
bus cascade (:func:`bus_transmission`, shared with the drifting probe of
:mod:`repro.photonics.drift` and the spectrum sweep), and
:meth:`WeightBank.apply` weights a single ``(channels,)`` wave or a
batched ``(batch, channels)`` stack of waves alike.
"""

from __future__ import annotations

import numpy as np

from repro.photonics.microring import (
    Microring,
    MicroringDesign,
    detunings_for_drop,
    drop_transmission_profile,
)
from repro.photonics.noise import NoiseConfig, ideal
from repro.photonics.wdm import WdmGrid

# Contract marker checked by `python -m repro.lint` (BIT001): the
# drifting probe reads out through `bus_transmission`, and the faulted
# goldens (lenet5_faulted.npz, adaptive_recal.npz) pin its float folds.
__bit_identity__ = True

_MAX_DETUNING_LINEWIDTHS = 1e4
"""Detuning cap (in linewidths) used to realize a ~zero drop fraction."""


def _validated_weights(weights: np.ndarray, num_rings: int) -> np.ndarray:
    """A weight command checked against the bank, clipped to [-1, 1].

    Raises:
        ValueError: if the vector length mismatches the bank or any
            weight is non-finite or outside [-1, 1].
    """
    array = np.asarray(weights, dtype=float)
    if array.shape != (num_rings,):
        raise ValueError(
            f"expected {num_rings} weights, got shape {array.shape}"
        )
    # One comparison rejects NaN too: `nan <= x` is False.
    in_range = np.abs(array) <= 1.0 + 1e-12
    if not in_range.all():
        raise ValueError(
            f"weights must be finite and lie in [-1, 1]; offending: "
            f"{array[~in_range][:5]!r}"
        )
    return np.clip(array, -1.0, 1.0)


def _detunings_for_drops(
    drop_fractions: np.ndarray, linewidths_hz: np.ndarray, peak: float
) -> np.ndarray:
    """Ring detunings realizing target drop fractions of the full peak."""
    targets = np.minimum(np.asarray(drop_fractions, dtype=float) * peak, peak)
    return detunings_for_drop(
        targets, linewidths_hz, peak, _MAX_DETUNING_LINEWIDTHS
    )


def bus_transmission(
    carrier_hz: np.ndarray,
    resonance_hz: np.ndarray,
    linewidth_hz: np.ndarray,
    peak_drop_transmission: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Aggregate (drop, through) power fractions of a serial ring bus.

    Every ring's Lorentzian is evaluated at every carrier in one
    ``(rings, carriers)`` array (row ``j`` is ring ``j``'s drop response),
    and the bus ordering is honoured: carrier power reaching ring ``j``
    has already passed the through ports of rings ``0..j-1``.

    ``resonance_hz`` may carry a leading batch axis: a ``(T, rings)``
    stack of resonance sets (one bank state per row, e.g. one per
    simulated instant) is read out in one call, and each row's result
    is bit-identical to the 1-D call on that row.

    Args:
        carrier_hz: ``(carriers,)`` optical carrier frequencies.
        resonance_hz: ``(rings,)`` or ``(T, rings)`` ring resonances, in
            bus order along the last axis.
        linewidth_hz: ``(rings,)`` ring FWHM linewidths.
        peak_drop_transmission: on-resonance drop transmission.

    Returns:
        ``(drop, through)`` arrays of shape ``(carriers,)`` (or
        ``(T, carriers)``) with ``0 <= drop, through`` and
        ``drop + through <= 1`` (up to rounding).
    """
    ring_drop = drop_transmission_profile(
        carrier_hz[None, :],
        resonance_hz[..., :, None],
        linewidth_hz[:, None],
        peak_drop_transmission,
    )
    ring_through = 1.0 - ring_drop
    # Serial bus cascade: a cumulative product of through ports down the
    # ring axis (-2), the same sequential product for every batch row.
    remaining_before = np.empty_like(ring_drop)
    remaining_before[..., 0, :] = 1.0
    np.cumprod(
        ring_through[..., :-1, :], axis=-2, out=remaining_before[..., 1:, :]
    )
    # repro: allow[BIT001] the ring axis (-2) is never the contiguous
    # last axis, so numpy adds whole (carriers,) rows one at a time in
    # bus order — row-sequential for a 2-D bank and per batch row of a
    # 3-D stack alike; a last-axis fold would switch numpy to its
    # unrolled pairwise sum and change the bits the faulted goldens pin
    drop = (remaining_before * ring_drop).sum(axis=-2)
    return drop, remaining_before[..., -1, :] * ring_through[..., -1, :]


class WeightBank:
    """A bank of tunable microrings realizing a signed weight vector.

    Args:
        grid: WDM grid; one ring is instantiated per channel.
        design: shared microring design parameters.
        noise: non-ideality configuration.

    Attributes:
        rings: the per-channel :class:`Microring` instances, in bus order
            (channel 0 is encountered first on the bus).
    """

    def __init__(
        self,
        grid: WdmGrid,
        design: MicroringDesign | None = None,
        noise: NoiseConfig | None = None,
    ) -> None:
        self.grid = grid
        self.design = design if design is not None else MicroringDesign()
        self.noise = noise if noise is not None else ideal()
        self.rings = [
            Microring(frequency, self.design) for frequency in grid.frequencies_hz
        ]
        self._weights = np.zeros(grid.num_channels, dtype=float)
        self._drop_fractions = np.full(grid.num_channels, 0.5, dtype=float)

    # -- configuration -------------------------------------------------------

    @property
    def num_rings(self) -> int:
        """Number of rings (== number of WDM channels) in the bank."""
        return self.grid.num_channels

    @property
    def weights(self) -> np.ndarray:
        """The most recently programmed weight vector (copy)."""
        return self._weights.copy()

    def set_weights(self, weights: np.ndarray) -> None:
        """Program the bank to realize ``weights`` (each in [-1, +1]).

        Calibration inverts the ideal per-ring map ``d = (1 + w) / 2``; any
        active tuning error perturbs the realized drop fractions, and
        crosstalk (if enabled) further perturbs the applied weighting.

        Raises:
            ValueError: if the vector length mismatches the bank or any
                weight is non-finite or outside [-1, 1].
        """
        array = _validated_weights(weights, self.num_rings)
        self._weights = array.copy()

        drops = (1.0 + array) / 2.0
        if self.noise.tuning_error_active:
            jitter = self.noise.rng.normal(
                0.0, self.noise.ring_tuning_sigma, self.num_rings
            )
            drops = np.clip(drops + jitter, 0.0, 1.0)
        self._drop_fractions = drops
        self._apply_detunings(drops)

    @property
    def _linewidths_hz(self) -> np.ndarray:
        """Per-ring FWHM linewidths at each ring's own channel (Hz)."""
        return self.grid.frequencies_hz / self.design.quality_factor

    def _apply_detunings(self, drop_fractions: np.ndarray) -> None:
        """Tune each physical ring to realize its target drop fraction.

        The detunings for the whole bank are computed in one vectorized
        inverse-Lorentzian evaluation, then written onto the ring objects.
        """
        detunings = _detunings_for_drops(
            drop_fractions,
            self._linewidths_hz,
            self.design.peak_drop_transmission,
        )
        for ring, detuning in zip(self.rings, detunings):
            ring.detuning_hz = detuning

    # -- transfer ------------------------------------------------------------

    def transmission_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-channel aggregate (drop, through) power fractions.

        In ideal mode ring ``k`` interacts only with channel ``k``.  In
        physical mode every ring's Lorentzian is evaluated at every channel
        and the serial bus ordering is honoured: channel ``k`` reaching ring
        ``j`` has already been attenuated by the through response of rings
        ``0..j-1``.

        Returns:
            ``(drop, through)`` arrays of shape ``(num_channels,)`` with
            ``0 <= drop, through`` and ``drop + through <= 1``.
        """
        if not self.noise.crosstalk_active:
            drop = self._drop_fractions.copy()
            return drop, 1.0 - drop

        return bus_transmission(
            self.grid.frequencies_hz,
            np.array([ring.resonance_hz for ring in self.rings]),
            self._linewidths_hz,
            self.design.peak_drop_transmission,
        )

    def apply(self, input_powers_w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Weight WDM power vectors.

        Args:
            input_powers_w: per-channel optical powers entering the bus —
                a single ``(channels,)`` vector or a batched
                ``(..., channels)`` stack, one MAC wave per leading
                element (the aggregate ring transfer applies identically
                to every wave, since the weights are held between waves).

        Returns:
            ``(drop_powers, through_powers)`` per channel, in watts, with
            the same shape as the input.

        Raises:
            ValueError: on shape mismatch or negative input power.
        """
        powers = np.asarray(input_powers_w, dtype=float)
        if powers.ndim == 0 or powers.shape[-1] != self.num_rings:
            raise ValueError(
                f"expected {self.num_rings} channel powers on the last "
                f"axis, got shape {powers.shape}"
            )
        if np.any(powers < 0):
            raise ValueError("optical power cannot be negative")
        drop, through = self.transmission_matrix()
        return powers * drop, powers * through

    def effective_weights(self) -> np.ndarray:
        """The weights the bank actually applies, including non-idealities.

        Computed as ``drop - through`` per channel, which is what balanced
        detection measures for unit input power.
        """
        drop, through = self.transmission_matrix()
        return drop - through

    def __repr__(self) -> str:
        return (
            f"WeightBank(rings={self.num_rings}, "
            f"crosstalk={self.noise.crosstalk_active})"
        )
