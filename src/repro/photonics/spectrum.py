"""Spectral analysis of weight banks.

Utilities to sample a bank's aggregate transfer function across optical
frequency — the simulation analogue of sweeping a tunable laser across
the bank and recording the drop/through power.  Used by tests to verify
line shapes and channel isolation, and by users to inspect a programmed
bank the way a lab would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.photonics.weight_bank import WeightBank, bus_transmission


@dataclass(frozen=True)
class BankSpectrum:
    """A sampled weight-bank spectrum.

    Attributes:
        frequencies_hz: sample frequencies, ascending.
        drop: aggregate drop-bus power fraction at each frequency.
        through: surviving through-bus power fraction at each frequency.
    """

    frequencies_hz: np.ndarray
    drop: np.ndarray
    through: np.ndarray


# repro: allow[API002] closed-form Lorentzian transfer sweep: pure
# function of the bank's tuning state, nothing stochastic to seed
def sweep_bank_spectrum(
    bank: WeightBank,
    span_factor: float = 1.5,
    num_points: int = 2001,
) -> BankSpectrum:
    """Sample the bank's aggregate drop/through spectrum.

    The sweep covers the WDM grid span (widened by ``span_factor``) and
    honours the serial bus ordering: at each frequency, light passes the
    rings in order, each tapping its Lorentzian drop fraction from what
    remains.

    Args:
        bank: the (already programmed) weight bank.
        span_factor: sweep width relative to the grid span.
        num_points: number of frequency samples.

    Raises:
        ValueError: on a non-positive span or point count.
    """
    if span_factor <= 0:
        raise ValueError(f"span factor must be positive, got {span_factor!r}")
    if num_points < 2:
        raise ValueError(f"need at least 2 points, got {num_points!r}")

    grid = bank.grid
    center = grid.center_frequency_hz
    half_span = max(grid.span_hz, grid.spacing_hz) * span_factor / 2.0
    frequencies = np.linspace(center - half_span, center + half_span, num_points)

    drop, remaining = bus_transmission(
        frequencies,
        np.array([ring.resonance_hz for ring in bank.rings]),
        np.array([ring.linewidth_hz for ring in bank.rings]),
        bank.design.peak_drop_transmission,
    )
    return BankSpectrum(frequencies_hz=frequencies, drop=drop, through=remaining)


def channel_isolation_db(bank: WeightBank, quality_factor_hint: str = "") -> float:
    """Worst-case adjacent-channel isolation of a fully-on bank (dB).

    Programs every ring to weight +1 (full drop), sweeps the spectrum,
    and reports the worst ratio between a channel's own drop and the
    leakage from its nearest neighbour's ring.
    """
    import numpy as np

    from repro.photonics.constants import linear_to_db

    grid = bank.grid
    bank.set_weights(np.ones(bank.num_rings))
    worst = float("inf")
    for index, ring in enumerate(bank.rings):
        own = float(ring.drop_transmission(grid.frequency_of(index)))
        for neighbour in (index - 1, index + 1):
            if 0 <= neighbour < bank.num_rings:
                leak = float(
                    ring.drop_transmission(grid.frequency_of(neighbour))
                )
                if leak > 0:
                    worst = min(worst, linear_to_db(own / leak))
    return worst
