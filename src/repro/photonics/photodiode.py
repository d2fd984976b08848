"""Photodiode and balanced-photodetector models.

The photodiode is the summation device of broadcast-and-weight: every
wavelength incident on it contributes to one aggregate photocurrent, which
*is* the accumulate of the multiply-and-accumulate.  A balanced pair of
photodiodes (one fed by the drop ports, one by the through ports) produces
a signed output, which is how MRR weight banks realize weights in
[-1, +1] (Tait et al. 2017).

Noise model (active only when the :class:`NoiseConfig` enables it):

* shot noise:     sigma_i^2 = 2 q I B
* thermal noise:  sigma_i^2 = 4 k T B / R_load

Detection is array-first: ``detect`` accepts a per-channel power vector
``(channels,)`` (returning a float, the original scalar contract) or a
batch ``(batch, channels)`` / ``(..., channels)`` stack (returning one
photocurrent per leading element), with noise sampled independently per
batch element.  The batched path performs the identical per-element
arithmetic, so ideal-mode results are bit-equal to the scalar path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.photonics.constants import (
    BOLTZMANN_CONSTANT,
    DEFAULT_RESPONSIVITY_A_PER_W,
    DEFAULT_TIA_BANDWIDTH_HZ,
    DEFAULT_TIA_GAIN_OHM,
    ELEMENTARY_CHARGE,
    ROOM_TEMPERATURE_K,
)
from repro.photonics.noise import NoiseConfig, ideal

# Contract marker checked by `python -m repro.lint` (BIT001): the
# detector's sum is the accumulate of every MAC, and the engine goldens
# pin it bit for bit.
__bit_identity__ = True


@dataclass(frozen=True)
class PhotodiodeSpec:
    """Static photodiode + receiver parameters.

    Attributes:
        responsivity_a_per_w: photocurrent per optical watt (A/W).
        bandwidth_hz: receiver electrical bandwidth (Hz).
        load_resistance_ohm: load / TIA input resistance for thermal noise.
        dark_current_a: dark current (A), added to shot-noise current.
        tia_gain_ohm: transimpedance gain converting current to voltage.
        temperature_k: receiver temperature for thermal noise.
    """

    responsivity_a_per_w: float = DEFAULT_RESPONSIVITY_A_PER_W
    bandwidth_hz: float = DEFAULT_TIA_BANDWIDTH_HZ
    load_resistance_ohm: float = 50.0
    dark_current_a: float = 1e-9
    tia_gain_ohm: float = DEFAULT_TIA_GAIN_OHM
    temperature_k: float = ROOM_TEMPERATURE_K

    def __post_init__(self) -> None:
        if self.responsivity_a_per_w <= 0:
            raise ValueError(
                f"responsivity must be positive, got {self.responsivity_a_per_w!r}"
            )
        if self.bandwidth_hz <= 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth_hz!r}")
        if self.load_resistance_ohm <= 0:
            raise ValueError(
                f"load resistance must be positive, got {self.load_resistance_ohm!r}"
            )
        if self.dark_current_a < 0:
            raise ValueError(
                f"dark current must be non-negative, got {self.dark_current_a!r}"
            )

    def shot_noise_sigma_a(
        self, photocurrent_a: np.ndarray | float
    ) -> np.ndarray | float:
        """RMS shot-noise current (A) at given mean photocurrents.

        Accepts a scalar (returns a float) or an array of mean currents
        (returns the per-element sigmas).
        """
        mean = np.abs(np.asarray(photocurrent_a, dtype=float)) + self.dark_current_a
        sigma = np.sqrt(2.0 * ELEMENTARY_CHARGE * mean * self.bandwidth_hz)
        if sigma.ndim == 0:
            return float(sigma)
        return sigma

    def thermal_noise_sigma_a(self) -> float:
        """RMS thermal (Johnson) noise current (A)."""
        return float(
            np.sqrt(
                4.0
                * BOLTZMANN_CONSTANT
                * self.temperature_k
                * self.bandwidth_hz
                / self.load_resistance_ohm
            )
        )


class Photodiode:
    """A single photodiode that sums all incident wavelengths.

    The WDM channels are mutually incoherent (distinct wavelengths), so
    their powers add: ``I = R * sum(P_k)`` — the physical accumulate.
    """

    def __init__(
        self,
        spec: PhotodiodeSpec | None = None,
        noise: NoiseConfig | None = None,
    ) -> None:
        self.spec = spec if spec is not None else PhotodiodeSpec()
        self.noise = noise if noise is not None else ideal()

    def detect(self, powers_w: np.ndarray) -> np.ndarray | float:
        """Convert per-channel optical power vectors to photocurrents (A).

        Args:
            powers_w: non-negative optical powers per wavelength; either a
                single ``(channels,)`` vector or a ``(..., channels)``
                batch (channels on the last axis).

        Returns:
            Photocurrent in amperes (noise included when enabled): a float
            for a single vector, an array of leading-shape currents for a
            batch.

        Raises:
            ValueError: if any incident power is negative.
        """
        powers = np.asarray(powers_w, dtype=float)
        if np.any(powers < 0):
            raise ValueError("optical power cannot be negative")
        if powers.ndim <= 1:
            # repro: allow[BIT001] numpy's pairwise fold over the one
            # channel axis; the batched branch repeats it row by row
            return self.detect_summed(float(powers.sum()))
        # repro: allow[BIT001] batched: one summation per leading
        # element.  The per-row pairwise reduction over the contiguous
        # last axis performs the same float additions as the 1-D sum
        # above, keeping ideal mode bit-equal.
        return self.detect_summed(np.ascontiguousarray(powers).sum(axis=-1))

    def detect_summed(
        self, total_powers_w: np.ndarray | float
    ) -> np.ndarray | float:
        """Photocurrent (A) of incident power already summed over channels.

        The responsivity and noise stage of :meth:`detect`, for a caller
        that has checked and summed the powers itself: one total (a
        float) or one total per leading element (an array).
        """
        return self._add_noise(self.spec.responsivity_a_per_w * total_powers_w)

    def _add_noise(self, current_a: np.ndarray | float) -> np.ndarray | float:
        """Apply shot and thermal noise to mean currents (scalar or array)."""
        noisy = current_a
        if self.noise.shot_noise_active:
            sigma = self.spec.shot_noise_sigma_a(current_a)
            noisy = noisy + self.noise.rng.normal(0.0, sigma)
        if self.noise.thermal_noise_active:
            sigma = self.spec.thermal_noise_sigma_a()
            noisy = noisy + self.noise.rng.normal(
                0.0, sigma, size=np.shape(current_a)
            )
        if np.ndim(noisy) == 0:
            return float(noisy)
        return noisy

    def to_voltage(self, current_a: float) -> float:
        """Convert photocurrent to the TIA output voltage (V)."""
        return current_a * self.spec.tia_gain_ohm


class BalancedPhotodetector:
    """Two photodiodes subtracted: signed summation for weight banks.

    The drop-port light of every ring lands on the positive diode and the
    through-port light on the negative diode, so a ring passing fraction
    ``d`` to drop and ``1 - d`` to through contributes ``P * (2d - 1)`` to
    the balanced current — a weight in [-1, +1].
    """

    def __init__(
        self,
        spec: PhotodiodeSpec | None = None,
        noise: NoiseConfig | None = None,
    ) -> None:
        self.spec = spec if spec is not None else PhotodiodeSpec()
        self.positive = Photodiode(self.spec, noise)
        self.negative = Photodiode(self.spec, noise)

    @property
    def noise(self) -> NoiseConfig:
        """Noise configuration shared by both diodes."""
        return self.positive.noise

    def detect(
        self, drop_powers_w: np.ndarray, through_powers_w: np.ndarray
    ) -> np.ndarray | float:
        """Balanced photocurrent: I(drop) - I(through), in amperes.

        Accepts ``(channels,)`` vectors (returns a float) or batched
        ``(..., channels)`` stacks (returns one balanced current per
        leading element).
        """
        return self.positive.detect(drop_powers_w) - self.negative.detect(
            through_powers_w
        )

    def to_voltage(self, current_a: float) -> float:
        """Convert balanced current to the TIA output voltage (V)."""
        return current_a * self.spec.tia_gain_ohm
