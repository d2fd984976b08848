"""Mach-Zehnder modulator (MZM) model.

In PCNNA the analog voltages from the input DACs modulate the laser beams
with Mach-Zehnder modulators before the light enters the MRR weight banks.
An MZM's raw power transfer is the raised cosine

    T(v) = 0.5 * (1 + cos(pi * v / V_pi + phi_bias))

which is nonlinear in the drive voltage.  Practical analog links
pre-distort the drive so the *encoded value* maps linearly onto optical
power; :class:`MachZehnderModulator` exposes both the raw transfer and the
linearized ``encode`` used by the accelerator, with finite extinction
ratio as the non-ideality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.photonics.constants import db_to_linear


@dataclass(frozen=True)
class ModulatorSpec:
    """Static MZM parameters.

    Attributes:
        v_pi: half-wave voltage (V) — drive swing from full-on to full-off.
        extinction_ratio_db: ratio of maximum to minimum transmission, in
            dB; finite values leak light in the "off" state.
        bandwidth_hz: electro-optic 3-dB bandwidth; PCNNA assumes MZMs are
            "usually faster than the 5 GHz clock".
        insertion_loss_db: on-state excess loss.
    """

    v_pi: float = 2.0
    extinction_ratio_db: float = math.inf
    bandwidth_hz: float = 25e9
    insertion_loss_db: float = 0.0

    def __post_init__(self) -> None:
        if self.v_pi <= 0:
            raise ValueError(f"V_pi must be positive, got {self.v_pi!r}")
        if self.extinction_ratio_db <= 0:
            raise ValueError(
                f"extinction ratio must be positive dB, got {self.extinction_ratio_db!r}"
            )
        if self.bandwidth_hz <= 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth_hz!r}")
        if self.insertion_loss_db < 0:
            raise ValueError(
                f"insertion loss must be non-negative, got {self.insertion_loss_db!r}"
            )

    @property
    def min_transmission(self) -> float:
        """Off-state transmission floor set by the extinction ratio."""
        if math.isinf(self.extinction_ratio_db):
            return 0.0
        return 1.0 / db_to_linear(self.extinction_ratio_db)

    @property
    def insertion_transmission(self) -> float:
        """On-state transmission after insertion loss."""
        return 1.0 / db_to_linear(self.insertion_loss_db)


class MachZehnderModulator:
    """An MZM that encodes values in [0, 1] onto optical power.

    The linearized encoder maps value ``x`` to transmission
    ``T_min + (1 - T_min) * x`` (then applies insertion loss), so with an
    infinite extinction ratio and zero loss the mapping is exactly ``x``.
    """

    def __init__(self, spec: ModulatorSpec | None = None) -> None:
        self.spec = spec if spec is not None else ModulatorSpec()

    def raw_transfer(self, voltage: np.ndarray | float) -> np.ndarray | float:
        """Raised-cosine power transfer at drive ``voltage`` (quadrature bias)."""
        phase = math.pi * np.asarray(voltage, dtype=float) / self.spec.v_pi
        return 0.5 * (1.0 + np.cos(phase))

    def encode(self, values: np.ndarray | float) -> np.ndarray:
        """Encode normalized values in [0, 1] onto power transmission.

        Args:
            values: scalar or array of values, each in [0, 1].

        Returns:
            Per-value transmission factors in [0, 1].

        Raises:
            ValueError: if any value falls outside [0, 1] beyond a small
                numerical tolerance.
        """
        array = np.atleast_1d(np.asarray(values, dtype=float))
        # One reduction per bound.  fmin/fmax skip NaN, which passes the
        # check (every comparison with it is false) as it always has.
        if array.size and (
            np.fmin.reduce(array, axis=None) < -1e-12
            or np.fmax.reduce(array, axis=None) > 1.0 + 1e-12
        ):
            bad = array[(array < -1e-12) | (array > 1.0 + 1e-12)]
            raise ValueError(
                f"MZM encode expects values in [0, 1]; out-of-range: {bad[:5]!r}"
            )
        clipped = np.clip(array, 0.0, 1.0)
        floor = self.spec.min_transmission
        transmission = floor + (1.0 - floor) * clipped
        return transmission * self.spec.insertion_transmission

    def drive_voltage_for(self, value: float) -> float:
        """Pre-distorted drive voltage that realizes encoded value ``value``.

        Inverts the raised cosine for the target transmission; used when a
        caller wants the electrical waveform rather than the optical result.

        Raises:
            ValueError: if ``value`` is outside [0, 1].
        """
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"value must be in [0, 1], got {value!r}")
        floor = self.spec.min_transmission
        transmission = floor + (1.0 - floor) * value
        transmission = min(max(transmission, 0.0), 1.0)
        return self.spec.v_pi / math.pi * math.acos(2.0 * transmission - 1.0)
