"""Closed-loop weight-bank calibration.

Real MRR weight banks are not programmed open-loop: inter-channel
crosstalk and tuning error make the *effective* weight vector differ from
the commanded one, so deployed systems measure the realized weights and
iterate (Tait et al. describe exactly this feedback calibration).  This
module implements that loop on the simulated bank:

1. command the current estimate;
2. measure the effective weights (what balanced detection would report
   for unit per-channel power);
3. correct the command by the residual error;
4. repeat until converged or out of iterations.

Crosstalk is a contraction here (each ring's leakage onto neighbours is
well below unity), so the loop converges linearly; the benchmarks
quantify how many iterations buy how many digits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.photonics.weight_bank import WeightBank


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of a closed-loop bank calibration.

    Attributes:
        converged: whether the residual dropped below the tolerance.
        iterations: feedback iterations performed.
        residual: final max |effective - target| error.
        initial_residual: the open-loop error before feedback.
        commanded: the final commanded weight vector.
    """

    converged: bool
    iterations: int
    residual: float
    initial_residual: float
    commanded: np.ndarray

    @property
    def improvement(self) -> float:
        """Open-loop error divided by closed-loop error (>= 1 on success)."""
        if self.residual == 0.0:
            return np.inf
        return self.initial_residual / self.residual


def measure_effective_weights(bank: WeightBank) -> np.ndarray:
    """Measure what the bank actually applies (unit-power probe).

    This is the simulation analogue of the hardware calibration probe:
    inject equal power on every channel and read the balanced outputs.
    """
    return bank.effective_weights()


def calibrate_bank(
    bank: WeightBank,
    target_weights: np.ndarray,
    max_iterations: int = 20,
    tolerance: float = 1e-6,
    gain: float = 1.0,
) -> CalibrationResult:
    """Iteratively tune ``bank`` until it realizes ``target_weights``.

    Args:
        bank: the weight bank to calibrate (mutated in place).
        target_weights: desired effective weights, each in [-1, 1].
        max_iterations: feedback iterations before giving up (0 runs
            the bank open loop and only measures it).
        tolerance: stop when max |effective - target| falls below this.
        gain: feedback gain in (0, 1]; 1.0 applies the full residual.

    Returns:
        A :class:`CalibrationResult`.

    Raises:
        ValueError: on a malformed, non-finite or out-of-range target
            vector, a gain outside (0, 1], a ``max_iterations`` that is
            not an integer >= 0 (bools included), or a NaN or negative
            ``tolerance``.
    """
    target = np.asarray(target_weights, dtype=float)
    if target.shape != (bank.num_rings,):
        raise ValueError(
            f"expected {bank.num_rings} targets, got shape {target.shape}"
        )
    # One comparison rejects NaN too: `nan <= 1` is False.
    if not np.all(np.abs(target) <= 1.0):
        raise ValueError("target weights must be finite and lie in [-1, 1]")
    if not 0.0 < gain <= 1.0:
        raise ValueError(f"gain must be in (0, 1], got {gain!r}")
    if isinstance(max_iterations, bool) or not (
        isinstance(max_iterations, (int, np.integer)) and max_iterations >= 0
    ):
        raise ValueError(
            f"max iterations must be an integer >= 0, got {max_iterations!r}"
        )
    # `not t >= 0` also rejects NaN, with which no residual converges.
    if not tolerance >= 0.0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance!r}")

    commanded = target.copy()
    bank.set_weights(commanded)
    initial_residual = float(
        np.max(np.abs(measure_effective_weights(bank) - target))
    )
    residual = initial_residual

    iterations = 0
    for iterations in range(1, max_iterations + 1):
        effective = measure_effective_weights(bank)
        error = effective - target
        residual = float(np.max(np.abs(error)))
        if residual <= tolerance:
            return CalibrationResult(
                converged=True,
                iterations=iterations - 1,
                residual=residual,
                initial_residual=initial_residual,
                commanded=commanded.copy(),
            )
        commanded = np.clip(commanded - gain * error, -1.0, 1.0)
        bank.set_weights(commanded)

    effective = measure_effective_weights(bank)
    residual = float(np.max(np.abs(effective - target)))
    return CalibrationResult(
        converged=residual <= tolerance,
        iterations=iterations,
        residual=residual,
        initial_residual=initial_residual,
        commanded=commanded.copy(),
    )
