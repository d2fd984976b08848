"""Time-dependent drift and fault state on microring weight banks.

:mod:`repro.photonics.thermal` models a *static* thermal environment and
:mod:`repro.photonics.calibration` the feedback loop that compensates it.
Degraded-mode serving needs the piece between them: a weight bank whose
physical condition *changes over simulated time* — ambient temperature
ramps detune every ring together, heater-crosstalk excursions mix the
commanded detunings, individual rings die (heater open-circuit, parked
far off resonance) or stick (heater frozen at its last command), and the
TIA behind the balanced photodiode pair loses gain as it ages.

Two layers are provided:

* :class:`DriftingWeightBank` — an array-native crosstalk-aware bank
  with a mutable :class:`BankCondition`, read out through the same
  Lorentzian bus cascade as :class:`~repro.photonics.weight_bank
  .WeightBank` (:func:`~repro.photonics.weight_bank.bus_transmission`).
  It exposes the same probe surface calibration uses
  (``num_rings`` / ``set_weights`` / ``effective_weights``), so
  :func:`~repro.photonics.calibration.calibrate_bank` runs *unchanged*
  against the degraded bank: the closed loop measures the drifted
  balanced-detection readout and re-commands around it, exactly the
  online-recalibration move deployed systems make.  Dead rings cannot be
  re-commanded and stuck rings hold their frozen command, so calibration
  converges only as far as physics allows — the residual is the honest
  post-recalibration accuracy bound.
* :func:`drift_transfer` — the same commanded-weight → effective-weight
  map as a closed-form vectorized function, applied to whole weight
  tensors at once.  The serving engine uses it to replay a degraded
  schedule on the executable network and measure golden-output
  divergence per batch (see :mod:`repro.core.faults`).

Both layers share one physical model: a commanded weight ``w`` becomes a
drop target ``(1 + w) / 2``, the inverse Lorentzian yields a non-negative
detuning, ambient drift *adds* to that detuning (thermal tuners shift one
way, which is why drift beyond the command headroom cannot be fully
recalibrated away), and the balanced readout is scaled by the TIA gain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.photonics.calibration import CalibrationResult, calibrate_bank
from repro.photonics.microring import (
    MicroringDesign,
    detunings_for_drop,
    drop_transmission_profile,
)
from repro.photonics.thermal import SILICON_THERMAL_SHIFT_HZ_PER_K, ThermalModel
from repro.photonics.wdm import WdmGrid
from repro.photonics.weight_bank import (
    _MAX_DETUNING_LINEWIDTHS,
    _detunings_for_drops,
    _validated_weights,
    bus_transmission,
)

# Contract markers checked by `python -m repro.lint` (BIT001/PERF001):
# the probe readout feeds the faulted goldens (lenet5_faulted.npz,
# adaptive_recal.npz), which pin its floats bit for bit, and every
# core's probe is re-tuned on each dispatch of the lane loop.
__bit_identity__ = True
__hot_path__ = ("DriftingWeightBank",)

DEFAULT_PROBE_RINGS = 8
"""Rings in the canonical per-core accuracy-probe bank."""

DEFAULT_PROBE_QUALITY_FACTOR = 20_000.0
"""Loaded Q of the probe rings (narrow enough that K-scale drift bites)."""

_PARKED_DETUNING_LINEWIDTHS = _MAX_DETUNING_LINEWIDTHS
"""Where a dead ring's resonance is parked, in linewidths (drop ~ 0) —
the weight banks' own zero-drop parking convention, shared so dead-ring
readouts here agree with bank physics."""

_ERROR_BLOCK = 128
"""Conditions :meth:`DriftingWeightBank.weight_errors` reads out per
block.  Each ``(block, rings, rings)`` temporary is 64 kB on the 8-ring
probe, so a sweep's working memory stays a few hundred kB however long
the epoch; one block per epoch would allocate tens of MB on
drift-serving's longest ones."""


def _frozen(array: np.ndarray) -> np.ndarray:
    """``array``, made read-only: probe copies share it
    (:meth:`DriftingWeightBank.copy`), so an in-place write must raise
    rather than reach a twin."""
    array.setflags(write=False)
    return array


def _is_index(value) -> bool:
    """A core or ring index: an integer >= 0 that is not a bool."""
    return (
        not isinstance(value, bool)
        and isinstance(value, (int, np.integer))
        and value >= 0
    )


def default_probe_targets(num_rings: int = DEFAULT_PROBE_RINGS) -> np.ndarray:
    """The canonical probe weight vector: a signed ramp across the bank.

    Mixed signs exercise both Lorentzian flanks; the positive-weight
    rings (small detuning, little command headroom) are the ones ambient
    drift degrades first, so the max error over this vector is a
    conservative per-core accuracy proxy.

    Raises:
        ValueError: if ``num_rings`` is below one.
    """
    if num_rings < 1:
        raise ValueError(f"need at least one probe ring, got {num_rings!r}")
    if num_rings == 1:
        return np.array([0.75])
    return np.linspace(-0.75, 0.75, num_rings)


@dataclass(frozen=True)
class BankCondition:
    """The physical condition of a drifting bank at one simulated instant.

    Attributes:
        ambient_k: accumulated ambient temperature offset from the
            calibration point (K); shifts every resonance together.
        crosstalk_coupling: heater coupling to nearest neighbours
            (excursions raise it above the design baseline).
        dead_rings: indices of rings parked far off resonance (their
            effective weight is pinned near ``-tia_gain``).
        stuck_rings: indices of rings whose heater is frozen — they hold
            the command they had when they stuck and ignore later ones.
        tia_gain: multiplicative gain of the TIA behind the balanced
            photodiode pair (droops below 1 as the receiver ages).
    """

    ambient_k: float = 0.0
    crosstalk_coupling: float = 0.0
    dead_rings: tuple[int, ...] = ()
    stuck_rings: tuple[int, ...] = ()
    tia_gain: float = 1.0

    def __post_init__(self) -> None:
        # A bool compares as 0 or 1 and would pass the range checks.
        if (
            self.ambient_k.__class__ is bool
            or self.crosstalk_coupling.__class__ is bool
            or self.tia_gain.__class__ is bool
        ):
            raise ValueError(f"condition fields must be numbers, got {self!r}")
        if self.ambient_k < 0.0 or not math.isfinite(self.ambient_k):
            raise ValueError(
                f"ambient drift must be finite and >= 0, got {self.ambient_k!r}"
            )
        if not 0.0 <= self.crosstalk_coupling < 1.0:
            raise ValueError(
                f"coupling must be in [0, 1), got {self.crosstalk_coupling!r}"
            )
        if not 0.0 <= self.tia_gain <= 1.0:
            raise ValueError(
                f"TIA gain must be in [0, 1], got {self.tia_gain!r}"
            )
        # Tuples, since the probe's readout cache keys on them; most
        # conditions list no rings and skip the per-ring walk.
        dead, stuck = self.dead_rings, self.stuck_rings
        if dead.__class__ is not tuple or stuck.__class__ is not tuple or (
            (dead or stuck) and not all(map(_is_index, dead + stuck))
        ):
            raise ValueError(f"rings must be tuples of indices: {self!r}")

    @property
    def ambient_shift_hz(self) -> float:
        """The uniform resonance shift the ambient offset causes."""
        return self.ambient_k * SILICON_THERMAL_SHIFT_HZ_PER_K

    @property
    def pristine(self) -> bool:
        """Whether this condition perturbs nothing at all."""
        return (
            self.ambient_k == 0.0
            and self.crosstalk_coupling == 0.0
            and not self.dead_rings
            and not self.stuck_rings
            and self.tia_gain == 1.0
        )


class DriftingWeightBank:
    """A weight bank whose physical condition degrades over time.

    The probe is array-native: it keeps the bank's carriers and
    linewidths as arrays, derives the commanded ring detunings once per
    honoured command, and evaluates each condition as one pure
    ``(base detunings, condition) -> readout`` step — heater crosstalk
    and the ambient shift mix the detunings (the recipe of
    :meth:`~repro.photonics.thermal.ThermalModel.apply`), dead rings are
    parked off resonance, the crosstalk-aware Lorentzian bus cascade
    (:func:`~repro.photonics.weight_bank.bus_transmission`) gives the
    balanced readout, and the TIA gain scales it.  Stuck rings hold
    their frozen command.  Nothing compounds across calls, so the state
    is a pure function of (command, condition) and every measurement is
    bit-reproducible — and bit-identical to programming a crosstalk-on
    :class:`~repro.photonics.weight_bank.WeightBank` and applying the
    thermal model to it.  Without an ambient offset the TIA gain is the
    only thing that differs between two conditions of one coupling and
    dead-ring set, so the gain-free readout ``drop - through`` of each
    such pair is computed once per command and cached until the next.

    The probe surface (``num_rings`` / ``set_weights`` /
    ``effective_weights``) matches :class:`WeightBank`, which is what
    lets :func:`~repro.photonics.calibration.calibrate_bank` drive the
    degraded bank directly.

    Args:
        targets: the weight vector the bank is supposed to realize.
        num_rings: bank size (defaults to the target length).
        design: ring design; defaults to a Q=20k probe ring.
    """

    __slots__ = (
        "targets", "design", "_carriers_hz", "_linewidths_hz", "_parked_hz",
        "_coupling", "_crosstalk", "condition", "_stuck_commands",
        "_base_hz", "_commanded", "_units", "_readout",
    )

    def __init__(
        self,
        targets: np.ndarray | None = None,
        num_rings: int | None = None,
        design: MicroringDesign | None = None,
    ) -> None:
        if targets is None:
            targets = default_probe_targets(
                num_rings if num_rings is not None else DEFAULT_PROBE_RINGS
            )
        self.targets = _frozen(np.array(targets, dtype=float))
        if self.targets.ndim != 1 or self.targets.size == 0:
            raise ValueError(
                f"need a non-empty 1-D target vector, got shape "
                f"{self.targets.shape}"
            )
        if num_rings is not None and num_rings != self.targets.size:
            raise ValueError(
                f"{num_rings} rings cannot realize {self.targets.size} targets"
            )
        self.design = (
            design
            if design is not None
            else MicroringDesign(quality_factor=DEFAULT_PROBE_QUALITY_FACTOR)
        )
        # One ring per channel of a default grid, in bus order.
        self._carriers_hz = _frozen(WdmGrid(self.targets.size).frequencies_hz)
        self._linewidths_hz = _frozen(
            self._carriers_hz / self.design.quality_factor
        )
        self._parked_hz = _frozen(
            _PARKED_DETUNING_LINEWIDTHS * self._linewidths_hz
        )
        self._coupling: float | None = None
        self._crosstalk = np.empty((0, 0))
        self.condition = BankCondition()
        self._stuck_commands: dict[int, float] = {}
        self._command(self.targets.copy())

    def copy(self) -> "DriftingWeightBank":
        """An independent bank in the same command and condition.

        Cheap: the copy shares every array, each read-only from where
        it is made, and the stuck-command dict, which is only ever
        replaced; only the ``_units`` readout cache, which grows in
        place, is copied."""
        twin = object.__new__(DriftingWeightBank)
        for name in self.__slots__:
            setattr(twin, name, getattr(self, name))
        twin._units = dict(self._units)
        return twin

    @property
    def num_rings(self) -> int:
        """Rings in the bank (the probe surface calibration reads)."""
        return self.targets.size

    @property
    def commanded(self) -> np.ndarray:
        """The last honoured command vector (copy)."""
        return self._commanded.copy()

    def set_weights(self, weights: np.ndarray) -> None:
        """Command the bank, honouring frozen (stuck) rings.

        Stuck rings keep the command they had when they stuck no matter
        what is asked — that is what a frozen heater does — so the
        calibration loop sees its correction silently not taken there.

        Raises:
            ValueError: on a malformed, non-finite or out-of-range
                command vector (same contract as
                :meth:`WeightBank.set_weights`).
        """
        asked = np.asarray(weights, dtype=float)
        if asked.shape != (self.num_rings,):
            raise ValueError(
                f"expected {self.num_rings} weights, got shape {asked.shape}"
            )
        honoured = asked.copy()
        for ring, frozen in self._stuck_commands.items():
            honoured[ring] = frozen
        self._command(honoured)

    def effective_weights(self) -> np.ndarray:
        """The balanced-detection readout under the current condition.

        This is the photodiode-level measurement: per-channel ``drop -
        through`` through the real (drifted) Lorentzian bank, scaled by
        the TIA gain.
        """
        return self._readout.copy()

    def set_condition(self, condition: BankCondition) -> None:
        """Move the bank to a new physical condition and re-derive state.

        Rings newly listed as stuck freeze at their *current* command;
        rings that leave the stuck list thaw and accept commands again.
        """
        previous = self.condition
        self.condition = condition
        if condition.stuck_rings != previous.stuck_rings:
            # Key by the wrapped index (dead rings wrap the same way in
            # _measure), so out-of-range schedule indices stay valid when
            # set_weights applies the frozen commands.
            kept: dict[int, float] = {}
            for ring in condition.stuck_rings:
                index = ring % self.num_rings
                kept[index] = self._stuck_commands.get(
                    index, float(self._commanded[index])
                )
            self._stuck_commands = kept
        self._readout = _frozen(self._measure())

    def _command(self, honoured: np.ndarray) -> None:
        """Validate a command and derive its base detunings once."""
        weights = _validated_weights(honoured, self.num_rings)
        self._base_hz = _frozen(
            _detunings_for_drops(
                (1.0 + weights) / 2.0,
                self._linewidths_hz,
                self.design.peak_drop_transmission,
            )
        )
        self._commanded = _frozen(honoured)
        self._units: dict[tuple, np.ndarray] = {}
        self._readout = _frozen(self._measure())

    def _measure(self) -> np.ndarray:
        """The readout of the base detunings under the current condition."""
        condition = self.condition
        return self._readout_of(
            condition.crosstalk_coupling,
            condition.dead_rings,
            condition.ambient_shift_hz if condition.ambient_k > 0.0 else None,
            condition.tia_gain,
        )

    def _readout_of(
        self,
        coupling: float,
        dead_rings: tuple[int, ...],
        ambient_shift_hz,
        tia_gain,
    ) -> np.ndarray:
        """The balanced readout of the base detunings: one recipe for one
        condition and for a stack of them.

        ``ambient_shift_hz`` and ``tia_gain`` are floats for one
        condition, or ``(T, 1)`` columns for ``T`` conditions that share
        ``coupling`` and ``dead_rings`` (the readout is then ``(T,
        rings)``).  ``ambient_shift_hz`` is ``None`` when no condition
        has an ambient offset: the gain-free readout ``drop - through``
        is then one for all of them, cached per ``(coupling,
        dead_rings)`` until the next command.
        """
        key = (coupling, dead_rings)
        cached = ambient_shift_hz is None
        if cached:
            unit = self._units.get(key)
            if unit is not None:
                return tia_gain * unit
            ambient_shift_hz = 0.0
        detunings = self._base_hz
        if coupling > 0.0 or not cached:
            # ThermalModel.apply's recipe and order.  Keep the 2-D
            # (rings, rings) @ (rings,) matvec, and only then add the
            # shift per condition: the faulted goldens pin its rounding,
            # and a batched or einsum product may differ.  A condition
            # with neither coupling nor offset reads the same bits mixed
            # or not (the zero-coupling matrix is the identity).
            detunings = (
                self._crosstalk_matrix(coupling) @ detunings + ambient_shift_hz
            )
        if dead_rings:
            dead = [ring % self.num_rings for ring in dead_rings]
            detunings = detunings.copy()
            detunings[..., dead] = self._parked_hz[dead]
        drop, through = bus_transmission(
            self._carriers_hz,
            self._carriers_hz + detunings,
            self._linewidths_hz,
            self.design.peak_drop_transmission,
        )
        unit = drop - through
        if cached:
            self._units[key] = _frozen(unit)
        return tia_gain * unit

    def weight_errors(
        self,
        coupling: float,
        dead_rings: tuple[int, ...],
        ambient_shift_hz: np.ndarray,
        tia_gain: np.ndarray,
    ) -> np.ndarray:
        """:meth:`weight_error` at many conditions, under the current
        command, without moving the bank.

        The conditions share one crosstalk coupling and one dead-ring set
        and differ in ambient shift and TIA gain (``(T,)`` arrays), the
        way a core's condition moves between two discrete fault events.
        Each entry is bit-identical to setting that condition and calling
        :meth:`weight_error`.  The readout runs in blocks of
        :data:`_ERROR_BLOCK` conditions, which bounds its memory.
        """
        shift = np.asarray(ambient_shift_hz, dtype=float)
        gain = np.asarray(tia_gain, dtype=float)
        offset = bool(np.any(shift > 0.0))
        errors = np.empty(shift.size)
        for start in range(0, shift.size, _ERROR_BLOCK):
            stop = start + _ERROR_BLOCK
            readout = self._readout_of(
                coupling,
                dead_rings,
                shift[start:stop, None] if offset else None,
                gain[start:stop, None],
            )
            errors[start:stop] = np.max(
                np.abs(readout - self.targets), axis=-1
            )
        return errors

    def _crosstalk_matrix(self, coupling: float) -> np.ndarray:
        """The heater-coupling matrix, rebuilt only when the coupling moves."""
        if coupling != self._coupling:
            self._crosstalk = _frozen(
                ThermalModel(crosstalk_coupling=coupling).crosstalk_matrix(
                    self.num_rings
                )
            )
            self._coupling = coupling
        return self._crosstalk

    def weight_error(self) -> float:
        """Max |readout - target| — the per-bank accuracy proxy."""
        return float(np.abs(self._readout - self.targets).max())

    def recalibrate(
        self,
        max_iterations: int = 20,
        tolerance: float = 1e-6,
        gain: float = 1.0,
    ) -> CalibrationResult:
        """Run the closed calibration loop against the degraded bank.

        :func:`~repro.photonics.calibration.calibrate_bank` measures the
        drifted readout and iterates the command; ambient drift within
        the command headroom is compensated, dead and stuck rings are
        not, and the returned residual is the honest remaining error.
        """
        return calibrate_bank(
            self,
            self.targets,
            max_iterations=max_iterations,
            tolerance=tolerance,
            gain=gain,
        )


def drift_transfer(
    weights: np.ndarray,
    ambient_shift_hz: float,
    tia_gain: float = 1.0,
    design: MicroringDesign | None = None,
    channel_hz: float | None = None,
) -> np.ndarray:
    """Commanded-weight → effective-weight map under drift, vectorized.

    The closed-form single-ring counterpart of
    :class:`DriftingWeightBank` (own-channel response only — the serving
    engine uses it to perturb whole conv-kernel tensors at once when
    replaying a degraded schedule): each commanded weight ``w`` in
    ``[-1, 1]`` is inverted to its non-negative detuning, the uniform
    ambient shift is added, and the drifted Lorentzian drop response is
    read back through a TIA of gain ``tia_gain``.

    Args:
        weights: commanded weights, any shape, each in ``[-1, 1]``.
        ambient_shift_hz: uniform resonance shift (>= 0; thermal tuners
            and drift push the same way, so the shift always adds).
        tia_gain: readout gain in ``[0, 1]``.
        design: ring design (defaults to the probe design).
        channel_hz: carrier frequency setting the linewidth; defaults to
            the center of a single-channel default grid.

    Returns:
        Effective weights, same shape as ``weights``, each in
        ``[-tia_gain, tia_gain]``.

    Raises:
        ValueError: on non-finite or out-of-range weights, a negative or
            non-finite shift, or a TIA gain outside ``[0, 1]``.
    """
    commanded = np.asarray(weights, dtype=float)
    # One comparison rejects NaN too: `nan <= x` is False.
    if not np.all(np.abs(commanded) <= 1.0 + 1e-12):
        raise ValueError("commanded weights must be finite and lie in [-1, 1]")
    if ambient_shift_hz < 0.0 or not np.isfinite(ambient_shift_hz):
        raise ValueError(
            f"ambient shift must be finite and >= 0, got {ambient_shift_hz!r}"
        )
    if not 0.0 <= tia_gain <= 1.0:
        raise ValueError(f"TIA gain must be in [0, 1], got {tia_gain!r}")
    chosen = (
        design
        if design is not None
        else MicroringDesign(quality_factor=DEFAULT_PROBE_QUALITY_FACTOR)
    )
    carrier = channel_hz if channel_hz is not None else WdmGrid(1).frequency_of(0)
    linewidth = chosen.linewidth_hz(carrier)
    peak = chosen.peak_drop_transmission
    drops = np.minimum((1.0 + np.clip(commanded, -1.0, 1.0)) / 2.0 * peak, peak)
    detunings = detunings_for_drop(
        drops, linewidth, peak, _PARKED_DETUNING_LINEWIDTHS
    )
    drifted_drop = drop_transmission_profile(
        0.0, detunings + ambient_shift_hz, linewidth, peak
    )
    return tia_gain * (2.0 * np.asarray(drifted_drop, dtype=float) - 1.0)


__all__ = [
    "DEFAULT_PROBE_RINGS",
    "DEFAULT_PROBE_QUALITY_FACTOR",
    "BankCondition",
    "DriftingWeightBank",
    "default_probe_targets",
    "drift_transfer",
]
