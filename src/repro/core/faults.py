"""Hardware-degradation scenario engine for degraded-mode serving.

The PR 3 serving simulator (:mod:`repro.core.traffic`) assumes every
core stays perfectly calibrated forever.  Real microring weight banks do
not: ambient temperature drifts, heaters leak onto neighbours, rings die
and stick, and TIAs age.  This module closes that loop — the discrete
event loop, the scheduler, and the photonic substrate share one
simulated clock for the first time:

* a seeded :class:`FaultSchedule` describes *when* each physical core's
  hardware degrades (thermal drift ramps, crosstalk excursions,
  dead/stuck rings, TIA gain droop);
* each core carries a :class:`CoreHealthState` — a real
  :class:`~repro.photonics.drift.DriftingWeightBank` probe read out at
  every dispatch instant (a whole epoch of instants at once between
  recalibrations, :meth:`CoreHealthState.sweep`, once for all the
  cores whose states share a lineage), whose
  balanced-detection weight error is the core's **accuracy proxy**,
  measured from photodiode readout physics rather than assumed;
* an optional :class:`RecalibrationPolicy` watches the proxy and
  invokes the closed calibration loop
  (:func:`~repro.photonics.calibration.calibrate_bank` via the probe)
  when it crosses a threshold, costing the core real downtime on the
  shared clock;
* a fault-aware scheduler drains the pipeline and re-partitions the
  layers over the surviving cores (via
  :func:`~repro.core.multicore.balanced_partition` inside
  :class:`~repro.core.traffic.PipelineServiceModel`) when a core
  degrades beyond what recalibration can restore;
* :func:`replay_on_engine_degraded` re-executes the schedule's batches
  on the *real* engine with each core's conv weights pushed through the
  measured drift transfer, reporting golden-output divergence per batch.

The engine is differential by construction.  Every faulted run —
single pipeline or multi-tenant cluster — is served by the cluster lane
loop of :mod:`repro.core.cluster`, and wherever a fault acts it takes
one fault step, :meth:`PoolHealth.step`: advance the drift state
machines, ask the recalibration trigger, pay the downtime on the shared
clock.  Elastic clusters and burn-rate admission take it at every
dispatch; every other lane sweeps its probes over an epoch of planned
dispatches and takes the step only at the dispatch where the
per-dispatch loop would act, bit-identical to it.  Dispatch
planning and the pipeline walk stay the exact arithmetic the fault-free
simulator uses, so a zero-magnitude schedule yields a bit-identical
:class:`~repro.core.traffic.ServingReport` (and a bit-identical engine
replay) — the property ``tests/test_differential_faults.py`` pins.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.core.config import PCNNAConfig
from repro.core.serving import run_network_pipelined, stage_layer_slices
from repro.core.simkernel import (
    BatchingPolicy,
    validate_arrival_trace,
    validate_count,
)
from repro.core.traffic import (
    PipelineServiceModel,
    ServingReport,
    validate_replay_inputs,
)
from repro.nn.layers import Conv2D
from repro.nn.network import Network
from repro.nn.shapes import ConvLayerSpec
from repro.photonics.calibration import CalibrationResult
from repro.photonics.drift import (
    DEFAULT_PROBE_RINGS,
    _ERROR_BLOCK,
    BankCondition,
    DriftingWeightBank,
    _is_index,
    drift_transfer,
)
from repro.photonics.thermal import SILICON_THERMAL_SHIFT_HZ_PER_K

if TYPE_CHECKING:
    # adaptive.py builds on this module.
    from repro.core.adaptive import AdaptiveDecision, AdaptiveRecalibration

# Contract markers checked by `python -m repro.lint` (BIT001/PERF001):
# the zero-magnitude differential pins this module's floats
# bit-identical to the fault-free run, CoreHealthState advances on
# every dispatch of the event loop, a ProbeSweep is built per core per
# epoch of the single faulted pipeline, and a DriftSnapshotTable records
# every batch of that pipeline.
__bit_identity__ = True
__hot_path__ = ("CoreHealthState", "ProbeSweep", "DriftSnapshotTable")

FAULT_KINDS: tuple[str, ...] = (
    "thermal_ramp",
    "crosstalk",
    "dead_rings",
    "stuck_rings",
    "tia_droop",
)
"""Fault kinds a :class:`FaultEvent` may carry."""

_RING_KINDS = ("dead_rings", "stuck_rings")
_UNIT_KINDS = ("dead_rings", "stuck_rings", "tia_droop")
_MAX_COUPLING = 0.95
"""Crosstalk excursions are capped below the thermal model's limit."""


def validate_horizon(horizon_s: float) -> None:
    """Reject a schedule horizon that is not finite and positive.

    Onsets and rates scale with the horizon, so an infinite one builds
    a schedule whose faults never start (or overflow the seeded draws)
    and a NaN one fails later with an unrelated message.

    Raises:
        ValueError: if ``horizon_s`` is not finite and > 0.
    """
    # `not 0 < x < inf` also rejects NaN.
    if not 0.0 < horizon_s < math.inf:
        raise ValueError(
            f"horizon must be finite and positive, got {horizon_s!r}"
        )


@dataclass(frozen=True)
class FaultEvent:
    """One timed hardware fault on one physical core.

    Magnitude semantics per kind:

    * ``thermal_ramp`` — ambient temperature ramps at ``magnitude`` K/s
      from ``onset_s`` for ``duration_s``, then *holds* the accumulated
      offset (drift does not revert by itself; recalibration does).
    * ``crosstalk`` — heater coupling rises by ``magnitude`` while the
      event is active and reverts when it ends (a transient excursion).
    * ``dead_rings`` / ``stuck_rings`` — the first
      ``magnitude * len(rings)`` listed rings (rounded down) die or
      stick at ``onset_s``, permanently.  ``magnitude`` in ``[0, 1]`` is
      the affected fraction, which keeps zero-magnitude schedules
      perfect no-ops and lets sweeps scale severity continuously.
    * ``tia_droop`` — the TIA gain falls linearly to ``1 - magnitude``
      over ``duration_s`` and holds (a step at onset if the duration is
      infinite).

    Attributes:
        kind: one of :data:`FAULT_KINDS`.
        core: physical core index the fault strikes (events addressed to
            cores outside a given pipeline are inert there).
        onset_s: simulated time the fault begins.
        magnitude: severity, per the kind semantics above (>= 0).
        duration_s: active span (> 0; default infinite).
        rings: candidate ring indices for the ring kinds.
    """

    kind: str
    core: int
    onset_s: float
    magnitude: float
    duration_s: float = math.inf
    rings: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; have {FAULT_KINDS}"
            )
        if not _is_index(self.core):
            raise ValueError(
                f"core must be a non-negative integer, got {self.core!r}"
            )
        if self.onset_s < 0.0 or not np.isfinite(self.onset_s):
            raise ValueError(
                f"onset must be finite and >= 0, got {self.onset_s!r}"
            )
        if self.magnitude < 0.0 or not np.isfinite(self.magnitude):
            raise ValueError(
                f"magnitude must be finite and >= 0, got {self.magnitude!r}"
            )
        if self.kind in _UNIT_KINDS and self.magnitude > 1.0:
            raise ValueError(
                f"{self.kind} magnitude is a fraction in [0, 1], got "
                f"{self.magnitude!r}"
            )
        if self.kind == "crosstalk" and self.magnitude >= 1.0:
            raise ValueError(
                f"crosstalk magnitude must be below 1, got {self.magnitude!r}"
            )
        if self.duration_s <= 0.0 or math.isnan(self.duration_s):
            raise ValueError(
                f"duration must be positive, got {self.duration_s!r}"
            )
        if not all(_is_index(ring) for ring in self.rings):
            raise ValueError(
                f"ring indices must be non-negative integers, got "
                f"{self.rings!r}"
            )
        if self.kind in _RING_KINDS and self.magnitude > 0.0 and not self.rings:
            raise ValueError(f"{self.kind} event needs candidate rings")

    @property
    def affected_rings(self) -> tuple[int, ...]:
        """The rings this event actually strikes (magnitude fraction)."""
        count = int(self.magnitude * len(self.rings) + 1e-9)
        return self.rings[:count]


@dataclass(frozen=True)
class FaultSchedule:
    """A named, immutable collection of timed fault events.

    Attributes:
        name: label used in reports and sweep tables.
        events: the fault events, in any order.
    """

    name: str
    events: tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        events = tuple(self.events)
        for index, event in enumerate(events):
            if not isinstance(event, FaultEvent):
                raise TypeError(
                    f"schedule event {index} is not a FaultEvent, got "
                    f"{event!r}"
                )
        # Stored as a tuple whatever sequence came in, so the frozen
        # schedule stays hashable.
        object.__setattr__(self, "events", events)

    @classmethod
    def none(cls) -> "FaultSchedule":
        """The empty schedule (a perfectly healthy run)."""
        return cls(name="fault-free", events=())

    @classmethod
    def uniform_drift(
        cls,
        rate_k_per_s: float,
        num_cores: int,
        onset_s: float = 0.0,
        duration_s: float = math.inf,
    ) -> "FaultSchedule":
        """Every core's ambient temperature ramps at the same rate.

        The canonical sweep axis of
        :func:`~repro.analysis.sweeps.sweep_fault_tolerance`.

        Raises:
            ValueError: on a negative rate or a core count that is not
                an integer >= 1.
        """
        validate_count(num_cores, "core count")
        events = tuple(
            FaultEvent(
                kind="thermal_ramp",
                core=core,
                onset_s=onset_s,
                magnitude=rate_k_per_s,
                duration_s=duration_s,
            )
            for core in range(num_cores)
        )
        return cls(name=f"drift-{rate_k_per_s:g}K/s", events=events)

    @classmethod
    def random(
        cls,
        seed: int,
        num_cores: int,
        horizon_s: float,
        events_per_core: int = 2,
        max_drift_k_per_s: float = 1.0,
    ) -> "FaultSchedule":
        """A seeded random schedule mixing every fault kind.

        Pure function of its arguments: the same seed yields the same
        schedule, so randomized scenario studies stay reproducible.

        Raises:
            ValueError: on a core or event count that is not an integer
                >= 1, a horizon that is not finite and positive, or a
                drift rate cap that is not finite and >= 0.
        """
        validate_count(num_cores, "core count")
        validate_horizon(horizon_s)
        validate_count(events_per_core, "events per core")
        # `not 0 <= x < inf` also rejects NaN.
        if not 0.0 <= max_drift_k_per_s < math.inf:
            raise ValueError(
                f"max_drift_k_per_s must be finite and >= 0, got "
                f"{max_drift_k_per_s!r}"
            )
        rng = np.random.default_rng(seed)
        events = []
        for core in range(num_cores):
            for _ in range(events_per_core):
                kind = FAULT_KINDS[rng.integers(len(FAULT_KINDS))]
                onset = float(rng.uniform(0.0, horizon_s))
                duration = float(rng.uniform(0.1, 1.0) * horizon_s)
                if kind == "thermal_ramp":
                    magnitude = float(rng.uniform(0.0, max_drift_k_per_s))
                elif kind == "crosstalk":
                    magnitude = float(rng.uniform(0.0, 0.3))
                else:
                    magnitude = float(rng.uniform(0.0, 1.0))
                rings = tuple(
                    int(r)
                    for r in rng.choice(
                        DEFAULT_PROBE_RINGS,
                        size=int(rng.integers(1, DEFAULT_PROBE_RINGS + 1)),
                        replace=False,
                    )
                )
                events.append(
                    FaultEvent(
                        kind=kind,
                        core=core,
                        onset_s=onset,
                        magnitude=magnitude,
                        duration_s=duration,
                        rings=rings,
                    )
                )
        return cls(name=f"random-{seed}", events=tuple(events))

    def scaled(self, factor: float) -> "FaultSchedule":
        """The same schedule with every magnitude scaled by ``factor``.

        Fractional magnitudes (ring kinds, TIA droop) are clamped back
        to 1 after scaling.  ``scaled(0.0)`` is the canonical
        zero-magnitude schedule of the differential tests: same events,
        zero physical effect.

        Raises:
            ValueError: on a negative or non-finite factor.
        """
        if factor < 0.0 or not np.isfinite(factor):
            raise ValueError(
                f"scale factor must be finite and >= 0, got {factor!r}"
            )
        events = tuple(
            replace(
                event,
                magnitude=(
                    min(event.magnitude * factor, 1.0)
                    if event.kind in _UNIT_KINDS
                    else min(event.magnitude * factor, 0.99)
                    if event.kind == "crosstalk"
                    else event.magnitude * factor
                ),
            )
            for event in self.events
        )
        return FaultSchedule(name=f"{self.name}x{factor:g}", events=events)

    def events_for(self, core: int) -> tuple[FaultEvent, ...]:
        """The events striking one physical core, onset-ordered."""
        return tuple(
            sorted(
                (event for event in self.events if event.core == core),
                key=lambda event: event.onset_s,
            )
        )


@dataclass(frozen=True)
class RecalibrationPolicy:
    """When and at what cost is a drifted core recalibrated?

    Recalibration is triggered at dispatch instants when a core's
    measured weight error reaches ``error_threshold``; the core then
    drains and runs the closed calibration loop, paying
    ``overhead_s + iterations * iteration_time_s`` of downtime on the
    shared clock (the probe/settle cycle of each feedback iteration
    plus the drain/settle overhead).

    Attributes:
        name: label used in reports and sweep tables.
        error_threshold: weight error that triggers recalibration.
        max_iterations: feedback iterations per recalibration attempt.
        iteration_time_s: simulated time one feedback iteration costs.
        overhead_s: fixed drain/settle cost per attempt.
    """

    name: str = "recal"
    error_threshold: float = 0.05
    max_iterations: int = 20
    iteration_time_s: float = 50e-6
    overhead_s: float = 200e-6

    def __post_init__(self) -> None:
        for field in ("error_threshold", "iteration_time_s", "overhead_s"):
            value = getattr(self, field)
            # A bool compares as 0 or 1 and would pass the range checks.
            if isinstance(value, bool):
                raise ValueError(f"{field} must be a number, got {value!r}")
        if self.error_threshold <= 0.0 or not np.isfinite(self.error_threshold):
            raise ValueError(
                f"error threshold must be finite and > 0, got "
                f"{self.error_threshold!r}"
            )
        validate_count(self.max_iterations, "max iterations")
        # `not 0 <= t < inf` also rejects NaN, which every comparison
        # fails and which would otherwise flow into the core clocks.
        if not (
            0.0 <= self.iteration_time_s < math.inf
            and 0.0 <= self.overhead_s < math.inf
        ):
            raise ValueError(
                f"recalibration times must be finite and >= 0, got "
                f"iteration {self.iteration_time_s!r}, overhead "
                f"{self.overhead_s!r}"
            )

    def downtime_s(self, iterations: int) -> float:
        """Downtime one attempt with ``iterations`` iterations costs."""
        return self.overhead_s + iterations * self.iteration_time_s

    def decider(self) -> "ThresholdTrigger":
        """The per-run trigger, as
        :meth:`~repro.core.adaptive.AdaptiveRecalibration.decider`."""
        return ThresholdTrigger(self)


class ThresholdTrigger:
    """The static policy's trigger: the threshold test alone.

    It keeps no decision log and never reads the queue depth.
    """

    __slots__ = ("policy",)

    decisions: tuple = ()
    needs_queue_depth = False

    def __init__(self, policy: RecalibrationPolicy) -> None:
        self.policy = policy

    def decide(
        self,
        state: "CoreHealthState",
        time_s: float,
        downtime_s: float,
        queued: int | None = None,
    ) -> bool:
        """Whether ``state``'s core recalibrates at ``time_s``."""
        return state.should_recalibrate(self.policy)

    def first_firing(
        self, core: int, errors: np.ndarray, times: np.ndarray
    ) -> int:
        """Index of the first of a non-exhausted core's upcoming
        ``errors`` (at dispatch instants ``times``) that :meth:`decide`
        fires on, or ``errors.size`` if none does.  Until the next
        :meth:`fold` on the core, a call takes the samples that follow
        the last call's."""
        hits = np.flatnonzero(errors >= self.policy.error_threshold)
        return int(hits[0]) if hits.size else errors.size

    def fold(self, core: int, errors: np.ndarray, times: np.ndarray) -> None:
        """Account for dispatches :meth:`decide` did not fire on: the
        threshold test keeps no state, so there is nothing to do."""

    def forget(self, cores: list[int]) -> None:
        """Drop what the trigger holds on ``cores``: nothing."""


@dataclass(frozen=True)
class CoreDriftSnapshot:
    """One core's degradation at a dispatch instant.

    The residual shift, TIA gain, and dead rings feed
    :func:`replay_on_engine_degraded`; the stuck rings are recorded for
    diagnostics only — a stuck heater's effect on the *output* is that
    recalibration cannot correct its channel, which the residual shift
    already carries, so the replay intentionally does not perturb stuck
    positions a second time.

    Attributes:
        core: physical core index.
        residual_shift_hz: ambient resonance shift *beyond* what the
            last successful recalibration compensated.
        tia_gain: output-visible TIA gain — droop accrued *beyond* what
            the last successful recalibration's command boost absorbed.
        dead_rings: rings currently dead.
        stuck_rings: rings currently stuck (diagnostic).
    """

    core: int
    residual_shift_hz: float
    tia_gain: float
    dead_rings: tuple[int, ...]
    stuck_rings: tuple[int, ...]

    @property
    def pristine(self) -> bool:
        """Whether the degraded replay may skip perturbing this core."""
        return (
            self.residual_shift_hz == 0.0
            and self.tia_gain == 1.0
            and not self.dead_rings
        )


@dataclass(frozen=True)
class RecalibrationRecord:
    """One recalibration attempt, as the event loop saw it.

    Attributes:
        time_s: dispatch instant that triggered the attempt.
        core: physical core recalibrated.
        iterations: feedback iterations the loop ran.
        residual: weight error *after* the attempt.
        downtime_s: simulated downtime charged to the core.
        restored: whether the residual fell back below the policy
            threshold (``False`` means the drift exceeded the command
            headroom — the core is a failure candidate).
    """

    time_s: float
    core: int
    iterations: int
    residual: float
    downtime_s: float
    restored: bool


@dataclass(frozen=True)
class RepartitionRecord:
    """One fault-aware drain-and-repartition of the pipeline.

    Attributes:
        time_s: dispatch instant the scheduler reacted at.
        failed_cores: physical cores removed from the pipeline.
        num_cores_after: pipeline width after the repartition.
    """

    time_s: float
    failed_cores: tuple[int, ...]
    num_cores_after: int


@functools.cache
def _calibrated_pristine_probe() -> DriftingWeightBank:
    """The pristine probe after one closed-loop calibration.

    Calibration squashes the pristine bank's open-loop crosstalk
    residual so the healthy baseline error is ~1e-7, far below any
    trigger.  It is deterministic, so every core starts from a copy of
    this one bank rather than calibrating its own.
    """
    probe = DriftingWeightBank()
    probe.recalibrate()
    return probe


class CoreHealthState:
    """Drift state machine of one physical core on the shared clock.

    Wraps the core's :class:`DriftingWeightBank` probe: closed-form
    composition of the schedule's events yields the core's
    :class:`BankCondition` at any instant, the probe is re-tuned only
    when that condition actually changes, and the measured weight error
    is cached between changes.  Deterministic: the probe physics has no
    random effects and every input is a pure function of simulated time.

    So a state is fixed by its events and the mutations it has taken,
    which :attr:`lineage` names: an id interned in a table shared by a
    pool's states (:class:`PoolHealth`; a lone state keeps its own).
    The root id keys the events with the core index stripped, in order;
    each :meth:`advance_to` that moves the state maps ``(id, "advance",
    instant)`` to a new id, and each :meth:`recalibrate` maps ``(id,
    "recal", policy)``.  Two states with equal ids are equal in every
    field but :attr:`core`, by construction.

    Args:
        core: physical core index.
        schedule: the fault schedule (events for other cores ignored).
    """

    __slots__ = (
        "core",
        "events",
        "probe",
        "_condition",
        "error",
        "compensated_shift_hz",
        "compensated_gain",
        "recal_exhausted",
        "_exhausted_condition",
        "lineage",
        "_lineages",
    )

    def __init__(self, core: int, schedule: FaultSchedule) -> None:
        self.core = core
        self.events = schedule.events_for(core)
        self.probe = _calibrated_pristine_probe().copy()
        self._condition = BankCondition()
        self.error = self.probe.weight_error()
        self.compensated_shift_hz = 0.0
        self.compensated_gain = 1.0
        self.recal_exhausted = False
        self._exhausted_condition: BankCondition | None = None
        self._join({})

    def _join(self, lineages: dict) -> None:
        """Intern this fresh state's root lineage in ``lineages``."""
        root = tuple(replace(event, core=0) for event in self.events)
        self._lineages = lineages
        self.lineage = lineages.setdefault(root, len(lineages))

    def condition_at(self, time_s: float) -> BankCondition:
        """Compose the schedule into the core's condition at one instant."""
        # Compose in Python floats whatever scalar type the clock hands
        # in, so conditions and snapshots carry one field type, the one
        # the array sweep produces.
        time_s = float(time_s)
        ambient_k = 0.0
        coupling = 0.0
        gain = 1.0
        dead: set[int] = set()
        stuck: set[int] = set()
        for event in self.events:
            if event.kind == "thermal_ramp":
                ambient_k += event.magnitude * min(
                    max(time_s - event.onset_s, 0.0), event.duration_s
                )
            elif event.kind == "crosstalk":
                if event.onset_s <= time_s < event.onset_s + event.duration_s:
                    coupling += event.magnitude
            elif event.kind == "tia_droop":
                if math.isinf(event.duration_s):
                    progress = 1.0 if time_s >= event.onset_s else 0.0
                else:
                    progress = min(
                        max((time_s - event.onset_s) / event.duration_s, 0.0),
                        1.0,
                    )
                gain *= 1.0 - event.magnitude * progress
            elif time_s >= event.onset_s:
                affected = event.affected_rings
                if event.kind == "dead_rings":
                    dead.update(affected)
                else:
                    stuck.update(affected)
        return BankCondition(
            ambient_k=ambient_k,
            crosstalk_coupling=min(coupling, _MAX_COUPLING),
            dead_rings=tuple(sorted(dead)),
            stuck_rings=tuple(sorted(stuck)),
            tia_gain=max(gain, 0.0),
        )

    def advance_to(self, time_s: float) -> None:
        """Advance the probe to a dispatch instant (no-op if unchanged)."""
        condition = self.condition_at(time_s)
        if condition == self._condition:
            return
        self.probe.set_condition(condition)
        if (
            self.recal_exhausted
            and self._exhausted_condition is not None
            and self._improved(
                self._exhausted_condition,
                condition.ambient_k,
                condition.crosstalk_coupling,
                condition.tia_gain,
                len(condition.dead_rings),
                len(condition.stuck_rings),
            )
        ):
            # The hardware got better on its own (an excursion ended);
            # recalibration is worth attempting again.
            self.recal_exhausted = False
            self._exhausted_condition = None
        self._condition = condition
        self.error = self.probe.weight_error()
        lineages = self._lineages
        self.lineage = lineages.setdefault(
            (self.lineage, "advance", time_s), len(lineages)
        )

    def take(self, source: "CoreHealthState") -> None:
        """Become ``source``'s state, as a twin that took the same
        mutations would: every field but :attr:`core` and
        :attr:`events`, the lineage included, on a copy of its probe."""
        self.probe = source.probe.copy()
        self._condition = source._condition
        self.error = source.error
        self.compensated_shift_hz = source.compensated_shift_hz
        self.compensated_gain = source.compensated_gain
        self.recal_exhausted = source.recal_exhausted
        self._exhausted_condition = source._exhausted_condition
        self.lineage = source.lineage

    @staticmethod
    def _improved(
        old: BankCondition, ambient_k, coupling, tia_gain, num_dead, num_stuck
    ):
        """Whether a condition is better than ``old`` in any respect.

        Elementwise, so the fields may be scalars (one condition) or
        arrays (one entry per instant of a :meth:`sweep`).
        """
        return (
            (ambient_k < old.ambient_k)
            | (coupling < old.crosstalk_coupling)
            | (tia_gain > old.tia_gain)
            | (num_dead < len(old.dead_rings))
            | (num_stuck < len(old.stuck_rings))
        )

    def sweep(self, times: np.ndarray) -> "ProbeSweep":
        """The probe at an epoch of upcoming instants, without advancing.

        The array form of calling :meth:`advance_to` at each of
        ``times`` (ascending, none before the state's last instant) with
        no recalibration in between: the command is fixed, so the
        readout is a pure function of the condition.  Ambient offset and
        TIA gain are composed per instant as arrays; coupling and the
        dead and stuck rings change only at event boundaries, so they are
        composed once per stretch between boundaries by
        :meth:`condition_at`.  The probe is read out only at instants
        whose condition differs from the one before
        (:meth:`~repro.photonics.drift.DriftingWeightBank.weight_errors`),
        and only as far as :meth:`ProbeSweep.read` asks, and every error
        is bit-identical to what :meth:`advance_to` would leave in
        :attr:`error` there.  The state itself does not move:
        the next :meth:`advance_to` jumps straight to its instant, which
        lands where the per-instant walk would have, since the command
        and the exhausted-recalibration flag are fixed in between.
        """
        t = np.asarray(times, dtype=float)
        ambient = np.zeros(t.size)
        gain = np.ones(t.size)
        breaks: list[float] = []
        for event in self.events:
            if event.kind == "thermal_ramp":
                ambient = ambient + event.magnitude * np.minimum(
                    np.maximum(t - event.onset_s, 0.0), event.duration_s
                )
            elif event.kind == "tia_droop":
                if math.isinf(event.duration_s):
                    progress = np.where(t >= event.onset_s, 1.0, 0.0)
                else:
                    elapsed = (t - event.onset_s) / event.duration_s
                    progress = np.minimum(np.maximum(elapsed, 0.0), 1.0)
                gain = gain * (1.0 - event.magnitude * progress)
            elif event.kind == "crosstalk":
                breaks += [event.onset_s, event.onset_s + event.duration_s]
            else:
                breaks.append(event.onset_s)
        gain = np.maximum(gain, 0.0)
        # Discrete state per instant: an index into `keys`, the distinct
        # (coupling, dead, stuck) triples, with the current one first;
        # `seen` holds the first instant of each (the count if none).
        current = self._condition
        keys = [
            (
                current.crosstalk_coupling,
                current.dead_rings,
                current.stuck_rings,
            )
        ]
        seen = [t.size]
        stretch = np.searchsorted(np.unique(breaks), t, side="right")
        _, firsts, inverse = np.unique(
            stretch, return_index=True, return_inverse=True
        )
        ids = []
        for first in firsts.tolist():
            condition = self.condition_at(t[first])
            key = (
                condition.crosstalk_coupling,
                condition.dead_rings,
                condition.stuck_rings,
            )
            if key not in keys:
                keys.append(key)
                seen.append(first)
            index = keys.index(key)
            seen[index] = min(seen[index], first)
            ids.append(index)
        disc = np.asarray(ids, dtype=np.int64)[inverse]
        changed = np.empty(t.size, dtype=bool)
        if t.size:
            changed[0] = (
                ambient[0] != current.ambient_k
                or gain[0] != current.tia_gain
                or disc[0] != 0
            )
            changed[1:] = (
                (ambient[1:] != ambient[:-1])
                | (gain[1:] != gain[:-1])
                | (disc[1:] != disc[:-1])
            )
        moved = np.flatnonzero(changed)
        shift = ambient * SILICON_THERMAL_SHIFT_HZ_PER_K
        rearm = t.size
        if self.recal_exhausted and self._exhausted_condition is not None:
            coupling_of = np.asarray([key[0] for key in keys], dtype=float)
            dead_of = np.asarray([len(key[1]) for key in keys])
            stuck_of = np.asarray([len(key[2]) for key in keys])
            improved = self._improved(
                self._exhausted_condition,
                ambient,
                coupling_of[disc],
                gain,
                dead_of[disc],
                stuck_of[disc],
            )
            hits = np.flatnonzero(changed & improved)
            if hits.size:
                rearm = int(hits[0])
        return ProbeSweep(self, moved, rearm, shift, gain, disc, keys, seen)

    def should_recalibrate(self, policy: RecalibrationPolicy) -> bool:
        """Whether the policy triggers a recalibration attempt now."""
        return not self.recal_exhausted and self.error >= policy.error_threshold

    def recalibrate(self, policy: RecalibrationPolicy) -> CalibrationResult:
        """Run the closed calibration loop and update the health state."""
        result = self.probe.recalibrate(max_iterations=policy.max_iterations)
        self.error = self.probe.weight_error()
        if self.error <= policy.error_threshold:
            # Fully compensated: the command now absorbs the current
            # ambient shift and TIA droop, so replay measures drift
            # from here.
            self.compensated_shift_hz = self._condition.ambient_shift_hz
            self.compensated_gain = self._condition.tia_gain
        else:
            self.recal_exhausted = True
            self._exhausted_condition = self._condition
        lineages = self._lineages
        self.lineage = lineages.setdefault(
            (self.lineage, "recal", policy), len(lineages)
        )
        return result

    @property
    def residual_shift_hz(self) -> float:
        """Ambient shift beyond the last successful compensation."""
        return max(
            self._condition.ambient_shift_hz - self.compensated_shift_hz, 0.0
        )

    @property
    def residual_gain(self) -> float:
        """TIA gain beyond the last successful compensation.

        A successful recalibration boosts the commands to absorb the
        gain droop, so the *output-visible* gain is the droop accrued
        since then (capped at 1 — commands cannot attenuate).
        """
        if self.compensated_gain <= 0.0:
            return self._condition.tia_gain
        return min(self._condition.tia_gain / self.compensated_gain, 1.0)


class ProbeSweep:
    """One core's probe over an epoch of instants.

    Built by :meth:`CoreHealthState.sweep`, which composes the
    conditions; :meth:`read` reads the probe out, in order and only as
    far as asked, so read it before the state next moves.  Besides the
    errors it keeps the per-instant ambient shift, TIA gain and
    discrete-state index, and each discrete state's first instant, from
    which :meth:`DriftSnapshotTable.record_sweeps` fills the epoch's
    drift columns in bulk.

    Attributes:
        rearm: index of the first instant at which an exhausted
            recalibration would re-arm (the condition improved on the one
            it exhausted at), or the instant count if none does.
    """

    __slots__ = (
        "rearm",
        "_state",
        "_source",
        "_shift",
        "_gain",
        "_disc",
        "_keys",
        "_seen",
        "_moved",
        "_measured",
        "_errors",
        "_read",
    )

    def __init__(
        self, state, moved, rearm, shift, gain, disc, keys, seen
    ) -> None:
        self.rearm = rearm
        self._state = state
        self._source = self
        self._shift = shift
        self._gain = gain
        self._disc = disc
        self._keys = keys
        self._seen = seen
        self._moved = moved
        # The error after each change; slot 0 is the current error.
        self._measured = np.empty(moved.size + 1)
        self._measured[0] = state.error
        self._errors = np.empty(shift.size)
        self._read = 0

    def read(self, stop: int) -> np.ndarray:
        """The errors at the first ``stop`` instants: what
        :meth:`CoreHealthState.advance_to` would leave in ``error`` at
        each, read out past what earlier calls read."""
        source = self._source
        if stop > source._read:
            source._read_to(stop)
        return source._errors[:stop]

    def _read_to(self, stop: int) -> None:
        """Read the probe out from where the last read stopped to
        ``stop``."""
        start = self._read
        moved = self._moved
        low, high = moved.searchsorted((start, stop)).tolist()
        measured = self._measured
        at = moved[low:high]
        at_disc = self._disc[at]
        for key_id in np.unique(at_disc).tolist():
            picked = np.flatnonzero(at_disc == key_id)
            coupling, dead, _ = self._keys[key_id]
            measured[low + picked + 1] = self._state.probe.weight_errors(
                coupling, dead, self._shift[at[picked]], self._gain[at[picked]]
            )
        # Instant i reads the error of the last change at or before it.
        latest = moved.searchsorted(np.arange(start, stop), side="right")
        self._errors[start:stop] = measured[latest]
        self._read = stop

    def twin(self, state: "CoreHealthState") -> "ProbeSweep":
        """This sweep for another state of the same lineage: the arrays
        and the readout are shared, the state (read by
        :meth:`DriftSnapshotTable.record_sweeps`) is ``state``."""
        twin = object.__new__(ProbeSweep)
        for name in self.__slots__:
            setattr(twin, name, getattr(self, name))
        twin._state = state
        return twin


_SNAPSHOT_COLUMNS = (
    ("core", np.int64),
    ("residual_shift_hz", np.float64),
    ("tia_gain", np.float64),
    ("fault_key", np.int64),
)
"""The drift table's ``(batches, stages)`` columns: the
:class:`CoreDriftSnapshot` fields, with the dead and stuck rings as an
index into the table's list of distinct ring sets."""


class DriftSnapshotTable:
    """Per-batch, per-stage drift snapshots, stored as columns.

    Row ``b`` holds batch ``b``'s :class:`CoreDriftSnapshot` fields at
    each stage it traversed, in the 2-D ``(batches, initial width)``
    columns of :data:`_SNAPSHOT_COLUMNS`; ``fault_key`` indexes
    ``faults``, the distinct ``(dead_rings, stuck_rings)`` pairs seen.
    The single faulted pipeline records into one (a whole epoch per
    :meth:`record_sweeps`, one dispatch per :meth:`record`), and the
    columns grow geometrically.  ``widths`` says how many stages each
    row uses; a recording table has none, and :meth:`view` pairs its
    rows with the lane's width column.

    A view reads as the tuple of per-batch tuples of snapshots it
    stands for — ``len``, indexing, iteration, ``==`` against another
    table or a plain tuple, and ``repr`` — building the snapshot
    objects only for the rows read.  :meth:`pristine` answers the
    degraded replay's skip test from the columns alone.
    """

    __slots__ = (
        *(name for name, _ in _SNAPSHOT_COLUMNS),
        "widths",
        "faults",
        "_fault_ids",
    )

    def __init__(self, width: int) -> None:
        for column, dtype in _SNAPSHOT_COLUMNS:
            setattr(self, column, np.empty((0, width), dtype))
        self.widths = np.empty(0, np.int64)
        self.faults: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        self._fault_ids: dict = {}

    def view(self, widths: np.ndarray) -> "DriftSnapshotTable":
        """The first ``widths.size`` rows, row ``b`` over its first
        ``widths[b]`` stages (a live view of the columns)."""
        table = object.__new__(DriftSnapshotTable)
        for column, _ in _SNAPSHOT_COLUMNS:
            setattr(table, column, getattr(self, column)[: widths.size])
        table.widths = widths
        table.faults = self.faults
        table._fault_ids = self._fault_ids
        return table

    def _reserve(self, stop: int) -> None:
        """Make room for rows up to ``stop``."""
        size, width = self.core.shape
        if stop > size:
            size = max(stop, 2 * size)
            for column, dtype in _SNAPSHOT_COLUMNS:
                # Zeros, so the stages past a narrowed row's width hold
                # the same bytes from run to run.
                grown = np.zeros((size, width), dtype)
                old = getattr(self, column)
                grown[: old.shape[0]] = old
                setattr(self, column, grown)

    def _fault_id(self, rings: tuple) -> int:
        """The key of a ``(dead_rings, stuck_rings)`` pair."""
        key = self._fault_ids.get(rings)
        if key is None:
            key = self._fault_ids[rings] = len(self.faults)
            self.faults.append(rings)
        return key

    def record(
        self, row: int, states: list[CoreHealthState], phys: list[int]
    ) -> None:
        """Record row ``row``: the stage cores' drift right now."""
        self._reserve(row + 1)
        for stage, core in enumerate(phys):
            state = states[core]
            condition = state._condition
            self.core[row, stage] = core
            self.residual_shift_hz[row, stage] = state.residual_shift_hz
            self.tia_gain[row, stage] = state.residual_gain
            self.fault_key[row, stage] = self._fault_id(
                (condition.dead_rings, condition.stuck_rings)
            )

    def record_sweeps(
        self, row: int, sweeps: list[ProbeSweep], count: int
    ) -> None:
        """Record ``count`` rows from ``row``: each stage core's drift
        at the first ``count`` instants of its sweep, field for field
        what :meth:`record` would store after advancing there.

        An instant whose condition equals the one before it has the
        same ambient offset and gain, so composing the residuals per
        instant gives what the state's properties give per dispatch.
        Only the ring sets of the booked rows are interned, in the order
        row by row, stage by stage, that :meth:`record` first meets
        them, so ``faults`` and ``fault_key`` read as its would.
        """
        stop = row + count
        self._reserve(stop)
        firsts = sorted(
            (first, stage, key)
            for stage, sweep in enumerate(sweeps)
            for key, first in enumerate(sweep._seen)
            if first < count
        )
        ids = [np.zeros(len(sweep._keys), np.int64) for sweep in sweeps]
        for _, stage, key in firsts:
            _, dead, stuck = sweeps[stage]._keys[key]
            ids[stage][key] = self._fault_id((dead, stuck))
        for stage, sweep in enumerate(sweeps):
            state = sweep._state
            residual = np.maximum(
                sweep._shift[:count] - state.compensated_shift_hz, 0.0
            )
            gain = sweep._gain[:count]
            if state.compensated_gain > 0.0:
                gain = np.minimum(gain / state.compensated_gain, 1.0)
            self.core[row:stop, stage] = state.core
            self.residual_shift_hz[row:stop, stage] = residual
            self.tia_gain[row:stop, stage] = gain
            self.fault_key[row:stop, stage] = ids[stage][sweep._disc[:count]]

    def pristine(self) -> np.ndarray:
        """Per row, whether every stage's snapshot is
        :attr:`CoreDriftSnapshot.pristine`."""
        used = np.arange(self.core.shape[1]) < self.widths[:, None]
        dead = np.asarray([bool(dead) for dead, _ in self.faults], dtype=bool)
        healthy = ~used
        healthy[used] = (
            (self.residual_shift_hz[used] == 0.0)
            & (self.tia_gain[used] == 1.0)
            & ~dead[self.fault_key[used]]
        )
        return healthy.all(axis=1)

    def _row(self, row: int) -> tuple[CoreDriftSnapshot, ...]:
        width = int(self.widths[row])
        faults = self.faults
        return tuple(
            CoreDriftSnapshot(core, shift_hz, tia_gain, *faults[key])
            for core, shift_hz, tia_gain, key in zip(
                self.core[row, :width].tolist(),
                self.residual_shift_hz[row, :width].tolist(),
                self.tia_gain[row, :width].tolist(),
                self.fault_key[row, :width].tolist(),
            )
        )

    def __len__(self) -> int:
        return int(self.widths.size)

    def __getitem__(self, index):
        rows = range(len(self))[index]
        if isinstance(index, slice):
            return tuple(self._row(row) for row in rows)
        return self._row(rows)

    def __iter__(self):
        return (self._row(row) for row in range(len(self)))

    def __eq__(self, other) -> bool:
        if isinstance(other, DriftSnapshotTable):
            other = tuple(other)
        if not isinstance(other, tuple):
            return NotImplemented
        return tuple(self) == other

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True)
class DegradedServingReport(ServingReport):
    """A :class:`ServingReport` plus everything degradation added.

    Attributes:
        schedule_name: the fault schedule that ran.
        recalibration_name: the recalibration policy, or ``None``.
        accuracy_proxy: per-batch worst measured weight error over the
            cores the batch traversed (the photodiode-level accuracy
            metric).
        batch_num_cores: per-batch pipeline width (shrinks after
            fault-aware repartitions).
        batch_snapshots: per-batch per-stage drift snapshots, the input
            to :func:`replay_on_engine_degraded`: a
            :class:`DriftSnapshotTable` that reads as a tuple of
            per-batch tuples of :class:`CoreDriftSnapshot` and builds
            them only for the batches read.
        core_downtime_s: per-physical-core recalibration downtime.
        final_core_errors: per-physical-core weight error at the end.
        recalibrations: every recalibration attempt, in order.
        repartitions: every fault-aware repartition, in order.
        decisions: every would-fire decision of an adaptive
            recalibration controller, in order (fired recalibrations
            and cost-gate deferrals alike); ``()`` under the static
            trigger, which keeps no log.
    """

    schedule_name: str
    recalibration_name: str | None
    accuracy_proxy: np.ndarray
    batch_num_cores: np.ndarray
    batch_snapshots: DriftSnapshotTable
    core_downtime_s: tuple[float, ...]
    final_core_errors: tuple[float, ...]
    recalibrations: tuple[RecalibrationRecord, ...]
    repartitions: tuple[RepartitionRecord, ...]
    decisions: tuple[AdaptiveDecision, ...] = ()

    @property
    def availability(self) -> tuple[float, ...]:
        """Per-core fraction of the makespan not lost to recalibration."""
        span = self.makespan_s
        return tuple(
            1.0 - downtime / span for downtime in self.core_downtime_s
        )

    @property
    def mean_accuracy_proxy(self) -> float:
        """Batch-weighted mean of the accuracy proxy."""
        sizes = self.batches.size.astype(float)
        # repro: allow[BIT001] report statistic outside the differential
        # pin: both folds run on the same arrays whichever path built
        # the schedule, so the rounding is identical by construction
        return float((self.accuracy_proxy * sizes).sum() / sizes.sum())

    @property
    def worst_accuracy_proxy(self) -> float:
        """The worst per-batch accuracy proxy of the run."""
        return float(self.accuracy_proxy.max())

    @property
    def final_accuracy_proxy(self) -> float:
        """The last batch's accuracy proxy."""
        return float(self.accuracy_proxy[-1])

    @property
    def num_deferrals(self) -> int:
        """Would-fire decisions the controller's cost gates deferred."""
        return len([d for d in self.decisions if d.action != "recalibrate"])

    def describe(self) -> str:
        """The base summary block plus the degradation lines, and the
        controller line when the run logged decisions."""
        availability = ", ".join(f"{a:.2%}" for a in self.availability)
        lines = [
            super().describe(),
            f"  faults [{self.schedule_name}]: accuracy proxy mean "
            f"{self.mean_accuracy_proxy:.3g}, worst "
            f"{self.worst_accuracy_proxy:.3g} | "
            f"{len(self.recalibrations)} recalibrations, "
            f"{len(self.repartitions)} repartitions",
            f"  availability {availability}",
        ]
        if self.decisions:
            lines.append(
                f"  controller [{self.recalibration_name}]: "
                f"{len(self.decisions)} decisions, "
                f"{self.num_deferrals} deferred"
            )
        return "\n".join(lines)


class PoolHealth:
    """Drift, recalibration and downtime of a pool of physical cores.

    One :class:`CoreHealthState` per pool core, the recalibration
    policy's per-run trigger, and the downtime and recalibration
    ledgers.  :meth:`step` is the one fault step, for the
    single-pipeline :class:`DegradedServingSimulator` and the cluster
    alike: the per-dispatch lane loop takes it at every dispatch, a
    lane's epochs only where :meth:`cut`, its epoch form, finds it acts.

    Args:
        schedule: the fault schedule over the pool's physical cores.
        num_cores: physical cores in the pool.
        recalibration: a :class:`RecalibrationPolicy` or an
            :class:`~repro.core.adaptive.AdaptiveRecalibration`;
            ``None`` disables recalibration.
    """

    __slots__ = (
        "schedule",
        "states",
        "downtime",
        "recalibrations",
        "trigger",
        "_lineages",
    )

    def __init__(
        self,
        schedule: FaultSchedule,
        num_cores: int,
        recalibration: RecalibrationPolicy | AdaptiveRecalibration | None = None,
    ) -> None:
        self.schedule = schedule
        # The states' lineage table (see CoreHealthState).
        self._lineages: dict = {}
        self.states = [self._fresh(core) for core in range(num_cores)]
        self.downtime = [0.0] * num_cores
        self.recalibrations: list[RecalibrationRecord] = []
        self.trigger = (
            None if recalibration is None else recalibration.decider()
        )

    def _fresh(self, core: int) -> CoreHealthState:
        """A core's state as the run starts it, in the pool's lineages."""
        state = CoreHealthState(core, self.schedule)
        state._join(self._lineages)
        return state

    def step(
        self,
        stage_to_core: list[int],
        core_free: list[float],
        dispatch_s: float,
        queue_depth,
    ) -> None:
        """Advance a pipeline's cores to a dispatch and recalibrate.

        Every physical core behind the pipeline's stages
        (``stage_to_core``) is advanced to ``dispatch_s``
        (:meth:`_advance`, once per distinct lineage); each core the
        trigger fires on runs the closed calibration loop and its
        downtime pushes that stage's ``core_free`` entry forward, in
        place, on the shared clock.  ``queue_depth(time_s)`` is sampled
        only for a trigger that gates on queue pressure.

        The trigger decides for every core, and downtime and the log
        stay per core, but the calibration loop runs once per distinct
        lineage it fires on: a twin fired on after a core of its lineage
        takes that core's recalibrated state
        (:meth:`CoreHealthState.take`) and its :class:`~repro.photonics
        .calibration.CalibrationResult`.
        """
        states = self.states
        self._advance(stage_to_core, dispatch_s)
        trigger = self.trigger
        if trigger is None:
            return
        policy = trigger.policy
        queued = (
            queue_depth(dispatch_s) if trigger.needs_queue_depth else None
        )
        recalibrated: dict[int, tuple[CoreHealthState, CalibrationResult]] = {}
        for stage, core in enumerate(stage_to_core):
            state = states[core]
            if not trigger.decide(
                state, dispatch_s, self.downtime[core], queued=queued
            ):
                continue
            done = recalibrated.get(state.lineage)
            if done is None:
                lineage = state.lineage
                result = state.recalibrate(policy)
                recalibrated[lineage] = state, result
            else:
                source, result = done
                state.take(source)
            cost = policy.downtime_s(result.iterations)
            core_free[stage] = max(core_free[stage], dispatch_s) + cost
            self.downtime[core] += cost
            self.recalibrations.append(
                RecalibrationRecord(
                    time_s=dispatch_s,
                    core=core,
                    iterations=result.iterations,
                    residual=state.error,
                    downtime_s=cost,
                    restored=state.error <= policy.error_threshold,
                )
            )

    def cut(
        self,
        stage_to_core: list[int],
        dispatch_s: np.ndarray,
        fail_error_threshold: float | None,
    ) -> tuple[int, np.ndarray, list[ProbeSweep]]:
        """The epoch form of :meth:`step`: the index of the first of a
        pipeline's upcoming dispatches ``dispatch_s`` at which it acts.

        Each stage core's probe is swept over every instant at once
        (:meth:`_sweeps`), and the cut is where the trigger fires on a
        core that is not exhausted, an exhausted core re-arms, or some
        but not all cores fail (:meth:`failing`).  The probes are read
        out in blocks, of :data:`~repro.photonics.drift._ERROR_BLOCK`
        instants and doubling, up to the first block in which the step
        acts, and the trigger's :meth:`~ThresholdTrigger.first_firing`
        carries on from block to block.  The trigger then folds the
        samples before the cut as deciding at each of them would.

        Returns:
            ``(cut, proxies, sweeps)``: the cut (``dispatch_s.size`` if
            the step never acts), the worst stage-core error at each
            dispatch before it, and the sweeps, for the drift rows.
        """
        states = self.states
        sweeps = self._sweeps(stage_to_core, dispatch_s)
        cut = min(sweep.rearm for sweep in sweeps)
        trigger = self.trigger
        start, block = 0, _ERROR_BLOCK
        while start < cut:
            end = stop = min(start + block, cut)
            errors = [sweep.read(end)[start:] for sweep in sweeps]
            if fail_error_threshold is not None:
                # repro: allow[BIT001] integer count, exact in any order
                failing = sum(part >= fail_error_threshold for part in errors)
                hits = np.flatnonzero((failing > 0) & (failing < len(sweeps)))
                if hits.size:
                    stop = start + int(hits[0])
            if trigger is not None:
                for core, part in zip(stage_to_core, errors):
                    if not states[core].recal_exhausted:
                        stop = start + trigger.first_firing(
                            core, part[: stop - start], dispatch_s[start:stop]
                        )
            if stop < end:
                cut = stop
            start, block = end, 2 * block
        if trigger is not None:
            for core, sweep in zip(stage_to_core, sweeps):
                trigger.fold(core, sweep.read(cut), dispatch_s[:cut])
        proxies = sweeps[0].read(cut)
        for sweep in sweeps[1:]:
            proxies = np.maximum(proxies, sweep.read(cut))
        return cut, proxies, sweeps

    def _sweeps(
        self, stage_to_core: list[int], dispatch_s: np.ndarray
    ) -> list[ProbeSweep]:
        """Each stage core's :meth:`CoreHealthState.sweep` over
        ``dispatch_s``, swept once per distinct lineage: a core whose
        state shares a swept core's lineage takes its :meth:`ProbeSweep
        .twin`."""
        states = self.states
        swept: dict[int, ProbeSweep] = {}
        sweeps = []
        for core in stage_to_core:
            state = states[core]
            sweep = swept.get(state.lineage)
            if sweep is None:
                sweep = swept[state.lineage] = state.sweep(dispatch_s)
            else:
                sweep = sweep.twin(state)
            sweeps.append(sweep)
        return sweeps

    def failing(
        self, stage_to_core: list[int], fail_error_threshold: float
    ) -> list[int]:
        """The pipeline's cores at or past the fail threshold, for a
        drain to re-partition around: none if all are (nowhere to go)."""
        states = self.states
        failing = [
            core
            for core in stage_to_core
            if states[core].error >= fail_error_threshold
        ]
        return failing if len(failing) < len(stage_to_core) else []

    def finish(self, time_s: float) -> None:
        """Advance every core to the run's last dispatch, so drained
        and idle cores report end-of-run error, not a stale one."""
        self._advance(range(len(self.states)), time_s)

    def _advance(self, cores, time_s: float) -> None:
        """Advance ``cores`` to ``time_s``, each distinct lineage once:
        a core whose lineage an earlier core had takes that core's
        advanced state (:meth:`CoreHealthState.take`), if it moved."""
        states = self.states
        advanced: dict[int, CoreHealthState] = {}
        for core in cores:
            state = states[core]
            source = advanced.get(state.lineage)
            if source is None:
                advanced[state.lineage] = state
                state.advance_to(time_s)
            elif source.lineage != state.lineage:
                state.take(source)

    def reset(self, cores: list[int]) -> None:
        """Put ``cores`` back where the run started them: fresh drift
        states, no downtime, and no log entry or trigger memory."""
        for core in cores:
            self.states[core] = self._fresh(core)
            self.downtime[core] = 0.0
        self.recalibrations[:] = [
            record
            for record in self.recalibrations
            if record.core not in cores
        ]
        if self.trigger is not None:
            self.trigger.forget(cores)


class DegradedServingSimulator:
    """The serving event loop with hardware degradation on the clock.

    One lane of the cluster event loop
    (:mod:`repro.core.cluster`) serving the caller's pipeline: it is
    identical to :class:`~repro.core.traffic.ServingSimulator` except
    that at every dispatch instant each core's drift state is read,
    the recalibration policy may drain a core (downtime on the shared
    clock), and the fault-aware scheduler may re-partition the layers
    over the surviving cores.  Dispatch planning and the pipeline walk
    stay the exact arithmetic of the fault-free simulator, which is why
    a zero-magnitude schedule stays bit-identical to it.  The lane runs
    in epochs under any policy: it plans the batches up to the next
    dispatch where a core recalibrates, re-arms or fails with the
    vectorized kernel, reads the probes over all their dispatch
    instants at once, and steps only that dispatch (see
    :func:`~repro.core.cluster.serve_pipeline`); an adaptive policy
    logs its decisions in the report.

    Args:
        model: the healthy per-core service model (initial pipeline).
        policy: the batching policy.
        schedule: the fault schedule to inject.
        recalibration: online recalibration policy (static, or an
            adaptive :class:`~repro.core.adaptive.AdaptiveRecalibration`);
            ``None`` disables recalibration entirely.
        specs: the served network's conv layers; required for
            fault-aware repartitioning (``None`` disables it).
        config: hardware configuration used when repartitioning.
        fail_error_threshold: weight error beyond which a core is
            declared failed and drained out of the pipeline.

    Raises:
        ValueError: on a fail threshold that is not finite and > 0.
    """

    def __init__(
        self,
        model: PipelineServiceModel,
        policy: BatchingPolicy,
        schedule: FaultSchedule,
        recalibration: RecalibrationPolicy | AdaptiveRecalibration | None = None,
        specs: list[ConvLayerSpec] | None = None,
        config: PCNNAConfig | None = None,
        fail_error_threshold: float = 0.5,
    ) -> None:
        # `not 0 < x < inf` also rejects NaN, against which `error >= x`
        # is always False and repartitioning would silently never fire;
        # a bool would pass it as 1.0.
        if isinstance(fail_error_threshold, bool) or not (
            0.0 < fail_error_threshold < math.inf
        ):
            raise ValueError(
                f"fail threshold must be finite and > 0, got "
                f"{fail_error_threshold!r}"
            )
        self.model = model
        self.policy = policy
        self.schedule = schedule
        self.recalibration = recalibration
        self.specs = specs
        self.config = config
        self.fail_error_threshold = fail_error_threshold

    def run(self, arrival_s: np.ndarray) -> DegradedServingReport:
        """Serve a trace to completion under the fault schedule.

        Raises:
            ValueError: on an empty, non-finite or unsorted trace.
        """
        # The lane loop lives in cluster.py, which imports this module.
        from repro.core.cluster import serve_pipeline

        health = PoolHealth(
            self.schedule, self.model.num_cores, self.recalibration
        )
        lane = serve_pipeline(
            self.model,
            self.policy,
            validate_arrival_trace(arrival_s),
            health,
            self.specs,
            self.config,
            self.fail_error_threshold,
        )
        trigger = health.trigger
        return DegradedServingReport(
            **lane.serving_fields(),
            schedule_name=self.schedule.name,
            recalibration_name=(
                None if self.recalibration is None else self.recalibration.name
            ),
            accuracy_proxy=lane.proxies,
            batch_num_cores=lane.widths,
            batch_snapshots=lane.snapshots,
            core_downtime_s=tuple(health.downtime),
            final_core_errors=tuple(state.error for state in health.states),
            recalibrations=tuple(health.recalibrations),
            repartitions=tuple(lane.repartitions),
            decisions=() if trigger is None else tuple(trigger.decisions),
        )


def simulate_degraded_serving(
    network: Network,
    arrival_s: np.ndarray,
    policy: BatchingPolicy,
    schedule: FaultSchedule,
    num_cores: int,
    recalibration: RecalibrationPolicy | AdaptiveRecalibration | None = None,
    config: PCNNAConfig | None = None,
    clamp_cores: bool = False,
    repartition: bool = True,
    fail_error_threshold: float = 0.5,
) -> DegradedServingReport:
    """One-call degraded serving simulation for an executable network.

    ``recalibration`` is the static threshold policy or the adaptive
    EWMA controller; under
    :meth:`~repro.core.adaptive.AdaptiveRecalibration.frozen` the report
    is bit-identical to the static policy's, plus the decision log.

    Raises:
        ValueError: on a conv-free network, invalid ``num_cores``, or a
            bad trace.
    """
    specs = network.conv_specs()
    model = PipelineServiceModel.from_specs(
        specs, num_cores, config, clamp_cores
    )
    simulator = DegradedServingSimulator(
        model,
        policy,
        schedule,
        recalibration=recalibration,
        specs=specs if repartition else None,
        config=config,
        fail_error_threshold=fail_error_threshold,
    )
    return simulator.run(arrival_s)


@dataclass(frozen=True)
class DegradedReplay:
    """Degraded engine replay of a simulated schedule.

    Attributes:
        outputs: per-request outputs with each batch's conv weights
            pushed through the cores' measured drift transfer.
        reference_outputs: the same batches executed fault-free.
        divergence_per_batch: per-batch ``max |degraded - reference|``
            — the golden-output divergence the accuracy proxy bounds.
    """

    outputs: np.ndarray
    reference_outputs: np.ndarray
    divergence_per_batch: np.ndarray

    @property
    def max_divergence(self) -> float:
        """Worst per-batch golden-output divergence."""
        return float(self.divergence_per_batch.max())


def _degraded_conv_weights(
    weights: np.ndarray, snapshot: CoreDriftSnapshot
) -> np.ndarray:
    """Push one conv layer's kernels through a core's drift transfer.

    The engine programs each kernel into its weight bank after an affine
    scale to ``[-1, 1]`` (per-kernel max-abs, the scaling
    :class:`~repro.core.accelerator.PhotonicConvolution` applies), so
    the drift acts in the bank domain: normalize per kernel, apply the
    commanded→effective map, pin dead-ring bank positions to the rail
    (``-tia_gain``), and scale back.
    """
    kernels = weights.reshape(weights.shape[0], -1)
    scales = np.max(np.abs(kernels), axis=1, keepdims=True)
    safe = np.where(scales > 0.0, scales, 1.0)
    normalized = kernels / safe
    effective = drift_transfer(
        normalized, snapshot.residual_shift_hz, snapshot.tia_gain
    )
    if snapshot.dead_rings:
        positions = np.unique(
            [ring % kernels.shape[1] for ring in snapshot.dead_rings]
        )
        effective[:, positions] = -snapshot.tia_gain
    # Scale back by the true per-kernel scale: all-zero kernels stay zero.
    return (effective * scales).reshape(weights.shape)


def _degraded_network(
    network: Network,
    snapshots: tuple[CoreDriftSnapshot, ...],
    config: PCNNAConfig | None,
) -> Network:
    """The network with each core's conv layers drift-perturbed."""
    _, slices = stage_layer_slices(
        network, len(snapshots), config, clamp_cores=True
    )
    layers = list(network.layers)
    for (start, end), snapshot in zip(slices, snapshots):
        if snapshot.pristine:
            continue
        for index in range(start, end):
            layer = network.layers[index]
            if not isinstance(layer, Conv2D):
                continue
            layers[index] = Conv2D(
                _degraded_conv_weights(layer.weights, snapshot),
                stride=layer.stride,
                padding=layer.padding,
                bias=layer.bias,
                name=layer.name,
            )
    return Network(
        layers, input_shape=network.input_shape, name=f"{network.name}/degraded"
    )


def replay_on_engine_degraded(
    network: Network,
    report: DegradedServingReport,
    inputs: np.ndarray,
    config: PCNNAConfig | None = None,
) -> DegradedReplay:
    """Execute a degraded schedule's batches on the real engine.

    Each simulated batch runs twice through
    :func:`~repro.core.serving.run_network_pipelined` at the pipeline
    width the batch actually saw: once fault-free and once with every
    core's conv weights pushed through that core's measured drift
    transfer (:func:`~repro.photonics.drift.drift_transfer`, dead rings
    pinned to the rail).  The per-batch max divergence is the
    golden-output error the simulator's photodiode-level accuracy proxy
    is a bound for.  A batch whose every snapshot is pristine (read off
    the snapshot columns, :meth:`DriftSnapshotTable.pristine`) skips the
    degraded pass, so under a zero-magnitude schedule the degraded
    outputs are bit-identical to :func:`~repro.core.traffic.replay_on_engine`.

    Args:
        network: the served network.
        report: a degraded simulation over ``inputs.shape[0]`` requests.
        inputs: per-request inputs.
        config: hardware configuration for execution.

    Returns:
        A :class:`DegradedReplay`.

    Raises:
        ValueError: if ``inputs`` does not cover the report's requests.
    """
    inputs = validate_replay_inputs(network, report, inputs)
    outputs: np.ndarray | None = None
    reference: np.ndarray | None = None
    divergence = np.empty(len(report.batches))
    snapshots = report.batch_snapshots
    pristine = snapshots.pristine().tolist()
    widths = report.batch_num_cores.tolist()
    for batch in report.batches:
        stop = batch.first_request + batch.size
        window = inputs[batch.first_request : stop]
        width = widths[batch.index]
        clean = run_network_pipelined(network, window, width, config)
        if pristine[batch.index]:
            # Healthy batch: the degraded run is the clean run by
            # construction, so skip the second engine pass.
            degraded_outputs = clean.outputs
        else:
            degraded_net = _degraded_network(
                network, snapshots[batch.index], config
            )
            degraded_outputs = run_network_pipelined(
                degraded_net, window, width, config
            ).outputs
        if outputs is None:
            shape = (report.num_requests, *clean.outputs.shape[1:])
            outputs = np.empty(shape)
            reference = np.empty(shape)
        outputs[batch.first_request : stop] = degraded_outputs
        reference[batch.first_request : stop] = clean.outputs
        divergence[batch.index] = float(
            np.max(np.abs(degraded_outputs - clean.outputs))
        )
    assert outputs is not None and reference is not None
    return DegradedReplay(
        outputs=outputs,
        reference_outputs=reference,
        divergence_per_batch=divergence,
    )


__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultSchedule",
    "RecalibrationPolicy",
    "RecalibrationRecord",
    "RepartitionRecord",
    "CoreDriftSnapshot",
    "CoreHealthState",
    "DriftSnapshotTable",
    "DegradedServingReport",
    "DegradedServingSimulator",
    "DegradedReplay",
    "PoolHealth",
    "ThresholdTrigger",
    "simulate_degraded_serving",
    "replay_on_engine_degraded",
    "validate_horizon",
]
