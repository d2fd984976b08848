"""Named fault scenarios for degraded-mode serving studies.

The fault engine (:mod:`repro.core.faults`) takes arbitrary schedules;
studies, examples, and tests want *named, reproducible* ones.  Each
scenario here is a pure function of ``(num_cores, horizon_s, severity)``
— the same arguments always build the same schedule — and its time
constants scale with the simulated horizon, the same compression the
diurnal traffic generator applies to a day of load: real microring
deployments drift over minutes to hours, a simulated trace lasts
fractions of a second, so the scenario expresses drift as "so much
degradation over this trace" rather than a wall-clock rate.

``severity=1.0`` is tuned so the healthy-baseline study stays
interesting: slow drift is recoverable by recalibration, the runaway
core and the ring deaths are not (they exercise the fault-aware
repartitioning path), and everything is scaled down to a no-op by
``severity=0.0`` (the differential-testing hook).
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.faults import FaultEvent, FaultSchedule, validate_horizon
from repro.core.simkernel import validate_count

FAULT_SCENARIOS: tuple[str, ...] = (
    "slow-drift",
    "thermal-runaway",
    "crosstalk-storm",
    "ring-death",
    "tia-aging",
    "tia-burnin",
    "crosstalk-blip",
    "mixed-degradation",
)
"""Names accepted by :func:`fault_scenario`."""

_SLOW_DRIFT_TOTAL_K = 0.06
"""Ambient accumulated by "slow-drift" over the horizon — inside the
command headroom, so online recalibration keeps absorbing it."""

_RUNAWAY_TOTAL_K = 1.0
"""Ambient the runaway core accumulates — far beyond the headroom, so
recalibration exhausts and the scheduler must drain the core."""


def _validate(num_cores: int, horizon_s: float) -> None:
    validate_count(num_cores, "core count")
    validate_horizon(horizon_s)


def fault_scenario(
    name: str, num_cores: int, horizon_s: float, severity: float = 1.0
) -> FaultSchedule:
    """Build one of the named fault scenarios.

    Args:
        name: one of :data:`FAULT_SCENARIOS`.
        num_cores: physical cores in the served pipeline.
        horizon_s: expected trace length; every onset and rate scales
            with it.
        severity: magnitude multiplier (0 disarms every fault).

    Raises:
        KeyError: on an unknown scenario name.
        ValueError: on a core count that is not an integer >= 1, or a
            horizon that is not finite and positive.
    """
    _validate(num_cores, horizon_s)
    cores = range(num_cores)
    if name == "slow-drift":
        rate = _SLOW_DRIFT_TOTAL_K / horizon_s
        schedule = replace(
            FaultSchedule.uniform_drift(rate, num_cores), name=name
        )
    elif name == "thermal-runaway":
        slow = _SLOW_DRIFT_TOTAL_K / horizon_s
        fast = _RUNAWAY_TOTAL_K / horizon_s
        schedule = FaultSchedule(
            name=name,
            events=tuple(
                FaultEvent(
                    kind="thermal_ramp",
                    core=core,
                    onset_s=0.0,
                    magnitude=fast if core == 0 else slow,
                )
                for core in cores
            ),
        )
    elif name == "crosstalk-storm":
        schedule = FaultSchedule(
            name=name,
            events=tuple(
                FaultEvent(
                    kind="crosstalk",
                    core=core,
                    onset_s=0.3 * horizon_s,
                    magnitude=0.25,
                    duration_s=0.3 * horizon_s,
                )
                for core in cores
            ),
        )
    elif name == "ring-death":
        victim = num_cores - 1
        schedule = FaultSchedule(
            name=name,
            events=(
                FaultEvent(
                    kind="dead_rings",
                    core=victim,
                    onset_s=0.4 * horizon_s,
                    magnitude=1.0,
                    rings=(7, 6),
                ),
            ),
        )
    elif name == "tia-aging":
        schedule = FaultSchedule(
            name=name,
            events=tuple(
                FaultEvent(
                    kind="tia_droop",
                    core=core,
                    onset_s=0.0,
                    magnitude=0.15,
                    duration_s=horizon_s,
                )
                for core in cores
            ),
        )
    elif name == "tia-burnin":
        # Deep, slow photodiode burn-in: the droop keeps progressing
        # well past the nominal horizon, so the error curve stays in
        # its decelerating early phase for the whole run — the regime
        # where recalibrating early (at a lower starting error) costs
        # fewer feedback iterations than waiting for the threshold.
        schedule = FaultSchedule(
            name=name,
            events=tuple(
                FaultEvent(
                    kind="tia_droop",
                    core=core,
                    onset_s=0.0,
                    magnitude=0.3,
                    duration_s=3.0 * horizon_s,
                )
                for core in cores
            ),
        )
    elif name == "crosstalk-blip":
        # One short crosstalk excursion on one core — a transient that
        # reverts on its own.  Threshold-triggered recalibration fires
        # on the excursion and again on the stale compensation it
        # leaves behind once the coupling reverts; a smoothed estimator
        # rides the blip out.
        schedule = FaultSchedule(
            name=name,
            events=(
                FaultEvent(
                    kind="crosstalk",
                    core=0,
                    onset_s=0.35 * horizon_s,
                    magnitude=0.15,
                    duration_s=horizon_s / 48.0,
                ),
            ),
        )
    elif name == "mixed-degradation":
        slow = _SLOW_DRIFT_TOTAL_K / horizon_s
        events = [
            FaultEvent(
                kind="thermal_ramp", core=core, onset_s=0.0, magnitude=slow
            )
            for core in cores
        ]
        events.append(
            FaultEvent(
                kind="crosstalk",
                core=min(1, num_cores - 1),
                onset_s=0.25 * horizon_s,
                magnitude=0.2,
                duration_s=0.25 * horizon_s,
            )
        )
        events.append(
            FaultEvent(
                kind="dead_rings",
                core=num_cores - 1,
                onset_s=0.5 * horizon_s,
                magnitude=1.0,
                rings=(7,),
            )
        )
        schedule = FaultSchedule(name=name, events=tuple(events))
    else:
        raise KeyError(
            f"unknown fault scenario {name!r}; have {FAULT_SCENARIOS}"
        )
    if severity != 1.0:
        schedule = schedule.scaled(severity)
    return schedule


__all__ = ["FAULT_SCENARIOS", "fault_scenario"]
