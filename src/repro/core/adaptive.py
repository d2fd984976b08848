"""The adaptive control plane: telemetry-driven serving policies.

Every operator decision in the serving stack so far is a frozen
constant: :class:`~repro.core.faults.RecalibrationPolicy` fires the
moment a core's measured weight error crosses a threshold, a tenant's
``queue_cap`` sheds load at a fixed occupancy, and
:class:`~repro.core.cluster.ElasticReallocation` moves cores at fixed
pressure ratios.  This module closes ROADMAP item 4's loop — the same
decisions, made *online* from the telemetry the simulators already
measure on the shared clock:

* :class:`AdaptiveRecalibration` — an EWMA drift estimator per core
  plus cost-aware scheduling: recalibrate when the *smoothed, projected*
  error crosses the threshold (a transient excursion no longer buys a
  wasted drain), defer when the queue is deep and the projected
  divergence still has headroom, and stop paying downtime once a
  per-core budget is spent.  A drop-in recalibration policy wherever
  the static one goes: its per-run :class:`EwmaRecalDecider` is the
  trigger of the one fault step
  (:meth:`~repro.core.faults.PoolHealth.step`) on the cluster lane
  loop, for single pipelines and clusters alike.
* :class:`BurnRateAdmission` — SLO-burn-rate admission for cluster
  tenants: alongside the static occupancy cap, shed arrivals while the
  fraction of recently completed requests over the SLO latency exceeds
  a burn-rate budget (the tail is protected *before* the queue fills).
* :class:`PressureController` — :class:`ElasticReallocation` thresholds
  driven by observed queue pressure: the higher the peak pressure, the
  lower the ratio/min-queue barriers, so cores move sooner exactly when
  the pool is drowning.

The load-bearing contract is differential, in the style of the PR 4
zero-magnitude and PR 6 vectorized-vs-reference pins: every controller
at its **frozen** setting (:meth:`AdaptiveRecalibration.frozen`,
:meth:`BurnRateAdmission.disabled`, :meth:`PressureController.inert`)
makes decision-for-decision the same calls as its static baseline, so
the run is *bit-identical* — same batches, same latency streams, same
busy ledgers.  ``tests/test_adaptive.py`` pins all three.

Controllers only read the lane's queue depth, completion latencies and
the health states' measured errors; the dispatch-planning and
pipeline-walk arithmetic is never touched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.cluster import ElasticReallocation
from repro.core.config import PCNNAConfig
from repro.core.faults import (
    CoreHealthState,
    DegradedServingReport,
    DegradedServingSimulator,
    FaultSchedule,
    RecalibrationPolicy,
)
from repro.core.simkernel import BatchingPolicy, validate_count
from repro.core.traffic import PipelineServiceModel
from repro.nn.network import Network

# Contract markers checked by `python -m repro.lint` (BIT001/PERF001):
# frozen-setting runs are pinned bit-identical to the static policies,
# and the EWMA decider is advanced at every dispatch of the event loop.
__bit_identity__ = True
__hot_path__ = ("EwmaRecalDecider",)

DECISION_ACTIONS: tuple[str, ...] = (
    "recalibrate",
    "defer-pressure",
    "defer-budget",
)
"""Actions an :class:`AdaptiveDecision` may record."""


def _require_gain(name: str, value: float, low: float = 0.0) -> None:
    """Reject non-finite or out-of-range controller gains eagerly.

    A bool compares as 0 or 1 and would pass the range check.
    """
    if isinstance(value, bool) or math.isnan(value) or value < low:
        raise ValueError(
            f"{name} must be a finite number >= {low:g}, got {value!r}"
        )


@dataclass(frozen=True)
class AdaptiveRecalibration:
    """EWMA drift estimation + cost-aware recalibration scheduling.

    Wraps a static :class:`RecalibrationPolicy` (the threshold and the
    calibration-loop costs) and replaces its *trigger* with a feedback
    controller.  At every dispatch the controller folds the core's
    measured weight error into an EWMA level and slope, projects the
    error ``lead_time_s`` ahead, and fires only when the projection
    crosses the base threshold — so a short crosstalk excursion decays
    out of the estimate instead of buying a drain, while sustained
    drift still triggers (slightly early, if a lead time is set).  Two
    cost gates trade recal downtime against projected divergence: a
    deep queue defers the drain while the projection has
    headroom, and a per-core downtime budget stops paying entirely.

    At the :meth:`frozen` setting the controller is decision-for-
    decision the static policy: ``smoothing=1`` makes the EWMA the raw
    error, ``lead_time_s=0`` makes the projection the level, and the
    gates never bind — the differential pin of
    ``tests/test_adaptive.py``.

    Attributes:
        base: the static policy supplying threshold and costs.
        smoothing: EWMA weight on the newest error sample, in (0, 1].
        lead_time_s: projection horizon for the drift slope (>= 0).
        pressure_hold: defer recalibration while the pipeline holds at
            least this many admitted-but-uncompleted requests — unless
            the projection exceeds ``hold_ceiling`` times the
            threshold.  ``None`` disables the gate.
        hold_ceiling: threshold multiple beyond which a pressure-held
            recalibration fires anyway (>= 1).
        downtime_budget_s: per-core recalibration downtime budget;
            ``inf`` is unlimited.
        name: label used in reports and sweep tables.

    Raises:
        ValueError: on a non-finite or out-of-range gain, or a pressure
            hold that is not an integer >= 1.
    """

    base: RecalibrationPolicy
    smoothing: float = 0.3
    lead_time_s: float = 0.0
    pressure_hold: int | None = None
    hold_ceiling: float = 2.0
    downtime_budget_s: float = math.inf
    name: str = "ewma-recal"

    def __post_init__(self) -> None:
        if (
            isinstance(self.smoothing, bool)
            or math.isnan(self.smoothing)
            or not 0.0 < self.smoothing <= 1.0
        ):
            raise ValueError(
                f"smoothing must be a finite number in (0, 1], got "
                f"{self.smoothing!r}"
            )
        if math.isinf(self.lead_time_s):
            raise ValueError(
                f"lead time must be finite, got {self.lead_time_s!r}"
            )
        _require_gain("lead time", self.lead_time_s)
        if self.pressure_hold is not None:
            validate_count(self.pressure_hold, "pressure hold")
        _require_gain("hold ceiling", self.hold_ceiling, low=1.0)
        if (
            isinstance(self.downtime_budget_s, bool)
            or math.isnan(self.downtime_budget_s)
            or self.downtime_budget_s <= 0.0
        ):
            raise ValueError(
                f"downtime budget must be > 0, got {self.downtime_budget_s!r}"
            )

    @classmethod
    def frozen(cls, base: RecalibrationPolicy) -> "AdaptiveRecalibration":
        """The degenerate setting: decision-identical to ``base``.

        No smoothing memory, no projection, no gates — the trigger
        reduces to ``error >= base.error_threshold`` exactly, which is
        the bit-identity anchor of the differential tests.
        """
        return cls(
            base=base,
            smoothing=1.0,
            lead_time_s=0.0,
            pressure_hold=None,
            downtime_budget_s=math.inf,
            name=f"{base.name}-frozen",
        )

    def decider(self) -> "EwmaRecalDecider":
        """A fresh per-run decision engine for this configuration."""
        return EwmaRecalDecider(self)


@dataclass(frozen=True, slots=True)
class AdaptiveDecision:
    """One controller decision, as the event loop saw it.

    Attributes:
        time_s: dispatch instant the controller decided at.
        core: physical core the decision concerns.
        action: one of :data:`DECISION_ACTIONS`.
        error: the core's raw measured weight error.
        smoothed: the EWMA error level at the decision.
        projected: the level projected ``lead_time_s`` ahead.
        queued: queue depth the cost gate saw (-1 when the
            pressure gate is disabled and the depth was not sampled).
    """

    time_s: float
    core: int
    action: str
    error: float
    smoothed: float
    projected: float
    queued: int = -1


class EwmaRecalDecider:
    """Per-run runtime state of one :class:`AdaptiveRecalibration`.

    Holds the per-core EWMA level/slope estimates and the decision log;
    deterministic by construction — the same telemetry sequence always
    produces the same actions, the property the hypothesis suite pins.
    The per-run trigger of :class:`AdaptiveRecalibration`, with the
    same interface as the static
    :class:`~repro.core.faults.ThresholdTrigger`.
    """

    __slots__ = (
        "controller",
        "policy",
        "needs_queue_depth",
        "decisions",
        "_level",
        "_slope",
        "_last_error",
        "_last_time",
    )

    def __init__(self, controller: AdaptiveRecalibration) -> None:
        self.controller = controller
        self.policy = controller.base
        self.needs_queue_depth = controller.pressure_hold is not None
        self.decisions: list[AdaptiveDecision] = []
        self._level: dict[int, float] = {}
        self._slope: dict[int, float] = {}
        self._last_error: dict[int, float] = {}
        self._last_time: dict[int, float] = {}

    def observe(self, core: int, error: float, time_s: float) -> float:
        """Fold one error sample into the core's estimate.

        Returns the projected error (EWMA level plus the non-negative
        EWMA slope times the lead time).  With ``smoothing=1`` the
        level is the raw sample and the slope never feeds the
        projection, so the return value *is* ``error`` bit-for-bit.
        """
        alpha = self.controller.smoothing
        prev = self._level.get(core)
        if prev is None:
            level = error
            slope = 0.0
        else:
            level = alpha * error + (1.0 - alpha) * prev
            dt = time_s - self._last_time[core]
            rate = (error - self._last_error[core]) / dt if dt > 0.0 else 0.0
            slope = alpha * rate + (1.0 - alpha) * self._slope[core]
        self._level[core] = level
        self._slope[core] = slope
        self._last_error[core] = error
        self._last_time[core] = time_s
        return level + max(slope, 0.0) * self.controller.lead_time_s

    def decide(
        self,
        state: CoreHealthState,
        time_s: float,
        downtime_s: float,
        queued: int | None = None,
    ) -> bool:
        """Should this core recalibrate at this dispatch instant?

        Mirrors :meth:`CoreHealthState.should_recalibrate` with the
        estimator in place of the raw error, then applies the cost
        gates.  Every would-fire decision (fired or deferred) is
        appended to :attr:`decisions`.
        """
        controller = self.controller
        projected = self.observe(state.core, state.error, time_s)
        if state.recal_exhausted:
            return False
        threshold = controller.base.error_threshold
        if projected < threshold:
            return False
        action = "recalibrate"
        if downtime_s >= controller.downtime_budget_s:
            action = "defer-budget"
        elif (
            controller.pressure_hold is not None
            and queued is not None
            and queued >= controller.pressure_hold
            and projected < controller.hold_ceiling * threshold
        ):
            action = "defer-pressure"
        self.decisions.append(
            AdaptiveDecision(
                time_s=time_s,
                core=state.core,
                action=action,
                error=state.error,
                smoothed=self._level[state.core],
                projected=projected,
                queued=-1 if queued is None else queued,
            )
        )
        if action != "recalibrate":
            return False
        # Recalibration resets the core's error; drop the estimator
        # memory so the next sample re-seeds from the restored state.
        del self._level[state.core]
        del self._slope[state.core]
        return True


@dataclass(frozen=True)
class AdaptiveServingReport(DegradedServingReport):
    """A :class:`DegradedServingReport` plus the controller's log.

    Attributes:
        decisions: every would-fire controller decision, in order
            (fired recalibrations and cost-gate deferrals alike).
    """

    decisions: tuple[AdaptiveDecision, ...] = ()

    @property
    def num_deferrals(self) -> int:
        """Would-fire decisions the cost gates deferred."""
        return len(
            [d for d in self.decisions if d.action != "recalibrate"]
        )

    def describe(self) -> str:
        """The degraded summary block plus the controller line."""
        return "\n".join(
            [
                super().describe(),
                f"  controller [{self.recalibration_name}]: "
                f"{len(self.decisions)} decisions, "
                f"{self.num_deferrals} deferred",
            ]
        )


def simulate_adaptive_serving(
    network: Network,
    arrival_s: np.ndarray,
    policy: BatchingPolicy,
    schedule: FaultSchedule,
    num_cores: int,
    controller: AdaptiveRecalibration,
    config: PCNNAConfig | None = None,
    clamp_cores: bool = False,
    repartition: bool = True,
    fail_error_threshold: float = 0.5,
) -> AdaptiveServingReport:
    """One-call degraded serving under the EWMA recal controller.

    The adaptive sibling of
    :func:`~repro.core.faults.simulate_degraded_serving`: identical
    kernel, identical fault engine, with the controller deciding when
    each core drains.  Under :meth:`AdaptiveRecalibration.frozen` the
    report is bit-identical to the static policy's.

    Raises:
        ValueError: on a conv-free network, invalid ``num_cores``, or a
            bad trace.
    """
    specs = network.conv_specs()
    fields, decisions = DegradedServingSimulator(
        PipelineServiceModel.from_specs(specs, num_cores, config, clamp_cores),
        policy,
        schedule,
        recalibration=controller,
        specs=specs if repartition else None,
        config=config,
        fail_error_threshold=fail_error_threshold,
    )._serve(arrival_s)
    return AdaptiveServingReport(**fields, decisions=decisions)


@dataclass(frozen=True)
class BurnRateAdmission:
    """SLO-burn-rate admission control for one cluster tenant.

    The static occupancy cap judges only *queue length*; this
    controller also watches the tenant's recent completions.  An
    arrival is shed when the fraction of the last ``window`` completed
    requests whose latency exceeded ``slo_latency_s`` is above
    ``max_burn_rate`` — the tail is protected while the queue is still
    legal.  Judgments are online: only completions of batches already
    sealed before the arrival's instant are visible, exactly the
    information a real admission controller has.

    ``max_burn_rate=inf`` (:meth:`disabled`) never sheds on burn, so
    admission reduces to the occupancy cap decision-for-decision — the
    bit-identity anchor of the differential tests.

    Attributes:
        slo_latency_s: the tenant's latency SLO.
        max_burn_rate: tolerated fraction of recent completions over
            the SLO; ``inf`` disables burn shedding.
        window: completions in the burn-rate window (an integer >= 1).
        queue_cap: static occupancy cap enforced alongside the burn
            rate; ``None`` leaves occupancy unbounded.
        name: label used in reports and sweep tables.

    Raises:
        ValueError: on a non-finite SLO, a negative or NaN burn rate,
            or a bad window/cap.
    """

    slo_latency_s: float
    max_burn_rate: float = 0.5
    window: int = 32
    queue_cap: int | None = None
    name: str = "burn-rate"

    def __post_init__(self) -> None:
        if (
            isinstance(self.slo_latency_s, bool)
            or self.slo_latency_s <= 0.0
            or not math.isfinite(self.slo_latency_s)
        ):
            raise ValueError(
                f"SLO latency must be finite and > 0, got "
                f"{self.slo_latency_s!r}"
            )
        _require_gain("burn rate", self.max_burn_rate)
        validate_count(self.window, "window")
        if self.queue_cap is not None:
            validate_count(self.queue_cap, "queue cap")

    @classmethod
    def disabled(
        cls, slo_latency_s: float = 1e-3, queue_cap: int | None = None
    ) -> "BurnRateAdmission":
        """The degenerate setting: the static occupancy cap alone."""
        return cls(
            slo_latency_s=slo_latency_s,
            max_burn_rate=math.inf,
            queue_cap=queue_cap,
            name="burn-disabled",
        )

    @property
    def enabled(self) -> bool:
        """Whether burn shedding can ever fire."""
        return math.isfinite(self.max_burn_rate)

    def burn_rate(self, latency_s: np.ndarray) -> float:
        """Fraction of the trailing window's latencies over the SLO.

        Zero observations — a tenant with no completed requests yet, or
        zero offered load — burn nothing: admission stays open until
        there is evidence of SLO burn.
        """
        latencies = np.asarray(latency_s, dtype=float)
        if latencies.size == 0:
            return 0.0
        recent = latencies[-self.window :]
        over = int(np.count_nonzero(recent > self.slo_latency_s))
        return over / int(recent.size)

    def sheds(self, burn: float) -> bool:
        """Whether this burn rate sheds the arrival."""
        return burn > self.max_burn_rate


@dataclass(frozen=True)
class PressureController:
    """:class:`ElasticReallocation` thresholds driven by observed pressure.

    The static policy's ``pressure_ratio`` / ``min_queue`` barriers are
    constants tuned for thrash avoidance; under a genuine load spike
    they delay the very moves that would relieve it.  This controller
    scales both barriers down by ``1 + gain * peak_pressure`` — the
    higher the worst observed queue pressure (queued requests per
    allocated core), the sooner a core moves — with floors of 1 so a
    calm pool behaves exactly like the static policy.

    ``gain=0`` (:meth:`inert`) returns the base thresholds unchanged,
    decision-for-decision the static reallocator — the bit-identity
    anchor of the differential tests.

    Attributes:
        base: the static reallocation policy supplying the barriers.
        gain: pressure feedback gain (>= 0; 0 is inert).
        name: label used in reports and sweep tables.

    Raises:
        ValueError: on a non-finite or negative gain.
    """

    base: ElasticReallocation
    gain: float = 0.25
    name: str = "pressure"

    def __post_init__(self) -> None:
        if math.isinf(self.gain):
            raise ValueError(f"gain must be finite, got {self.gain!r}")
        _require_gain("gain", self.gain)

    @classmethod
    def inert(
        cls, base: ElasticReallocation | None = None
    ) -> "PressureController":
        """The degenerate setting: the static thresholds unchanged."""
        return cls(
            base=base if base is not None else ElasticReallocation(),
            gain=0.0,
            name="pressure-inert",
        )

    def thresholds(self, peak_pressure: float) -> tuple[float, int]:
        """Effective ``(pressure_ratio, min_queue)`` at this pressure."""
        if self.gain == 0.0:
            return self.base.pressure_ratio, self.base.min_queue
        relief = 1.0 + self.gain * max(peak_pressure, 0.0)
        ratio = max(self.base.pressure_ratio / relief, 1.0)
        min_queue = max(int(math.ceil(self.base.min_queue / relief)), 1)
        return ratio, min_queue


__all__ = [
    "DECISION_ACTIONS",
    "AdaptiveDecision",
    "AdaptiveRecalibration",
    "AdaptiveServingReport",
    "BurnRateAdmission",
    "EwmaRecalDecider",
    "PressureController",
    "simulate_adaptive_serving",
]
