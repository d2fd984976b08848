"""Policy-evaluation harness: adaptive control vs static baselines.

The adaptive control plane (:mod:`repro.core.adaptive`) claims to
subsume the static serving policies — threshold recalibration, the
occupancy admission cap, fixed elastic thresholds.  This module makes
that claim *machine-checkable*: a fixed scenario suite (named fault
scenario x named tenant mix, both from :mod:`repro.workloads`) is
crossed with a policy grid, every cell is scored on the three axes the
paper's serving story cares about —

* **availability** — fraction of offered requests served, discounted by
  the fraction of pool capacity lost to recalibration downtime;
* **accuracy error** — request-weighted mean of the per-batch accuracy
  proxy (lower is better);
* **p99 latency** — the 99th percentile over every served request.

— and the :class:`DominanceReport` states exactly which adaptive
policies strictly dominate their named static baselines on which
scenarios, and which policies sit on the per-scenario Pareto front.
Every run is a pure function of the scenario and policy specs, so the
report is deterministic and usable as a regression gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from repro.core.adaptive import (
    AdaptiveRecalibration,
    BurnRateAdmission,
    PressureController,
)
from repro.core.cluster import (
    ClusterReport,
    ElasticReallocation,
    simulate_cluster_serving,
)
from repro.core.config import PCNNAConfig
from repro.core.faults import RecalibrationPolicy
from repro.core.simkernel import validate_count
from repro.analysis.parallel import run_grid
from repro.workloads.cluster_mixes import CLUSTER_MIXES, cluster_mix
from repro.workloads.fault_scenarios import FAULT_SCENARIOS, fault_scenario


@dataclass(frozen=True)
class EvalScenario:
    """One named cell of the scenario suite.

    Attributes:
        name: label used in reports ("<fault>/<mix>" reads well).
        fault: a :data:`~repro.workloads.FAULT_SCENARIOS` name.
        mix: a :data:`~repro.workloads.CLUSTER_MIXES` name.
        rate_rps: aggregate offered rate for the mix.
        num_requests: offered requests across tenants.
        pool_size: physical cores in the shared pool.
        seed: arrival-trace RNG seed.
        severity: fault-magnitude multiplier (0 disarms).
    """

    name: str
    fault: str
    mix: str
    rate_rps: float = 2000.0
    num_requests: int = 400
    pool_size: int = 6
    seed: int = 3
    severity: float = 1.0

    def __post_init__(self) -> None:
        if self.fault not in FAULT_SCENARIOS:
            raise ValueError(
                f"unknown fault scenario {self.fault!r}; "
                f"have {FAULT_SCENARIOS}"
            )
        if self.mix not in CLUSTER_MIXES:
            raise ValueError(
                f"unknown cluster mix {self.mix!r}; have {CLUSTER_MIXES}"
            )
        if self.rate_rps <= 0.0 or not np.isfinite(self.rate_rps):
            raise ValueError(
                f"rate must be finite and > 0, got {self.rate_rps!r}"
            )
        validate_count(self.num_requests, f"{self.name}: request count")
        validate_count(self.pool_size, f"{self.name}: pool core count")


@dataclass(frozen=True)
class PolicySpec:
    """One control-policy column of the evaluation grid.

    ``baseline`` names the static policy this spec claims to dominate;
    baselines themselves leave it ``None``.  The admission template's
    ``queue_cap`` is ignored — every tenant keeps its own configured
    cap, the template only adds the burn-rate judgement on top.

    Attributes:
        name: label used in reports.
        recalibration: static policy, adaptive controller, or ``None``.
        admission: burn-rate admission template, or ``None`` for the
            plain per-tenant occupancy cap.
        elastic: static reallocation policy, pressure controller, or
            ``None`` to pin the initial core split.
        baseline: name of the static baseline spec, or ``None``.
    """

    name: str
    recalibration: RecalibrationPolicy | AdaptiveRecalibration | None = None
    admission: BurnRateAdmission | None = None
    elastic: ElasticReallocation | PressureController | None = None
    baseline: str | None = None


POLICY_EVAL_HEADER = [
    "scenario",
    "policy",
    "availability",
    "accuracy err",
    "p99 (ms)",
    "downtime (us)",
    "served",
    "shed",
    "recals",
]
"""Column labels matching :meth:`PolicyOutcome.row`."""


@dataclass(frozen=True)
class PolicyOutcome:
    """One scored (scenario, policy) cell.

    Attributes:
        scenario: the scenario's name.
        policy: the policy's name.
        baseline: the policy's claimed baseline, or ``None``.
        availability: served fraction x capacity not lost to downtime.
        accuracy_error: request-weighted mean accuracy proxy (lower is
            better).
        p99_latency_s: 99th-percentile latency over served requests.
        downtime_s: total recalibration downtime across the pool.
        served / offered / shed: request conservation ledger.
        recalibrations: recalibration attempts across the pool.
        report: the full cluster run for drill-down.
    """

    scenario: str
    policy: str
    baseline: str | None
    availability: float
    accuracy_error: float
    p99_latency_s: float
    downtime_s: float
    served: int
    offered: int
    shed: int
    recalibrations: int
    report: ClusterReport = field(repr=False)

    def dominates(self, other: "PolicyOutcome") -> bool:
        """Strict Pareto dominance on availability/accuracy/p99."""
        at_least = (
            self.availability >= other.availability
            and self.accuracy_error <= other.accuracy_error
            and self.p99_latency_s <= other.p99_latency_s
        )
        strict = (
            self.availability > other.availability
            or self.accuracy_error < other.accuracy_error
            or self.p99_latency_s < other.p99_latency_s
        )
        return at_least and strict

    def row(self) -> list[str]:
        """The cell formatted for a comparison table."""
        return [
            self.scenario,
            self.policy,
            f"{self.availability:.6f}",
            f"{self.accuracy_error:.5f}",
            f"{self.p99_latency_s * 1e3:.3f}",
            f"{self.downtime_s * 1e6:.0f}",
            str(self.served),
            str(self.shed),
            str(self.recalibrations),
        ]


def _score(
    scenario: EvalScenario, policy: PolicySpec, report: ClusterReport
) -> PolicyOutcome:
    offered = sum(t.num_offered for t in report.tenants)
    served = sum(t.num_requests for t in report.tenants)
    shed = sum(t.num_shed for t in report.tenants)
    downtime = float(sum(report.core_downtime_s))
    span = report.makespan_s
    availability = (served / offered) * (
        1.0 - downtime / (report.pool_size * span)
    )
    sizes = np.concatenate(
        [t.batches.size for t in report.tenants]
    ).astype(float)
    proxies = np.concatenate(
        [np.asarray(t.accuracy_proxy, dtype=float) for t in report.tenants]
    )
    accuracy_error = float((proxies * sizes).sum() / sizes.sum())
    latencies = np.concatenate([t.latencies_s for t in report.tenants])
    p99 = float(np.percentile(latencies, 99.0))
    return PolicyOutcome(
        scenario=scenario.name,
        policy=policy.name,
        baseline=policy.baseline,
        availability=availability,
        accuracy_error=accuracy_error,
        p99_latency_s=p99,
        downtime_s=downtime,
        served=served,
        offered=offered,
        shed=shed,
        recalibrations=len(report.recalibrations),
        report=report,
    )


def evaluate_policy(
    scenario: EvalScenario,
    policy: PolicySpec,
    config: PCNNAConfig | None = None,
) -> PolicyOutcome:
    """Serve one scenario under one policy and score the run."""
    tenants, arrivals = cluster_mix(
        scenario.mix,
        rate_rps=scenario.rate_rps,
        num_requests=scenario.num_requests,
        seed=scenario.seed,
    )
    horizon = max(float(trace[-1]) for trace in arrivals.values())
    schedule = fault_scenario(
        scenario.fault,
        num_cores=scenario.pool_size,
        horizon_s=horizon,
        severity=scenario.severity,
    )
    admission: Mapping[str, object] | None = None
    if policy.admission is not None:
        admission = {
            tenant.name: replace(
                policy.admission, queue_cap=tenant.queue_cap
            )
            for tenant in tenants
        }
    report = simulate_cluster_serving(
        tenants,
        arrivals,
        pool_size=scenario.pool_size,
        elastic=policy.elastic,
        schedule=schedule,
        recalibration=policy.recalibration,
        config=config,
        admission=admission,
    )
    return _score(scenario, policy, report)


def _policy_grid_cell(
    args: tuple[EvalScenario, PolicySpec, PCNNAConfig | None],
) -> PolicyOutcome:
    """One (scenario, policy) cell of :func:`evaluate_policy_grid`.

    Module-level (hence picklable) so
    :func:`~repro.analysis.parallel.run_grid` can ship it to
    spawn-started workers; the cell carries everything it needs.
    """
    scenario, policy, config = args
    return evaluate_policy(scenario, policy, config)


def evaluate_policy_grid(
    scenarios: Sequence[EvalScenario],
    policies: Sequence[PolicySpec],
    config: PCNNAConfig | None = None,
    workers: int = 1,
) -> list[PolicyOutcome]:
    """Score every scenario x policy cell of the grid.

    Cells are independent pure functions of their specs, so they fan
    out over ``workers`` processes with byte-identical results merged
    in cell order (scenarios outer, policies inner — the serial order).

    Raises:
        ValueError: on an empty scenario suite or policy grid, a bad
            worker count, or duplicate policy names (dominance lookups
            need them unique).
    """
    if not scenarios:
        raise ValueError("need at least one scenario")
    if not policies:
        raise ValueError("need at least one policy")
    names = [policy.name for policy in policies]
    if len(set(names)) != len(names):
        raise ValueError(f"policy names must be unique, got {names!r}")
    known = set(names)
    for policy in policies:
        if policy.baseline is not None and policy.baseline not in known:
            raise ValueError(
                f"policy {policy.name!r} names unknown baseline "
                f"{policy.baseline!r}"
            )
    return run_grid(
        _policy_grid_cell,
        [
            (scenario, policy, config)
            for scenario in scenarios
            for policy in policies
        ],
        workers=workers,
    )


def pareto_front(
    outcomes: Sequence[PolicyOutcome],
) -> tuple[PolicyOutcome, ...]:
    """The non-dominated subset of one scenario's outcomes."""
    return tuple(
        candidate
        for candidate in outcomes
        if not any(other.dominates(candidate) for other in outcomes)
    )


@dataclass(frozen=True)
class DominanceReport:
    """The machine-checkable verdict over a scored grid.

    Attributes:
        outcomes: every scored cell.
        wins: ``(scenario, policy, baseline)`` triples where the
            adaptive policy strictly dominated its named baseline.
        fronts: per-scenario Pareto-front policy names.
    """

    outcomes: tuple[PolicyOutcome, ...]
    wins: tuple[tuple[str, str, str], ...]
    fronts: Mapping[str, tuple[str, ...]]

    @classmethod
    def from_outcomes(
        cls, outcomes: Sequence[PolicyOutcome]
    ) -> "DominanceReport":
        """Derive dominance wins and Pareto fronts from scored cells."""
        by_scenario: dict[str, list[PolicyOutcome]] = {}
        for outcome in outcomes:
            by_scenario.setdefault(outcome.scenario, []).append(outcome)
        wins: list[tuple[str, str, str]] = []
        fronts: dict[str, tuple[str, ...]] = {}
        for scenario, cells in by_scenario.items():
            by_policy = {cell.policy: cell for cell in cells}
            for cell in cells:
                if cell.baseline is None or cell.baseline not in by_policy:
                    continue
                if cell.dominates(by_policy[cell.baseline]):
                    wins.append((scenario, cell.policy, cell.baseline))
            fronts[scenario] = tuple(
                cell.policy for cell in pareto_front(cells)
            )
        return cls(
            outcomes=tuple(outcomes), wins=tuple(wins), fronts=dict(fronts)
        )

    def winning_policies(self, min_scenarios: int = 2) -> tuple[str, ...]:
        """Adaptive policies that dominate their baseline on enough
        scenarios *and* sit on the Pareto front of each winning one."""
        by_policy: dict[str, set[str]] = {}
        for scenario, policy, _ in self.wins:
            if policy in self.fronts.get(scenario, ()):
                by_policy.setdefault(policy, set()).add(scenario)
        return tuple(
            sorted(
                policy
                for policy, scenarios in by_policy.items()
                if len(scenarios) >= min_scenarios
            )
        )

    def passes(self, min_scenarios: int = 2) -> bool:
        """Whether at least one adaptive policy clears the bar."""
        return bool(self.winning_policies(min_scenarios))

    def describe(self) -> str:
        """Human-readable table plus the dominance verdict."""
        widths = [
            max(
                len(header),
                max(
                    (len(o.row()[i]) for o in self.outcomes), default=0
                ),
            )
            for i, header in enumerate(POLICY_EVAL_HEADER)
        ]
        lines = [
            "  ".join(
                header.ljust(widths[i])
                for i, header in enumerate(POLICY_EVAL_HEADER)
            )
        ]
        for outcome in self.outcomes:
            lines.append(
                "  ".join(
                    cell.ljust(widths[i])
                    for i, cell in enumerate(outcome.row())
                )
            )
        for scenario in sorted(self.fronts):
            lines.append(
                f"pareto[{scenario}]: {', '.join(self.fronts[scenario])}"
            )
        if self.wins:
            for scenario, policy, baseline in self.wins:
                lines.append(
                    f"dominance: {policy} > {baseline} on {scenario}"
                )
        else:
            lines.append("dominance: none")
        return "\n".join(lines)


def evaluate_dominance(
    scenarios: Sequence[EvalScenario],
    policies: Sequence[PolicySpec],
    config: PCNNAConfig | None = None,
    workers: int = 1,
) -> DominanceReport:
    """Score the grid and fold it into a :class:`DominanceReport`.

    ``workers`` fans the grid cells over processes; the folded report
    is byte-identical to serial (see :func:`evaluate_policy_grid`).
    """
    return DominanceReport.from_outcomes(
        evaluate_policy_grid(scenarios, policies, config, workers=workers)
    )


def default_scenarios(
    num_requests: int = 400, rate_rps: float = 2000.0
) -> tuple[EvalScenario, ...]:
    """The stock scenario suite for the dominance gate."""
    return tuple(
        EvalScenario(
            name=f"{fault}/interactive-batch",
            fault=fault,
            mix="interactive-batch",
            rate_rps=rate_rps,
            num_requests=num_requests,
        )
        for fault in (
            "tia-aging",
            "tia-burnin",
            "slow-drift",
            "crosstalk-blip",
        )
    )


def default_policy_grid(
    scenarios: Sequence[EvalScenario] | None = None,
) -> tuple[PolicySpec, ...]:
    """The stock policy grid: static baselines plus their adaptive
    challengers.

    The EWMA controller's lead time is sized relative to the suite's
    arrival horizon (the drift-slope projection needs a window measured
    in scenario time), so the suite is rebuilt here to derive it.
    """
    if scenarios is None:
        scenarios = default_scenarios()
    if not scenarios:
        raise ValueError("need at least one scenario")
    first = scenarios[0]
    _, arrivals = cluster_mix(
        first.mix,
        rate_rps=first.rate_rps,
        num_requests=first.num_requests,
        seed=first.seed,
    )
    horizon = max(float(trace[-1]) for trace in arrivals.values())
    recal = RecalibrationPolicy(error_threshold=0.05)
    elastic = ElasticReallocation(pressure_ratio=4.0, min_queue=16)
    ewma = AdaptiveRecalibration(
        base=recal, smoothing=0.45, lead_time_s=0.08 * horizon
    )
    burn = BurnRateAdmission(
        slo_latency_s=0.05, max_burn_rate=0.5, window=32
    )
    return (
        PolicySpec(name="no-recal"),
        PolicySpec(name="static-recal", recalibration=recal),
        PolicySpec(
            name="static-elastic", recalibration=recal, elastic=elastic
        ),
        PolicySpec(
            name="adaptive-recal",
            recalibration=ewma,
            baseline="static-recal",
        ),
        PolicySpec(
            name="adaptive-burn",
            recalibration=recal,
            admission=burn,
            baseline="static-recal",
        ),
        PolicySpec(
            name="adaptive-pressure",
            recalibration=recal,
            elastic=PressureController(base=elastic, gain=0.25),
            baseline="static-elastic",
        ),
    )


__all__ = [
    "POLICY_EVAL_HEADER",
    "DominanceReport",
    "EvalScenario",
    "PolicyOutcome",
    "PolicySpec",
    "default_policy_grid",
    "default_scenarios",
    "evaluate_dominance",
    "evaluate_policy",
    "evaluate_policy_grid",
    "pareto_front",
]
