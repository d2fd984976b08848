"""Planet-scale fleet serving: regional cluster pools behind one router.

The cluster runtime (:mod:`repro.core.cluster`) answers "how do N
models share *one* pool".  A planet-scale deployment runs many such
pools — heterogeneous regional clusters, each with its own core count
and fault exposure — behind a global front door (ROADMAP open item 2).
This module builds that front door as a *layered* composition over the
existing substrate rather than a new coupled event loop:

* each :class:`RegionSpec` names one regional pool (core count, local
  routing, elastic policy, fault schedule, recalibration);
* a :class:`GlobalRoutingPolicy` assigns every offered request a
  serving region — ``geo-affinity`` serves at home unless the home
  region is down, ``least-loaded`` picks the region with the smallest
  fluid backlog, ``latency-weighted`` adds the inter-region RTT penalty
  to the backlog — with deterministic tie-breaking (RTT, then region
  order);
* cross-region **failover** derives from each region's pool-level
  :class:`~repro.core.faults.FaultSchedule`: any event at or above the
  policy's ``failover_threshold`` marks the region degraded for its
  active span (permanently for dead/stuck rings), new arrivals divert
  to the best survivor, and requests already routed to the region drain
  there on its degraded cores;
* an optional :class:`FleetAutoscaler` watches per-epoch SLO burn
  (offered load over active capacity) and commissions or drains whole
  pools, with commissioning paying a warm-up delay;
* each region that receives work then runs a *real*
  :class:`~repro.core.cluster.ClusterSimulator` over its merged
  arrival trace, so regional runs inherit every cluster-layer contract
  (admission conservation, fault state machines, the vectorized fast
  path), and completions are mapped back to their origin regions with
  the return-leg RTT added.

The load-bearing correctness contract is differential, in the
PR-3/4/5/6 tradition: a **single-region, zero-RTT, fault-free fleet
run is bit-identical to a plain cluster run** — the router assigns
every request home with no penalty, the merged trace *is* the offered
trace, and the one regional run receives exactly the arguments
:func:`~repro.core.cluster.simulate_cluster_serving` would, so batch
plans and latency streams match bit for bit
(``tests/test_fleet.py::TestFleetDifferential`` pins it, and the
fleet benchmark asserts it on every run).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.core.cluster import (
    ClusterReport,
    ClusterSimulator,
    ClusterTenant,
    ElasticReallocation,
    RoutingPolicy,
    allocate_pool,
)
from repro.core.config import PCNNAConfig
from repro.core.faults import FaultSchedule, RecalibrationPolicy
from repro.core.simkernel import (
    _maxplus_scan,
    validate_arrival_trace,
    validate_count,
)
from repro.core.traffic import LatencyPercentiles, PipelineServiceModel

# Contract marker checked by `python -m repro.lint` (BIT001): the
# single-region zero-RTT fault-free fleet run is pinned bit-identical
# to the plain cluster run, so every float fold here must state its
# order contract.
__bit_identity__ = True

FLEET_ROUTING_KINDS: tuple[str, ...] = (
    "geo-affinity",
    "least-loaded",
    "latency-weighted",
)
"""Routing disciplines a :class:`GlobalRoutingPolicy` may carry."""

_PERMANENT_FAULT_KINDS = ("dead_rings", "stuck_rings")
"""Fault kinds whose degradation never reverts (faults.py semantics)."""


@dataclass(frozen=True)
class RegionSpec:
    """One regional cluster pool behind the global router.

    Attributes:
        name: unique region label used in reports and RTT addressing.
        pool_size: physical cores in the region's pool (each region
            must be able to host every tenant — one core each).
        routing: the region's *local* pool arbitration policy
            (weighted-fair by default, as in the cluster layer).
        elastic: the region's elastic core-reallocation policy.
        schedule: pool-level fault schedule over the region's physical
            cores; besides degrading the regional run it drives
            fleet-level failover (see
            :attr:`GlobalRoutingPolicy.failover_threshold`).
        recalibration: online recalibration policy for degraded cores.
    """

    name: str
    pool_size: int
    routing: RoutingPolicy | None = None
    elastic: ElasticReallocation | None = None
    schedule: FaultSchedule | None = None
    recalibration: RecalibrationPolicy | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("region needs a non-empty name")
        validate_count(self.pool_size, f"{self.name}: pool size")


@dataclass(frozen=True)
class GlobalRoutingPolicy:
    """How the fleet assigns offered requests to serving regions.

    ``geo-affinity`` serves every request in its home region unless
    that region is unavailable (drained by the autoscaler or degraded
    past the failover threshold) at the arrival instant; diverted
    requests go to the available survivor with the lowest home RTT.
    ``least-loaded`` routes each request to the available region with
    the smallest fluid backlog (offered work over estimated capacity).
    ``latency-weighted`` adds the home→candidate RTT to the backlog
    before comparing, trading queueing delay against network delay.
    Every tie breaks deterministically by (home RTT, region order).

    Attributes:
        kind: one of :data:`FLEET_ROUTING_KINDS`.
        failover_threshold: a fault event whose magnitude reaches this
            value marks its region degraded for the event's active
            span (permanently for dead/stuck rings); the router stops
            sending *new* arrivals there while requests already routed
            drain on the degraded cores.
    """

    kind: str = "geo-affinity"
    failover_threshold: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in FLEET_ROUTING_KINDS:
            raise ValueError(
                f"unknown fleet routing kind {self.kind!r}; have "
                f"{FLEET_ROUTING_KINDS}"
            )
        if (
            isinstance(self.failover_threshold, bool)
            or self.failover_threshold <= 0.0
            or not np.isfinite(self.failover_threshold)
        ):
            raise ValueError(
                f"failover threshold must be a finite number > 0, got "
                f"{self.failover_threshold!r}"
            )

    @classmethod
    def geo_affinity(cls, failover_threshold: float = 0.5) -> (
        "GlobalRoutingPolicy"
    ):
        """Serve at home, divert only when the home region is down."""
        return cls(
            kind="geo-affinity", failover_threshold=failover_threshold
        )

    @classmethod
    def least_loaded(cls, failover_threshold: float = 0.5) -> (
        "GlobalRoutingPolicy"
    ):
        """Route to the region with the smallest fluid backlog."""
        return cls(
            kind="least-loaded", failover_threshold=failover_threshold
        )

    @classmethod
    def latency_weighted(cls, failover_threshold: float = 0.5) -> (
        "GlobalRoutingPolicy"
    ):
        """Route on backlog plus the inter-region RTT penalty."""
        return cls(
            kind="latency-weighted",
            failover_threshold=failover_threshold,
        )


@dataclass(frozen=True)
class FleetAutoscaler:
    """SLO-burn-driven pool commissioning and draining.

    At the end of every epoch the autoscaler computes the **burn**: the
    epoch's offered requests divided by what the serving regions could
    have completed (the sum of their estimated capacities times the
    epoch length).  Burn above ``burn_up`` commissions the
    lowest-index idle region, which starts serving after ``warmup_s``;
    burn below ``burn_down`` drains the highest-index active region —
    it stops receiving *new* arrivals at the epoch boundary and serves
    what it already owns to completion.  The active pool count stays in
    ``[min_pools, max_pools]``; the fleet starts with the first
    ``min_pools`` regions active.

    Attributes:
        epoch_s: burn-evaluation period on the simulated clock.
        burn_up: burn threshold above which a pool is commissioned.
        burn_down: burn threshold below which a pool is drained.
        warmup_s: delay between commissioning and first service.
        min_pools: the fleet never drains below this many pools.
        max_pools: the fleet never commissions above this many pools
            (``None`` allows every region).
    """

    epoch_s: float
    burn_up: float = 1.0
    burn_down: float = 0.25
    warmup_s: float = 0.0
    min_pools: int = 1
    max_pools: int | None = None

    def __post_init__(self) -> None:
        for field in ("epoch_s", "burn_up", "burn_down", "warmup_s"):
            value = getattr(self, field)
            # A bool compares as 0 or 1 and would pass the range checks.
            if isinstance(value, bool):
                raise ValueError(f"{field} must be a number, got {value!r}")
        if self.epoch_s <= 0.0 or not np.isfinite(self.epoch_s):
            raise ValueError(
                f"epoch must be finite and > 0, got {self.epoch_s!r}"
            )
        if self.burn_down <= 0.0 or not np.isfinite(self.burn_down):
            raise ValueError(
                f"burn-down threshold must be finite and > 0, got "
                f"{self.burn_down!r}"
            )
        if self.burn_up <= self.burn_down or not np.isfinite(self.burn_up):
            raise ValueError(
                f"burn-up threshold must be finite and above burn-down "
                f"({self.burn_down!r}), got {self.burn_up!r}"
            )
        if self.warmup_s < 0.0 or not np.isfinite(self.warmup_s):
            raise ValueError(
                f"warm-up must be finite and >= 0, got {self.warmup_s!r}"
            )
        validate_count(self.min_pools, "min pools")
        if self.max_pools is not None:
            validate_count(self.max_pools, "max pools")
        if self.max_pools is not None and self.max_pools < self.min_pools:
            raise ValueError(
                f"autoscaling bounds inverted: min_pools "
                f"{self.min_pools!r} > max_pools {self.max_pools!r}"
            )


@dataclass(frozen=True)
class AutoscaleRecord:
    """One pool commissioning or draining decision.

    Attributes:
        time_s: epoch boundary the decision was taken at.
        region: the commissioned/drained region's name.
        action: ``"commission"`` or ``"drain"``.
        burn: the epoch burn that triggered the decision.
        active_after: committed pool count after the decision
            (commissioned-but-warming pools included).
    """

    time_s: float
    region: str
    action: str
    burn: float
    active_after: int


@dataclass(frozen=True)
class FailoverRecord:
    """One region degradation window, as the router saw it.

    Attributes:
        region: the degraded region's name.
        onset_s: when the triggering fault event began.
        until_s: when the degradation window ends (``inf`` for
            permanent ring faults).
        survivor: region the first diverted request went to, or
            ``None`` if nothing diverted during the window.
        rerouted: home requests diverted away during the window.
        failover_latency_s: first diverted request's home-side
            completion minus the onset — how long the first failed-over
            request took to come back; ``NaN`` if nothing diverted
            (or nothing diverted was served).
    """

    region: str
    onset_s: float
    until_s: float
    survivor: str | None
    rerouted: int
    failover_latency_s: float


@dataclass(frozen=True)
class FleetTenantTrace:
    """One (home region, tenant) offered stream and its fleet outcome.

    Arrays are aligned with ``offered_arrival_s`` (the home-side
    arrival order): ``server_region[i]`` is the index of the region
    that served (or shed) request ``i``, ``served[i]`` says whether it
    completed, and ``latency_s[i]`` is its end-to-end home-side latency
    — server queueing plus both RTT legs — or ``NaN`` where shed.

    Attributes:
        home_region: the stream's home region name.
        home_index: the home region's index (what ``server_region``
            compares against).
        tenant: the tenant's name.
        offered_arrival_s: home-side offered arrival times.
        server_region: per-request serving region index.
        served: per-request completion mask.
        latency_s: per-request end-to-end latency (``NaN`` where shed).
    """

    home_region: str
    home_index: int
    tenant: str
    offered_arrival_s: np.ndarray
    server_region: np.ndarray
    served: np.ndarray
    latency_s: np.ndarray

    @property
    def num_offered(self) -> int:
        """Requests the stream offered."""
        return int(self.offered_arrival_s.size)

    @property
    def num_served(self) -> int:
        """Requests that completed somewhere in the fleet."""
        return int(np.count_nonzero(self.served))

    @property
    def num_shed(self) -> int:
        """Requests dropped by regional admission control."""
        return self.num_offered - self.num_served

    @property
    def num_remote(self) -> int:
        """Requests served (or shed) away from the home region."""
        return int(
            np.count_nonzero(self.server_region != self.home_index)
        )


@dataclass(frozen=True)
class RegionOutcome(LatencyPercentiles):
    """Everything one region did during a fleet run.

    Attributes:
        name: the region's name.
        pool_size: physical cores in the region's pool.
        report: the region's full
            :class:`~repro.core.cluster.ClusterReport`, or ``None`` if
            the router sent it no work.
        routed_in: requests the router assigned to the region.
        remote_in: of those, requests whose home is another region.
        latency_s: end-to-end latencies of the requests the region
            served, in (tenant order, regional arrival order).
    """

    name: str
    pool_size: int
    report: ClusterReport | None
    routed_in: int
    remote_in: int
    latency_s: np.ndarray

    @property
    def num_served(self) -> int:
        """Requests the region completed."""
        return int(self.latency_s.size)

    @property
    def num_shed(self) -> int:
        """Requests the region's admission control dropped."""
        return self.routed_in - self.num_served

    def latency_percentile_s(self, percentile: float) -> float:
        """An end-to-end latency percentile over the region's serves.

        Raises:
            ValueError: if the region served nothing — percentiles of
                an empty stream are undefined.
        """
        if self.latency_s.size == 0:
            raise ValueError(
                f"region {self.name!r} served no requests — latency "
                f"percentiles are undefined on an empty stream"
            )
        return float(np.percentile(self.latency_s, percentile))


@dataclass(frozen=True)
class FleetReport(LatencyPercentiles):
    """Everything measured over one fleet run.

    Attributes:
        routing: the global routing policy the run used.
        rtt_s: the validated inter-region round-trip-time matrix.
        regions: per-region outcomes, in region order.
        traces: per-(home region, tenant) streams, region-major.
        failovers: every fault-driven degradation window, in order.
        autoscale_events: every commissioning/draining decision.
        region_capacity_rps: the per-region capacity estimates the
            router and autoscaler used (fixed tenant-order fold).
    """

    routing: GlobalRoutingPolicy
    rtt_s: np.ndarray
    regions: tuple[RegionOutcome, ...]
    traces: tuple[FleetTenantTrace, ...]
    failovers: tuple[FailoverRecord, ...]
    autoscale_events: tuple[AutoscaleRecord, ...]
    region_capacity_rps: tuple[float, ...]

    def region(self, name: str) -> RegionOutcome:
        """The named region's outcome.

        Raises:
            KeyError: on an unknown region name.
        """
        for outcome in self.regions:
            if outcome.name == name:
                return outcome
        raise KeyError(
            f"unknown region {name!r}; have "
            f"{tuple(outcome.name for outcome in self.regions)}"
        )

    def trace(self, home_region: str, tenant: str) -> FleetTenantTrace:
        """The named (home region, tenant) stream.

        Raises:
            KeyError: on an unknown (home region, tenant) pair.
        """
        for trace in self.traces:
            if trace.home_region == home_region and trace.tenant == tenant:
                return trace
        raise KeyError(
            f"no stream for region {home_region!r} tenant {tenant!r}"
        )

    @property
    def num_offered(self) -> int:
        """Requests offered across the whole fleet."""
        # repro: allow[BIT001] integer count, exact in any order
        return sum(trace.num_offered for trace in self.traces)

    @property
    def num_served(self) -> int:
        """Requests served across the whole fleet."""
        # repro: allow[BIT001] integer count, exact in any order
        return sum(trace.num_served for trace in self.traces)

    @property
    def num_shed(self) -> int:
        """Requests shed across the whole fleet."""
        # repro: allow[BIT001] integer count, exact in any order
        return sum(trace.num_shed for trace in self.traces)

    @property
    def num_remote(self) -> int:
        """Requests routed away from their home region."""
        # repro: allow[BIT001] integer count, exact in any order
        return sum(trace.num_remote for trace in self.traces)

    @property
    def latencies_s(self) -> np.ndarray:
        """Every served request's end-to-end latency, region-major."""
        parts = [
            outcome.latency_s
            for outcome in self.regions
            if outcome.latency_s.size
        ]
        if not parts:
            return np.array([])
        return np.concatenate(parts)

    def latency_percentile_s(self, percentile: float) -> float:
        """A global end-to-end latency percentile.

        Raises:
            ValueError: if the fleet served nothing.
        """
        latencies = self.latencies_s
        if latencies.size == 0:
            raise ValueError(
                "fleet served no requests — latency percentiles are "
                "undefined on an empty stream"
            )
        return float(np.percentile(latencies, percentile))

    @property
    def failover_time_s(self) -> float:
        """Slowest first-failed-over-request recovery, ``NaN`` if none.

        The fleet-level "how long were diverted users without service"
        headline: the maximum finite ``failover_latency_s`` across
        degradation windows.
        """
        finite = [
            record.failover_latency_s
            for record in self.failovers
            if math.isfinite(record.failover_latency_s)
        ]
        if not finite:
            return math.nan
        return max(finite)

    @property
    def placement_efficiency(self) -> float:
        """How well served load tracked capacity, in ``[0, 1]``.

        One minus half the L1 distance between the per-region served
        shares and capacity shares: ``1.0`` means every region served
        exactly its capacity share of the fleet's completed load,
        lower values mean replicas sat idle while others queued.
        """
        served = np.array(
            [float(outcome.num_served) for outcome in self.regions]
        )
        capacity = np.array(self.region_capacity_rps)
        # repro: allow[BIT001] reporting-only summary over the fixed
        # region order; never compared bit-exactly
        total_served = float(served.sum())
        # repro: allow[BIT001] reporting-only summary over the fixed
        # region order; never compared bit-exactly
        total_capacity = float(capacity.sum())
        if total_served == 0.0 or total_capacity == 0.0:
            return math.nan
        gap = np.abs(served / total_served - capacity / total_capacity)
        # repro: allow[BIT001] reporting-only summary over the fixed
        # region order; never compared bit-exactly
        return float(1.0 - 0.5 * gap.sum())

    def describe(self) -> str:
        """A fleet summary: global header plus every region's line."""
        shed = self.num_shed
        lines = [
            f"fleet [{self.routing.kind}] over {len(self.regions)} "
            f"regions: {self.num_served}/{self.num_offered} served "
            f"({shed} shed, {self.num_remote} remote), "
            f"{len(self.failovers)} failovers, "
            f"{len(self.autoscale_events)} autoscale events"
        ]
        for outcome in self.regions:
            if outcome.num_served:
                tail = f"p99 {outcome.p99_s * 1e6:.0f}us"
            else:
                tail = "idle"
            lines.append(
                f"  {outcome.name} [{outcome.pool_size} cores]: "
                f"routed {outcome.routed_in} "
                f"({outcome.remote_in} remote), served "
                f"{outcome.num_served}, shed {outcome.num_shed} | {tail}"
            )
        return "\n".join(lines)


def estimate_region_capacity_rps(
    tenants: Sequence[ClusterTenant],
    region: RegionSpec,
    config: PCNNAConfig | None = None,
) -> float:
    """A region's stationary serving-capacity estimate (requests/s).

    Allocates the region's pool over the full tenant set exactly as its
    cluster run would and sums each tenant's pipeline capacity at its
    policy's batch size — the fluid-model rate the router's backlog
    ledger and the autoscaler's burn computation both use.  Also the
    up-front "pool can host the tenants" validation
    (:func:`~repro.core.cluster.allocate_pool` raises otherwise).

    Raises:
        ValueError: if the region's pool cannot host the tenant set.
    """
    allocations, _ = allocate_pool(tenants, region.pool_size, region.routing)
    # repro: allow[BIT001] strict left fold over the fixed tenant
    # order; feeds routing/autoscale decisions, not pinned streams
    return sum(
        PipelineServiceModel.from_specs(
            list(tenant.specs), len(cores), config
        ).capacity_rps(tenant.policy.max_batch)
        for tenant, cores in zip(tenants, allocations)
    )


def uniform_rtt(num_regions: int, rtt_s: float) -> np.ndarray:
    """An RTT matrix with one uniform inter-region round trip.

    Raises:
        ValueError: on a region count that is not an integer >= 1, or
            a negative or non-finite RTT.
    """
    validate_count(num_regions, "region count")
    if rtt_s < 0.0 or not np.isfinite(rtt_s):
        raise ValueError(
            f"RTT must be finite and >= 0, got {rtt_s!r}"
        )
    matrix = np.full((num_regions, num_regions), float(rtt_s))
    np.fill_diagonal(matrix, 0.0)
    return matrix


def validate_rtt_matrix(
    rtt_s: np.ndarray | None, num_regions: int
) -> np.ndarray:
    """Validate and normalize an inter-region RTT matrix.

    ``None`` means a zero-RTT fleet (the differential-pin shape).
    Entries are round-trip seconds; the router charges half on the
    inbound leg and half on the response.

    Raises:
        ValueError: on a non-square shape, a shape not matching the
            region count, non-finite or negative entries, or a nonzero
            diagonal.
    """
    if rtt_s is None:
        return np.zeros((num_regions, num_regions))
    matrix = np.asarray(rtt_s, dtype=float)
    if matrix.shape != (num_regions, num_regions):
        raise ValueError(
            f"RTT matrix must be square over the {num_regions} regions, "
            f"got shape {matrix.shape!r}"
        )
    if not np.all(np.isfinite(matrix)):
        raise ValueError("RTT matrix entries must be finite")
    if np.any(matrix < 0.0):
        raise ValueError(
            f"RTT matrix entries must be >= 0, got minimum "
            f"{float(matrix.min())!r}"
        )
    diagonal = np.diagonal(matrix)
    if np.any(diagonal != 0.0):
        raise ValueError(
            f"RTT matrix diagonal (a region to itself) must be zero, "
            f"got {tuple(float(d) for d in diagonal)!r}"
        )
    return matrix


def _merge_windows(
    windows: list[tuple[float, float]],
) -> list[tuple[float, float]]:
    """Merge overlapping/adjacent half-open ``[start, end)`` windows."""
    merged: list[tuple[float, float]] = []
    for start, end in sorted(windows):
        if end <= start:
            continue
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def _subtract_windows(
    base: list[tuple[float, float]], cut: list[tuple[float, float]]
) -> list[tuple[float, float]]:
    """Remove merged ``cut`` windows from merged ``base`` windows."""
    result: list[tuple[float, float]] = []
    for start, end in base:
        cursor = start
        for cut_start, cut_end in cut:
            if cut_end <= cursor or cut_start >= end:
                continue
            if cut_start > cursor:
                result.append((cursor, cut_start))
            cursor = max(cursor, cut_end)
            if cursor >= end:
                break
        if cursor < end:
            result.append((cursor, end))
    return result


def _window_bounds(windows: list[tuple[float, float]]) -> np.ndarray:
    """Flatten merged windows into a sorted boundary array."""
    bounds = np.empty(2 * len(windows))
    for i, (start, end) in enumerate(windows):
        bounds[2 * i] = start
        bounds[2 * i + 1] = end
    return bounds


def _inside_mask(bounds: np.ndarray | None, times: np.ndarray) -> np.ndarray:
    """Whether each time falls inside any ``[start, end)`` window.

    ``None`` bounds mean "always inside" (the fast path for a region
    with no autoscaler and no outages).
    """
    if bounds is None:
        return np.ones(times.shape, dtype=bool)
    return (np.searchsorted(bounds, times, side="right") % 2).astype(bool)


def _admitted_positions(
    times: np.ndarray, admitted: np.ndarray
) -> np.ndarray:
    """Each merged-trace request's index among the admissions, or -1.

    Admissions and sheds are both ordered subsequences of the sorted
    merged trace, and equal-time requests resolve admitted-first
    (deterministic, and exact whenever arrival times are distinct).  So
    within each run of equal times the first ``count`` requests are
    admitted, where ``count`` is how often that time appears among the
    admissions, and each takes the admission index just past the
    earlier times' admissions plus its rank in the run.
    """
    rank = np.arange(times.size) - np.searchsorted(times, times, side="left")
    first = np.searchsorted(admitted, times, side="left")
    count = np.searchsorted(admitted, times, side="right") - first
    return np.where(rank < count, first + rank, -1)


_ROUTE_MIN_WINDOW = 64
"""Requests the first speculative routing window after a repair
verifies; each window that verifies clean doubles the next one.  A
repair that lands within this many requests of its window's start
counts as dense: speculation then costs more than it saves."""

_ROUTE_WALK_MAX = 8192
"""Cap on the scalar run :func:`_route_speculative` walks after dense
repairs before it speculates again (the run doubles per dense repair)."""


def _route_walk(
    times: np.ndarray,
    homes: np.ndarray,
    avail: np.ndarray,
    rtt_s: np.ndarray,
    quantum: list[float],
    weighted: bool,
    busy: list[float],
    start: int,
    stop: int,
    out: np.ndarray,
) -> None:
    """The scalar load-aware walk over sorted requests ``start..stop-1``.

    Each request goes to the available region with the smallest
    ``(score, rtt, index)``: the score is the region's fluid backlog
    ``max(busy - t, 0)``, plus the home→region RTT under
    latency-weighted routing; a request with no available region stays
    home.  The chosen region's ledger then advances to
    ``max(busy, t) + quantum``.  ``busy`` is updated in place and the
    picks are written to ``out``.  This is the oracle of
    :func:`_route_speculative` and its fallback under dense repairs.
    """
    regions = range(len(quantum))
    rows = rtt_s.tolist()
    picks = []
    for t, home, free in zip(
        times[start:stop].tolist(),
        homes[start:stop].tolist(),
        avail[:, start:stop].T.tolist(),
    ):
        row = rows[home]
        best = home  # nothing available: drain at home
        best_score = best_rtt = math.inf
        for index in regions:
            if not free[index]:
                continue
            backlog = busy[index] - t
            if backlog < 0.0:
                backlog = 0.0
            rtt = row[index]
            score = backlog + rtt if weighted else backlog
            # Strict `<` over ascending index breaks the last tie.
            if score < best_score or (score == best_score and rtt < best_rtt):
                best, best_score, best_rtt = index, score, rtt
        level = busy[best]
        busy[best] = (level if level >= t else t) + quantum[best]
        picks.append(best)
    out[start:stop] = picks


def _route_choose(
    backlog: np.ndarray,
    rtt: np.ndarray,
    avail: np.ndarray,
    homes: np.ndarray,
    weighted: bool,
) -> np.ndarray:
    """Every request's ``(score, rtt, index)`` argmin, as array ops.

    ``backlog``, ``rtt`` and ``avail`` are ``(regions, requests)``: the
    backlog each region shows the request, its home→region RTT, and
    whether the region takes new arrivals then.  Same arithmetic and
    tie order as :func:`_route_walk`.
    """
    best = np.full(homes.size, -1, dtype=np.int64)
    best_score = np.full(homes.size, math.inf)
    best_rtt = np.full(homes.size, math.inf)
    for index in range(backlog.shape[0]):
        score = backlog[index] + rtt[index] if weighted else backlog[index]
        take = avail[index] & (
            (score < best_score)
            | ((score == best_score) & (rtt[index] < best_rtt))
        )
        best[take] = index
        np.copyto(best_score, score, where=take)
        np.copyto(best_rtt, rtt[index], where=take)
    return np.where(best < 0, homes, best)


def _route_ledgers(
    times: np.ndarray,
    assign: np.ndarray,
    busy: list[float],
    quantum: list[float],
) -> tuple[np.ndarray, list[float]]:
    """Each region's ledger just before every request, for one assignment.

    Region ``r``'s ledger folds ``busy = max(busy, t) + q_r`` over the
    requests assigned to it from ``busy0_r``, the max-plus recurrence
    :func:`~repro.core.simkernel._maxplus_scan` solves exactly.
    Returns the ``(regions, requests)`` pre-request ledgers and each
    region's ledger after the last request.
    """
    before = np.empty((len(quantum), times.size))
    after = list(busy)
    everyone = np.arange(times.size)
    for index, q in enumerate(quantum):
        mine = np.flatnonzero(assign == index)
        if not mine.size:
            before[index] = busy[index]
            continue
        ledger = np.empty(mine.size + 1)
        ledger[0] = busy[index]
        ledger[1:] = _maxplus_scan(times[mine], q, busy[index])
        before[index] = ledger[np.searchsorted(mine, everyone, side="left")]
        after[index] = float(ledger[-1])
    return before, after


def _route_speculative(
    times: np.ndarray,
    homes: np.ndarray,
    avail: np.ndarray,
    rtt_s: np.ndarray,
    quantum: list[float],
    weighted: bool,
) -> tuple[np.ndarray, int]:
    """Load-aware routing by speculate, verify and repair.

    Speculates every request's region as its zero-backlog choice, then
    verifies a window at a time: builds each region's ledger for the
    speculated assignment (:func:`_route_ledgers`), recomputes every
    request's argmin from the ledgers just before it
    (:func:`_route_choose`), and accepts the prefix before the first
    disagreement.  The request that disagrees is booked by the scalar
    walk from the exact ledgers there, and the rest of the window is
    re-speculated from the argmins the verify pass computed.  Windows
    double while they verify clean and reset at a repair; after dense
    repairs the scalar walk takes a doubling run of requests before
    speculating again, so a fleet that repairs every few requests costs
    about what :func:`_route_walk` costs.  Returns the assignment,
    bit-identical to :func:`_route_walk` over the whole stream, and the
    repair count.
    """
    n = times.size
    rtt = rtt_s.T[:, homes]
    spec = _route_choose(np.zeros(rtt.shape), rtt, avail, homes, weighted)
    out = np.empty(n, dtype=np.int64)
    busy = [0.0] * len(quantum)
    start = 0
    window = _ROUTE_MIN_WINDOW
    walk = 0
    repairs = 0
    while start < n:
        stop = min(start + window, n)
        part = slice(start, stop)
        before, after = _route_ledgers(times[part], spec[part], busy, quantum)
        backlog = np.maximum(before - times[part], 0.0)
        truth = _route_choose(
            backlog, rtt[:, part], avail[:, part], homes[part], weighted
        )
        wrong = np.flatnonzero(truth != spec[part])
        if not wrong.size:
            out[part] = spec[part]
            busy = after
            start = stop
            window *= 2
            continue
        repairs += 1
        cut = int(wrong[0])
        out[start : start + cut] = spec[start : start + cut]
        busy = before[:, cut].tolist()
        spec[start + cut + 1 : stop] = truth[cut + 1 :]
        if cut < _ROUTE_MIN_WINDOW:
            walk = min(max(2 * walk, _ROUTE_MIN_WINDOW), _ROUTE_WALK_MAX)
        else:
            walk = 0
        # The repaired request, then any dense-repair run, walked.
        resume = min(start + cut + 1 + walk, n)
        _route_walk(
            times, homes, avail, rtt_s, quantum, weighted, busy,
            start + cut, resume, out,
        )
        start = resume
        window = _ROUTE_MIN_WINDOW
    return out, repairs


class FleetRuntime:
    """N regional cluster pools behind one global router.

    Composes the fleet in layers on the shared simulated clock: the
    autoscaler pre-pass fixes each region's active windows, the fault
    schedules fix each region's degradation windows, the global router
    assigns every offered request a serving region (charging half the
    RTT inbound), each receiving region serves its merged trace on a
    real :class:`~repro.core.cluster.ClusterSimulator`, and completions
    map back to their origin streams with the return RTT leg added.

    Args:
        tenants: the globally replicated tenant set — every region can
            serve every tenant (unique names).
        regions: the regional pools, in preference order (unique
            names; each pool must host every tenant).
        rtt_s: inter-region round-trip-time matrix; ``None`` means
            zero RTT everywhere.
        routing: global routing policy (geo-affinity by default).
        autoscaler: SLO-burn pool autoscaler; ``None`` keeps every
            region active for the whole run.
        config: hardware configuration for the regional runs.

    Raises:
        ValueError: on an empty tenant or region set, duplicate tenant
            or region names, an invalid RTT matrix, an autoscaler whose
            bounds exceed the region count, or a region pool too small
            for the tenant set.
    """

    def __init__(
        self,
        tenants: Sequence[ClusterTenant],
        regions: Sequence[RegionSpec],
        rtt_s: np.ndarray | None = None,
        routing: GlobalRoutingPolicy | None = None,
        autoscaler: FleetAutoscaler | None = None,
        config: PCNNAConfig | None = None,
    ) -> None:
        if not tenants:
            raise ValueError("need at least one tenant")
        tenant_names = [tenant.name for tenant in tenants]
        if len(set(tenant_names)) != len(tenant_names):
            raise ValueError(
                f"tenant names must be unique, got {tenant_names!r}"
            )
        if not regions:
            raise ValueError("need at least one region")
        region_names = [region.name for region in regions]
        if len(set(region_names)) != len(region_names):
            raise ValueError(
                f"region names must be unique, got {region_names!r}"
            )
        self.tenants = tuple(tenants)
        self.regions = tuple(regions)
        self.rtt_s = validate_rtt_matrix(rtt_s, len(regions))
        self.routing = (
            routing if routing is not None else GlobalRoutingPolicy()
        )
        self.autoscaler = autoscaler
        if autoscaler is not None:
            if autoscaler.min_pools > len(regions):
                raise ValueError(
                    f"autoscaler min_pools {autoscaler.min_pools!r} "
                    f"exceeds the {len(regions)} regions"
                )
        self.config = config
        self._capacity_rps = tuple(
            estimate_region_capacity_rps(self.tenants, region, config)
            for region in regions
        )

    def _outage_windows(
        self, region: RegionSpec
    ) -> list[tuple[float, float]]:
        """Fault-driven degradation windows for one region."""
        if region.schedule is None:
            return []
        windows = []
        for event in region.schedule.events:
            if event.magnitude < self.routing.failover_threshold:
                continue
            if event.kind in _PERMANENT_FAULT_KINDS:
                windows.append((event.onset_s, math.inf))
            else:
                windows.append(
                    (event.onset_s, event.onset_s + event.duration_s)
                )
        return _merge_windows(windows)

    def _autoscale_timeline(
        self, offered: dict[tuple[int, str], np.ndarray]
    ) -> tuple[list[list[tuple[float, float]]], list[AutoscaleRecord]]:
        """Per-region active windows plus the decision log."""
        num_regions = len(self.regions)
        auto = self.autoscaler
        if auto is None:
            return [[(0.0, math.inf)] for _ in self.regions], []
        max_pools = (
            num_regions if auto.max_pools is None else
            min(auto.max_pools, num_regions)
        )
        active = [index < auto.min_pools for index in range(num_regions)]
        act_from = [0.0 if flag else math.nan for flag in active]
        windows: list[list[tuple[float, float]]] = [
            [] for _ in self.regions
        ]
        events: list[AutoscaleRecord] = []
        all_times = np.concatenate(list(offered.values()))
        horizon = float(all_times.max())
        num_epochs = int(math.ceil(horizon / auto.epoch_s))
        edges = np.arange(num_epochs + 1) * auto.epoch_s
        counts, _ = np.histogram(all_times, bins=edges)
        for epoch in range(num_epochs):
            start = float(edges[epoch])
            end = float(edges[epoch + 1])
            # repro: allow[BIT001] strict left fold over the fixed
            # region order; feeds scale decisions, not pinned streams
            capacity = sum(
                self._capacity_rps[index]
                for index in range(num_regions)
                if active[index] and act_from[index] <= start
            )
            offered_count = int(counts[epoch])
            if capacity > 0.0:
                burn = offered_count / (capacity * auto.epoch_s)
            else:
                burn = math.inf if offered_count else 0.0
            # repro: allow[BIT001] integer count, exact in any order
            num_active = sum(active)
            if burn > auto.burn_up and num_active < max_pools:
                index = active.index(False)
                active[index] = True
                act_from[index] = end + auto.warmup_s
                events.append(
                    AutoscaleRecord(
                        time_s=end,
                        region=self.regions[index].name,
                        action="commission",
                        burn=burn,
                        active_after=num_active + 1,
                    )
                )
            elif burn < auto.burn_down and num_active > auto.min_pools:
                index = num_regions - 1 - active[::-1].index(True)
                active[index] = False
                if end > act_from[index]:
                    windows[index].append((act_from[index], end))
                act_from[index] = math.nan
                events.append(
                    AutoscaleRecord(
                        time_s=end,
                        region=self.regions[index].name,
                        action="drain",
                        burn=burn,
                        active_after=num_active - 1,
                    )
                )
        for index in range(num_regions):
            if active[index]:
                windows[index].append((act_from[index], math.inf))
        return [_merge_windows(w) for w in windows], events

    def _availability(
        self,
        active: list[list[tuple[float, float]]],
        outages: list[list[tuple[float, float]]],
    ) -> list[np.ndarray | None]:
        """Per-region availability boundary arrays (``None`` = always)."""
        bounds: list[np.ndarray | None] = []
        for index in range(len(self.regions)):
            if active[index] == [(0.0, math.inf)] and not outages[index]:
                bounds.append(None)
                continue
            available = _subtract_windows(active[index], outages[index])
            bounds.append(_window_bounds(available))
        return bounds

    def _route_geo_affinity(
        self,
        offered: dict[tuple[int, str], np.ndarray],
        avail: list[np.ndarray | None],
    ) -> dict[tuple[int, str], np.ndarray]:
        """Home-unless-down routing, vectorized per stream."""
        num_regions = len(self.regions)
        server: dict[tuple[int, str], np.ndarray] = {}
        for (home, tenant_name), times in offered.items():
            assignment = np.full(times.size, home, dtype=np.int64)
            need = np.flatnonzero(~_inside_mask(avail[home], times))
            if need.size:
                order = sorted(
                    (self.rtt_s[home, index], index)
                    for index in range(num_regions)
                    if index != home
                )
                for _, index in order:
                    if need.size == 0:
                        break
                    takes = _inside_mask(avail[index], times[need])
                    assignment[need[takes]] = index
                    need = need[~takes]
                # Streams with no available region anywhere stay home:
                # the degraded home drains them on its faulted cores.
            server[(home, tenant_name)] = assignment
        return server

    def _route_load_aware(
        self,
        offered: dict[tuple[int, str], np.ndarray],
        avail: list[np.ndarray | None],
    ) -> dict[tuple[int, str], np.ndarray]:
        """Least-loaded / latency-weighted greedy routing.

        Routes the globally time-sorted offered stream (ties broken by
        home region, tenant, then request index — all deterministic)
        against a per-region fluid ledger: each routed request extends
        its region's backlog by one mean service quantum, and the next
        request picks its region from those backlogs.  The greedy walk
        itself is :func:`_route_walk`; :func:`_route_speculative`
        produces the identical assignment by speculating it, verifying
        it against each region's ledger built as one max-plus scan, and
        repairing from the first disagreement.  Availability comes from
        one :func:`_inside_mask` per region over the sorted stream.
        """
        keys = list(offered)
        sizes = [offered[key].size for key in keys]
        times = np.concatenate([offered[key] for key in keys])
        stream = np.repeat(np.arange(len(keys)), sizes)
        index_in = np.concatenate([np.arange(size) for size in sizes])
        order = np.lexsort((index_in, stream, times))
        times = times[order]
        homes = np.array([key[0] for key in keys], dtype=np.int64)[
            stream[order]
        ]
        mask = np.array([_inside_mask(bounds, times) for bounds in avail])
        assignment, _ = _route_speculative(
            times,
            homes,
            mask,
            self.rtt_s,
            [1.0 / rate for rate in self._capacity_rps],
            self.routing.kind == "latency-weighted",
        )
        server = np.empty(times.size, dtype=np.int64)
        server[order] = assignment
        return dict(zip(keys, np.split(server, np.cumsum(sizes)[:-1])))

    def run(
        self, arrival_s: Mapping[str, Mapping[str, np.ndarray]]
    ) -> FleetReport:
        """Serve every region's offered streams to completion.

        Args:
            arrival_s: per-region, per-tenant sorted offered arrival
                traces — outer keys must cover every region exactly;
                inner keys are any subset of the tenant names (a
                standby region may offer nothing).

        Raises:
            ValueError: on unknown/missing region keys, unknown tenant
                keys, an invalid trace, or a fleet offering zero
                requests.
        """
        region_names = [region.name for region in self.regions]
        if set(arrival_s) != set(region_names):
            raise ValueError(
                f"need one arrival mapping per region "
                f"{sorted(region_names)}, got {sorted(arrival_s)}"
            )
        tenant_names = {tenant.name for tenant in self.tenants}
        offered: dict[tuple[int, str], np.ndarray] = {}
        for home, name in enumerate(region_names):
            for tenant_name, trace in arrival_s[name].items():
                if tenant_name not in tenant_names:
                    raise ValueError(
                        f"region {name!r} offers unknown tenant "
                        f"{tenant_name!r}; have {sorted(tenant_names)}"
                    )
                offered[(home, tenant_name)] = validate_arrival_trace(trace)
        if not offered:
            raise ValueError(
                "fleet offered no requests — every region's arrival "
                "mapping is empty"
            )

        active, autoscale_events = self._autoscale_timeline(offered)
        outages = [
            self._outage_windows(region) for region in self.regions
        ]
        avail = self._availability(active, outages)
        if self.routing.kind == "geo-affinity":
            server = self._route_geo_affinity(offered, avail)
        else:
            server = self._route_load_aware(offered, avail)

        served_mask = {
            key: np.zeros(times.size, dtype=bool)
            for key, times in offered.items()
        }
        latency = {
            key: np.full(times.size, math.nan)
            for key, times in offered.items()
        }
        half_rtt = 0.5 * self.rtt_s
        outcomes: list[RegionOutcome] = []
        for index, region in enumerate(self.regions):
            outcomes.append(
                self._run_region(
                    index,
                    region,
                    offered,
                    server,
                    half_rtt,
                    served_mask,
                    latency,
                )
            )

        traces: list[FleetTenantTrace] = []
        for home, name in enumerate(region_names):
            for tenant in self.tenants:
                key = (home, tenant.name)
                if key not in offered:
                    continue
                traces.append(
                    FleetTenantTrace(
                        home_region=name,
                        home_index=home,
                        tenant=tenant.name,
                        offered_arrival_s=offered[key],
                        server_region=server[key],
                        served=served_mask[key],
                        latency_s=latency[key],
                    )
                )

        failovers = self._failover_records(
            offered, server, served_mask, latency, outages
        )
        return FleetReport(
            routing=self.routing,
            rtt_s=self.rtt_s,
            regions=tuple(outcomes),
            traces=tuple(traces),
            failovers=tuple(failovers),
            autoscale_events=tuple(autoscale_events),
            region_capacity_rps=self._capacity_rps,
        )

    def _run_region(
        self,
        index: int,
        region: RegionSpec,
        offered: dict[tuple[int, str], np.ndarray],
        server: dict[tuple[int, str], np.ndarray],
        half_rtt: np.ndarray,
        served_mask: dict[tuple[int, str], np.ndarray],
        latency: dict[tuple[int, str], np.ndarray],
    ) -> RegionOutcome:
        """Serve one region's merged traces and back-map the outcomes."""
        num_regions = len(self.regions)
        merged: dict[str, np.ndarray] = {}
        origin_home: dict[str, np.ndarray] = {}
        origin_index: dict[str, np.ndarray] = {}
        home_times: dict[str, np.ndarray] = {}
        for tenant in self.tenants:
            parts_t, parts_x, parts_h, parts_i = [], [], [], []
            for home in range(num_regions):
                key = (home, tenant.name)
                if key not in offered:
                    continue
                routed = np.flatnonzero(server[key] == index)
                if routed.size == 0:
                    continue
                raw = offered[key][routed]
                if home == index:
                    parts_t.append(raw)
                else:
                    parts_t.append(raw + half_rtt[home, index])
                parts_x.append(raw)
                parts_h.append(np.full(routed.size, home, dtype=np.int64))
                parts_i.append(routed)
            if not parts_t:
                continue
            if len(parts_t) == 1:
                merged[tenant.name] = parts_t[0]
                home_times[tenant.name] = parts_x[0]
                origin_home[tenant.name] = parts_h[0]
                origin_index[tenant.name] = parts_i[0]
            else:
                times = np.concatenate(parts_t)
                homes = np.concatenate(parts_h)
                indices = np.concatenate(parts_i)
                order = np.lexsort((indices, homes, times))
                merged[tenant.name] = times[order]
                home_times[tenant.name] = np.concatenate(parts_x)[order]
                origin_home[tenant.name] = homes[order]
                origin_index[tenant.name] = indices[order]
        if not merged:
            return RegionOutcome(
                name=region.name,
                pool_size=region.pool_size,
                report=None,
                routed_in=0,
                remote_in=0,
                latency_s=np.array([]),
            )
        subset = tuple(
            tenant for tenant in self.tenants if tenant.name in merged
        )
        simulator = ClusterSimulator(
            subset,
            region.pool_size,
            routing=region.routing,
            elastic=region.elastic,
            schedule=region.schedule,
            recalibration=region.recalibration,
            config=self.config,
        )
        report = simulator.run(merged)
        latency_parts: list[np.ndarray] = []
        routed_in = 0
        remote_in = 0
        for tenant in subset:
            tenant_report = report.tenant(tenant.name)
            times = merged[tenant.name]
            homes = origin_home[tenant.name]
            indices = origin_index[tenant.name]
            routed_in += int(times.size)
            remote_in += int(np.count_nonzero(homes != index))
            if tenant_report.shed_arrival_s.size == 0:
                mask = np.ones(times.size, dtype=bool)
                admitted_pos = np.arange(times.size)
            else:
                admitted_pos = _admitted_positions(
                    times, tenant_report.arrival_s
                )
                mask = admitted_pos >= 0
            served_positions = np.flatnonzero(mask)
            stream_latency = np.full(times.size, math.nan)
            if served_positions.size:
                completion = tenant_report.completion_s[
                    admitted_pos[served_positions]
                ]
                stream_latency[served_positions] = (
                    completion
                    - home_times[tenant.name][served_positions]
                    + half_rtt[homes[served_positions], index]
                )
            latency_parts.append(stream_latency[served_positions])
            for home in range(num_regions):
                from_home = homes == home
                if not np.any(from_home):
                    continue
                key = (home, tenant.name)
                served_mask[key][indices[from_home]] = mask[from_home]
                latency[key][indices[from_home]] = stream_latency[from_home]
        region_latency = (
            np.concatenate(latency_parts) if latency_parts else np.array([])
        )
        return RegionOutcome(
            name=region.name,
            pool_size=region.pool_size,
            report=report,
            routed_in=routed_in,
            remote_in=remote_in,
            latency_s=region_latency,
        )

    def _failover_records(
        self,
        offered: dict[tuple[int, str], np.ndarray],
        server: dict[tuple[int, str], np.ndarray],
        served_mask: dict[tuple[int, str], np.ndarray],
        latency: dict[tuple[int, str], np.ndarray],
        outages: list[list[tuple[float, float]]],
    ) -> list[FailoverRecord]:
        """One record per fault-driven degradation window."""
        records: list[FailoverRecord] = []
        for index, region in enumerate(self.regions):
            for onset, until in outages[index]:
                first_time = math.inf
                first_server: int | None = None
                rerouted = 0
                first_completion = math.inf
                for position, tenant in enumerate(self.tenants):
                    key = (index, tenant.name)
                    if key not in offered:
                        continue
                    times = offered[key]
                    diverted = np.flatnonzero(
                        (times >= onset)
                        & (times < until)
                        & (server[key] != index)
                    )
                    if diverted.size == 0:
                        continue
                    rerouted += int(diverted.size)
                    lead = diverted[0]
                    # Tenants iterate in fixed order; the earliest
                    # diverted arrival wins, ties by tenant position.
                    if float(times[lead]) < first_time:
                        first_time = float(times[lead])
                        first_server = int(server[key][lead])
                    done = diverted[served_mask[key][diverted]]
                    if done.size:
                        completions = times[done] + latency[key][done]
                        first_completion = min(
                            first_completion, float(completions.min())
                        )
                survivor = (
                    self.regions[first_server].name
                    if first_server is not None
                    else None
                )
                records.append(
                    FailoverRecord(
                        region=region.name,
                        onset_s=onset,
                        until_s=until,
                        survivor=survivor,
                        rerouted=rerouted,
                        failover_latency_s=(
                            first_completion - onset
                            if math.isfinite(first_completion)
                            else math.nan
                        ),
                    )
                )
        return records


def simulate_fleet_serving(
    tenants: Sequence[ClusterTenant],
    regions: Sequence[RegionSpec],
    arrival_s: Mapping[str, Mapping[str, np.ndarray]],
    rtt_s: np.ndarray | None = None,
    routing: GlobalRoutingPolicy | None = None,
    autoscaler: FleetAutoscaler | None = None,
    config: PCNNAConfig | None = None,
) -> FleetReport:
    """One-call multi-region fleet simulation.

    The fleet sibling of
    :func:`~repro.core.cluster.simulate_cluster_serving`: builds the
    :class:`FleetRuntime` and serves every region's offered streams.

    Raises:
        ValueError: on an invalid tenant/region set, RTT matrix,
            autoscaler, or trace.
    """
    runtime = FleetRuntime(
        tenants,
        regions,
        rtt_s=rtt_s,
        routing=routing,
        autoscaler=autoscaler,
        config=config,
    )
    return runtime.run(arrival_s)


__all__ = [
    "FLEET_ROUTING_KINDS",
    "AutoscaleRecord",
    "FailoverRecord",
    "FleetAutoscaler",
    "FleetReport",
    "FleetRuntime",
    "FleetTenantTrace",
    "GlobalRoutingPolicy",
    "RegionOutcome",
    "RegionSpec",
    "estimate_region_capacity_rps",
    "simulate_fleet_serving",
    "uniform_rtt",
    "validate_rtt_matrix",
]
