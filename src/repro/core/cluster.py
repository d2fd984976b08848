"""Multi-tenant cluster serving over a shared photonic core pool.

The single-model simulators answer "how does *one* network serve *its*
traffic".  A production deployment co-serves many models: an
interactive LeNet next to a batch AlexNet next to a GoogLeNet stem,
all drawing cores from one heterogeneous pool.  This module builds that
runtime on the unified event-loop kernel (:mod:`repro.core.simkernel`):

* each :class:`ClusterTenant` owns a request queue, a batching policy,
  and a contiguous sub-pipeline of physical pool cores; its dispatches
  are planned and booked with the *exact* kernel arithmetic
  (:func:`~repro.core.simkernel.plan_dispatch` /
  :func:`~repro.core.simkernel.execute_dispatch`), so a single-tenant
  zero-fault cluster run is bit-identical to the PR 3
  :class:`~repro.core.traffic.ServingSimulator`;
* a :class:`RoutingPolicy` arbitrates the pool — ``weighted_fair``
  allocates cores proportionally to tenant weights and *guarantees*
  each tenant its share (the minority tenant keeps its cores while a
  10x-load neighbour saturates the pool), ``priority`` lets
  high-priority tenants strip low-priority ones down to one core;
* admission control sheds load: a tenant's ``queue_cap`` bounds its
  queue, and a request arriving to a full queue is dropped and counted
  (``served + shed = offered``, the conservation law the hypothesis
  suite pins);
* an :class:`ElasticReallocation` policy moves cores between tenants at
  dispatch instants when queue pressure diverges, draining the affected
  pipelines on the shared clock and re-partitioning each tenant's
  layers over its new width;
* an optional :class:`~repro.core.faults.FaultSchedule` degrades the
  *physical pool cores* — each carries a
  :class:`~repro.core.faults.CoreHealthState` drift state machine,
  advanced at the owning tenant's dispatch instants by the one fault
  step (:meth:`~repro.core.faults.PoolHealth.step`), with recalibration
  downtime paid into that tenant's clock;
* :func:`replay_tenant_on_engine` re-executes any tenant's simulated
  batches on the real batched photonic engine at the per-batch pipeline
  widths elastic reallocation left behind — bit-identical to running
  every request alone in ideal mode.

The lane event loop here is the only loop that hosts mid-run
feedback: the single-pipeline degraded and adaptive simulators
(:mod:`repro.core.faults`, :mod:`repro.core.adaptive`) run as one lane
of it (:func:`serve_pipeline`), with failing-core repartitioning and
per-batch drift snapshots switched on.  Everything is a pure function
of its inputs: a fixed seed and tenant mix yields bit-identical reports
on every run.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.core.config import PCNNAConfig
from repro.core.faults import (
    CoreDriftSnapshot,
    CoreHealthState,
    FaultSchedule,
    PoolHealth,
    RecalibrationPolicy,
    RecalibrationRecord,
    RepartitionRecord,
)
from repro.core.simkernel import (
    BatchingPolicy,
    BatchTable,
    DispatchContext,
    execute_dispatch,
    pipeline_completions,
    plan_batches,
    plan_dispatch,
    validate_arrival_trace,
    validate_count,
    validate_kernel_mode,
)
from repro.core.traffic import (
    PipelineServiceModel,
    ServingReport,
    replay_batches,
    validate_replay_inputs,
)
from repro.nn.network import Network
from repro.nn.shapes import ConvLayerSpec

# Contract markers checked by `python -m repro.lint` (BIT001/PERF001):
# a single-tenant zero-fault cluster run is pinned bit-identical to the
# plain simulator, and _TenantLane is the per-tenant hot-path state the
# cluster event loop advances on every dispatch.
__bit_identity__ = True
__hot_path__ = ("_TenantLane",)

ROUTING_KINDS: tuple[str, ...] = ("weighted-fair", "priority")
"""Routing disciplines a :class:`RoutingPolicy` may carry."""


@dataclass(frozen=True)
class ClusterTenant:
    """One co-served model with its queue, policy, and pool entitlement.

    Attributes:
        name: unique tenant label used in reports and routing.
        specs: the tenant network's conv layers (the photonic work that
            defines its pipeline).
        policy: the tenant's batching policy.
        weight: weighted-fair share of the pool (> 0).
        priority: priority-routing rank (higher wins).
        queue_cap: admission-control bound on the tenant's queue;
            ``None`` admits everything.  A cap below the policy's
            ``max_batch`` also caps the batch size — a queue that can
            never hold a full batch must not wait for one.
    """

    name: str
    specs: tuple[ConvLayerSpec, ...]
    policy: BatchingPolicy
    weight: float = 1.0
    priority: int = 0
    queue_cap: int | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant needs a non-empty name")
        if not self.specs:
            raise ValueError(
                f"{self.name}: need at least one conv layer to serve"
            )
        if self.weight <= 0.0 or not np.isfinite(self.weight):
            raise ValueError(
                f"{self.name}: weight must be finite and > 0, got "
                f"{self.weight!r}"
            )
        if self.queue_cap is not None:
            validate_count(self.queue_cap, f"{self.name}: queue cap")

    @classmethod
    def from_network(
        cls,
        name: str,
        network: Network,
        policy: BatchingPolicy,
        weight: float = 1.0,
        priority: int = 0,
        queue_cap: int | None = None,
    ) -> "ClusterTenant":
        """Build a tenant from an executable network's conv layers."""
        return cls(
            name=name,
            specs=tuple(network.conv_specs()),
            policy=policy,
            weight=weight,
            priority=priority,
            queue_cap=queue_cap,
        )

    @property
    def max_useful_cores(self) -> int:
        """Cores beyond this are wasted on the tenant (one per layer)."""
        return len(self.specs)


@dataclass(frozen=True)
class RoutingPolicy:
    """How the cluster arbitrates the shared pool between tenants.

    ``weighted-fair`` allocates cores in proportion to tenant weights
    and *guarantees* each tenant its initial share: elastic reallocation
    may only move a tenant's surplus, so a minority tenant's cores can
    never be stripped by a noisy neighbour.  ``priority`` guarantees
    only one core per tenant, hands the rest of the pool out in
    descending priority order at allocation, and prefers
    higher-priority tenants when ordering simultaneous dispatches and
    when choosing which pressured tenant grows at a reallocation
    (elastic moves may strip lower-priority tenants down to one core).
    Under weighted-fair, simultaneous dispatches order by
    least-served-per-weight instead.

    Attributes:
        kind: one of :data:`ROUTING_KINDS`.
    """

    kind: str = "weighted-fair"

    def __post_init__(self) -> None:
        if self.kind not in ROUTING_KINDS:
            raise ValueError(
                f"unknown routing kind {self.kind!r}; have {ROUTING_KINDS}"
            )

    @classmethod
    def weighted_fair(cls) -> "RoutingPolicy":
        """Proportional-share routing with guaranteed allocations."""
        return cls(kind="weighted-fair")

    @classmethod
    def priority(cls) -> "RoutingPolicy":
        """Strict-priority routing (floor of one core per tenant)."""
        return cls(kind="priority")


@dataclass(frozen=True)
class ElasticReallocation:
    """When does a core move between tenants?

    Evaluated after every dispatch: if some tenant's queue pressure
    (queued requests per allocated core) exceeds ``pressure_ratio``
    times the least-pressured donor's — and the pressured tenant has at
    least ``min_queue`` requests waiting — one core moves.  Moves drain
    both pipelines (layers are re-partitioned over the new widths), so
    the thresholds exist to stop thrash; free pool cores are handed out
    without a donor.

    Attributes:
        pressure_ratio: minimum recipient/donor pressure ratio.
        min_queue: minimum queued requests before a tenant may grow.
    """

    pressure_ratio: float = 4.0
    min_queue: int = 16

    def __post_init__(self) -> None:
        if self.pressure_ratio < 1.0 or not np.isfinite(self.pressure_ratio):
            raise ValueError(
                f"pressure ratio must be finite and >= 1, got "
                f"{self.pressure_ratio!r}"
            )
        validate_count(self.min_queue, "min queue")

    def thresholds(self, peak_pressure: float) -> tuple[float, int]:
        """Effective ``(pressure_ratio, min_queue)``: the constants.

        The same interface as
        :meth:`~repro.core.adaptive.PressureController.thresholds`, so
        the reallocator asks one threshold function whichever policy is
        configured; the static policy ignores the observed pressure.
        """
        return self.pressure_ratio, self.min_queue


@dataclass(frozen=True)
class ReallocationRecord:
    """One elastic core move, as the event loop saw it.

    Attributes:
        time_s: dispatch instant the reallocator reacted at.
        core: physical pool core that moved.
        from_tenant: donor tenant, or ``None`` for a free pool core.
        to_tenant: recipient tenant.
        donor_cores_after: donor width after the move (0 for the pool).
        recipient_cores_after: recipient width after the move.
    """

    time_s: float
    core: int
    from_tenant: str | None
    to_tenant: str
    donor_cores_after: int
    recipient_cores_after: int


@dataclass(frozen=True)
class TenantServingReport(ServingReport):
    """A :class:`~repro.core.traffic.ServingReport` for one tenant.

    The inherited per-request arrays cover the *served* (admitted)
    requests; the offered and shed traces make the conservation law
    checkable: ``num_requests + num_shed == num_offered``.

    Attributes:
        tenant: the tenant's name.
        offered_arrival_s: the tenant's full offered arrival trace.
        shed_arrival_s: arrival times of requests dropped by admission
            control, in arrival order.
        batch_num_cores: per-batch pipeline width (changes at elastic
            reallocations) — the input to
            :func:`replay_tenant_on_engine`.
        accuracy_proxy: per-batch worst measured weight error over the
            tenant's cores (all zeros when the cluster ran fault-free).
    """

    tenant: str
    offered_arrival_s: np.ndarray
    shed_arrival_s: np.ndarray
    batch_num_cores: np.ndarray
    accuracy_proxy: np.ndarray

    @property
    def num_offered(self) -> int:
        """Requests the tenant's trace offered."""
        return int(self.offered_arrival_s.size)

    @property
    def num_shed(self) -> int:
        """Requests dropped by admission control."""
        return int(self.shed_arrival_s.size)

    @property
    def shed_fraction(self) -> float:
        """Fraction of offered load shed."""
        return self.num_shed / self.num_offered

    def describe(self) -> str:
        """The base summary block plus the tenant's admission line."""
        return "\n".join(
            [
                f"[{self.tenant}] " + super().describe(),
                f"  offered {self.num_offered}, served {self.num_requests}, "
                f"shed {self.num_shed} ({self.shed_fraction:.1%})",
            ]
        )


@dataclass(frozen=True)
class ClusterReport:
    """Everything measured over one multi-tenant cluster run.

    Attributes:
        pool_size: physical cores in the shared pool.
        routing: the routing policy's kind.
        tenants: per-tenant serving reports, in tenant order.
        reallocations: every elastic core move, in order.
        schedule_name: the fault schedule, or ``None`` if fault-free.
        recalibration_name: the recalibration policy, or ``None``.
        core_downtime_s: per-pool-core recalibration downtime.
        final_core_errors: per-pool-core weight error at the end
            (all zeros when fault-free).
        recalibrations: every recalibration attempt, in order.
    """

    pool_size: int
    routing: str
    tenants: tuple[TenantServingReport, ...]
    reallocations: tuple[ReallocationRecord, ...]
    schedule_name: str | None
    recalibration_name: str | None
    core_downtime_s: tuple[float, ...]
    final_core_errors: tuple[float, ...]
    recalibrations: tuple[RecalibrationRecord, ...]

    def tenant(self, name: str) -> TenantServingReport:
        """The named tenant's report.

        Raises:
            KeyError: on an unknown tenant name.
        """
        for report in self.tenants:
            if report.tenant == name:
                return report
        raise KeyError(
            f"unknown tenant {name!r}; have "
            f"{tuple(report.tenant for report in self.tenants)}"
        )

    @property
    def num_offered(self) -> int:
        """Requests offered across every tenant."""
        # repro: allow[BIT001] integer count, exact in any order
        return sum(report.num_offered for report in self.tenants)

    @property
    def num_served(self) -> int:
        """Requests served across every tenant."""
        # repro: allow[BIT001] integer count, exact in any order
        return sum(report.num_requests for report in self.tenants)

    @property
    def num_shed(self) -> int:
        """Requests shed across every tenant."""
        # repro: allow[BIT001] integer count, exact in any order
        return sum(report.num_shed for report in self.tenants)

    @property
    def makespan_s(self) -> float:
        """Earliest arrival to latest completion across tenants."""
        start = min(float(r.arrival_s[0]) for r in self.tenants)
        end = max(float(r.completion_s.max()) for r in self.tenants)
        return end - start

    @property
    def pool_core_busy_s(self) -> tuple[float, ...]:
        """Per-pool-core busy time summed over the tenants."""
        busy = np.zeros(self.pool_size)
        for report in self.tenants:
            busy += np.asarray(report.core_busy_s)
        return tuple(float(b) for b in busy)

    @property
    def pool_utilization(self) -> tuple[float, ...]:
        """Per-pool-core busy fraction of the cluster makespan."""
        span = self.makespan_s
        return tuple(busy / span for busy in self.pool_core_busy_s)

    def describe(self) -> str:
        """A cluster summary: pool header plus every tenant's block."""
        util = ", ".join(f"{u:.0%}" for u in self.pool_utilization)
        lines = [
            f"cluster [{self.routing}] over {self.pool_size} cores: "
            f"{self.num_served}/{self.num_offered} served "
            f"({self.num_shed} shed), {len(self.reallocations)} "
            f"reallocations | pool utilization {util}"
        ]
        lines.extend(report.describe() for report in self.tenants)
        return "\n".join(lines)


class _TenantLane:
    """One pipeline's queue + cores inside the lane event loop.

    Wraps a kernel :class:`DispatchContext` whose stage→core map points
    at *physical pool cores* and whose busy ledger spans the whole pool
    (so per-tenant per-core attribution survives reallocations), plus
    the admission-control queue: raw arrivals are judged in order, and
    an arrival that finds ``queue_cap`` *uncompleted* requests already
    in the system (queued or in flight in the pipeline) is shed.
    Capping system occupancy rather than just the scheduler queue is
    what bounds an admitted request's latency: whichever core is the
    pipeline bottleneck, at most ``queue_cap`` requests are ever ahead
    of an admitted one.

    Admissions are judged against the system state at the arrival
    instant.  A lane's batch completions are monotone in dispatch
    order, so an arrival at or before the batch being committed can be
    judged exactly; later arrivals are admitted early only when the
    judgment cannot flip (occupancy only shrinks as batches complete)
    and otherwise wait, unjudged, for the commit that decides them.

    A lane is either a cluster tenant's or the single pipeline of
    :func:`serve_pipeline`, which alone turns on failing-core draining
    (``fail_error_threshold``) and per-batch drift snapshots.
    """

    __slots__ = (
        "index",
        "name",
        "specs",
        "config",
        "raw",
        "n",
        "cap",
        "_burn",
        "policy",
        "ctx",
        "initial_width",
        "admitted_times",
        "admitted",
        "ptr",
        "shed",
        "widths",
        "proxies",
        "served",
        "released",
        "_completion_times",
        "_cum_completed",
        "fail_error_threshold",
        "snapshots",
        "repartitions",
    )

    def __init__(
        self,
        index: int,
        name: str,
        specs: Sequence[ConvLayerSpec] | None,
        policy: BatchingPolicy,
        arrivals: np.ndarray,
        model: PipelineServiceModel,
        phys_cores: list[int],
        pool_size: int,
        config: PCNNAConfig | None,
        queue_cap: int | None = None,
        admission=None,
        fail_error_threshold: float | None = None,
        record_snapshots: bool = False,
    ) -> None:
        self.index = index
        self.name = name
        # The conv layers a repartition spreads over a new core set.
        self.specs = specs
        self.config = config
        self.raw = arrivals
        self.n = int(arrivals.size)
        # An admission controller (repro.core.adaptive.BurnRateAdmission)
        # owns the occupancy cap when supplied; its disabled setting with
        # the tenant's own cap is decision-identical to the static path.
        self.cap = admission.queue_cap if admission is not None else queue_cap
        self._burn = (
            admission if admission is not None and admission.enabled else None
        )
        self.policy = policy if self.cap is None else policy.capped(self.cap)
        self.ctx = DispatchContext(model, self.policy, arrivals)
        self.ctx.stage_to_core = list(phys_cores)
        self.ctx.core_busy = [0.0] * pool_size
        self.initial_width = len(phys_cores)
        # The admitted queue: arrival times of every admitted request,
        # filled in arrival order.  With no cap the whole trace is
        # admitted up front, so dispatch planning sees the exact array
        # the plain simulator would (the bit-identity the differential
        # test pins).
        self.admitted_times = np.empty(self.n)
        self.admitted = 0
        self.ptr = 0
        if self.cap is None and self._burn is None:
            self.admitted_times[:] = arrivals
            self.admitted = self.n
            self.ptr = self.n
        self.shed: list[float] = []
        self.widths: list[int] = []
        self.proxies: list[float] = []
        self.served = 0
        self.released = False
        # Completion history for admission judgments: batch completion
        # times (monotone within a lane) and the running count of
        # requests completed by each batch.
        self._completion_times: list[float] = []
        self._cum_completed: list[int] = []
        # Single-pipeline extras, off for cluster tenants: draining
        # cores whose error reaches the threshold, and per-batch drift
        # snapshots for the degraded engine replay.
        self.fail_error_threshold = fail_error_threshold
        self.snapshots: list[tuple[CoreDriftSnapshot, ...]] | None = (
            [] if record_snapshots else None
        )
        self.repartitions: list[RepartitionRecord] = []

    @property
    def phys(self) -> list[int]:
        """Physical pool cores behind the tenant's pipeline stages."""
        return self.ctx.stage_to_core

    @property
    def width(self) -> int:
        """Current pipeline width."""
        return self.ctx.model.num_cores

    def _admit(self) -> None:
        self.admitted_times[self.admitted] = self.raw[self.ptr]
        self.admitted += 1
        self.ptr += 1

    def _occupancy(self, time_s: float) -> int:
        """Uncompleted admitted requests at ``time_s``.

        Counts every admitted request minus those in batches completed
        strictly before ``time_s``.  Judged arrivals are always the
        next raw arrival, so every admitted request arrived at or
        before ``time_s`` by construction.
        """
        done = bisect.bisect_left(self._completion_times, time_s)
        completed = self._cum_completed[done - 1] if done else 0
        return self.admitted - completed

    def _recent_latencies(self, time_s: float) -> np.ndarray:
        """Latencies of the burn window's completions before ``time_s``.

        Only batches sealed before the judgment instant are visible —
        the information an online admission controller actually has.
        Pure read: the subtraction never feeds kernel state.
        """
        done = bisect.bisect_left(self._completion_times, time_s)
        completed = self._cum_completed[done - 1] if done else 0
        start = max(completed - self._burn.window, 0)
        return (
            self.ctx.completion_s[start:completed]
            - self.admitted_times[start:completed]
        )

    def _admits(self, time_s: float) -> bool:
        """Judge one arrival: occupancy cap first, then SLO burn rate.

        With no admission controller (or a disabled one) this is the
        static occupancy test with the identical short-circuit, which
        keeps the cap-only path bit-identical.
        """
        if self.cap is not None and self._occupancy(time_s) >= self.cap:
            return False
        if self._burn is None:
            return True
        return not self._burn.sheds(
            self._burn.burn_rate(self._recent_latencies(time_s))
        )

    def plan(self) -> tuple[float, int] | None:
        """Seal the tenant's next batch, or ``None`` if it is done.

        Ingests raw arrivals first.  With the queue empty every batch
        of the lane is already committed, so each judgment (admit or
        shed) is exact; with requests queued, arrivals are *admitted*
        early whenever the occupancy bound already passes (completions
        still to come can only lower occupancy, never flip an admit)
        and otherwise left unjudged for :meth:`commit` to decide.
        """
        ctx = self.ctx
        head = ctx.head
        while head >= self.admitted and self.ptr < self.n:
            # Empty queue: all completions are known, judge exactly.
            if self._admits(self.raw[self.ptr]):
                self._admit()
            else:
                self.shed.append(float(self.raw[self.ptr]))
                self.ptr += 1
        if head >= self.admitted:
            return None  # every request judged and served
        if self.cap is not None and self._burn is None:
            # Early occupancy admits are safe (completions only lower
            # occupancy); burn judgments can flip as batches seal, so
            # with a burn controller every arrival waits for the commit
            # (or the queue-empty loop above) that judges it exactly.
            while self.ptr < self.n and self._admits(self.raw[self.ptr]):
                self._admit()
        return plan_dispatch(
            self.admitted_times[: self.admitted],
            head,
            self.policy,
            ctx.core_free[0],
        )

    def queue_depth(self, time_s: float) -> int:
        """Admitted-but-uncompleted requests at ``time_s``.

        The queue-pressure signal the elastic reallocator watches:
        arrivals up to ``time_s`` minus completions before it, i.e.
        requests waiting for dispatch *plus* requests backed up inside
        the pipeline (where the real backlog sits whenever an interior
        core is the bottleneck).
        """
        arrived = int(
            np.searchsorted(
                self.admitted_times[: self.admitted], time_s, side="right"
            )
        )
        done = bisect.bisect_left(self._completion_times, time_s)
        completed = self._cum_completed[done - 1] if done else 0
        return max(arrived - completed, 0)

    def commit(self, dispatch: float, size: int) -> None:
        """Book the planned batch and judge the arrivals up to it.

        Every batch that completes before the dispatch instant is
        already committed, so arrivals at or before it are judged
        *exactly*: admitted if the system occupancy at their instant is
        below the cap, shed otherwise (the count admission control
        reports).  Arrivals admitted here join the queue for the next
        batch — the committed batch's size was sealed at planning time.
        """
        while self.ptr < self.n and self.raw[self.ptr] <= dispatch:
            if self._admits(self.raw[self.ptr]):
                self._admit()
            else:
                self.shed.append(float(self.raw[self.ptr]))
                self.ptr += 1
        batch = execute_dispatch(self.ctx, dispatch, size)
        self._completion_times.append(batch.completion_s)
        previous = self._cum_completed[-1] if self._cum_completed else 0
        self._cum_completed.append(previous + size)
        self.widths.append(self.width)
        self.served += size

    def release_cores(self) -> list[tuple[int, float]]:
        """Hand the lane's cores back once its trace is fully served.

        Returns ``(core, frees_at)`` pairs: a reclaimed core is usable
        elsewhere only after it drains the lane's final batch.
        """
        self.released = True
        return [
            (core, self.ctx.core_free[stage])
            for stage, core in enumerate(self.phys)
        ]

    def serve(
        self, dispatch: float, size: int, health: PoolHealth | None
    ) -> None:
        """Run one sealed dispatch: fault step, then book and record it.

        The fault step and any failing-core drain come before booking,
        so they delay the batch's completion, never its sealed dispatch.
        """
        if health is None:
            self.commit(dispatch, size)
            self.proxies.append(0.0)
            return
        states = health.states
        health.step(self.ctx, dispatch, self.queue_depth)
        if self.fail_error_threshold is not None:
            self._drain_failing(dispatch, states)
        self.commit(dispatch, size)
        phys = self.phys
        self.proxies.append(max(states[core].error for core in phys))
        if self.snapshots is not None:
            self.snapshots.append(tuple(states[core].snapshot() for core in phys))

    def _drain_failing(
        self, dispatch: float, states: list[CoreHealthState]
    ) -> None:
        """Re-partition around cores past the fail threshold (unless
        every core is failing: then there is nowhere to move to)."""
        phys, threshold = self.phys, self.fail_error_threshold
        failing = [core for core in phys if states[core].error >= threshold]
        if failing and len(failing) < len(phys):
            self.resize([core for core in phys if core not in failing])
            self.repartitions.append(
                RepartitionRecord(
                    time_s=dispatch,
                    failed_cores=tuple(failing),
                    num_cores_after=len(self.phys),
                )
            )

    def resize(
        self, new_phys: list[int], joining_free_s: float = 0.0
    ) -> None:
        """Re-partition the lane's layers over a new core set.

        The one drain-and-repartition step, shared by elastic core moves
        and fault-aware draining.  The current pipeline drains first
        (the new partition needs its weights re-programmed on every
        stage), and a core joining from elsewhere is not usable before
        it frees up there.
        """
        drain = max(max(self.ctx.core_free), joining_free_s)
        self.ctx.model = PipelineServiceModel.from_specs(
            list(self.specs), len(new_phys), self.config, clamp_cores=True
        )
        self.ctx.stage_to_core = list(new_phys)
        self.ctx.core_free = [drain] * len(new_phys)

    def report(self) -> TenantServingReport:
        """The tenant's final serving report."""
        ctx = self.ctx
        served = self.admitted
        return TenantServingReport(
            policy=self.policy,
            num_cores=self.initial_width,
            arrival_s=self.admitted_times[:served].copy(),
            dispatch_s=ctx.dispatch_s[:served],
            completion_s=ctx.completion_s[:served],
            batches=tuple(ctx.batches),
            core_busy_s=tuple(ctx.core_busy),
            tenant=self.name,
            offered_arrival_s=self.raw,
            shed_arrival_s=np.array(self.shed),
            batch_num_cores=np.array(self.widths, dtype=int),
            accuracy_proxy=np.array(self.proxies),
        )


def allocate_pool(
    tenants: Sequence[ClusterTenant],
    pool_size: int,
    routing: RoutingPolicy | None = None,
) -> tuple[list[list[int]], list[int]]:
    """Split the pool into per-tenant core lists plus a free list.

    Every tenant gets one core.  Under weighted-fair routing (the
    default) the remaining cores go one at a time to the tenant with
    the largest weighted deficit (its fair share minus what it holds);
    under priority routing they go to tenants in descending priority
    order, each filled to its useful maximum before the next rank sees
    a core.  Tenants never exceed one core per conv layer.
    Deterministic: ties break by tenant order.

    Returns:
        Per-tenant physical core id lists (contiguous ranges, in tenant
        order) and the leftover free core ids.

    Raises:
        ValueError: if the pool cannot give every tenant a core.
    """
    if pool_size < len(tenants):
        raise ValueError(
            f"pool of {pool_size} cores cannot host {len(tenants)} tenants "
            f"(need >= 1 core each)"
        )
    counts = [1] * len(tenants)
    remaining = pool_size - len(tenants)
    if routing is not None and routing.kind == "priority":
        ranked = sorted(
            range(len(tenants)),
            key=lambda i: (-tenants[i].priority, i),
        )
        for index in ranked:
            take = min(
                remaining, tenants[index].max_useful_cores - counts[index]
            )
            counts[index] += take
            remaining -= take
    else:
        # repro: allow[BIT001] strict left fold over the fixed tenant
        # order; shares derived from it feed integer core counts only
        total_weight = sum(tenant.weight for tenant in tenants)
        shares = [
            tenant.weight / total_weight * pool_size for tenant in tenants
        ]
        while remaining > 0:
            deficits = [
                (shares[i] - counts[i], -i)
                for i, tenant in enumerate(tenants)
                if counts[i] < tenant.max_useful_cores
            ]
            if not deficits:
                break
            _, neg_index = max(deficits)
            counts[-neg_index] += 1
            remaining -= 1
    allocations: list[list[int]] = []
    next_core = 0
    for count in counts:
        allocations.append(list(range(next_core, next_core + count)))
        next_core += count
    return allocations, list(range(next_core, pool_size))


_ADMISSION_MAX_PASSES = 512
"""Fixpoint passes :func:`_plan_admitted` may take before the lane falls
back to the exact scalar loop.  Frozen lanes seen in practice converge
in a handful of passes (the deepest pinned case, 3000 arrivals against a
cap of 2, takes 489); the cap keeps the walk linear in the trace length
where the fixpoint would otherwise need about ``n / 2`` passes."""


def _plan_admitted(
    raw: np.ndarray, policy: BatchingPolicy, model, cap: int
) -> (
    tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, tuple]
    | None
):
    """Vectorized occupancy-cap admission walk for one frozen lane.

    Reproduces the reference lane's admission decisions as array ops.
    The decision rule (see :class:`_TenantLane`): arrival ``i`` at time
    ``t_i`` is admitted iff the lane's system occupancy — admissions
    among arrivals ``< i`` minus requests in batches completed strictly
    before ``t_i`` — is below ``cap``.  With a *fixed* batch plan the
    running admission count ``a`` obeys ``a_i = a_{i-1} + [a_{i-1} <
    u_i]`` with ``u_i = completed_i + cap`` nondecreasing, which has the
    closed form ``a_i = min(i + 1, i + min_{j<=i}(u_j - j))`` — one
    ``np.minimum.accumulate``, all-integer, hence exact.

    The batch plan itself depends on the admitted set, so the walk is
    the speculate/verify/repair shape of the kernel's max-plus scans,
    one level up: *speculate* an admitted set (initially everything),
    plan its batches and completions vectorized, *verify* by re-running
    the closed-form walk against those completions, and *repair* by
    iterating until the admitted set reproduces itself.  Batches that
    complete before ``t_i`` only ever contain arrivals judged before
    ``i`` (requests join batches at or before dispatch, and dispatch
    precedes completion), so each pass extends the prefix on which the
    speculated decisions match the reference lane's by at least one
    arrival: the loop reaches the unique fixed point in at most
    ``n + 1`` passes, and the fixed point *is* the reference decision
    sequence.  Each pass is O(n), and adversarial traces (arrivals just
    faster than a cap-1 lane drains) do need about ``n / 2`` of them, so
    the walk gives up after :data:`_ADMISSION_MAX_PASSES` passes and the
    caller serves the lane on the exact scalar loop instead.

    The decisions are only half the contract: the reference seals each
    batch against the queue *visible* at planning time, so the fixed
    point is handed to :func:`_verify_admission_plan`, which replays
    that visibility schedule batch by batch.  Near-universally the plan
    verifies (an arrival must fail its early judgment and then be
    admitted at the very next commit for visibility to bite); when it
    does not, the caller falls back to the exact scalar lane.

    Returns:
        ``(mask, heads, sizes, disp, completion, stage_busy)``: the
        admitted mask over ``raw`` plus the converged batch plan,
        per-batch completions, and per-stage busy ledger — or ``None``
        when the walk hits the pass cap or the verification walk
        rejects the plan.
    """
    n = raw.size
    idx = np.arange(n, dtype=np.int64)
    mask = np.ones(n, dtype=bool)
    for _ in range(_ADMISSION_MAX_PASSES):
        heads, sizes, disp = plan_batches(raw[mask], policy, model)
        completion, stage_busy = pipeline_completions(sizes, disp, model)
        bounds = np.concatenate(([0], np.cumsum(sizes)))
        # completed[i]: requests in batches done strictly before t_i
        # (completions are strictly increasing within a lane).
        completed = bounds[np.searchsorted(completion, raw, side="left")]
        admitted = np.minimum(
            idx + 1, idx + np.minimum.accumulate(completed + cap - idx)
        )
        new_mask = np.diff(admitted, prepend=0) == 1
        if np.array_equal(new_mask, mask):
            if _verify_admission_plan(
                raw, mask, policy, model, cap, sizes, disp, completion
            ):
                return mask, heads, sizes, disp, completion, stage_busy
            return None
        mask = new_mask
    return None


def _verify_admission_plan(
    raw: np.ndarray,
    mask: np.ndarray,
    policy: BatchingPolicy,
    model,
    cap: int,
    sizes: np.ndarray,
    disp: np.ndarray,
    completion: np.ndarray,
) -> bool:
    """Replay the reference lane's *visibility* rules against a plan.

    The fixed point of :func:`_plan_admitted` reproduces the reference
    lane's admission decisions, but the reference seals each batch
    against the queue *visible at planning time*: an arrival that fails
    the early-occupancy test stays invisible to that seal even when the
    commit that follows admits it, so batch formation can differ from
    :func:`~repro.core.simkernel.plan_batches` over the final admitted
    set (smaller sealed batches under tight caps).  This walk replays
    the reference's judgment schedule — per batch, the phase-B frontier
    (everything at or before the previous dispatch is judged exactly at
    commit), the queue-empty drain, and the early-admit chain judged
    against *committed-only* completions — and re-seals each batch with
    :func:`~repro.core.simkernel.plan_dispatch` on exactly the visible
    prefix.  O(batches) plan calls; every comparison is exact.

    Returns ``True`` iff the speculated plan is the reference run —
    judgments that are exact in the reference (drain, phase B) match
    the fixed-point mask by construction, early admits imply final
    admits (completions only lower occupancy), and a matching sealed
    ``(dispatch, size)`` per batch pins the rest by induction.  A
    ``False`` sends the lane to the scalar reference loop.

    Cost discipline: the frontier replay is one monotone pointer sweep
    (the early-admit test collapses to a precomputed per-arrival
    threshold batch ``kmin``), and the expensive re-seal is skipped
    whenever the sealed batch provably cannot see the invisible suffix
    — :func:`~repro.core.simkernel.plan_dispatch` reads the queue only
    at ``head``, at ``head + max_batch - 1``, and at arrivals up to the
    dispatch instant, so ``head + max_batch`` visible admits plus a
    next-unjudged arrival after the dispatch pin the seal to the final
    plan's batch with no call at all.  Only congested batches (queue at
    the cap around the seal) pay a ``plan_dispatch``.
    """
    n = int(raw.size)
    nb = int(sizes.size)
    # adm_before[j]: admitted among arrivals < j — the reference lane's
    # running admission count whenever the walk is still consistent.
    adm_before_np = np.concatenate(([0], np.cumsum(mask)))
    total = int(adm_before_np[-1])
    cum_np = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
    # Early-admit threshold: arrival j passes the committed-only
    # occupancy test at batch k iff the first k batches completed at
    # least ``adm_before[j] - cap + 1`` requests before t_j, i.e. iff
    # k >= kmin[j].  A final shed never passes (occupancy only grows
    # toward the seal), so it carries an unreachable sentinel — the
    # chain below stops on it, exactly like the reference's early loop.
    need = adm_before_np[:-1] - cap + 1
    kmin_np = np.searchsorted(cum_np, np.maximum(need, 0), side="left")
    kmin_np = np.where(mask, kmin_np, nb + 1)
    # Phase-B frontier per batch: commit k judges every arrival at or
    # before its dispatch exactly; exact judgments equal the fixed
    # point.
    pb_np = np.searchsorted(raw, disp, side="right")
    admitted_idx = np.flatnonzero(mask)
    admitted_times = raw[mask]
    busy0 = (
        model.weight_load_s[0]
        + np.arange(policy.max_batch + 1) * model.conv_time_s[0]
    )
    max_batch = policy.max_batch
    heads_np = cum_np[:-1]
    # Tier 1 — all-array screen on a provable *lower bound* of the
    # visible frontier (the skip condition is monotone in visibility:
    # if a seal is blind to everything past a smaller frontier, it is
    # blind past the true, larger one).  The bound: phase B of the
    # previous commit, plus the batch head itself (sealed ⇒ admitted),
    # plus — when nothing is shed, so the thresholds are sorted — the
    # early-admit chain from the start of the trace.
    pb_prev = np.concatenate(([0], pb_np[: nb - 1])) if nb else pb_np[:0]
    frontier = np.maximum(pb_prev, admitted_idx[heads_np] + 1)
    if total == n and nb:
        frontier = np.maximum(
            frontier,
            np.searchsorted(kmin_np, np.arange(nb), side="right"),
        )
    visible_np = adm_before_np[frontier]
    raw_at = np.where(
        frontier < n, raw[np.minimum(frontier, n - 1)], np.inf
    )
    if np.all(
        (visible_np == total)
        | ((heads_np + max_batch <= visible_np) & (disp < raw_at))
    ):
        return True
    # Tier 2 — exact frontier replay.  Scalar-access hot loop: plain
    # lists index several times faster than numpy scalars.
    adm_before = adm_before_np.tolist()
    cum = cum_np.tolist()
    kmin = kmin_np.tolist()
    pb = pb_np.tolist()
    raw_l = raw.tolist()
    disp_l = disp.tolist()
    sizes_l = sizes.tolist()
    adm_idx = admitted_idx.tolist()
    judged = 0
    for k in range(nb):
        if k and pb[k - 1] > judged:
            judged = pb[k - 1]
        head = cum[k]
        visible = adm_before[judged]
        if visible < head:
            return False  # served more than admitted — already diverged
        if visible == head:
            # Queue-empty drain: exact shed judgments through to the
            # next admitted arrival, which the reference admits before
            # planning.
            judged = adm_idx[head] + 1
        while judged < n and kmin[judged] <= k:
            judged += 1
        visible = adm_before[judged]
        if visible == total:
            # The whole admitted array is visible, and visibility only
            # grows: every remaining seal runs over the full array,
            # which is plan_batches' own fold — guaranteed match.
            return True
        if head + max_batch <= visible and disp_l[k] < raw_l[judged]:
            continue  # seal provably blind to the invisible suffix
        dispatch, size = plan_dispatch(
            admitted_times[:visible],
            head,
            policy,
            0.0 if k == 0 else disp_l[k - 1] + float(busy0[sizes_l[k - 1]]),
        )
        if dispatch != disp_l[k] or size != sizes_l[k]:
            return False
    return True


def _require_type(name: str, value, types: tuple[type, ...]) -> None:
    """Reject a policy object of the wrong type (``None`` passes)."""
    if value is not None and not isinstance(value, types):
        allowed = " or ".join(kind.__name__ for kind in types)
        raise TypeError(
            f"{name} must be {allowed} (or None), got "
            f"{type(value).__name__}"
        )


class ClusterSimulator:
    """N models co-served on a shared core pool, on the unified kernel.

    One global event loop: every tenant lane plans its next dispatch
    with the kernel's :func:`~repro.core.simkernel.plan_dispatch`, the
    earliest dispatch commits (simultaneous dispatches ordered by the
    routing policy), admission control sheds what the committed batch
    shut out, fault state machines advance on the owning tenant's
    clock, and the elastic reallocator may move a core before the next
    round of planning.

    Args:
        tenants: the co-served models (unique names).
        pool_size: physical cores in the shared pool (>= one per
            tenant).
        routing: pool arbitration policy (weighted-fair by default).
        elastic: elastic core reallocation policy; ``None`` freezes the
            initial allocation.  The static
            :class:`ElasticReallocation` or an adaptive
            :class:`~repro.core.adaptive.PressureController`.
        schedule: fault schedule over the *physical pool cores*;
            ``None`` keeps the pool pristine.
        recalibration: online recalibration policy for degraded cores —
            the static :class:`~repro.core.faults.RecalibrationPolicy`
            or an adaptive
            :class:`~repro.core.adaptive.AdaptiveRecalibration`.
        admission: per-tenant admission controllers
            (:class:`~repro.core.adaptive.BurnRateAdmission`), keyed by
            tenant name; a tenant without an entry keeps its static
            ``queue_cap``.  A controller owns its tenant's occupancy
            cap (its ``queue_cap`` field replaces the tenant's).
        config: hardware configuration for partitioning and service
            times.
        probe_rings: rings in each pool core's accuracy-probe bank.
        mode: kernel execution mode.  ``"auto"`` (the default) runs the
            vectorized lane-decomposition fast path whenever the
            allocation is frozen — no fault schedule, no elastic
            reallocation, no *enabled* burn-rate admission controller
            (static occupancy caps are fine) — and the global event
            loop otherwise.  ``"vectorized"`` demands that shape
            (``run`` raises otherwise); ``"reference"`` always runs
            the global loop.  Both paths are bit-identical.

    Raises:
        ValueError: on an empty or duplicated tenant set, a bad pool
            size, an unknown ``mode``, or an admission key that names
            no tenant.
        TypeError: on an ``elastic`` or ``recalibration`` policy of
            another type.
    """

    def __init__(
        self,
        tenants: Sequence[ClusterTenant],
        pool_size: int,
        routing: RoutingPolicy | None = None,
        elastic: ElasticReallocation | None = None,
        schedule: FaultSchedule | None = None,
        recalibration: RecalibrationPolicy | None = None,
        config: PCNNAConfig | None = None,
        probe_rings: int = 8,
        mode: str = "auto",
        admission: Mapping[str, object] | None = None,
    ) -> None:
        if not tenants:
            raise ValueError("need at least one tenant")
        names = [tenant.name for tenant in tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"tenant names must be unique, got {names!r}")
        validate_kernel_mode(mode)
        # adaptive.py builds on this module, so its types load here.
        from repro.core.adaptive import AdaptiveRecalibration, PressureController

        _require_type(
            "elastic", elastic, (ElasticReallocation, PressureController)
        )
        _require_type(
            "recalibration",
            recalibration,
            (RecalibrationPolicy, AdaptiveRecalibration),
        )
        self.admission = dict(admission) if admission else {}
        unknown = set(self.admission) - set(names)
        if unknown:
            raise ValueError(
                f"admission keys {sorted(unknown)} name no tenant; have "
                f"{names!r}"
            )
        self.tenants = tuple(tenants)
        self.pool_size = pool_size
        self.routing = routing if routing is not None else RoutingPolicy()
        self.elastic = elastic
        self.schedule = schedule
        self.recalibration = recalibration
        self.config = config
        self.probe_rings = probe_rings
        self.mode = mode
        self._allocations, self._free = allocate_pool(
            tenants, pool_size, self.routing
        )

    @property
    def _vectorizable(self) -> bool:
        """Whether the run decomposes into independent frozen lanes.

        With no fault schedule and no elastic reallocation the core
        allocation is frozen, so tenant lanes share no state: each lane
        plans, sheds, and books exactly as if it ran alone, and the
        global loop's tie-ordering has no arithmetic effect.  Static
        occupancy caps (a tenant's ``queue_cap``, or a *disabled*
        burn-rate controller's) are per-lane too.  Only an *enabled*
        burn-rate controller breaks the decomposition — its judgments
        read completion latencies mid-run and can flip as batches seal.
        """
        return (
            self.schedule is None
            and self.elastic is None
            and not any(
                controller.enabled
                for controller in self.admission.values()
            )
        )

    def _tie_key(self, lane: _TenantLane) -> tuple:
        """Routing preference for simultaneous dispatches (lower wins)."""
        tenant = self.tenants[lane.index]
        if self.routing.kind == "priority":
            return (-tenant.priority, lane.index)
        return (lane.served / tenant.weight, lane.index)

    def _floor(self, lane: _TenantLane) -> int:
        """Cores the routing policy guarantees the tenant keeps."""
        if self.routing.kind == "weighted-fair":
            return lane.initial_width
        return 1

    def _rebalance(
        self,
        now: float,
        lanes: list[_TenantLane],
        free: list[tuple[int, float]],
        records: list[ReallocationRecord],
    ) -> None:
        """Move at most one core toward the most-pressured tenant."""
        assert self.elastic is not None
        active = [lane for lane in lanes if not lane.released]
        pressures = {
            lane.index: lane.queue_depth(now) / lane.width for lane in active
        }
        ratio, min_queue = self.elastic.thresholds(
            max(pressures.values(), default=0.0)
        )
        growable = [
            lane
            for lane in active
            if lane.width < len(lane.specs)
            and lane.queue_depth(now) >= min_queue
        ]
        if not growable:
            return
        recipient = min(
            growable,
            key=lambda lane: (-pressures[lane.index], self._tie_key(lane)),
        )
        if free:
            core, free_at = free.pop(0)
            recipient.resize(recipient.phys + [core], free_at)
            records.append(
                ReallocationRecord(
                    time_s=now,
                    core=core,
                    from_tenant=None,
                    to_tenant=recipient.name,
                    donor_cores_after=0,
                    recipient_cores_after=recipient.width,
                )
            )
            return
        donors = [
            lane
            for lane in active
            if lane is not recipient and lane.width > self._floor(lane)
        ]
        if not donors:
            return
        donor = min(
            donors, key=lambda lane: (pressures[lane.index], lane.index)
        )
        if pressures[recipient.index] < (
            ratio * max(pressures[donor.index], 1.0)
        ):
            return
        core = donor.phys[-1]
        core_free_at = donor.ctx.core_free[-1]
        donor.resize(donor.phys[:-1])
        recipient.resize(recipient.phys + [core], core_free_at)
        records.append(
            ReallocationRecord(
                time_s=now,
                core=core,
                from_tenant=donor.name,
                to_tenant=recipient.name,
                donor_cores_after=donor.width,
                recipient_cores_after=recipient.width,
            )
        )

    def run(self, arrival_s: Mapping[str, np.ndarray]) -> ClusterReport:
        """Serve every tenant's trace to completion.

        Args:
            arrival_s: per-tenant sorted arrival traces, keyed by
                tenant name (every tenant needs one).

        Raises:
            ValueError: on missing/unknown trace keys or a bad trace.
        """
        names = {tenant.name for tenant in self.tenants}
        if set(arrival_s) != names:
            raise ValueError(
                f"need one arrival trace per tenant {sorted(names)}, got "
                f"{sorted(arrival_s)}"
            )
        if self.mode == "vectorized" and not self._vectorizable:
            raise ValueError(
                "vectorized mode needs a frozen-allocation cluster — no "
                "fault schedule, no elastic reallocation, no enabled "
                "burn-rate admission controller; those runs have "
                "mid-loop feedback; use mode='reference' (or 'auto')"
            )
        if self.mode != "reference" and self._vectorizable:
            return self._run_vectorized(arrival_s)
        lanes = [
            self._lane(
                index, tenant, validate_arrival_trace(arrival_s[tenant.name])
            )
            for index, tenant in enumerate(self.tenants)
        ]
        free: list[tuple[int, float]] = [(core, 0.0) for core in self._free]
        health = None
        if self.schedule is not None:
            health = PoolHealth(
                self.schedule,
                self.pool_size,
                self.recalibration,
                self.probe_rings,
            )
        reallocations: list[ReallocationRecord] = []
        pristine = (0.0,) * self.pool_size

        def rebalance(now: float) -> None:
            self._rebalance(now, lanes, free, reallocations)

        _serve_lanes(
            lanes,
            health,
            self._tie_key,
            rebalance=None if self.elastic is None else rebalance,
            free=free,
        )
        return ClusterReport(
            pool_size=self.pool_size,
            routing=self.routing.kind,
            tenants=tuple(lane.report() for lane in lanes),
            reallocations=tuple(reallocations),
            schedule_name=(
                None if self.schedule is None else self.schedule.name
            ),
            recalibration_name=(
                None if self.recalibration is None else self.recalibration.name
            ),
            core_downtime_s=(
                pristine if health is None else tuple(health.downtime)
            ),
            final_core_errors=(
                pristine
                if health is None
                else tuple(state.error for state in health.states)
            ),
            recalibrations=(
                () if health is None else tuple(health.recalibrations)
            ),
        )

    def _lane(
        self, index: int, tenant: ClusterTenant, trace: np.ndarray
    ) -> _TenantLane:
        """A tenant's lane over its initial allocation."""
        phys = self._allocations[index]
        return _TenantLane(
            index,
            tenant.name,
            tenant.specs,
            tenant.policy,
            trace,
            PipelineServiceModel.from_specs(
                list(tenant.specs), len(phys), self.config
            ),
            phys,
            self.pool_size,
            self.config,
            queue_cap=tenant.queue_cap,
            admission=self.admission.get(tenant.name),
        )

    def _serve_lane_vectorized(
        self, index: int, tenant: ClusterTenant, trace: np.ndarray
    ) -> TenantServingReport:
        """One frozen tenant lane on the vectorized kernel.

        A fault-free :func:`~repro.core.simkernel.plan_batches` /
        :func:`~repro.core.simkernel.pipeline_completions` run — with
        the :func:`_plan_admitted` walk in front when the lane carries
        an occupancy cap — re-badged as a tenant report: busy time
        lands on the tenant's *physical* pool cores and the per-batch
        width/proxy columns are constant, exactly what the global loop
        records for a frozen lane, bit for bit.
        """
        phys = self._allocations[index]
        controller = self.admission.get(tenant.name)
        cap = (
            controller.queue_cap
            if controller is not None
            else tenant.queue_cap
        )
        policy = tenant.policy if cap is None else tenant.policy.capped(cap)
        model = PipelineServiceModel.from_specs(
            list(tenant.specs), len(phys), self.config
        )
        if cap is None:
            admitted = trace.copy()
            shed = np.array([])
            heads, sizes, disp = plan_batches(trace, policy, model)
            completion, stage_busy = pipeline_completions(
                sizes, disp, model
            )
        else:
            plan = _plan_admitted(trace, policy, model, cap)
            if plan is None:
                # The walk hit its pass cap, or the sealed-visibility
                # walk rejected the speculation (an early-shed arrival
                # re-admitted at the very next commit shrank a reference
                # batch): serve this one lane on the exact scalar loop
                # instead.
                return self._serve_lane_reference(index, tenant, trace)
            mask, heads, sizes, disp, completion, stage_busy = plan
            admitted = trace[mask]
            shed = trace[~mask]
        pool_busy = [0.0] * self.pool_size
        for stage, core in enumerate(phys):
            pool_busy[core] = stage_busy[stage]
        num_batches = int(heads.size)
        return TenantServingReport(
            policy=policy,
            num_cores=len(phys),
            arrival_s=admitted,
            dispatch_s=np.repeat(disp, sizes),
            completion_s=np.repeat(completion, sizes),
            batches=BatchTable(heads, sizes, disp, completion),
            core_busy_s=tuple(pool_busy),
            tenant=tenant.name,
            offered_arrival_s=trace,
            shed_arrival_s=shed,
            batch_num_cores=np.full(num_batches, len(phys), dtype=int),
            accuracy_proxy=np.zeros(num_batches),
        )

    def _serve_lane_reference(
        self, index: int, tenant: ClusterTenant, trace: np.ndarray
    ) -> TenantServingReport:
        """Exact scalar fallback for one lane of the fast path.

        A frozen lane shares no state with its neighbours, so driving
        its :class:`_TenantLane` plan/commit loop in isolation is the
        global event loop restricted to this tenant — bit for bit,
        including the zero accuracy proxy a pristine pool records.
        """
        lane = self._lane(index, tenant, trace)
        _serve_lanes([lane], None, _lone_lane)
        return lane.report()

    def _run_vectorized(
        self, arrival_s: Mapping[str, np.ndarray]
    ) -> ClusterReport:
        """Serve a frozen-allocation cluster on the fast path.

        Lane decomposition: with the allocation frozen and no fault
        state, a K-tenant run is exactly K independent single-lane runs
        — each one vectorized — merged in tenant order into the same
        :class:`ClusterReport` the global event loop would emit.
        """
        reports = tuple(
            self._serve_lane_vectorized(
                index,
                tenant,
                validate_arrival_trace(arrival_s[tenant.name]),
            )
            for index, tenant in enumerate(self.tenants)
        )
        return ClusterReport(
            pool_size=self.pool_size,
            routing=self.routing.kind,
            tenants=reports,
            reallocations=(),
            schedule_name=None,
            recalibration_name=(
                None if self.recalibration is None else self.recalibration.name
            ),
            core_downtime_s=(0.0,) * self.pool_size,
            final_core_errors=(0.0,) * self.pool_size,
            recalibrations=(),
        )


def _serve_lanes(
    lanes: list[_TenantLane],
    health: PoolHealth | None,
    tie_key,
    rebalance=None,
    free: list[tuple[int, float]] | None = None,
) -> None:
    """The lane event loop: serve every lane's trace to completion.

    The only loop that hosts mid-run feedback.  Each round every lane
    plans its next dispatch with the kernel's
    :func:`~repro.core.simkernel.plan_dispatch`; the earliest (ties
    broken by ``tie_key``, lower wins) takes the fault step on
    ``health`` (``None`` for a pristine pool) and is booked.  Then
    ``rebalance(now)``, the elastic reallocator, may move a core; with
    one present, a lane that has served its trace returns its cores to
    ``free``.
    """
    last_dispatch = 0.0
    while True:
        candidates = []
        for lane in lanes:
            if lane.released:
                continue
            plan = lane.plan()
            if plan is not None:
                candidates.append((plan, lane))
            elif rebalance is not None:
                # A finished tenant's cores go back to the pool for the
                # reallocator to hand to pressured neighbours.
                free.extend(lane.release_cores())
        if not candidates:
            break
        (dispatch, size), lane = min(
            candidates, key=lambda item: (item[0][0], tie_key(item[1]))
        )
        last_dispatch = max(last_dispatch, dispatch)
        lane.serve(dispatch, size, health)
        if rebalance is not None and (len(lanes) > 1 or free):
            rebalance(dispatch)
    if health is not None:
        health.finish(last_dispatch)


def serve_pipeline(
    model: PipelineServiceModel,
    policy: BatchingPolicy,
    arrivals: np.ndarray,
    health: PoolHealth,
    specs: Sequence[ConvLayerSpec] | None = None,
    config: PCNNAConfig | None = None,
    fail_error_threshold: float | None = None,
) -> _TenantLane:
    """Serve one faulted pipeline as the lone lane of the event loop.

    The engine of :class:`~repro.core.faults.DegradedServingSimulator`:
    one lane over the caller's ``model`` on cores ``0..width-1`` that
    records per-batch drift snapshots and, when ``specs`` is given,
    drains cores whose error reaches ``fail_error_threshold``.
    """
    width = model.num_cores
    lane = _TenantLane(
        0,
        "pipeline",
        specs,
        policy,
        arrivals,
        model,
        list(range(width)),
        width,
        config,
        fail_error_threshold=None if specs is None else fail_error_threshold,
        record_snapshots=True,
    )
    _serve_lanes([lane], health, _lone_lane)
    return lane


def _lone_lane(lane: _TenantLane) -> int:
    """Tie key of a lane that has no one to tie with."""
    return 0


def simulate_cluster_serving(
    tenants: Sequence[ClusterTenant],
    arrival_s: Mapping[str, np.ndarray],
    pool_size: int,
    routing: RoutingPolicy | None = None,
    elastic: ElasticReallocation | None = None,
    schedule: FaultSchedule | None = None,
    recalibration: RecalibrationPolicy | None = None,
    config: PCNNAConfig | None = None,
    mode: str = "auto",
    admission: Mapping[str, object] | None = None,
) -> ClusterReport:
    """One-call multi-tenant cluster simulation.

    The cluster sibling of :func:`~repro.core.traffic.simulate_serving`
    and :func:`~repro.core.faults.simulate_degraded_serving`: builds the
    :class:`ClusterSimulator` and serves every tenant's trace.  The
    ``elastic``, ``recalibration``, and ``admission`` arguments accept
    the adaptive controllers of :mod:`repro.core.adaptive` alongside
    the static policies.

    Raises:
        ValueError: on an invalid tenant set, pool size, mode, or trace.
    """
    simulator = ClusterSimulator(
        tenants,
        pool_size,
        routing=routing,
        elastic=elastic,
        schedule=schedule,
        recalibration=recalibration,
        config=config,
        mode=mode,
        admission=admission,
    )
    return simulator.run(arrival_s)


def replay_tenant_on_engine(
    network: Network,
    report: TenantServingReport,
    inputs: np.ndarray,
    config: PCNNAConfig | None = None,
) -> np.ndarray:
    """Execute one tenant's simulated batches on the real engine.

    Each batch the cluster formed for the tenant is dispatched as one
    minibatch to the pipelined runner at the width *that batch* actually
    saw (elastic reallocation changes it mid-run), and each request's
    output is scattered back to its slot — in ideal mode bit-identical
    to running every served request alone, and for a single-tenant
    zero-fault cluster bit-identical to
    :func:`~repro.core.traffic.replay_on_engine`.

    Args:
        network: the tenant's network.
        report: the tenant's report from a cluster run.
        inputs: per-*served*-request inputs, shape
            ``(report.num_requests, *network.input_shape)``.
        config: hardware configuration for execution.

    Raises:
        ValueError: if ``inputs`` does not cover the served requests.
    """
    inputs = validate_replay_inputs(network, report, inputs)
    return replay_batches(
        network, report.batches, report.batch_num_cores, inputs, config
    )


__all__ = [
    "ROUTING_KINDS",
    "ClusterReport",
    "ClusterSimulator",
    "ClusterTenant",
    "ElasticReallocation",
    "ReallocationRecord",
    "RoutingPolicy",
    "TenantServingReport",
    "allocate_pool",
    "replay_tenant_on_engine",
    "simulate_cluster_serving",
]
