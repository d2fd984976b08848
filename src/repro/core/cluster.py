"""Multi-tenant cluster serving over a shared photonic core pool.

The single-model simulators answer "how does *one* network serve *its*
traffic".  A production deployment co-serves many models: an
interactive LeNet next to a batch AlexNet next to a GoogLeNet stem,
all drawing cores from one heterogeneous pool.  This module builds that
runtime on the unified event-loop kernel (:mod:`repro.core.simkernel`):

* each :class:`ClusterTenant` owns a request queue, a batching policy,
  and a contiguous sub-pipeline of physical pool cores; its dispatches
  are planned with the *exact* kernel arithmetic
  (:func:`~repro.core.simkernel.plan_dispatch`) and booked by the lane's
  own pipeline walk, so a single-tenant zero-fault cluster run is
  bit-identical to the PR 3 :class:`~repro.core.traffic.ServingSimulator`;
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

Every pipeline is a :class:`_TenantLane`: a cluster tenant, the
kernel's lone pristine pipeline, and the single faulted pipeline of
the degraded and adaptive simulators (:mod:`repro.core.faults`,
:mod:`repro.core.adaptive`, through :func:`serve_pipeline`).  Each
lane owns its pipeline state and records every batch once, in the
numpy columns its reports read.  The lane event loop
(:func:`_serve_lanes`) is the only loop that hosts mid-run feedback
and the oracle of every faster path.  A lane that shares no state with
another — the lone pipeline, or a tenant of a frozen-allocation
cluster — is served by :func:`_serve_alone`, the one place a lane's
path is chosen: one whole-trace vectorized plan, the occupancy-cap
admission walk, epochs between fault actions (:func:`_serve_epochs`),
or the per-dispatch loop.  Everything is a pure function of its
inputs: a fixed seed and tenant mix yields bit-identical reports on
every run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.core.config import PCNNAConfig
from repro.core.faults import (
    CoreHealthState,
    DriftSnapshotTable,
    FaultSchedule,
    PoolHealth,
    ProbeSweep,
    RecalibrationPolicy,
    RecalibrationRecord,
    RepartitionRecord,
    ThresholdTrigger,
)
from repro.core.simkernel import (
    BatchingPolicy,
    BatchTable,
    pipeline_completions,
    plan_batches,
    plan_dispatch,
    validate_arrival_trace,
    validate_count,
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
        priority: priority-routing rank (higher wins), an integer of
            any sign.
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
        if isinstance(self.priority, bool) or not isinstance(
            self.priority, (int, np.integer)
        ):
            raise ValueError(
                f"{self.name}: priority must be an integer, got "
                f"{self.priority!r}"
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
        if (
            isinstance(self.pressure_ratio, bool)
            or self.pressure_ratio < 1.0
            or not np.isfinite(self.pressure_ratio)
        ):
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


_BATCH_COLUMNS = (
    ("batch_first", np.int64),
    ("batch_size", np.int64),
    ("batch_dispatch", np.float64),
    ("batch_completion", np.float64),
    ("batch_width", np.int64),
    ("batch_proxy", np.float64),
)
"""The lane's per-batch record: first request, size, dispatch and
completion times, pipeline width and accuracy proxy."""


class _TenantLane:
    """One pipeline's queue, cores and batch record.

    The lane owns its pipeline state: the service ``model``, the
    stage→core map ``phys`` pointing at *physical pool cores*, per-stage
    ``core_free`` clocks, and a busy ledger ``core_busy`` that spans the
    whole pool (so per-tenant per-core attribution survives
    reallocations).  The lane loop mutates it mid-run — a recalibration
    pushes a core's free time forward, a repartition or an elastic move
    swaps the model and the stage→core map.  Each batch is recorded
    once, in the first ``num_batches`` entries of the numpy columns of
    :data:`_BATCH_COLUMNS`, which grow geometrically from empty (one
    whole-trace :meth:`book` allocates exactly its batches); reports
    read views of them, and :meth:`serving_fields` expands the
    per-request streams.

    The admission-control queue: raw arrivals are judged in order, and
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
    (``fail_error_threshold``) and, on a faulted pool, the per-batch
    drift record: a :class:`~repro.core.faults.DriftSnapshotTable`
    whose row ``b`` is batch ``b``'s, filled a whole epoch at a time by
    :meth:`book` or one dispatch at a time by :meth:`serve`, and read
    through :attr:`snapshots`.
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
        "model",
        "phys",
        "core_free",
        "core_busy",
        "head",
        "num_batches",
        *(name for name, _ in _BATCH_COLUMNS),
        "initial_width",
        "admitted_times",
        "admitted",
        "ptr",
        "shed",
        "released",
        "fail_error_threshold",
        "drift",
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
        self.model = model
        self.phys = list(phys_cores)
        self.core_free = [0.0] * model.num_cores
        self.core_busy = [0.0] * pool_size
        self.head = 0
        # The batch record, in dispatch order.  Completions are
        # monotone within a lane, and ``first + size`` of a batch counts
        # the requests completed once it completes.
        self.num_batches = 0
        for column, dtype in _BATCH_COLUMNS:
            setattr(self, column, np.empty(0, dtype))
        self.initial_width = len(phys_cores)
        # The admitted queue: arrival times of every admitted request,
        # in arrival order.  With no cap it *is* the trace, admitted up
        # front, so dispatch planning sees the exact array the plain
        # simulator would (the bit-identity the differential test pins).
        # A capped lane allocates it at its first :meth:`plan`; one
        # judged whole-trace (:meth:`judge_all`) never needs the buffer.
        self.admitted_times: np.ndarray | None = None
        self.admitted = self.ptr = 0
        if self.cap is None and self._burn is None:
            self.admitted_times = arrivals
            self.admitted = self.ptr = self.n
        # Shed arrivals: appended per judgment, or one judge_all array.
        self.shed: list[float] | np.ndarray = []
        self.released = False
        # Single-pipeline extras, off for cluster tenants: draining
        # cores whose error reaches the threshold, and per-batch drift
        # snapshots for the degraded engine replay.
        self.fail_error_threshold = fail_error_threshold
        self.drift = (
            DriftSnapshotTable(self.initial_width)
            if record_snapshots
            else None
        )
        self.repartitions: list[RepartitionRecord] = []

    @property
    def width(self) -> int:
        """Current pipeline width."""
        return self.model.num_cores

    @property
    def batches(self) -> BatchTable:
        """Every sealed batch so far, in dispatch order."""
        nb = self.num_batches
        return BatchTable(
            self.batch_first[:nb],
            self.batch_size[:nb],
            self.batch_dispatch[:nb],
            self.batch_completion[:nb],
        )

    @property
    def widths(self) -> np.ndarray:
        """Per-batch pipeline width (a live view)."""
        return self.batch_width[: self.num_batches]

    @property
    def proxies(self) -> np.ndarray:
        """Per-batch worst weight error over the lane's cores (a live
        view; zeros on a pristine pool)."""
        return self.batch_proxy[: self.num_batches]

    @property
    def snapshots(self) -> DriftSnapshotTable | None:
        """Per-batch per-stage drift snapshots (a live view), or
        ``None`` if the lane records none."""
        return None if self.drift is None else self.drift.view(self.widths)

    def _reserve(self, count: int) -> int:
        """Make room for ``count`` more batches; return the first slot."""
        first = self.num_batches
        need = first + count
        if need > self.batch_first.size:
            size = max(need, 2 * self.batch_first.size)
            for column, dtype in _BATCH_COLUMNS:
                grown = np.empty(size, dtype)
                grown[:first] = getattr(self, column)[:first]
                setattr(self, column, grown)
        self.num_batches = need
        return first

    def _admit(self) -> None:
        self.admitted_times[self.admitted] = self.raw[self.ptr]
        self.admitted += 1
        self.ptr += 1

    def _completed(self, time_s: float) -> tuple[int, int]:
        """Batches completed strictly before ``time_s``, and the
        requests in them."""
        done = int(
            self.batch_completion[: self.num_batches].searchsorted(time_s)
        )
        if not done:
            return 0, 0
        last = done - 1
        return done, int(self.batch_first[last] + self.batch_size[last])

    def _recent_latencies(self, time_s: float) -> np.ndarray:
        """Latencies of the burn window's completions before ``time_s``.

        Only batches sealed before the judgment instant are visible —
        the information an online admission controller actually has.
        Pure read: the subtraction never feeds kernel state.
        """
        done, completed = self._completed(time_s)
        if not done:
            return np.empty(0)
        start = max(completed - self._burn.window, 0)
        # The window's completions, expanded from the batch holding its
        # first request.
        first = int(self.batch_first[:done].searchsorted(start, "right")) - 1
        completion = np.repeat(
            self.batch_completion[first:done], self.batch_size[first:done]
        )
        skip = start - int(self.batch_first[first])
        return completion[skip:] - self.admitted_times[start:completed]

    def _admits(self, time_s: float) -> bool:
        """Judge one arrival: occupancy cap first, then SLO burn rate.

        Occupancy counts every admitted request minus those completed
        before ``time_s``; judged arrivals are always the next raw
        arrival, so every admitted request arrived at or before it.
        With no admission controller (or a disabled one) this is the
        static occupancy test with the identical short-circuit, which
        keeps the cap-only path bit-identical.
        """
        if (
            self.cap is not None
            and self.admitted - self._completed(time_s)[1] >= self.cap
        ):
            return False
        if self._burn is None:
            return True
        return not self._burn.sheds(
            self._burn.burn_rate(self._recent_latencies(time_s))
        )

    def judge_all(self, mask: np.ndarray) -> None:
        """Judge the whole trace at once: admit ``mask``, shed the rest."""
        self.admitted_times = self.raw[mask]
        self.admitted = int(self.admitted_times.size)
        self.ptr = self.n
        self.shed = self.raw[~mask]

    def plan(self) -> tuple[float, int] | None:
        """Seal the tenant's next batch, or ``None`` if it is done.

        Ingests raw arrivals first.  With the queue empty every batch
        of the lane is already committed, so each judgment (admit or
        shed) is exact; with requests queued, arrivals are *admitted*
        early whenever the occupancy bound already passes (completions
        still to come can only lower occupancy, never flip an admit)
        and otherwise left unjudged for :meth:`commit` to decide.
        """
        if self.admitted_times is None:
            self.admitted_times = np.empty(self.n)
        head = self.head
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
            self.core_free[0],
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
        return max(arrived - self._completed(time_s)[1], 0)

    def commit(self, dispatch: float, size: int, proxy: float = 0.0) -> None:
        """Book the planned batch and judge the arrivals up to it.

        Every batch that completes before the dispatch instant is
        already committed, so arrivals at or before it are judged
        *exactly*: admitted if the system occupancy at their instant is
        below the cap, shed otherwise (the count admission control
        reports).  Arrivals admitted here join the queue for the next
        batch — the committed batch's size was sealed at planning time.

        The batch walks the stages in order; each stage is busy for its
        weight-programming time plus ``size * conv`` time and hands the
        batch to the next stage whole.  Busy time is charged to the
        *physical* core behind each stage, so per-core accounting
        survives repartitions.  This is the exact arithmetic of the
        pre-kernel simulators — the bit-identity the golden fixtures
        pin.
        """
        while self.ptr < self.n and self.raw[self.ptr] <= dispatch:
            if self._admits(self.raw[self.ptr]):
                self._admit()
            else:
                self.shed.append(float(self.raw[self.ptr]))
                self.ptr += 1
        model, core_free, core_busy = self.model, self.core_free, self.core_busy
        phys = self.phys
        start = dispatch
        for stage in range(model.num_cores):
            begun = max(start, core_free[stage])
            busy = model.core_busy_s(stage, size)
            start = begun + busy
            core_free[stage] = start
            core_busy[phys[stage]] += busy
        head = self.head
        self.head = head + size
        k = self._reserve(1)
        self.batch_first[k] = head
        self.batch_size[k] = size
        self.batch_dispatch[k] = dispatch
        self.batch_completion[k] = start
        self.batch_width[k] = model.num_cores
        self.batch_proxy[k] = proxy

    def book(
        self,
        heads: np.ndarray,
        sizes: np.ndarray,
        disp: np.ndarray,
        proxies: np.ndarray | None = None,
        sweeps: list[ProbeSweep] | None = None,
    ) -> None:
        """Book a planned stretch of batches at once.

        The bulk :meth:`commit`: for a lane whose admitted queue already
        holds the stretch, batches that take no fault action are walked
        through the pipeline by
        :func:`~repro.core.simkernel.pipeline_completions`, resumed from
        the lane's clocks and busy ledger, and every column and ledger
        total comes out as committing them one by one would leave it.
        ``proxies`` defaults to the zeros of a pristine pool; the stage
        cores' ``sweeps`` over the stretch fill its drift rows.
        """
        phys = self.phys
        completion, ledger = pipeline_completions(
            sizes,
            disp,
            self.model,
            self.core_free,
            [self.core_busy[core] for core in phys],
        )
        for core, total in zip(phys, ledger):
            self.core_busy[core] = total
        self.head = int(heads[-1] + sizes[-1])
        k = self._reserve(sizes.size)
        stop = self.num_batches
        self.batch_first[k:stop] = heads
        self.batch_size[k:stop] = sizes
        self.batch_dispatch[k:stop] = disp
        self.batch_completion[k:stop] = completion
        self.batch_width[k:stop] = self.width
        self.batch_proxy[k:stop] = 0.0 if proxies is None else proxies
        if sweeps is not None:
            self.drift.record_sweeps(k, sweeps, sizes.size)

    def release_cores(self) -> list[tuple[int, float]]:
        """Hand the lane's cores back once its trace is fully served.

        Returns ``(core, frees_at)`` pairs: a reclaimed core is usable
        elsewhere only after it drains the lane's final batch.
        """
        self.released = True
        return list(zip(self.phys, self.core_free))

    def serve(
        self, dispatch: float, size: int, health: PoolHealth | None
    ) -> None:
        """Run one sealed dispatch: fault step, then book and record it.

        The fault step and any failing-core drain come before booking,
        so they delay the batch's completion, never its sealed dispatch.
        """
        if health is None:
            self.commit(dispatch, size)
            return
        states = health.states
        health.step(self.phys, self.core_free, dispatch, self.queue_depth)
        if self.fail_error_threshold is not None:
            self._drain_failing(dispatch, states)
        phys = self.phys
        if self.drift is not None:
            self.drift.record(self.num_batches, states, phys)
        self.commit(dispatch, size, max(states[core].error for core in phys))

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
        drain = max(max(self.core_free), joining_free_s)
        self.model = PipelineServiceModel.from_specs(
            list(self.specs), len(new_phys), self.config, clamp_cores=True
        )
        self.phys = list(new_phys)
        self.core_free = [drain] * len(new_phys)

    def serving_fields(self) -> dict:
        """The :class:`~repro.core.traffic.ServingReport` fields of the
        lane's run: its admitted requests, batches and busy ledger."""
        batches = self.batches
        return dict(
            policy=self.policy,
            num_cores=self.initial_width,
            arrival_s=self.admitted_times[: self.admitted],
            dispatch_s=np.repeat(batches.dispatch_s, batches.size),
            completion_s=np.repeat(batches.completion_s, batches.size),
            batches=batches,
            core_busy_s=tuple(self.core_busy),
        )

    def report(self) -> TenantServingReport:
        """The tenant's final serving report."""
        return TenantServingReport(
            **self.serving_fields(),
            tenant=self.name,
            offered_arrival_s=self.raw,
            shed_arrival_s=np.asarray(self.shed, dtype=float),
            batch_num_cores=self.widths,
            accuracy_proxy=self.proxies,
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
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
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
        ``(mask, heads, sizes, disp)``: the admitted mask over ``raw``
        plus the converged batch plan — or ``None`` when the walk hits
        the pass cap or the verification walk rejects the plan.
    """
    n = raw.size
    idx = np.arange(n, dtype=np.int64)
    mask = np.ones(n, dtype=bool)
    for _ in range(_ADMISSION_MAX_PASSES):
        heads, sizes, disp = plan_batches(raw[mask], policy, model)
        fresh = ([0.0] * model.num_cores, [0.0] * model.num_cores)
        completion, _ = pipeline_completions(sizes, disp, model, *fresh)
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
                raw, mask, policy, model, cap, sizes, disp
            ):
                return mask, heads, sizes, disp
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
    # Scalar-access hot loop: plain lists index several times faster
    # than numpy scalars.
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

    Each lane is served alone on its fastest exact path
    (:func:`_serve_alone`) whenever the allocation is frozen — no fault
    schedule, no elastic reallocation, no *enabled* burn-rate admission
    controller (static occupancy caps are fine); otherwise the global
    event loop serves every lane.  Both paths are bit-identical.

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
            tenant name; a tenant without an entry (or with ``None``)
            keeps its static ``queue_cap``.  A controller owns its
            tenant's occupancy cap (its ``queue_cap`` field replaces
            the tenant's).
        config: hardware configuration for partitioning and service
            times.

    Raises:
        ValueError: on an empty or duplicated tenant set, a pool size
            that is not an integer or is below one core per tenant, or
            an admission key that names no tenant.
        TypeError: on an ``elastic`` or ``recalibration`` policy, or an
            admission controller, of another type.
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
        admission: Mapping[str, object] | None = None,
    ) -> None:
        if not tenants:
            raise ValueError("need at least one tenant")
        names = [tenant.name for tenant in tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"tenant names must be unique, got {names!r}")
        validate_count(pool_size, "pool size")
        # adaptive.py builds on this module, so its types load here.
        from repro.core.adaptive import (
            AdaptiveRecalibration,
            BurnRateAdmission,
            PressureController,
        )

        _require_type(
            "elastic", elastic, (ElasticReallocation, PressureController)
        )
        _require_type(
            "recalibration",
            recalibration,
            (RecalibrationPolicy, AdaptiveRecalibration),
        )
        admission = dict(admission) if admission else {}
        unknown = set(admission) - set(names)
        if unknown:
            raise ValueError(
                f"admission keys {sorted(unknown)} name no tenant; have "
                f"{names!r}"
            )
        for name, controller in admission.items():
            _require_type(
                f"admission[{name!r}]", controller, (BurnRateAdmission,)
            )
        # A None entry is no entry: the tenant keeps its static cap.
        self.admission = {k: v for k, v in admission.items() if v is not None}
        self.tenants = tuple(tenants)
        self.pool_size = pool_size
        self.routing = routing if routing is not None else RoutingPolicy()
        self.elastic = elastic
        self.schedule = schedule
        self.recalibration = recalibration
        self.config = config
        self._allocations, self._free = allocate_pool(
            tenants, pool_size, self.routing
        )

    @property
    def _frozen(self) -> bool:
        """Whether the tenant lanes share no state, so each is served
        alone (:func:`_serve_alone`).

        With no fault schedule and no elastic reallocation the core
        allocation is frozen: each lane plans, sheds, and books exactly
        as if it ran alone, and the global loop's tie-ordering has no
        arithmetic effect.  Static occupancy caps (a tenant's
        ``queue_cap``, or a *disabled* burn-rate controller's) are
        per-lane too.  An *enabled* burn-rate controller keeps the run
        on the global loop: its judgments read completion latencies
        mid-run and can flip as batches seal.
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
        return (lane.head / tenant.weight, lane.index)

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
        core_free_at = donor.core_free[-1]
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
        lanes = [
            self._lane(
                index, tenant, validate_arrival_trace(arrival_s[tenant.name])
            )
            for index, tenant in enumerate(self.tenants)
        ]
        health = (
            None
            if self.schedule is None
            else PoolHealth(self.schedule, self.pool_size, self.recalibration)
        )
        reallocations: list[ReallocationRecord] = []
        if self._frozen:
            for lane in lanes:
                _serve_alone(lane, None)
        else:
            free = [(core, 0.0) for core in self._free]

            def rebalance(now: float) -> None:
                self._rebalance(now, lanes, free, reallocations)

            _serve_lanes(
                lanes,
                health,
                self._tie_key,
                rebalance=None if self.elastic is None else rebalance,
                free=free,
            )
        pristine = (0.0,) * self.pool_size
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


_EPOCH_MIN_REQUESTS = 64
"""Requests the first speculative epoch after a fault action plans; each
epoch that runs to its end doubles the next one."""

_DENSE_CUT = 4
"""An epoch cut before this many batches counts as dense: fault actions
come so often that planning and probing ahead cost more than they save."""

_SCALAR_RUN_MAX = 64
"""Cap on the per-dispatch run :func:`_serve_epochs` takes after dense
cuts before it speculates again (the run doubles per dense cut)."""


def _serve_epochs(lane: _TenantLane, health: PoolHealth) -> None:
    """The lane event loop for one faulted pipeline, in epochs.

    Between two dispatches at which the fault step acts, nothing feeds
    back into the lane's clocks: the drift probes are pure functions of
    simulated time under a fixed command, and the batches are the
    fault-free plan.  So each epoch speculates a window of the trace:
    it plans the window's batches with
    :func:`~repro.core.simkernel.plan_batches` (resumed from the lane's
    head and core-0 clock, keeping only batches the window cannot have
    truncated), sweeps every stage core's probe over their dispatch
    instants (:meth:`~repro.core.faults.CoreHealthState.sweep`), and
    cuts at the first batch where the per-dispatch loop would act: the
    threshold trigger firing on a core that is not exhausted, an
    exhausted core re-arming, or some but not all cores at the fail
    threshold.  The batches before the cut are booked in bulk, drift
    rows and all (:meth:`_TenantLane.book`); the cut batch itself runs
    through the lane's own plan and :meth:`_TenantLane.serve` — the one
    fault step, :meth:`~repro.core.faults.PoolHealth.step`, and the
    failing-core drain — and the next epoch resumes from there.  Windows
    double while epochs run to their end and reset at a cut, and after
    dense cuts the lane serves a doubling run of dispatches one by one
    before speculating again, so a run that acts every few dispatches
    costs about what the per-dispatch loop costs.  The result is
    bit-identical to :func:`_serve_lanes` on the lone lane, which stays
    the oracle.
    """
    states = health.states
    trigger = health.trigger
    threshold = math.inf if trigger is None else trigger.policy.error_threshold
    fail = lane.fail_error_threshold
    arrivals = lane.admitted_times
    n = lane.n
    max_batch = lane.policy.max_batch
    window = _EPOCH_MIN_REQUESTS
    scalar_run = 0
    last_dispatch = 0.0
    while lane.head < n:
        end = min(lane.head + window, n)
        heads, sizes, disp = plan_batches(
            arrivals[:end], lane.policy, lane.model, lane.head, lane.core_free[0]
        )
        if end < n:
            # A batch may read the trace up to head + max_batch - 1.
            count = int(np.searchsorted(heads, end - max_batch, side="right"))
            heads, sizes, disp = heads[:count], sizes[:count], disp[:count]
        if not heads.size:
            window *= 2
            continue
        phys = lane.phys
        sweeps = [states[core].sweep(disp) for core in phys]
        acts = np.zeros(disp.size, dtype=bool)
        failing = np.zeros(disp.size, dtype=np.int64)
        for core, sweep in zip(phys, sweeps):
            if not states[core].recal_exhausted:
                acts |= sweep.errors >= threshold
            if fail is not None:
                failing += sweep.errors >= fail
        acts |= (failing > 0) & (failing < len(phys))
        cut = min(sweep.rearm for sweep in sweeps)
        hits = np.flatnonzero(acts[:cut])
        if hits.size:
            cut = int(hits[0])
        if cut:
            proxies = sweeps[0].errors[:cut]
            for sweep in sweeps[1:]:
                proxies = np.maximum(proxies, sweep.errors[:cut])
            lane.book(heads[:cut], sizes[:cut], disp[:cut], proxies, sweeps)
            last_dispatch = max(last_dispatch, disp[cut - 1])
        if cut == disp.size:
            window *= 2
            continue
        if cut < _DENSE_CUT:
            scalar_run = min(max(2 * scalar_run, 1), _SCALAR_RUN_MAX)
        else:
            scalar_run = 0
        # The cut batch, then any dense-cut run, one dispatch at a time.
        for _ in range(1 + scalar_run):
            plan = lane.plan()
            if plan is None:
                break
            dispatch, size = plan
            last_dispatch = max(last_dispatch, dispatch)
            lane.serve(dispatch, size, health)
        window = _EPOCH_MIN_REQUESTS
    health.finish(last_dispatch)


def _serve_alone(lane: _TenantLane, health: PoolHealth | None) -> None:
    """Serve a lane that shares no state with another lane, by its
    fastest exact path — the one place a lane's path is chosen:

    * fault-free, whole trace admitted: one whole-trace
      :func:`~repro.core.simkernel.plan_batches` and :meth:`_TenantLane.book`;
    * fault-free with an occupancy cap: the :func:`_plan_admitted` walk
      and one book, or per dispatch when the walk is rejected;
    * faulted with no recalibration or the static trigger:
      :func:`_serve_epochs`;
    * otherwise (adaptive trigger, enabled burn-rate controller): per
      dispatch through :func:`_serve_lanes`, the oracle every other
      path matches bit for bit.
    """
    if lane._burn is None:
        if health is None and lane.cap is None:
            lane.book(*plan_batches(lane.raw, lane.policy, lane.model))
            return
        if health is None:
            plan = _plan_admitted(lane.raw, lane.policy, lane.model, lane.cap)
            if plan is not None:
                mask, heads, sizes, disp = plan
                lane.judge_all(mask)
                lane.book(heads, sizes, disp)
                return
            # The walk hit its pass cap, or the sealed-visibility walk
            # rejected the speculation (an early-shed arrival re-admitted
            # at the very next commit shrank a per-dispatch batch).
        elif lane.cap is None and (
            health.trigger is None or type(health.trigger) is ThresholdTrigger
        ):
            _serve_epochs(lane, health)
            return
    _serve_lanes([lane], health, _lone_lane)


def serve_pipeline(
    model: PipelineServiceModel,
    policy: BatchingPolicy,
    arrivals: np.ndarray,
    health: PoolHealth | None,
    specs: Sequence[ConvLayerSpec] | None = None,
    config: PCNNAConfig | None = None,
    fail_error_threshold: float | None = None,
) -> _TenantLane:
    """Serve one pipeline as a lone lane (:func:`_serve_alone`).

    The engine of :class:`~repro.core.simkernel.EventLoopKernel` and of
    :class:`~repro.core.faults.DegradedServingSimulator`: one lane over
    the caller's ``model`` on cores ``0..width-1`` that records
    per-batch drift snapshots on a faulted pool and, when ``specs`` is
    given, drains cores whose error reaches ``fail_error_threshold``.
    ``health`` ``None`` keeps the pool pristine.
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
        record_snapshots=health is not None,
    )
    _serve_alone(lane, health)
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
        ValueError: on an invalid tenant set, pool size, or trace.
    """
    simulator = ClusterSimulator(
        tenants,
        pool_size,
        routing=routing,
        elastic=elastic,
        schedule=schedule,
        recalibration=recalibration,
        config=config,
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
