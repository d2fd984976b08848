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
the degraded simulator (:mod:`repro.core.faults`, through
:func:`serve_pipeline`).  Each
lane owns its pipeline state and records every batch once, in the
numpy columns its reports read.  The lane event loop
(:func:`_serve_lanes`) hosts cross-lane feedback (elastic moves) and
is the oracle of every faster path.  A lane that shares no state with
another — the lone pipeline, or a cluster tenant up to the first core
move, faulted or not — is served by :func:`_serve_alone`, the one
place a lane's path is chosen: vectorized epochs between fault actions
(the whole trace on a pristine pool), planned by one
:func:`~repro.core.simkernel.plan_batches` or the occupancy-cap
admission walk, and the per-dispatch loop where no epoch can be
planned.  A cluster with no elastic policy is served lane by lane; an
elastic one too, up to the first dispatch after which the reallocator
could move a core (:meth:`ClusterSimulator._first_move`), and on the
lane event loop from there.  Everything is a pure function of its
inputs: a fixed seed and tenant mix yields bit-identical reports on
every run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from repro.core.adaptive import AdaptiveRecalibration, BurnRateAdmission
from repro.core.config import PCNNAConfig
from repro.core.faults import (
    DriftSnapshotTable,
    FaultSchedule,
    PoolHealth,
    ProbeSweep,
    RecalibrationPolicy,
    RecalibrationRecord,
    RepartitionRecord,
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
        if (
            isinstance(self.weight, bool)
            or self.weight <= 0.0
            or not np.isfinite(self.weight)
        ):
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

    Under a genuine load spike constant barriers delay the very moves
    that would relieve it.  A positive ``gain`` makes them adaptive:
    both scale down by ``1 + gain * peak_pressure`` (the worst observed
    queue pressure), with floors of 1, so cores move sooner exactly
    when the pool is drowning.  ``gain=0`` keeps the constants.

    Attributes:
        pressure_ratio: minimum recipient/donor pressure ratio.
        min_queue: minimum queued requests before a tenant may grow.
        gain: pressure feedback gain (finite, >= 0; 0 is static).
    """

    pressure_ratio: float = 4.0
    min_queue: int = 16
    gain: float = 0.0

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
        # A bool compares as 0 or 1 and would pass the range check.
        if (
            isinstance(self.gain, bool)
            or self.gain < 0.0
            or not math.isfinite(self.gain)
        ):
            raise ValueError(
                f"gain must be finite and >= 0, got {self.gain!r}"
            )

    def thresholds(self, peak_pressure: float) -> tuple[float, int]:
        """Effective ``(pressure_ratio, min_queue)`` at this pressure."""
        if self.gain == 0.0:
            return self.pressure_ratio, self.min_queue
        relief = 1.0 + self.gain * max(peak_pressure, 0.0)
        ratio = max(self.pressure_ratio / relief, 1.0)
        min_queue = max(int(math.ceil(self.min_queue / relief)), 1)
        return ratio, min_queue


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
        admission: BurnRateAdmission | None = None,
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
        self.cap = queue_cap
        # An enabled burn-rate controller, judged after the cap.
        self._burn = admission
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
        # in arrival order.  With no cap and no burn controller it *is*
        # the trace, admitted up front, so dispatch planning sees the
        # exact array the plain simulator would (the bit-identity the
        # differential test pins).
        admits_all = self.cap is None and self._burn is None
        self.admitted_times = arrivals if admits_all else np.empty(self.n)
        self.admitted = self.ptr = self.n if admits_all else 0
        self.shed: list[float] = []
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

    def judge(self, mask: np.ndarray, stop: int) -> None:
        """Judge raw arrivals ``ptr`` up to ``stop`` at once by
        ``mask``, the admission verdicts from ``ptr`` on: admit where it
        holds, shed the rest."""
        judged = self.raw[self.ptr : stop]
        keep = mask[: judged.size]
        admitted = judged[keep]
        stored = self.admitted + admitted.size
        self.admitted_times[self.admitted : stored] = admitted
        self.shed.extend(judged[~keep].tolist())
        self.admitted = stored
        self.ptr = stop

    def backlog(self, first_s: float) -> "_Backlog":
        """Where an admission walk over raw arrivals from ``first_s`` on
        resumes: the queue, the committed batches still in flight at
        ``first_s``, and the pipeline clocks."""
        nb = self.num_batches
        done = int(self.batch_completion[:nb].searchsorted(first_s))
        start = max(done - 1, 0)
        # Requests completed once each batch completes, counted from
        # the head (every committed request is at or before it).
        ends = self.batch_first[start:nb] + self.batch_size[start:nb]
        completed = ends - self.head
        if not done:
            completed = np.concatenate(([-self.head], completed))
        return _Backlog(
            self.admitted_times[self.head : self.admitted],
            self.batch_completion[done:nb],
            completed,
            self.core_free,
        )

    @property
    def finished(self) -> bool:
        """Whether every arrival is judged and every admit dispatched."""
        return self.head >= self.admitted and self.ptr >= self.n

    @property
    def last_dispatch(self) -> float:
        """The lane's last dispatch instant (0 before its first)."""
        nb = self.num_batches
        return float(self.batch_dispatch[nb - 1]) if nb else 0.0

    def plan(self) -> tuple[float, int] | None:
        """Seal the tenant's next batch, or ``None`` if it is done.

        Ingests raw arrivals first.  With the queue empty every batch
        of the lane is already committed, so each judgment (admit or
        shed) is exact; with requests queued, arrivals are *admitted*
        early whenever the occupancy bound already passes (completions
        still to come can only lower occupancy, never flip an admit)
        and otherwise left unjudged for :meth:`commit` to decide.
        """
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
        if self.drift is not None:
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
        health.step(self.phys, self.core_free, dispatch, self.queue_depth)
        if self.fail_error_threshold is not None:
            self._drain_failing(dispatch, health)
        phys, states = self.phys, health.states
        if self.drift is not None:
            self.drift.record(self.num_batches, states, phys)
        self.commit(dispatch, size, max(states[core].error for core in phys))

    def _drain_failing(self, dispatch: float, health: PoolHealth) -> None:
        """Re-partition around the cores the pool finds failing."""
        phys = self.phys
        failing = health.failing(phys, self.fail_error_threshold)
        if failing:
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


class _Backlog(NamedTuple):
    """Where a capped lane's admission walk resumes
    (:meth:`_TenantLane.backlog`).

    Attributes:
        queued: arrival times of admitted requests not yet dispatched.
        inflight_s: completions of the committed batches still in
            flight at the walk's first arrival, in order.
        completed: requests completed, counted from the lane's head
            (so at most 0), before the first of those completes and
            after each of them.
        core_free: per-stage free times.
    """

    queued: np.ndarray
    inflight_s: np.ndarray
    completed: np.ndarray
    core_free: list[float]


def _plan_admitted(
    raw: np.ndarray,
    policy: BatchingPolicy,
    model,
    cap: int,
    backlog: _Backlog,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
    """Vectorized occupancy-cap admission walk for one frozen lane.

    Reproduces the reference lane's admission decisions over the raw
    arrivals ``raw`` as array ops, resumed from ``backlog``.  The
    decision rule (see :class:`_TenantLane`): arrival ``i`` at time
    ``t_i`` is admitted iff the lane's system occupancy — admissions
    among arrivals ``< i`` minus requests in batches completed strictly
    before ``t_i`` — is below ``cap``.  With a *fixed* batch plan the
    running admission count ``a`` obeys ``a_i = a_{i-1} + [a_{i-1} <
    u_i]`` with ``u_i`` (completions before ``t_i`` plus the cap's room
    left by the queue) nondecreasing and, clamped at 0 as ``a`` never is
    negative, has the closed form ``a_i = min(i + 1, i + min_{j<=i}(u_j
    - j))`` — one ``np.minimum.accumulate``, all-integer, hence exact.

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

    The walk sees only ``raw``: from a lane's state it plans the lane
    whose trace ends there, and a caller planning a window of a longer
    trace keeps only what the window cannot have truncated.

    Returns:
        ``(mask, heads, sizes, disp)``: the admitted mask over ``raw``
        plus the converged batch plan, heads counted from the lane's
        head — or ``None`` when the walk hits the pass cap or the
        verification walk rejects the plan.
    """
    queued, inflight, completed0, core_free = backlog
    room = cap - queued.size  # the cap's room left by the queue
    n = raw.size
    idx = np.arange(n, dtype=np.int64)
    mask = np.ones(n, dtype=bool)
    for _ in range(_ADMISSION_MAX_PASSES):
        queue = raw[mask]
        if queued.size:
            queue = np.concatenate((queued, queue))
        if queue.size:
            heads, sizes, disp = plan_batches(
                queue, policy, model, 0, core_free[0]
            )
            completion, _ = pipeline_completions(
                sizes, disp, model, list(core_free), [0.0] * model.num_cores
            )
        else:  # every window arrival speculated shed into an empty queue
            heads = sizes = np.empty(0, np.int64)
            disp = completion = queue
        if inflight.size:
            completion = np.concatenate((inflight, completion))
        bounds = np.concatenate((completed0, np.cumsum(sizes)))
        # headroom[i]: requests done strictly before t_i (completions
        # are strictly increasing within a lane), plus the room.
        headroom = bounds[np.searchsorted(completion, raw, side="left")]
        headroom += room
        if room + completed0[0] < 0:  # the queue may fill the cap
            np.maximum(headroom, 0, out=headroom)
        admitted = np.minimum(
            idx + 1, idx + np.minimum.accumulate(headroom - idx)
        )
        new_mask = np.diff(admitted, prepend=0) == 1
        if np.array_equal(new_mask, mask):
            if _verify_admission_plan(
                raw, mask, policy, model, cap, sizes, disp, backlog
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
    backlog: _Backlog,
) -> bool:
    """Replay the reference lane's *visibility* rules against a plan.

    The fixed point of :func:`_plan_admitted` reproduces the reference
    lane's admission decisions, but the reference seals each batch
    against the queue *visible at planning time*: an arrival that fails
    the early-occupancy test stays invisible to that seal even when the
    commit that follows admits it, so batch formation can differ from
    :func:`~repro.core.simkernel.plan_batches` over the final admitted
    set (smaller sealed batches under tight caps).  This check replays
    the reference's judgment schedule — per batch, the phase-B frontier
    (everything at or before the previous dispatch is judged exactly at
    commit), the queue-empty drain, and the early-admit chain judged
    against *committed-only* completions — and re-seals each batch that
    can see past it with :func:`~repro.core.simkernel.plan_dispatch` on
    exactly the visible prefix.  Every comparison is exact.

    Returns ``True`` iff the speculated plan is the reference run —
    judgments that are exact in the reference (drain, phase B) match
    the fixed-point mask by construction, early admits imply final
    admits (completions only lower occupancy), and a matching sealed
    ``(dispatch, size)`` per batch pins the rest by induction.  A
    ``False`` sends the lane to the scalar reference loop.

    The judgment frontier has a closed form, so no per-batch walk runs.
    Arrival ``j`` passes the early-admit test at batch ``k`` iff ``k >=
    kmin[j]`` (nondecreasing over admits; a shed never passes; committed
    batches of the ``backlog`` count before batch 0).  Batch ``k``'s
    chain starts at ``low[k]``, the later of the previous dispatch's
    phase-B frontier and one past its head admit (the drain), both
    nondecreasing in ``k``, and stops at ``judged[k]``, the first ``j >=
    low[k]`` that is shed or has ``kmin[j] > k`` — a ``searchsorted``
    each on ``kmin`` and the shed indices; arrivals the walk carried
    past ``low[k]`` passed at ``k - 1``, so pass at ``k``.  A batch that
    sees every admit ends the check (later seals run over the full
    array, ``plan_batches``' own fold).  A batch with ``head +
    max_batch`` visible admits and the next unjudged arrival after its
    dispatch is *blind*: ``plan_dispatch`` reads the queue only at
    ``head``, ``head + max_batch - 1`` and arrivals up to the dispatch,
    so its seal is the plan's.  Only the rest pay a ``plan_dispatch``.
    No head outruns the visible admits: the batch before it was blind
    or matched a seal of the visible prefix.
    """
    queued, _, completed0, core_free = backlog
    n = int(raw.size)
    nb = int(sizes.size)
    if nb == 0:
        return True
    m = policy.max_batch
    # adm_before[j]: admitted among arrivals < j, and queue entries
    # before them — the reference lane's running admission count, from
    # its head, while the plan matches it.
    adm_before = np.concatenate(([0], np.cumsum(mask)))
    adm_before += queued.size
    total = int(adm_before[-1])
    cum = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
    heads = cum[:-1]
    admitted_idx = np.flatnonzero(mask)
    # Early-admit threshold: arrival j passes the committed-only
    # occupancy test at batch k iff the committed batches and the first
    # k planned ones completed at least ``adm_before[j] - cap + 1``
    # requests before t_j, i.e. iff k >= kmin[j].  A final shed never
    # passes (occupancy only grows toward the seal), so it stops the
    # chain wherever it stands.
    need = adm_before[admitted_idx] - cap + 1
    if completed0.size > 1:  # batches in flight count before batch 0
        bounds = np.concatenate((completed0, cum[1:]))
        kmin = np.searchsorted(bounds, need, side="left")
        kmin -= completed0.size - 1
    else:
        kmin = np.searchsorted(cum, need, side="left")
    # Phase-B frontier: commit k judges every arrival at or before its
    # dispatch exactly; exact judgments equal the fixed point.
    entry = np.zeros(nb, dtype=np.int64)
    entry[1:] = np.searchsorted(raw, disp[:-1], side="right")
    # Each queue entry's arrival index (queued ones precede ``raw``).
    queue_idx = admitted_idx
    if queued.size:
        queue_idx = np.concatenate((np.full(queued.size, -1), admitted_idx))
    low = np.maximum(entry, queue_idx[heads] + 1)
    first_admit = np.maximum(
        np.searchsorted(kmin, np.arange(nb), side="right"),
        adm_before[low] - queued.size,
    )
    shed_idx = np.flatnonzero(~mask)
    judged = np.minimum(
        np.append(admitted_idx, n)[first_admit],
        np.append(shed_idx, n)[np.searchsorted(shed_idx, low)],
    )
    visible = adm_before[judged]
    done = np.flatnonzero(visible == total)
    last = int(done[0]) if done.size else nb
    next_arrival = np.append(raw, math.inf)[judged[:last]]
    blind = (heads[:last] + m <= visible[:last]) & (disp[:last] < next_arrival)
    queue = raw[mask]
    if queued.size:
        queue = np.concatenate((queued, queue))
    busy0 = model.weight_load_s[0] + np.arange(m + 1) * model.conv_time_s[0]
    for k in np.flatnonzero(~blind).tolist():
        dispatch, size = plan_dispatch(
            queue[: visible[k]],
            int(heads[k]),
            policy,
            core_free[0]
            if k == 0
            else float(disp[k - 1]) + float(busy0[sizes[k - 1]]),
        )
        if dispatch != disp[k] or size != sizes[k]:
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

    Until a core moves the lanes share no state: occupancy caps and
    burn-rate admission read only their own lane, and a lane's fault
    steps touch only its own cores.  So each lane is served alone on
    its fastest exact path (:func:`_serve_alone`), and a faulted pool's
    recalibration and decision logs are merged afterwards in the loop's
    order.  With no elastic policy, or where no dispatch can move a
    core, that is the whole run; otherwise the global event loop takes
    over at the first dispatch that can (:meth:`_serve`).  Both paths
    are bit-identical.

    Args:
        tenants: the co-served models (unique names).
        pool_size: physical cores in the shared pool (>= one per
            tenant).
        routing: pool arbitration policy (weighted-fair by default).
        elastic: elastic core reallocation policy (a positive ``gain``
            makes its thresholds pressure-driven); ``None`` freezes the
            initial allocation.
        schedule: fault schedule over the *physical pool cores*;
            ``None`` keeps the pool pristine.
        recalibration: online recalibration policy for degraded cores —
            the static :class:`~repro.core.faults.RecalibrationPolicy`
            or an adaptive
            :class:`~repro.core.adaptive.AdaptiveRecalibration`.
        admission: per-tenant burn-rate admission controllers
            (:class:`~repro.core.adaptive.BurnRateAdmission`), keyed by
            tenant name and judged after the tenant's ``queue_cap``; an
            entry that is ``None`` or disabled is no entry.
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
        recalibration: RecalibrationPolicy | AdaptiveRecalibration | None = None,
        config: PCNNAConfig | None = None,
        admission: Mapping[str, BurnRateAdmission | None] | None = None,
    ) -> None:
        if not tenants:
            raise ValueError("need at least one tenant")
        names = [tenant.name for tenant in tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"tenant names must be unique, got {names!r}")
        validate_count(pool_size, "pool size")
        _require_type("elastic", elastic, (ElasticReallocation,))
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
        # A None or disabled entry is no entry: the cap alone judges.
        self.admission = {
            name: controller
            for name, controller in admission.items()
            if controller is not None and controller.enabled
        }
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

    def _tie_key(self, lane: _TenantLane, head: int) -> tuple:
        """Routing preference for simultaneous dispatches (lower wins)
        of ``lane`` with ``head`` requests dispatched."""
        tenant = self.tenants[lane.index]
        if self.routing.kind == "priority":
            return (-tenant.priority, lane.index)
        return (head / tenant.weight, lane.index)

    def _merge_logs(
        self, lanes: list[_TenantLane], health: PoolHealth
    ) -> None:
        """Put the logs of lanes served one after another in the order
        the global loop writes them.

        The loop logs recalibrations and trigger decisions in dispatch
        order, simultaneous dispatches by :meth:`_tie_key` at that
        dispatch; each lane's own entries are already in that order, so
        a stable sort by ``(time, tie key)`` interleaves them.
        """
        owner = {core: lane for lane in lanes for core in lane.phys}

        def order(entry) -> tuple:
            lane = owner[entry.core]
            dispatched = lane.batch_dispatch[: lane.num_batches]
            batch = int(dispatched.searchsorted(entry.time_s))
            head = int(lane.batch_first[batch])
            return (entry.time_s, self._tie_key(lane, head))

        health.recalibrations.sort(key=order)
        if health.trigger is not None and health.trigger.decisions:
            health.trigger.decisions.sort(key=order)

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
        depths = {lane.index: lane.queue_depth(now) for lane in active}
        pressures = {
            lane.index: depths[lane.index] / lane.width for lane in active
        }
        ratio, min_queue = self.elastic.thresholds(
            max(pressures.values(), default=0.0)
        )
        growable = [
            lane
            for lane in active
            if lane.width < len(lane.specs)
            and depths[lane.index] >= min_queue
        ]
        if not growable:
            return
        recipient = min(
            growable,
            key=lambda lane: (
                -pressures[lane.index],
                self._tie_key(lane, lane.head),
            ),
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

    def _first_move(
        self, lanes: list[_TenantLane]
    ) -> tuple[list[int], list[int]] | None:
        """Where lanes served alone may stop matching the global loop.

        Until the first core move the lanes share no state, so each one
        served alone dispatches what the global loop would.  This replays
        :meth:`_rebalance` after every dispatch of their merged ``(time,
        tie key)`` order, as arrays over lanes x dispatches: a lane is
        active up to its last dispatch and its cores are free from the
        next one on; a free core goes to any growable lane, and otherwise
        a core moves only if some growable lane passes the ratio test
        against the least-pressured donor :meth:`_floor` allows.

        A lane not yet finished may dispatch more, so the replay stops at
        the last dispatch the unfinished lanes have all reached: every
        dispatch up to it is known, and each lane has judged the arrivals
        up to it.  A capped or burn lane served alone has judged more
        arrivals than the loop had at a dispatch, so its queue depth
        there is an upper bound; the arrivals up to its own latest
        dispatch are judged, so they give a lower bound.  The test uses
        the upper bound for the recipient and for the peak pressure
        (``thresholds`` only relaxes as the peak rises) and the lower
        bound for the donor, so a dispatch it clears cannot move a core.
        The first one it does not clear is the cut.

        Returns:
            ``None`` if no replayed dispatch can move a core; otherwise
            each lane's batches dispatched before the cut and the lanes
            released before it, in release order.
        """
        counts = [lane.num_batches for lane in lanes]
        owner = np.repeat(np.arange(len(lanes)), counts)
        dispatch = np.concatenate(
            [lane.batch_dispatch[: lane.num_batches] for lane in lanes]
        )
        if self.routing.kind == "priority":
            # (-priority, index) is a total order of the lanes.
            ranked = sorted(
                range(len(lanes)), key=lambda i: self._tie_key(lanes[i], 0)
            )
            position = np.empty(len(lanes), np.int64)
            position[ranked] = np.arange(len(lanes))
            order = np.lexsort((position[owner], dispatch))
        else:
            share = np.concatenate(
                [
                    lane.batch_first[: lane.num_batches]
                    / self.tenants[lane.index].weight
                    for lane in lanes
                ]
            )
            order = np.lexsort((owner, share, dispatch))
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        start = np.concatenate(([0], np.cumsum(counts)))
        last = rank[start[1:] - 1]
        unfinished = [i for i, lane in enumerate(lanes) if not lane.finished]
        horizon = int(last[unfinished].min()) if unfinished else order.size - 1
        times = dispatch[order[: horizon + 1]]
        steps = np.arange(times.size)
        active = steps <= last[:, None]
        free = (steps > last.min()) | bool(self._free)
        upper = np.empty(active.shape, np.int64)
        lower = np.empty(active.shape, np.int64)
        for i, lane in enumerate(lanes):
            nb = lane.num_batches
            admitted = lane.admitted_times[: lane.admitted]
            ends = lane.batch_first[:nb] + lane.batch_size[:nb]
            done = np.concatenate(([0], ends))[
                lane.batch_completion[:nb].searchsorted(times)
            ]
            upper[i] = admitted.searchsorted(times, "right") - done
            if lane.cap is None and lane._burn is None:
                lower[i] = upper[i]
                continue
            seen = np.concatenate(([-math.inf], lane.batch_dispatch[:nb]))
            judged = seen[rank[start[i] : start[i + 1]].searchsorted(
                steps, "right"
            )]
            lower[i] = admitted.searchsorted(judged, "right") - done
        np.maximum(upper, 0, out=upper)
        np.maximum(lower, 0, out=lower)
        width = np.array([lane.width for lane in lanes])[:, None]
        high = upper / width
        low = lower / width
        peaks, at = np.unique(
            np.where(active, high, 0.0).max(axis=0), return_inverse=True
        )
        limits = np.array(
            [self.elastic.thresholds(peak) for peak in peaks.tolist()]
        ).reshape(-1, 2)
        ratio, min_queue = limits[at, 0], limits[at, 1]
        roomy = np.array([lane.width < len(lane.specs) for lane in lanes])
        growable = active & roomy[:, None] & (upper >= min_queue)
        floors = np.array([self._floor(lane) for lane in lanes])[:, None]
        donor = np.where(active & (width > floors), low, math.inf)
        passes = np.zeros(steps.size, dtype=bool)
        for i in range(len(lanes)):
            least = np.delete(donor, i, axis=0).min(axis=0, initial=math.inf)
            passes |= growable[i] & (
                high[i] >= ratio * np.maximum(least, 1.0)
            )
        moves = np.flatnonzero(np.where(free, growable.any(axis=0), passes))
        if not moves.size:
            return None
        cut = int(moves[0])
        served = [
            int(rank[start[i] : start[i + 1]].searchsorted(cut))
            for i in range(len(lanes))
        ]
        released = sorted(
            (i for i in range(len(lanes)) if last[i] < cut),
            key=lambda i: last[i],
        )
        return served, released

    def _serve(
        self,
        lanes: list[_TenantLane],
        health: PoolHealth | None,
        reallocations: list[ReallocationRecord],
    ) -> None:
        """Serve every lane alone up to the first possible core move,
        and the rest of the run on the global loop.

        Each lane is served alone (:func:`_serve_alone`) as if the
        allocation were frozen: all at once with no elastic policy, or
        for a lone lane with no free core, which the loop never
        rebalances.  Otherwise the lanes are served alone in rounds of
        up to 256, 1024, 4096, ... batches, and after each round
        :meth:`_first_move` replays the reallocator over what they have
        dispatched, so an early cut costs little more than its prefix.
        Where no dispatch can move a core, the lanes served alone are the
        run: the shared logs are merged.  At a cut each lane still active
        there is served again from a fresh lane, its cores' health
        reset, up to the batches it dispatched before the cut; the lanes
        released before it return their cores in release order; and the
        global loop (:meth:`_serve_global`) serves the rest and makes
        the move.
        """
        rounds = self.elastic is not None and (
            len(lanes) > 1 or bool(self._free)
        )
        batches = 4 * _EPOCH_MIN_REQUESTS if rounds else None
        while True:
            for lane in lanes:
                _serve_alone(lane, health, batches)
            cut = self._first_move(lanes) if rounds else None
            if cut is not None or all(lane.finished for lane in lanes):
                break
            batches *= 4
        if cut is None:
            if health is not None:
                self._merge_logs(lanes, health)
                health.finish(max(lane.last_dispatch for lane in lanes))
            return
        served, released = cut
        free = [(core, 0.0) for core in self._free]
        for index in released:
            free.extend(lanes[index].release_cores())
        for index, lane in enumerate(lanes):
            if lane.released:
                continue
            if health is not None:
                health.reset(lane.phys)
            lanes[index] = self._lane(index, self.tenants[index], lane.raw)
            _serve_alone(lanes[index], health, served[index])
        if health is not None:
            self._merge_logs(lanes, health)
        self._serve_global(lanes, health, free, reallocations)

    def _serve_global(
        self,
        lanes: list[_TenantLane],
        health: PoolHealth | None,
        free: list[tuple[int, float]],
        reallocations: list[ReallocationRecord],
    ) -> None:
        """Serve the lanes to completion on the global loop
        (:func:`_serve_lanes`), rebalancing after every dispatch under
        an elastic policy; ``free`` holds the pool's free cores."""

        def rebalance(now: float) -> None:
            self._rebalance(now, lanes, free, reallocations)

        _serve_lanes(
            lanes,
            health,
            lambda lane: self._tie_key(lane, lane.head),
            rebalance=None if self.elastic is None else rebalance,
            free=free,
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
        self._serve(lanes, health, reallocations)
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
    ``free``.  A lane's plan reads only its own queue, clocks and cap,
    so each round re-plans just the lane it served, or every lane after
    a ``rebalance`` call.

    It resumes from any point the lanes reached without a core move:
    an elastic cluster hands it its lanes at the first dispatch that
    could move one, each served alone up to there, with the lanes
    already released marked so and their cores in ``free`` in release
    order (:meth:`ClusterSimulator._serve`).  From the first dispatch
    on, it is the oracle every cluster run is pinned to.
    """
    last_dispatch = 0.0
    plans: list[tuple[float, int] | None] = [None] * len(lanes)
    stale = range(len(lanes))
    while True:
        for index in stale:
            lane = lanes[index]
            if lane.released:
                continue
            plans[index] = lane.plan()
            if plans[index] is None and rebalance is not None:
                # A finished tenant's cores go back to the pool for the
                # reallocator to hand to pressured neighbours.
                free.extend(lane.release_cores())
        candidates = [
            (plan, index) for index, plan in enumerate(plans) if plan is not None
        ]
        if not candidates:
            break
        (dispatch, size), index = min(
            candidates, key=lambda item: (item[0][0], tie_key(lanes[item[1]]))
        )
        last_dispatch = max(last_dispatch, dispatch)
        lanes[index].serve(dispatch, size, health)
        stale = (index,)
        if rebalance is not None and (len(lanes) > 1 or free):
            rebalance(dispatch)
            stale = range(len(lanes))
    if health is not None:
        health.finish(last_dispatch)


_EPOCH_MIN_REQUESTS = 64
"""Requests the first epoch of a faulted lane, and the first after each
cut, plans; each epoch that runs to its end doubles the next one.  An
elastic cluster's first round of lanes served alone stops each lane at
four times this many batches (:meth:`ClusterSimulator._serve`)."""

_DENSE_CUT = 4
"""An epoch cut before this many batches counts as dense: fault actions
come so often that planning and probing ahead cost more than they save."""

_SCALAR_RUN_MAX = 64
"""Cap on the per-dispatch run :func:`_serve_alone` takes after dense
cuts before it plans an epoch again (the run doubles per dense cut)."""


def _serve_next(lane: _TenantLane, health: PoolHealth | None) -> bool:
    """Plan and serve the lane's next dispatch; ``False`` once the lane
    has served its trace."""
    plan = lane.plan()
    if plan is None:
        return False
    lane.serve(*plan, health)
    return True


def _plan_epoch(lane: _TenantLane, window: int):
    """Plan the lane's next window of batches as if no fault acts.

    An uncapped lane plans the next ``window`` admitted requests; a
    capped one walks the admission of the next ``window`` raw arrivals
    from the lane's state (:func:`_plan_admitted`).  Either keeps only
    the batches the window cannot have truncated: those whose
    ``head + max_batch`` admits lie inside it, dispatched before the
    first arrival past it.

    Returns:
        ``(heads, sizes, disp, mask)``, with ``mask`` the capped walk's
        verdicts over the window (``None`` uncapped) — or ``None`` for
        a lane with an enabled burn-rate controller, or when the capped
        walk hits its pass cap or its plan fails the sealed-visibility
        check.
    """
    if lane._burn is not None:
        # A burn judgment reads completions the plan has yet to seal.
        return None
    m = lane.policy.max_batch
    if lane.cap is None:
        stop = end = min(lane.head + window, lane.n)
        heads, sizes, disp = plan_batches(
            lane.admitted_times[:end],
            lane.policy,
            lane.model,
            lane.head,
            lane.core_free[0],
        )
        mask = None
    else:
        stop = min(lane.ptr + window, lane.n)
        raw = lane.raw[lane.ptr : stop]
        plan = _plan_admitted(
            raw,
            lane.policy,
            lane.model,
            lane.cap,
            lane.backlog(raw[0] if raw.size else math.inf),
        )
        if plan is None:
            return None
        mask, heads, sizes, disp = plan
        heads = heads + lane.head
        end = lane.admitted + int(np.count_nonzero(mask))
        if stop == lane.n and not heads.size:
            # Nothing left to dispatch: the rest of the trace is shed.
            lane.judge(mask, stop)
    if stop < lane.n:
        # A batch may read the queue up to head + max_batch - 1.
        count = int(np.searchsorted(heads, end - m, side="right"))
        if mask is not None:
            horizon = lane.raw[stop]
            count = min(count, int(np.searchsorted(disp, horizon)))
        heads, sizes, disp = heads[:count], sizes[:count], disp[:count]
    return heads, sizes, disp, mask


def _serve_alone(
    lane: _TenantLane, health: PoolHealth | None, batches: int | None = None
) -> None:
    """Serve a lane that shares no state with another lane, in epochs.

    Between two dispatches at which the fault step acts, nothing feeds
    back into the lane's clocks.  So each epoch plans a window of the
    trace as if no fault acts (:func:`_plan_epoch`), books in bulk the
    batches before the fault step's first action
    (:meth:`~repro.core.faults.PoolHealth.cut`; on a pristine pool
    nothing cuts, and the first window is the whole trace), and serves
    the cut batch through :meth:`_TenantLane.serve`.  Windows double while
    epochs run to their end and reset at a cut.  After dense cuts, and
    for a window :func:`_plan_epoch` cannot plan, the lane serves
    dispatches one by one, at least one, so a lane whose trace is fully
    judged still drains its queue.  Bit-identical to
    :func:`_serve_lanes` on the lone lane, which stays the oracle.

    ``batches`` stops the lane once it has dispatched that many (a
    cluster's prefix before its first core move); a lane never
    dispatches more batches than its trace has requests.

    A faulted lane leaves the pool's cores where its own dispatches
    left them: the caller runs
    :meth:`~repro.core.faults.PoolHealth.finish` once every lane that
    shares the pool has been served.
    """
    if batches is None:
        limit = lane.n
        window = lane.n if health is None else _EPOCH_MIN_REQUESTS
    else:
        limit = batches
        window = max(batches - lane.num_batches, _EPOCH_MIN_REQUESTS)
    scalar_run = 0
    while lane.num_batches < limit and not lane.finished:
        epoch = _plan_epoch(lane, window)
        if epoch is None:
            stop = min(lane.ptr + window, lane.n)
            for _ in range(limit - lane.num_batches):
                if not _serve_next(lane, health) or lane.ptr >= stop:
                    break
            window = _EPOCH_MIN_REQUESTS
            continue
        heads, sizes, disp, mask = epoch
        room = limit - lane.num_batches
        if disp.size > room:
            heads, sizes, disp = heads[:room], sizes[:room], disp[:room]
        if not heads.size:
            window *= 2
            continue
        if health is None:
            cut, proxies, sweeps = disp.size, None, None
        else:
            cut, proxies, sweeps = health.cut(
                lane.phys, disp, lane.fail_error_threshold
            )
        if cut:
            if mask is not None:
                decided = int(lane.raw.searchsorted(disp[cut - 1], "right"))
                lane.judge(mask, max(lane.ptr, decided))
            lane.book(heads[:cut], sizes[:cut], disp[:cut], proxies, sweeps)
        if cut == disp.size:
            window *= 2
            continue
        if cut < _DENSE_CUT:
            scalar_run = min(max(2 * scalar_run, 1), _SCALAR_RUN_MAX)
        else:
            scalar_run = 0
        # The cut batch, then any dense-cut run, one dispatch at a time.
        for _ in range(min(1 + scalar_run, limit - lane.num_batches)):
            if not _serve_next(lane, health):
                break
        window = _EPOCH_MIN_REQUESTS


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
    if health is not None:
        health.finish(lane.last_dispatch)
    return lane


def simulate_cluster_serving(
    tenants: Sequence[ClusterTenant],
    arrival_s: Mapping[str, np.ndarray],
    pool_size: int,
    routing: RoutingPolicy | None = None,
    elastic: ElasticReallocation | None = None,
    schedule: FaultSchedule | None = None,
    recalibration: RecalibrationPolicy | AdaptiveRecalibration | None = None,
    config: PCNNAConfig | None = None,
    admission: Mapping[str, BurnRateAdmission | None] | None = None,
) -> ClusterReport:
    """One-call multi-tenant cluster simulation.

    The cluster sibling of :func:`~repro.core.traffic.simulate_serving`
    and :func:`~repro.core.faults.simulate_degraded_serving`: builds the
    :class:`ClusterSimulator` and serves every tenant's trace.
    ``recalibration`` accepts the adaptive EWMA controller alongside the
    static policy, and ``admission`` the burn-rate controllers of
    :mod:`repro.core.adaptive`.

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
