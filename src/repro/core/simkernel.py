"""The unified discrete-event serving kernel.

PR 3 built a request-level serving simulator (:mod:`repro.core.traffic`)
and PR 4 forked its event loop to add hardware degradation
(:mod:`repro.core.faults`).  Every further serving scenario — and the
multi-tenant cluster runtime in :mod:`repro.core.cluster` — would have
been a third copy of the same loop, so this module extracts the loop
once:

* :func:`plan_dispatch` — the scheduler's entire batching decision
  (when does the queue head's batch seal, and how big is it);
* :func:`plan_batches` / :func:`pipeline_completions` — the same
  decisions and the pipeline walk for a whole stretch of batches, as
  array ops that replay the per-batch float arithmetic bit for bit;
* :class:`EventLoopKernel` — the fault-free queue → batcher → pipeline
  run, served as one pristine lane of :mod:`repro.core.cluster`.

:class:`~repro.core.traffic.ServingSimulator` is the kernel itself.
Every pipeline is a lane of :mod:`repro.core.cluster`, served by the
array ops here when nothing feeds back mid-run and otherwise by the one
per-event loop, the cluster lane loop (each lane plans with
:func:`plan_dispatch` and walks its own pipeline), which hosts
fault-and-drift bookkeeping, recalibration downtime, fault-aware
repartitioning, admission control and elastic reallocation.  The
simulated clock is decoupled from wall time and every input is seeded,
so a fixed seed yields bit-identical results on every run.

:class:`BatchingPolicy`, :class:`BatchTable`, and
:func:`validate_arrival_trace` live here because every front door shares
them.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

# Contract markers checked by `python -m repro.lint` (BIT001/PERF001):
# this module's floats are pinned bit-identical across paths, and the
# listed classes are constructed per batch or per report.
__bit_identity__ = True
__hot_path__ = ("BatchRecord", "BatchTable")

def validate_count(value, what: str) -> None:
    """Reject a request/batch count that is not an integer >= 1.

    Batch sizes, occupancy caps, and queue thresholds index arrays and
    size batches, so a float (even an integral one like ``3.0``) or a
    bool would pass a bare ``>= 1`` check and then fail deep in the
    kernel — differently on each path.  Checking at construction keeps
    the failure at the front door.

    Raises:
        ValueError: if ``value`` is a bool, not an ``int``/``np.integer``,
            or < 1.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{what} must be >= 1, got {value!r}")


@dataclass(frozen=True)
class BatchingPolicy:
    """When does the queue head stop waiting for batch-mates?

    The scheduler forms a batch at the moment the pipeline's first core
    is free, taking every queued request up to ``max_batch``; if fewer
    are queued, the head is allowed to wait up to ``max_wait_s`` after
    its arrival for more to show up.  ``max_wait_s = 0`` dispatches
    whatever is queued immediately (latency-greedy); ``max_wait_s =
    inf`` holds out for a full batch (throughput-greedy, the fixed-size
    policy; the end of the trace flushes a final partial batch).

    Attributes:
        name: label used in reports and sweep tables.
        max_batch: largest batch the scheduler may form.
        max_wait_s: longest the queue head may wait for batch-mates
            after its arrival.
    """

    name: str
    max_batch: int
    max_wait_s: float

    def __post_init__(self) -> None:
        validate_count(self.max_batch, f"{self.name}: max batch")
        if self.max_wait_s < 0.0 or math.isnan(self.max_wait_s):
            raise ValueError(
                f"{self.name}: max wait must be >= 0, got {self.max_wait_s!r}"
            )

    @classmethod
    def fifo(cls) -> "BatchingPolicy":
        """Batch-free baseline: every request is dispatched alone."""
        return cls(name="fifo-1", max_batch=1, max_wait_s=0.0)

    @classmethod
    def dynamic(cls, max_batch: int, max_wait_s: float) -> "BatchingPolicy":
        """Production dynamic batching: size cap plus wait-time cap."""
        return cls(
            name=f"dynamic-{max_batch}@{max_wait_s:.3g}s",
            max_batch=max_batch,
            max_wait_s=max_wait_s,
        )

    @classmethod
    def fixed(cls, batch: int) -> "BatchingPolicy":
        """Hold out for a full ``batch`` no matter how long it takes."""
        return cls(name=f"fixed-{batch}", max_batch=batch, max_wait_s=math.inf)

    def capped(self, cap: int) -> "BatchingPolicy":
        """The same policy with ``max_batch`` clamped to ``cap``.

        Used by admission control: a queue that can never hold more
        than ``cap`` requests can never fill a larger batch, so the
        dispatch planner must not wait for one.  Returns ``self``
        unchanged when the cap is not binding (preserving bit-identical
        planning for uncapped tenants).

        Raises:
            ValueError: if ``cap`` is not an integer >= 1.
        """
        validate_count(cap, "batch cap")
        if cap >= self.max_batch:
            return self
        return BatchingPolicy(
            name=self.name, max_batch=cap, max_wait_s=self.max_wait_s
        )


@dataclass(frozen=True, slots=True)
class BatchRecord:
    """One dispatched batch of the simulated schedule.

    Attributes:
        index: dispatch order.
        first_request: index of the batch's first request (requests are
            batched in arrival order, so the batch covers
            ``[first_request, first_request + size)``).
        size: number of requests in the batch.
        dispatch_s: when the scheduler released the batch to core 0.
        completion_s: when the last core finished the batch.
    """

    index: int
    first_request: int
    size: int
    dispatch_s: float
    completion_s: float


class BatchTable(Sequence):
    """A sequence of :class:`BatchRecord` backed by four parallel arrays.

    Every report's ``batches``.  The vectorized kernel plans millions of
    batches as whole arrays and a lane records each batch as one entry
    per numpy column; materializing a frozen dataclass per batch would
    cost more than the simulation itself.  This table holds the columns
    (views of a lane's, not copies) and synthesizes records only when a
    caller reads them, so
    ``report.batches[i]``, iteration, ``len``, and equality against a
    tuple of :class:`BatchRecord` all behave like a tuple of records.
    Synthesized records carry ``np.float64`` times, as read from the
    columns.

    Attributes:
        first_request: per-batch index of the first request.
        size: per-batch request count.
        dispatch_s: per-batch dispatch time.
        completion_s: per-batch completion time.
    """

    __slots__ = (
        "first_request",
        "size",
        "dispatch_s",
        "completion_s",
        "_records",
    )

    def __init__(
        self,
        first_request: np.ndarray,
        size: np.ndarray,
        dispatch_s: np.ndarray,
        completion_s: np.ndarray,
    ) -> None:
        self.first_request = np.asarray(first_request, dtype=np.int64)
        self.size = np.asarray(size, dtype=np.int64)
        self.dispatch_s = np.asarray(dispatch_s, dtype=float)
        self.completion_s = np.asarray(completion_s, dtype=float)
        self._records: tuple[BatchRecord, ...] | None = None

    def _make(self, i: int) -> BatchRecord:
        return BatchRecord(
            index=i,
            first_request=int(self.first_request[i]),
            size=int(self.size[i]),
            dispatch_s=self.dispatch_s[i],
            completion_s=self.completion_s[i],
        )

    def __len__(self) -> int:
        return int(self.first_request.size)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(
                self._make(j) for j in range(*i.indices(len(self)))
            )
        n = len(self)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(f"batch index {i!r} out of range for {n}")
        return self._make(i)

    def __iter__(self):
        for i in range(len(self)):
            yield self._make(i)

    @property
    def records(self) -> tuple[BatchRecord, ...]:
        """The table as a plain tuple of records (cached)."""
        if self._records is None:
            self._records = tuple(self)
        return self._records

    def __eq__(self, other) -> bool:
        if isinstance(other, BatchTable):
            return (
                np.array_equal(self.first_request, other.first_request)
                and np.array_equal(self.size, other.size)
                and np.array_equal(self.dispatch_s, other.dispatch_s)
                and np.array_equal(self.completion_s, other.completion_s)
            )
        if isinstance(other, Sequence):
            return self.records == tuple(other)
        return NotImplemented

    __hash__ = None  # mutable arrays inside

    def __repr__(self) -> str:
        return f"BatchTable(num_batches={len(self)})"


def validate_arrival_trace(arrival_s: np.ndarray) -> np.ndarray:
    """Validate and normalize a request arrival trace.

    Shared by every simulator front door (traffic, faults, cluster), so
    a bad trace fails with the same message everywhere.  Zero-length
    traces are rejected up front with their own message: a serving run
    over no requests has no latencies, no batches, and no percentiles,
    so every downstream metric would be undefined.  A NaN or infinite
    arrival is rejected too: NaN slips past the sort check (every
    comparison with it is false) and an infinite one yields infinite
    completions.

    Raises:
        ValueError: on an empty, non-1-D, non-finite, or unsorted trace.
    """
    arrivals = np.asarray(arrival_s, dtype=float)
    if arrivals.size == 0:
        raise ValueError(
            "arrival trace is empty — need at least one request to serve"
        )
    if arrivals.ndim != 1:
        raise ValueError(
            f"need a non-empty 1-D arrival trace, got shape "
            f"{arrivals.shape}"
        )
    if not np.isfinite(arrivals).all():
        raise ValueError("arrival times must be finite")
    if np.any(np.diff(arrivals) < 0.0):
        raise ValueError("arrival times must be sorted ascending")
    return arrivals


def plan_dispatch(
    arrivals: np.ndarray,
    head: int,
    policy: BatchingPolicy,
    core0_free_s: float,
) -> tuple[float, int]:
    """When does the queue head's batch dispatch, and how big is it?

    The batch is sealed at the latest of: the head's arrival, core 0
    freeing up, and the policy trigger (batch full or head's wait budget
    exhausted).  This single function is the scheduler's entire batching
    decision; every simulator built on the kernel shares it verbatim,
    which is what makes a zero-magnitude fault run — and a single-tenant
    cluster run — *bit-identical* to the plain simulator: all of them
    plan every dispatch with the exact same float arithmetic.

    Tie order is part of the contract: requests sharing an exact arrival
    timestamp are batched in **trace index order** (the order they
    appear in ``arrivals``).  ``searchsorted(..., side="right")`` counts
    every tied arrival as queued, so a batch never splits a tie group
    unless ``max_batch`` forces it — and then it takes the lowest trace
    indices first.  The vectorized planner relies on the trace being
    pre-sorted (it never re-sorts), so both paths see the identical
    stable order; ``tests/test_vectorized_kernel.py`` pins this.

    Returns:
        ``(dispatch_s, size)`` for the batch starting at ``head``.
    """
    earliest = max(arrivals[head], core0_free_s)
    full_index = head + policy.max_batch - 1
    fills_at = (
        arrivals[full_index] if full_index < arrivals.size else math.inf
    )
    deadline = arrivals[head] + policy.max_wait_s
    dispatch = max(earliest, min(deadline, fills_at))
    if math.isinf(dispatch):
        # Fixed-size tail: the batch can never fill and the head may
        # wait forever, so flush everything left as one final partial
        # batch once the last request has arrived.
        dispatch = max(core0_free_s, arrivals[-1])
    queued = int(np.searchsorted(arrivals, dispatch, side="right") - head)
    size = max(1, min(policy.max_batch, queued))
    return dispatch, size


# -- vectorized planning & execution --------------------------------------
#
# The vectorized path replays the lane loop's float arithmetic as
# array ops.  The one non-trivial piece is the max-plus recurrences
# (pipeline hand-off and core-0 back-pressure): float addition is not
# associative, so a closed-form `cumsum` would drift from the scalar
# fold by ulps.  Each scan therefore (1) *speculates* the recurrence's
# reset points from an approximate closed form, (2) folds each segment
# with `np.cumsum` — which numpy evaluates as the exact left-to-right
# fold the scalar loop performs — and (3) verifies the result
# elementwise against the recurrence, repairing any mis-speculated
# stretch with the scalar fold itself.  The verify step makes the output
# exact regardless of speculation quality: a value sequence that
# satisfies the recurrence at every index is, by induction, *the* fold.

# Congested full-batch probe bounds for the dynamic planner: probes
# start narrow and double while the saturated chain holds.
_STREAK_MIN = 16
_STREAK_MAX = 8192


def _segmented_fold(y: np.ndarray, d: np.ndarray, starts: np.ndarray) -> None:
    """Fold ``y[k] = y[k-1] + d[k]`` within each segment, in place.

    ``y[starts]`` already holds each segment's reset value.  Length-1
    and length-2 segments are handled as array ops; longer segments use
    a per-segment ``np.cumsum`` (an exact left fold).
    """
    n = y.size
    bounds = np.append(starts, n)
    lens = np.diff(bounds)
    two = starts[lens == 2]
    if two.size:
        y[two + 1] = y[two] + d[two + 1]
    for s, length in zip(starts[lens > 2].tolist(), lens[lens > 2].tolist()):
        seg = np.empty(length)
        seg[0] = y[s]
        seg[1:] = d[s + 1 : s + length]
        y[s : s + length] = np.cumsum(seg)


def _maxplus_scan(e: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Exact fold of ``y[k] = max(e[k], y[k-1]) + d[k]``, ``y[0] = e[0]+d[0]``.

    This is the pipeline hand-off recurrence: a batch starts on stage
    ``s`` at the later of its arrival from stage ``s-1`` (``e``) and the
    stage freeing up (``y[k-1]``), then holds it for ``d[k]``.  The
    result is bit-identical to the scalar loop.
    """
    n = e.size
    y = np.empty(n)
    if n == 0:
        return y
    # Speculate reset points (where e[k] >= y[k-1]) from the approximate
    # closed form y[k] ~ P[k] + max_j (e[j] - P[j-1]) with P = cumsum(d).
    anchor = e - np.cumsum(d) + d
    resets = anchor >= np.maximum.accumulate(anchor)
    resets[0] = True
    starts = np.flatnonzero(resets)
    y[starts] = e[starts] + d[starts]
    _segmented_fold(y, d, starts)
    # Verify elementwise; repair mis-speculated stretches scalar.
    prev = np.empty(n)
    prev[0] = -math.inf
    prev[1:] = y[:-1]
    bad = np.flatnonzero(y != np.maximum(e, prev) + d)
    while bad.size:
        k = int(bad[0])
        while k < n:
            cur = (
                e[0] + d[0]
                if k == 0
                else max(float(e[k]), float(y[k - 1])) + float(d[k])
            )
            if cur == y[k]:
                break  # downstream already consistent with this value
            y[k] = cur
            k += 1
        bad = bad[bad > k]
    return y


def _maxplus_scan_const(e: np.ndarray, d: float, y0: float) -> np.ndarray:
    """Exact fold of ``y[k] = max(e[k], y[k-1] + d)`` with ``y[0] = y0``.

    This is the core-0 back-pressure recurrence of the fifo and
    fixed-size planners: dispatch at the later of the policy trigger
    (``e``) and core 0 freeing up ``d`` after the previous dispatch.
    ``y0`` is the caller-computed first dispatch (its reference
    arithmetic differs — it compares against the initial free time 0.0,
    not against a previous dispatch).
    """
    n = e.size
    y = np.empty(n)
    if n == 0:
        return y
    anchor = e - np.cumsum(np.full(n, d)) + d
    resets = anchor >= np.maximum.accumulate(anchor)
    resets[0] = True
    starts = np.flatnonzero(resets)
    y[starts] = e[starts]
    y[0] = y0
    _segmented_fold(y, np.full(n, d), starts)
    bad = np.flatnonzero(y[1:] != np.maximum(e[1:], y[:-1] + d)) + 1
    if y[0] != y0:
        bad = np.append(0, bad)
    while bad.size:
        k = int(bad[0])
        while k < n:
            cur = y0 if k == 0 else max(float(e[k]), float(y[k - 1]) + d)
            if cur == y[k]:
                break
            y[k] = cur
            k += 1
        bad = bad[bad > k]
    return y


def _plan_batches_fifo(
    arrivals: np.ndarray, busy0: np.ndarray, free0: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batch boundaries for any ``max_batch == 1`` policy.

    Every request dispatches alone at ``max(arrival, core-0 free)``.
    """
    n = arrivals.size
    heads = np.arange(n, dtype=np.int64)
    sizes = np.ones(n, dtype=np.int64)
    b1 = float(busy0[1])
    y0 = max(float(arrivals[0]), free0)
    disp = _maxplus_scan_const(arrivals, b1, y0)
    return heads, sizes, disp


def _plan_batches_fixed(
    arrivals: np.ndarray, max_batch: int, busy0: np.ndarray, free0: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batch boundaries for ``max_wait_s == inf`` (fixed-size) policies.

    Every batch is exactly ``max_batch`` wide — it dispatches at the
    later of its fill time and core 0 freeing up, so all of its
    requests have always arrived — except a final partial flush batch.
    """
    n = arrivals.size
    m = max_batch
    num_full = n // m
    tail = n - num_full * m
    num_batches = num_full + (1 if tail else 0)
    heads = np.arange(num_batches, dtype=np.int64) * m
    sizes = np.full(num_batches, m, dtype=np.int64)
    disp = np.empty(num_batches)
    bm = float(busy0[m])
    if num_full:
        fills = arrivals[m - 1 : num_full * m : m]
        y0 = max(max(float(arrivals[0]), free0), float(fills[0]))
        disp[:num_full] = _maxplus_scan_const(fills, bm, y0)
    if tail:
        sizes[-1] = tail
        free = disp[num_full - 1] + bm if num_full else free0
        disp[-1] = max(float(free), float(arrivals[-1]))
    return heads, sizes, disp


def _plan_batches_dynamic(
    arrivals: np.ndarray,
    policy: BatchingPolicy,
    busy0: np.ndarray,
    free0: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batch boundaries for finite-wait, ``max_batch >= 2`` policies.

    Dynamic batching has genuine feedback — congestion grows batch
    sizes, which changes core-0 free times, which changes congestion —
    so there is no closed form.  Instead: precompute each head's policy
    trigger time and uncongested batch size as arrays, then walk the
    trace with two accelerated regimes.  While core 0 keeps up
    (``free <= trigger``), every step is a precomputed table lookup.
    While core 0 is the bottleneck *and* batches are full, dispatches
    are a pure ``free += busy`` chain — folded in vectorized streaks of
    up to ``_STREAK_MAX`` batches via ``cumsum`` (the exact left fold).
    """
    n = arrivals.size
    m = policy.max_batch
    # trigger[h]: when head h's batch seals absent back-pressure —
    # min(deadline, fill time), never below the head's own arrival.
    fills = np.full(n, math.inf)
    fillable = max(0, n - (m - 1))
    fills[:fillable] = arrivals[m - 1 :]
    trigger = np.minimum(arrivals + policy.max_wait_s, fills)
    arrived = np.searchsorted(arrivals, trigger, side="right")
    idx = np.arange(n, dtype=np.int64)
    size_u = np.clip(arrived - idx, 1, m)
    free_u = trigger + busy0[size_u]
    next_u = idx + size_u
    bm = float(busy0[m])

    heads = np.empty(n, dtype=np.int64)
    sizes = np.empty(n, dtype=np.int64)
    disp = np.empty(n)
    nb = 0
    h = 0
    free = free0
    # Streak probes are speculative: start narrow and double while the
    # chain stays saturated, so a workload that alternates congested
    # and uncongested batches never pays for a wide failed probe.
    probe = _STREAK_MIN
    while h < n:
        trig = float(trigger[h])
        if free <= trig:
            # Uncongested: dispatch at the policy trigger.
            heads[nb] = h
            sizes[nb] = size_u[h]
            disp[nb] = trig
            free = float(free_u[h])
            h = int(next_u[h])
            nb += 1
            continue
        # Congested: core 0 is late, so dispatch the moment it frees.
        queued = int(arrivals.searchsorted(free, side="right")) - h
        size = m if queued >= m else queued
        heads[nb] = h
        sizes[nb] = size
        disp[nb] = free
        free = free + float(busy0[size])
        h += size
        nb += 1
        if size < m:
            continue
        # Saturated: chase the congested full-batch chain in streaks.
        while True:
            span = min(probe, (n - h) // m)
            if span <= 0:
                break
            fv = np.cumsum(np.concatenate(([free], np.full(span - 1, bm))))
            hv = h + m * np.arange(span, dtype=np.int64)
            counts = np.searchsorted(arrivals, fv, side="right")
            valid = (fv >= trigger[hv]) & (counts - hv >= m)
            take = span if valid.all() else int(valid.argmin())
            if take < span:
                probe = _STREAK_MIN
            elif probe < _STREAK_MAX:
                probe *= 2
            if take == 0:
                break
            heads[nb : nb + take] = hv[:take]
            sizes[nb : nb + take] = m
            disp[nb : nb + take] = fv[:take]
            nb += take
            h += take * m
            # fv is the exact fold, so continuing from it keeps the
            # free-time chain bit-identical to `free += bm` steps.
            free = float(fv[take]) if take < span else float(fv[-1]) + bm
            if take < span:
                break
    return heads[:nb], sizes[:nb], disp[:nb]


def plan_batches(
    arrivals: np.ndarray,
    policy: BatchingPolicy,
    model,
    head: int = 0,
    core0_free_s: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Plan every batch of a fault-free run as arrays.

    Routes on the policy's *attributes*, not its name: ``max_batch == 1``
    is the fifo recipe whatever the wait budget (a solo head never waits
    for batch-mates), an infinite wait budget is the fixed-size recipe,
    and everything else is dynamic batching.  Returns per-batch
    ``(first_request, size, dispatch_s)`` arrays, bit-identical to the
    reference loop's :func:`plan_dispatch` sequence.

    ``head`` and ``core0_free_s`` resume a run part-way: planning starts
    at request ``head`` with core 0 free at ``core0_free_s`` (a
    pipeline's state after its last booked batch), and ``first_request``
    stays an index into ``arrivals``.  The plan reads ``arrivals`` only
    up to its end, so a caller planning a prefix of a longer trace gets
    exact batches wherever ``first_request + max_batch`` fits in it.
    """
    m = policy.max_batch
    busy0 = model.weight_load_s[0] + np.arange(m + 1) * model.conv_time_s[0]
    free0 = float(core0_free_s)
    if head:
        arrivals = arrivals[head:]
    if m == 1:
        plan = _plan_batches_fifo(arrivals, busy0, free0)
    elif math.isinf(policy.max_wait_s):
        plan = _plan_batches_fixed(arrivals, m, busy0, free0)
    else:
        plan = _plan_batches_dynamic(arrivals, policy, busy0, free0)
    if head:
        heads, sizes, disp = plan
        return heads + head, sizes, disp
    return plan


def pipeline_completions(
    sizes: np.ndarray,
    disp: np.ndarray,
    model,
    core_free: list,
    core_busy: Sequence[float],
) -> tuple[np.ndarray, tuple[float, ...]]:
    """Walk a planned batch stream through every pipeline stage.

    The execution half of the vectorized kernel, usable on its own by
    any caller that already has per-batch ``(size, dispatch)`` arrays
    from :func:`plan_batches` — a lane's bulk booking runs it.  Stage 0
    starts every batch at its dispatch time (the planner guarantees
    dispatch >= core-0 free), so its completions are a single
    elementwise add; each later stage is one exact max-plus scan over
    the batch stream.  Bit-identical to booking the batches on a lane
    of the lane loop one at a time.

    ``core_free`` and ``core_busy`` are the per-stage free times and
    busy totals before the stream (zeros for a fresh pipeline): each
    stage starts from its free time, ``core_free`` is updated in place,
    and the returned ledger continues ``core_busy``.

    Returns:
        Per-batch final-stage completion times and the per-stage total
        busy time (the kernel's core busy ledger).
    """
    ledger = []
    completion = disp
    for stage in range(model.num_cores):
        busy = (
            model.weight_load_s[stage]
            + sizes * model.conv_time_s[stage]
        )
        if stage == 0:
            completion = disp + busy
        else:
            if core_free[stage] > completion[0]:
                # The stage is still busy with earlier batches: the
                # first one starts when it frees, max(arrival, free).
                completion = completion.copy()
                completion[0] = core_free[stage]
            completion = _maxplus_scan(completion, busy)
        # The scalar ledger's left fold, continued from its total.
        folded = np.cumsum(np.concatenate(([core_busy[stage]], busy)))
        ledger.append(float(folded[-1]))
        core_free[stage] = completion[-1]
    return completion, tuple(ledger)


class EventLoopKernel:
    """The seeded discrete-event loop: queue → batcher → core pipeline.

    Also importable as :class:`~repro.core.traffic.ServingSimulator`,
    the serving front door.  The trace is served as a pristine lone
    lane (:func:`~repro.core.cluster.serve_pipeline`).

    Args:
        model: the per-core service-time model
            (:class:`~repro.core.traffic.PipelineServiceModel`).
        policy: the batching policy.
    """

    def __init__(self, model, policy: BatchingPolicy) -> None:
        self.model = model
        self.policy = policy

    def run(self, arrival_s: np.ndarray):
        """Serve a trace of arrival times to completion.

        Returns:
            The :class:`~repro.core.traffic.ServingReport` with
            per-request records.

        Raises:
            ValueError: on an empty, non-finite or unsorted trace.
        """
        # The report type and the lane live in modules built on this
        # one, so they load here.
        from repro.core.cluster import serve_pipeline
        from repro.core.traffic import ServingReport

        lane = serve_pipeline(
            self.model,
            self.policy,
            validate_arrival_trace(arrival_s),
            None,
        )
        return ServingReport(**lane.serving_fields())


__all__ = [
    "BatchingPolicy",
    "BatchRecord",
    "BatchTable",
    "EventLoopKernel",
    "pipeline_completions",
    "plan_batches",
    "plan_dispatch",
    "validate_arrival_trace",
    "validate_count",
]
