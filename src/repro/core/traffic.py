"""Request-level serving simulation with dynamic batching.

The pipelined minibatch runner (:mod:`repro.core.serving`) answers "how
fast is one pre-formed minibatch".  Serving real traffic is a different
question: requests arrive one at a time over a long horizon, queue while
the accelerator is busy, and care about *their own* enqueue-to-completion
latency, not the batch's.  This module closes that loop with a
discrete-event simulator:

* arrival traces come from :mod:`repro.workloads.traffic` (Poisson,
  bursty MMPP, diurnal ramp — all seeded and reproducible);
* a :class:`BatchingPolicy` decides when the queue head stops waiting
  for batch-mates (``max_batch`` / ``max_wait_s``, the knobs of every
  production inference server);
* service times come from :class:`PipelineServiceModel`, the same
  per-core decomposition the executable runner uses: each dispatched
  batch walks the cores in pipeline order, and a core is busy for its
  slice's weight-programming time plus ``batch * conv`` time.  Weight
  loads are paid *per dispatch* — exactly what
  :func:`~repro.core.serving.run_network_pipelined` does when it
  programs the banks for every minibatch — which is why batching moves
  throughput at all: a batch of 32 pays the multi-hundred-microsecond
  weight load once instead of 32 times.  The weight-stationary
  steady state of :mod:`repro.core.multicore` is the ``max_batch →
  inf`` limit of this model.
* consecutive batches overlap across cores (core 0 accepts the next
  batch while core 1 still drains the previous one), so the simulator
  reproduces both the pipeline-fill latency and the steady-state
  bottleneck rate of the analytical model.

The event loop itself lives in :mod:`repro.core.simkernel` — the
unified kernel whose dispatch arithmetic the fault engine
(:mod:`repro.core.faults`) and the multi-tenant cluster runtime
(:mod:`repro.core.cluster`) share.  :data:`ServingSimulator` is the
kernel's :class:`~repro.core.simkernel.EventLoopKernel` under its
serving name; this module re-exports the kernel's
:class:`BatchingPolicy`, which every serving front door takes.

The simulated clock is decoupled from wall time and every input is
seeded, so a fixed seed yields bit-identical percentile latencies on
every run.  :func:`replay_on_engine` re-executes a simulated schedule's
batches on the *real* batched photonic engine, proving the schedule is
servable: outputs are bit-identical to running every request alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from repro.core.analytical import weight_load_time_s
from repro.core.config import PCNNAConfig
from repro.core.multicore import (
    PipelinePartition,
    balanced_partition,
    validate_num_cores,
)
from repro.core.serving import run_network_pipelined
from repro.core.simkernel import (
    BatchingPolicy,
    BatchRecord,
    BatchTable,
    EventLoopKernel,
)
from repro.nn.network import Network
from repro.nn.shapes import ConvLayerSpec

# Contract marker checked by `python -m repro.lint` (BIT001): this
# module's reports are pinned byte-identical by golden fixtures, so
# every float fold below must state its order contract.
__bit_identity__ = True


@dataclass(frozen=True)
class PipelineServiceModel:
    """Per-core service times of a batch dispatched to the pipeline.

    A dispatched batch of ``B`` requests occupies core ``k`` for
    ``weight_load_s[k] + B * conv_time_s[k]`` and is handed to the next
    core whole, matching :func:`~repro.core.serving.run_network_pipelined`
    stage-by-stage execution.

    Attributes:
        partition: the balanced conv-layer partition the cores implement.
        weight_load_s: per-core weight-programming time, paid once per
            dispatched batch.
        conv_time_s: per-core per-image conv time (the partition's
            core times).
    """

    partition: PipelinePartition
    weight_load_s: tuple[float, ...]
    conv_time_s: tuple[float, ...]

    @classmethod
    def from_specs(
        cls,
        specs: list[ConvLayerSpec],
        num_cores: int,
        config: PCNNAConfig | None = None,
        clamp_cores: bool = False,
    ) -> "PipelineServiceModel":
        """Build the model from conv-layer specs.

        Args:
            specs: the network's conv layers, in order.
            num_cores: pipeline cores; validated against ``len(specs)``.
            config: hardware configuration (defaults to the paper's).
            clamp_cores: clamp an oversized ``num_cores`` to
                ``len(specs)`` instead of raising.

        Raises:
            ValueError: if ``specs`` is empty or ``num_cores`` is
                invalid (and not clamped).
        """
        if not specs:
            raise ValueError("need at least one conv layer to serve")
        cores = validate_num_cores(num_cores, len(specs), clamp=clamp_cores)
        cfg = config if config is not None else PCNNAConfig()
        partition = balanced_partition(specs, cores, cfg)
        weight_loads = tuple(
            # repro: allow[BIT001] builtin sum is a strict left fold and
            # the slice order is the network's fixed layer order
            sum(weight_load_time_s(spec, cfg) for spec in specs[start:end])
            for start, end in partition.slices
        )
        return cls(
            partition=partition,
            weight_load_s=weight_loads,
            conv_time_s=partition.core_times_s,
        )

    @classmethod
    def from_network(
        cls,
        network: Network,
        num_cores: int,
        config: PCNNAConfig | None = None,
        clamp_cores: bool = False,
    ) -> "PipelineServiceModel":
        """Build the model from an executable network's conv layers."""
        return cls.from_specs(
            network.conv_specs(), num_cores, config, clamp_cores
        )

    @property
    def num_cores(self) -> int:
        """Cores in the pipeline."""
        return len(self.conv_time_s)

    def core_busy_s(self, core: int, batch: int) -> float:
        """Time one dispatched batch occupies ``core``."""
        return self.weight_load_s[core] + batch * self.conv_time_s[core]

    def batch_makespan_s(self, batch: int) -> float:
        """Time one batch takes from dispatch to completion (all cores,
        no contention from other batches)."""
        # repro: allow[BIT001] strict left fold over the fixed core order
        return sum(self.core_busy_s(core, batch) for core in range(self.num_cores))

    def capacity_rps(self, batch: int) -> float:
        """Steady-state throughput when every dispatch carries ``batch``
        requests: the bottleneck core limits the dispatch rate."""
        slowest = max(
            self.core_busy_s(core, batch) for core in range(self.num_cores)
        )
        return batch / slowest

    @property
    def stationary_capacity_rps(self) -> float:
        """The weight-stationary limit (``batch -> inf``): one image per
        bottleneck conv interval, :mod:`repro.core.multicore`'s rate."""
        return self.partition.images_per_s


class LatencyPercentiles:
    """The headline percentiles of a report's ``latency_percentile_s``.

    Each report defines ``latency_percentile_s(percentile)`` over its
    own latency stream (and its own empty-stream error); these
    properties read it at the 50th, 95th and 99th percentiles.
    """

    @property
    def p50_s(self) -> float:
        """Median latency."""
        return self.latency_percentile_s(50.0)

    @property
    def p95_s(self) -> float:
        """95th-percentile latency."""
        return self.latency_percentile_s(95.0)

    @property
    def p99_s(self) -> float:
        """99th-percentile latency."""
        return self.latency_percentile_s(99.0)


@dataclass(frozen=True)
class ServingReport(LatencyPercentiles):
    """Everything measured over one simulated serving run.

    Attributes:
        policy: the batching policy that produced the schedule.
        num_cores: pipeline width.
        arrival_s: per-request arrival times (the input trace).
        dispatch_s: per-request batch-dispatch times.
        completion_s: per-request completion times.
        batches: the dispatched batches, in order, as a
            :class:`~repro.core.simkernel.BatchTable` whichever path
            served the run.
        core_busy_s: per-core total busy time.
    """

    policy: BatchingPolicy
    num_cores: int
    arrival_s: np.ndarray
    dispatch_s: np.ndarray
    completion_s: np.ndarray
    batches: BatchTable
    core_busy_s: tuple[float, ...]

    @property
    def num_requests(self) -> int:
        """Requests served."""
        return int(self.arrival_s.size)

    @property
    def latencies_s(self) -> np.ndarray:
        """Per-request enqueue-to-completion latency."""
        return self.completion_s - self.arrival_s

    def latency_percentile_s(self, percentile: float) -> float:
        """A latency percentile (linear interpolation, deterministic).

        Raises:
            ValueError: if the report covers no requests — a percentile
                of an empty trace is undefined, and numpy's nan-and-
                RuntimeWarning path would silently poison downstream
                tables.
        """
        if self.arrival_s.size == 0:
            raise ValueError(
                f"{self.policy.name}: no requests in the trace — latency "
                f"percentiles are undefined on an empty report"
            )
        return float(np.percentile(self.latencies_s, percentile))

    @property
    def makespan_s(self) -> float:
        """First arrival to last completion."""
        return float(self.completion_s.max() - self.arrival_s[0])

    @property
    def throughput_rps(self) -> float:
        """Completed requests per simulated second over the makespan."""
        return self.num_requests / self.makespan_s

    @property
    def mean_batch_size(self) -> float:
        """Average dispatched batch size."""
        return self.num_requests / len(self.batches)

    @property
    def core_utilization(self) -> tuple[float, ...]:
        """Per-core busy fraction of the makespan."""
        span = self.makespan_s
        return tuple(busy / span for busy in self.core_busy_s)

    @cached_property
    def _queue_depth_profile(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted event times and the queue depth after each event.

        Arrivals sort ahead of the dispatch that consumes them at time
        ties (a request arriving exactly at a dispatch instant is
        eligible for that batch).  Cached: every depth metric reads it.
        """
        times = np.concatenate([self.arrival_s, self.batches.dispatch_s])
        deltas = np.concatenate(
            [np.ones(self.num_requests), -self.batches.size.astype(float)]
        )
        order = np.argsort(times, kind="stable")
        return times[order], np.cumsum(deltas[order])

    @property
    def max_queue_depth(self) -> int:
        """Largest number of requests simultaneously waiting."""
        _, depth = self._queue_depth_profile
        return int(depth.max())

    @property
    def mean_queue_depth(self) -> float:
        """Time-weighted mean queue depth over the event horizon."""
        times, depth = self._queue_depth_profile
        spans = np.diff(times)
        total = times[-1] - times[0]
        if total <= 0.0:
            return 0.0
        # repro: allow[BIT001] report statistic computed by this same
        # ndarray fold on every serving path; not part of the per-event
        # float recipe the paths must replay
        return float((depth[:-1] * spans).sum() / total)

    def describe(self) -> str:
        """A one-run summary block."""
        util = ", ".join(f"{u:.0%}" for u in self.core_utilization)
        return "\n".join(
            [
                f"{self.policy.name} over {self.num_cores} cores: "
                f"{self.num_requests} requests in {len(self.batches)} "
                f"batches (mean {self.mean_batch_size:.1f})",
                f"  throughput {self.throughput_rps:,.0f} req/s | "
                f"latency p50 {self.p50_s * 1e6:.1f} us, "
                f"p95 {self.p95_s * 1e6:.1f} us, "
                f"p99 {self.p99_s * 1e6:.1f} us",
                f"  queue depth mean {self.mean_queue_depth:.1f}, "
                f"max {self.max_queue_depth} | core utilization {util}",
            ]
        )


def validate_replay_inputs(
    network: Network, report: ServingReport, inputs: np.ndarray
) -> np.ndarray:
    """Validate per-request inputs against a simulated report.

    Shared by every engine-replay front door (including the degraded
    replay in :mod:`repro.core.faults`).

    Raises:
        ValueError: if ``inputs`` does not cover the report's requests.
    """
    inputs = np.asarray(inputs, dtype=float)
    expected = (report.num_requests, *network.input_shape)
    if inputs.shape != expected:
        raise ValueError(
            f"need one input per simulated request, expected {expected}, "
            f"got {inputs.shape}"
        )
    return inputs


ServingSimulator = EventLoopKernel
"""Discrete-event closed loop: queue -> batcher -> core pipeline.

The serving front door is the kernel itself:
``ServingSimulator(model, policy).run(arrival_s)`` returns a
:class:`ServingReport`, serving the trace as a pristine lone lane on
the vectorized hot path.
"""


def simulate_serving(
    network: Network,
    arrival_s: np.ndarray,
    policy: BatchingPolicy,
    num_cores: int,
    config: PCNNAConfig | None = None,
    clamp_cores: bool = False,
) -> ServingReport:
    """One-call serving simulation for an executable network.

    Builds the :class:`PipelineServiceModel` from the network's conv
    layers and runs the trace through a :class:`ServingSimulator`.

    Raises:
        ValueError: on a conv-free network, invalid ``num_cores``, or
            a bad trace.
    """
    model = PipelineServiceModel.from_network(
        network, num_cores, config, clamp_cores
    )
    return ServingSimulator(model, policy).run(arrival_s)


def replay_on_engine(
    network: Network,
    report: ServingReport,
    inputs: np.ndarray,
    config: PCNNAConfig | None = None,
) -> np.ndarray:
    """Execute a simulated schedule's batches on the real engine.

    Every batch the simulator formed is dispatched as one minibatch to
    :func:`~repro.core.serving.run_network_pipelined` with the report's
    core count, and each request's output is scattered back to its slot
    — the end-to-end proof that the simulated schedule is servable and
    that batching never changes anyone's answer (in ideal mode the
    outputs are bit-identical to running every request alone).

    Args:
        network: the served network.
        report: a simulation result over ``inputs.shape[0]`` requests.
        inputs: per-request inputs, shape ``(num_requests,
            *network.input_shape)``.
        config: hardware configuration for execution.

    Returns:
        Per-request outputs, shape ``(num_requests, *output_shape)``.

    Raises:
        ValueError: if ``inputs`` does not cover the report's requests.
    """
    inputs = validate_replay_inputs(network, report, inputs)
    widths = [report.num_cores] * len(report.batches)
    return replay_batches(network, report.batches, widths, inputs, config)


def replay_batches(
    network: Network,
    batches: Sequence[BatchRecord],
    num_cores: Sequence[int],
    inputs: np.ndarray,
    config: PCNNAConfig | None = None,
) -> np.ndarray:
    """Execute a sequence of simulated batches on the real engine.

    The shared engine-replay core: each batch is dispatched as one
    minibatch to :func:`~repro.core.serving.run_network_pipelined` at
    the pipeline width *that batch* saw, and each request's output is
    scattered back to its slot.  :func:`replay_on_engine` uses a
    constant width; the cluster runtime's per-tenant replay
    (:func:`~repro.core.cluster.replay_tenant_on_engine`) feeds the
    per-batch widths left by elastic core reallocation.

    Args:
        network: the served network.
        batches: the simulated batches, covering ``inputs`` contiguously.
        num_cores: per-batch pipeline width (same length as ``batches``).
        inputs: per-request inputs, shape ``(num_requests,
            *network.input_shape)``.
        config: hardware configuration for execution.

    Returns:
        Per-request outputs, shape ``(num_requests, *output_shape)``.

    Raises:
        ValueError: if ``num_cores`` does not cover every batch — a
            silent zip truncation would leave uninitialized rows in
            the output.
    """
    if len(num_cores) != len(batches):
        raise ValueError(
            f"need one pipeline width per batch, got {len(num_cores)} "
            f"widths for {len(batches)} batches"
        )
    outputs: np.ndarray | None = None
    for batch, width in zip(batches, num_cores):
        stop = batch.first_request + batch.size
        result = run_network_pipelined(
            network,
            inputs[batch.first_request : stop],
            int(width),
            config,
        )
        if outputs is None:
            outputs = np.empty((inputs.shape[0], *result.outputs.shape[1:]))
        outputs[batch.first_request : stop] = result.outputs
    assert outputs is not None  # a report always has >= 1 batch
    return outputs


# The serving surface plus the kernel's BatchingPolicy; API001 checks
# the re-export against simkernel's own __all__.
__all__ = [
    "BatchingPolicy",
    "LatencyPercentiles",
    "PipelineServiceModel",
    "ServingReport",
    "ServingSimulator",
    "replay_batches",
    "replay_on_engine",
    "simulate_serving",
    "validate_replay_inputs",
]
