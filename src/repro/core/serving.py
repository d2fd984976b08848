"""Executable pipelined minibatch serving over multiple PCNNA cores.

:mod:`repro.core.multicore` models the inter-layer pipeline the paper
alludes to *analytically*: contiguous layer slices per core, steady-state
throughput set by the slowest slice.  This module turns that model into
an executable scenario: :func:`run_network_pipelined` splits a real
:class:`~repro.nn.network.Network` across simulated cores with the same
:func:`~repro.core.multicore.balanced_partition`, then streams a whole
minibatch stage by stage through the *functional* photonic engine —
conv layers on the optical core, everything else on the batch-native
electronic side.

Stage assignment: the partition splits the network's conv layers (the
photonic work that defines a core); each electronic layer rides with the
nearest preceding conv's core, and any head layers before the first conv
run on core 0.  Executing the stages sequentially is functionally
identical to a single-core run — pipelining changes *when* each image
reaches a core, never *what* the core computes — so the outputs are
bit-identical to :meth:`~repro.core.accelerator.PCNNA.run_network` while
the per-core service times quantify the steady-state pipeline rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.accelerator import PCNNA
from repro.core.config import PCNNAConfig
from repro.core.multicore import (
    PipelinePartition,
    balanced_partition,
    validate_num_cores,
)
from repro.nn.layers import Conv2D
from repro.nn.network import Network


@dataclass(frozen=True)
class PipelineStage:
    """One core's slice of the network and its analytical service time.

    Attributes:
        core_index: position of the core in the pipeline.
        layer_start: index of the stage's first layer in the network.
        layer_end: one past the stage's last layer index.
        layer_names: names of the layers the core owns, in order.
        service_time_s: analytical per-image service time of the core
            (the sum of its conv layers' DAC-bound times).
    """

    core_index: int
    layer_start: int
    layer_end: int
    layer_names: tuple[str, ...]
    service_time_s: float


@dataclass(frozen=True)
class PipelinedRunResult:
    """Outputs and throughput report of one pipelined minibatch run.

    Attributes:
        outputs: the network outputs for the minibatch (bit-identical to
            a single-core :meth:`~repro.core.accelerator.PCNNA.run_network`).
        stages: the per-core stages, in pipeline order.
        partition: the underlying analytical layer partition.
        batch_size: number of images in the minibatch.
    """

    outputs: np.ndarray
    stages: tuple[PipelineStage, ...]
    partition: PipelinePartition
    batch_size: int

    @property
    def num_cores(self) -> int:
        """Cores in the pipeline."""
        return len(self.stages)

    @property
    def bottleneck_s(self) -> float:
        """The slowest core's analytical service time (the pipeline
        initiation interval)."""
        return self.partition.bottleneck_s

    @property
    def images_per_s(self) -> float:
        """Analytical steady-state throughput: one image completes per
        bottleneck interval once the pipeline is full."""
        return self.partition.images_per_s

    @property
    def single_image_latency_s(self) -> float:
        """Analytical latency of one image traversing every core."""
        return self.partition.single_image_latency_s

    def describe(self) -> str:
        """A human-readable per-core summary table."""
        lines = [
            f"pipeline over {self.num_cores} cores, batch={self.batch_size}: "
            f"{self.images_per_s:,.0f} img/s steady-state "
            f"(bottleneck {self.bottleneck_s:.3g} s)"
        ]
        for stage in self.stages:
            lines.append(
                f"  core {stage.core_index}: "
                f"{'+'.join(stage.layer_names)} | "
                f"service {stage.service_time_s:.3g} s/img"
            )
        return "\n".join(lines)


def stage_layer_slices(
    network: Network,
    num_cores: int,
    config: PCNNAConfig | None = None,
    clamp_cores: bool = False,
) -> tuple[PipelinePartition, tuple[tuple[int, int], ...]]:
    """Partition a network's layers into contiguous per-core slices.

    The conv layers are split with
    :func:`~repro.core.multicore.balanced_partition` (minimizing the
    bottleneck core's DAC-bound time); every non-conv layer is assigned
    to the core of the nearest preceding conv layer.

    Args:
        network: the network to split.
        num_cores: pipeline width; validated up front against the
            number of conv layers.
        config: hardware configuration for the partitioning weights.
        clamp_cores: shrink an oversized ``num_cores`` to the conv-layer
            count instead of raising.

    Returns:
        The analytical partition over the conv layers, and per-core
        ``(start, end)`` index ranges into ``network.layers``.

    Raises:
        ValueError: if the network has no conv layers, or ``num_cores``
            is not an integer in ``[1, number of conv layers]`` (with
            ``clamp_cores`` off).
    """
    specs = network.conv_specs()
    if not specs:
        raise ValueError(
            f"{network.name}: no conv layers to pipeline over cores"
        )
    num_cores = validate_num_cores(num_cores, len(specs), clamp=clamp_cores)
    partition = balanced_partition(specs, num_cores, config)
    conv_indices = [
        index
        for index, layer in enumerate(network.layers)
        if isinstance(layer, Conv2D)
    ]
    starts = [0] + [
        conv_indices[conv_start] for conv_start, _ in partition.slices[1:]
    ]
    ends = starts[1:] + [len(network.layers)]
    return partition, tuple(zip(starts, ends))


def run_network_pipelined(
    network: Network,
    inputs: np.ndarray,
    num_cores: int,
    config: PCNNAConfig | None = None,
    accelerator: PCNNA | None = None,
    clamp_cores: bool = False,
) -> PipelinedRunResult:
    """Run a minibatch through a network pipelined over PCNNA cores.

    Each core owns a contiguous slice of layers (see
    :func:`stage_layer_slices`) and pushes the whole minibatch through
    its slice — conv layers on the functional photonic engine, the rest
    on the batch-native electronic path — before handing the batch to
    the next core, exactly as a weight-stationary pipelined deployment
    would stream it.

    Args:
        network: the CNN to execute.
        inputs: a ``(B, *network.input_shape)`` minibatch, or one input
            of ``network.input_shape``.
        num_cores: cores in the pipeline, between 1 and the number of
            conv layers (validated up front).
        config: hardware configuration for both execution and the
            analytical partitioning (defaults to the paper's).
        accelerator: optional pre-built :class:`PCNNA` to execute on;
            overrides ``config`` for execution.
        clamp_cores: shrink an oversized ``num_cores`` to the conv-layer
            count instead of raising.

    Returns:
        A :class:`PipelinedRunResult` with the outputs (bit-identical to
        the single-core run in ideal mode) and the per-core throughput
        report.

    Raises:
        ValueError: on shape mismatches, an empty minibatch, or invalid
            core counts.
    """
    engine = accelerator if accelerator is not None else PCNNA(config)
    if config is None:
        # Partition and report with the hardware that actually executes.
        config = engine.config
    partition, slices = stage_layer_slices(
        network, num_cores, config, clamp_cores=clamp_cores
    )

    inputs = np.asarray(inputs, dtype=float)
    batched = inputs.ndim == len(network.input_shape) + 1
    if batched and inputs.shape[0] == 0:
        raise ValueError(
            f"{network.name}: minibatch must contain at least one image, "
            f"got shape {inputs.shape}"
        )
    batch_size = inputs.shape[0] if batched else 1

    current = inputs
    stages = []
    for core_index, (start, end) in enumerate(slices):
        stage_net = Network(
            network.layers[start:end],
            input_shape=network.layer_shapes[start],
            name=f"{network.name}/core{core_index}",
        )
        current = engine.run_network(stage_net, current)
        stages.append(
            PipelineStage(
                core_index=core_index,
                layer_start=start,
                layer_end=end,
                layer_names=tuple(
                    layer.name for layer in network.layers[start:end]
                ),
                service_time_s=partition.core_times_s[core_index],
            )
        )
    return PipelinedRunResult(
        outputs=current,
        stages=tuple(stages),
        partition=partition,
        batch_size=batch_size,
    )
