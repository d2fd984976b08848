"""Batching and throughput models (extension beyond the paper).

The paper evaluates single-image latency and notes that kernel weights
"do not change" over a layer — which means the once-per-layer weight
load (hundreds of microseconds, far larger than the per-image conv time)
amortizes over a batch.  This module quantifies that:

* :func:`layer_batch_time_s` — weight load once + per-image conv time;
* :func:`network_batch_timing` — batch timing from the paper's
  closed-form layer times, with layer-sequential execution (the paper's
  virtual-layer reuse);
* :func:`network_batch_timing_simulated` — the same composition built
  on the cycle-level simulator of :mod:`repro.core.timing` instead of
  the closed form, matching the batched functional engine's execution
  model (weights programmed once per layer, the whole batch streamed
  through);
* :func:`weight_stationary_crossover` — the batch size at which weight
  loading stops dominating.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.analytical import full_system_time_s, weight_load_time_s
from repro.core.config import PCNNAConfig
from repro.core.simkernel import validate_count
from repro.core.timing import simulate_layer
from repro.nn.shapes import ConvLayerSpec


@dataclass(frozen=True)
class BatchTiming:
    """Batched execution summary for one network.

    Attributes:
        batch_size: images per batch.
        total_time_s: end-to-end batch time (weight loads + convs).
        weight_load_s: total once-per-layer weight-load time.
        conv_time_s: total convolution time across the batch.
        per_image_s: amortized latency per image.
        images_per_s: throughput.
    """

    batch_size: int
    total_time_s: float
    weight_load_s: float
    conv_time_s: float

    @property
    def per_image_s(self) -> float:
        """Amortized per-image latency (s)."""
        return self.total_time_s / self.batch_size

    @property
    def images_per_s(self) -> float:
        """Sustained throughput (images/s)."""
        return self.batch_size / self.total_time_s

    @property
    def weight_load_fraction(self) -> float:
        """Fraction of the batch time spent loading weights."""
        return self.weight_load_s / self.total_time_s


def layer_batch_time_s(
    spec: ConvLayerSpec,
    batch_size: int,
    config: PCNNAConfig | None = None,
) -> float:
    """Time to run one layer over a batch: one weight load + B convs.

    Raises:
        ValueError: if ``batch_size`` is not an integer >= 1.
    """
    validate_count(batch_size, "batch size")
    cfg = config if config is not None else PCNNAConfig()
    return weight_load_time_s(spec, cfg) + batch_size * full_system_time_s(
        spec, cfg
    )


def network_batch_timing(
    specs: list[ConvLayerSpec],
    batch_size: int,
    config: PCNNAConfig | None = None,
) -> BatchTiming:
    """Batched timing for a layer-sequential network execution.

    PCNNA reuses one physical layer (paper section IV), so layers run
    sequentially: load conv-i weights, stream the whole batch through
    conv-i, move on.  Intermediate feature maps stage in DRAM between
    layers exactly as in the single-image flow.

    Raises:
        ValueError: if ``batch_size`` is not an integer >= 1.
    """
    validate_count(batch_size, "batch size")
    cfg = config if config is not None else PCNNAConfig()
    weight_load = sum(weight_load_time_s(spec, cfg) for spec in specs)
    conv = batch_size * sum(full_system_time_s(spec, cfg) for spec in specs)
    return BatchTiming(
        batch_size=batch_size,
        total_time_s=weight_load + conv,
        weight_load_s=weight_load,
        conv_time_s=conv,
    )


def network_batch_timing_simulated(
    specs: list[ConvLayerSpec],
    batch_size: int,
    config: PCNNAConfig | None = None,
    include_adc: bool = True,
) -> BatchTiming:
    """Batched network timing from the cycle-level simulator.

    Identical layer-sequential weight-stationary composition as
    :func:`network_batch_timing`, but each layer's conv and weight-load
    times come from :func:`repro.core.timing.simulate_layer` (which
    models DRAM refills, DAC/ADC serialization, and pipeline fill the
    closed form ignores).

    Raises:
        ValueError: if ``batch_size`` is not an integer >= 1.
    """
    validate_count(batch_size, "batch size")
    cfg = config if config is not None else PCNNAConfig()
    results = [simulate_layer(spec, cfg, include_adc) for spec in specs]
    weight_load = sum(result.weight_load_time_s for result in results)
    conv = batch_size * sum(result.pipelined_time_s for result in results)
    return BatchTiming(
        batch_size=batch_size,
        total_time_s=weight_load + conv,
        weight_load_s=weight_load,
        conv_time_s=conv,
    )


def weight_stationary_crossover(
    specs: list[ConvLayerSpec], config: PCNNAConfig | None = None
) -> int:
    """Batch size at which conv time first exceeds weight-load time.

    Below this, the accelerator is weight-load-bound (an effect the paper
    does not account for because it reports conv time only); above it,
    the paper's numbers describe the sustained behaviour.
    """
    cfg = config if config is not None else PCNNAConfig()
    weight_load = sum(weight_load_time_s(spec, cfg) for spec in specs)
    per_image = sum(full_system_time_s(spec, cfg) for spec in specs)
    if per_image <= 0:
        raise ValueError("per-image conv time must be positive")
    crossover = int(weight_load / per_image) + 1
    return max(crossover, 1)
