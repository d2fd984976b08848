"""Cycle-level timing simulation of the full PCNNA pipeline.

Where :mod:`repro.core.analytical` encodes the paper's closed-form model,
this module *simulates* the Fig. 4 pipeline location by location:

    DRAM -> input buffer -> SRAM cache -> DAC array -> MZM -> MRR banks
         -> balanced PDs -> ADC array -> output buffer -> DRAM

Per location the stages are:

* **fetch** — newly-required receptive-field values stream from DRAM
  (exact counts from the :class:`~repro.core.scheduler.LayerSchedule`,
  including row wrap-around refills the analytical model ignores);
* **convert** — the input-DAC array converts the new values,
  ``ceil(new / num_dacs)`` sequential conversions on the busiest DAC;
* **compute** — one optical MAC wave: a single fast-clock cycle;
* **digitize** — the ADC array digitizes the K kernel outputs.

:func:`stage_service_times` is the one ``(4, Nlocs)`` table of those
stage times; :func:`simulate_layer` and the exact pipeline of
:mod:`repro.core.pipeline` are reductions over it.  Stages are
double-buffered (the paper's buffers exist precisely to decouple them),
so the steady-state per-location time is the *maximum* stage time and
the layer time is ``sum(max per location) + pipeline fill``.  A
non-pipelined mode (sum of all stages) is also reported.  Every total
is a strict left fold over the locations in raster order.

The simulator exists to validate the analytical model: tests assert the
two agree within the fill/rounding slack, and the benchmarks report both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.analytical import (
    full_system_time_s,
    kernel_passes,
    kernels_per_pass,
    optical_core_time_s,
)
from repro.core.config import PCNNAConfig
from repro.core.scheduler import LayerSchedule
from repro.core.simkernel import validate_count
from repro.electronics.dac import DacArray
from repro.electronics.dram import Dram
from repro.nn.shapes import ConvLayerSpec

__bit_identity__ = True

STAGE_NAMES = ("fetch", "convert", "compute", "digitize")


def _fetched_values(schedule: LayerSchedule, config: PCNNAConfig) -> np.ndarray:
    """Values streamed from DRAM per location.

    If the SRAM cache holds the live m-row working set, each input value
    streams from DRAM only on its first window membership (row reuse);
    otherwise every window entry re-fetches.
    """
    if schedule.working_set_values() <= config.sram.capacity_words:
        return schedule.first_touch_counts()
    return schedule.new_value_counts()


def stage_service_times(
    spec: ConvLayerSpec,
    config: PCNNAConfig | None = None,
    include_adc: bool = True,
) -> np.ndarray:
    """Per-location service times for the four stages.

    Returns:
        Array of shape ``(4, Nlocs)`` in STAGE_NAMES order, in the
        component models' arithmetic: bytes / bandwidth for DRAM
        streaming (bursts ride an open row, so only bandwidth is paid
        per location) and ``ceil(n / units) * sample_period_s`` for the
        round-robin DAC and ADC arrays.
    """
    cfg = config if config is not None else PCNNAConfig()
    schedule = LayerSchedule(spec)
    fetched = _fetched_values(schedule, cfg)
    new_counts = schedule.new_value_counts()
    fetch = fetched * cfg.value_bytes / cfg.dram.bandwidth_bytes_per_s
    per_dac = -(-new_counts // cfg.num_input_dacs)
    convert = per_dac * cfg.input_dac.sample_period_s
    compute = np.full(spec.n_locs, cfg.fast_clock_period_s)
    per_adc = -(-kernels_per_pass(spec, cfg) // cfg.num_adcs)
    digitize = np.full(
        spec.n_locs, per_adc * cfg.adc.sample_period_s if include_adc else 0.0
    )
    return np.stack([fetch, convert, compute, digitize])


@dataclass(frozen=True)
class StageBreakdown:
    """Accumulated time per pipeline stage over a layer (seconds).

    Attributes:
        fetch_s: DRAM streaming time.
        convert_s: input-DAC conversion time.
        compute_s: optical MAC time.
        digitize_s: ADC time.
    """

    fetch_s: float
    convert_s: float
    compute_s: float
    digitize_s: float

    @property
    def serial_total_s(self) -> float:
        """Total with no stage overlap (non-pipelined execution)."""
        return self.fetch_s + self.convert_s + self.compute_s + self.digitize_s


@dataclass(frozen=True)
class LayerTimingResult:
    """Cycle-level simulation result for one layer.

    Attributes:
        spec: the simulated layer.
        pipelined_time_s: steady-state double-buffered layer time.
        serial_time_s: non-pipelined layer time (all stages serialized).
        weight_load_time_s: once-per-layer weight DAC + DRAM time.
        stages: per-stage accumulated times.
        bottleneck: name of the stage with the largest accumulated time.
        dac_bound_locations: locations where the DAC was the slowest stage.
        adc_bound_locations: locations where the ADC was the slowest stage.
        dram_bytes: total DRAM traffic (bytes).
        analytical_optical_s: eq. (7) prediction for cross-checking.
        analytical_full_s: paper full-system (DAC-bound) prediction.
    """

    spec: ConvLayerSpec
    pipelined_time_s: float
    serial_time_s: float
    weight_load_time_s: float
    stages: StageBreakdown
    bottleneck: str
    dac_bound_locations: int
    adc_bound_locations: int
    dram_bytes: int
    analytical_optical_s: float
    analytical_full_s: float

    @property
    def name(self) -> str:
        """Layer name."""
        return self.spec.name

    @property
    def analytical_agreement(self) -> float:
        """Ratio of simulated pipelined time to the paper's prediction."""
        return self.pipelined_time_s / self.analytical_full_s


# repro: allow[API002] deterministic cycle-level timing model: pure
# function of the layer spec and config, nothing stochastic to seed
def simulate_layer(
    spec: ConvLayerSpec,
    config: PCNNAConfig | None = None,
    include_adc: bool = True,
) -> LayerTimingResult:
    """Simulate one conv layer through the PCNNA pipeline.

    Args:
        spec: layer geometry.
        config: hardware configuration.
        include_adc: model ADC serialization of the K per-location
            outputs.  The paper's analytical model omits it (see
            :mod:`repro.core.analytical`); disable to mirror the paper.

    Returns:
        The :class:`LayerTimingResult` for the layer.
    """
    cfg = config if config is not None else PCNNAConfig()
    service = stage_service_times(spec, cfg, include_adc)
    _, convert, _, digitize = service
    passes = kernel_passes(spec, cfg)

    # Sequential kernel passes repeat the whole location walk.
    totals = [float(np.add.accumulate(row)[-1]) * passes for row in service]
    stages = StageBreakdown(*totals)
    bottleneck = STAGE_NAMES[int(np.argmax(totals))]

    slowest = service.max(axis=0)
    dac_bound = (slowest == convert) & (convert >= digitize)
    adc_bound = ~dac_bound & (slowest == digitize)
    # Pipeline fill: the first location's fetch/convert cannot overlap
    # anything, so add one full serial traversal of the non-dominant
    # stages for the first location (bounded by 3 stage maxima).
    pipelined = float(np.add.accumulate(slowest)[-1]) * passes
    pipelined += 3 * float(slowest.max())

    # DRAM traffic of one location walk (the fetched inputs, then each
    # location's outputs) plus one read of all weights, which then pass
    # the weight DACs.
    value_bytes = cfg.value_bytes
    fetched = _fetched_values(LayerSchedule(spec), cfg)
    # repro: allow[BIT001] integer count, exact in any order
    input_bytes = int(fetched.sum()) * value_bytes
    output_bytes = spec.n_locs * kernels_per_pass(spec, cfg) * value_bytes
    weight_bytes = spec.total_weights * value_bytes
    weight_load = Dram(cfg.dram).transfer_time_s(weight_bytes) + DacArray(
        cfg.num_weight_dacs, cfg.weight_dac
    ).schedule(spec.total_weights).time_s

    return LayerTimingResult(
        spec=spec,
        pipelined_time_s=pipelined,
        serial_time_s=stages.serial_total_s,
        weight_load_time_s=weight_load,
        stages=stages,
        bottleneck=bottleneck,
        dac_bound_locations=int(np.count_nonzero(dac_bound)) * passes,
        adc_bound_locations=int(np.count_nonzero(adc_bound)) * passes,
        dram_bytes=input_bytes + output_bytes + weight_bytes,
        analytical_optical_s=optical_core_time_s(spec, cfg),
        analytical_full_s=full_system_time_s(spec, cfg),
    )


@dataclass(frozen=True)
class BatchLayerTimingResult:
    """Cycle-level timing of one layer streamed over a minibatch.

    The hardware holds the layer's weights while the whole batch streams
    through (weight-stationary execution, the premise of the batched
    photonic engine), so the once-per-layer weight load amortizes over
    ``batch_size`` images.

    Attributes:
        layer: the single-image simulation the batch projection is
            built from.
        batch_size: images streamed per weight load.
        total_time_s: one weight load + ``batch_size`` pipelined walks.
    """

    layer: LayerTimingResult
    batch_size: int
    total_time_s: float

    @property
    def spec(self) -> ConvLayerSpec:
        """The simulated layer geometry."""
        return self.layer.spec

    @property
    def per_image_s(self) -> float:
        """Amortized per-image layer latency (s)."""
        return self.total_time_s / self.batch_size

    @property
    def images_per_s(self) -> float:
        """Sustained single-layer throughput (images/s)."""
        return self.batch_size / self.total_time_s

    @property
    def weight_load_fraction(self) -> float:
        """Fraction of the batch time spent loading weights."""
        return self.layer.weight_load_time_s / self.total_time_s


# repro: allow[API002] deterministic cycle-level timing model: pure
# function of the layer spec, batch size, and config
def simulate_layer_batch(
    spec: ConvLayerSpec,
    batch_size: int,
    config: PCNNAConfig | None = None,
    include_adc: bool = True,
) -> BatchLayerTimingResult:
    """Cycle-level timing of one conv layer over a ``batch_size`` batch.

    The cycle-accurate counterpart of
    :func:`repro.core.batching.layer_batch_time_s` (which uses the
    paper's closed-form times): one simulated weight load plus
    ``batch_size`` simulated pipelined location walks.

    Raises:
        ValueError: if ``batch_size`` is not an integer >= 1.
    """
    validate_count(batch_size, "batch size")
    layer = simulate_layer(spec, config, include_adc)
    total = layer.weight_load_time_s + batch_size * layer.pipelined_time_s
    return BatchLayerTimingResult(
        layer=layer, batch_size=batch_size, total_time_s=total
    )


# repro: allow[API002] deterministic cycle-level timing model over a
# fixed layer list; nothing stochastic to seed
def simulate_network(
    specs: list[ConvLayerSpec],
    config: PCNNAConfig | None = None,
    include_adc: bool = True,
) -> list[LayerTimingResult]:
    """Simulate every layer of a network, in order."""
    cfg = config if config is not None else PCNNAConfig()
    return [simulate_layer(spec, cfg, include_adc) for spec in specs]
