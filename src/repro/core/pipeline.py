"""Exact simulation of the four-stage PCNNA pipeline.

:mod:`repro.core.timing` approximates a double-buffered pipeline by
charging each location the *maximum* of its stage times.  That is exact
for an ideally balanced pipeline but an approximation when stage times
vary location to location (row starts, first fill).  This module runs
the real thing over the same stage-time table
(:func:`~repro.core.timing.stage_service_times`): each location is a
job flowing through

    fetch -> convert -> compute -> digitize

with each stage a single-server queue (one buffer of depth 1 between
stages — the paper's Input/Output buffers).  The classic recurrence for
a linear pipeline with unit buffers is

    finish[s][i] = max(finish[s-1][i],      # job arrived from upstream
                       finish[s][i-1])      # server free
                   + service[s][i]

and the layer time is the last job's exit from the last stage.  Each
stage is one max-plus fold over the jobs
(:func:`~repro.core.simkernel._maxplus_scan`, bit-identical to the
scalar recurrence).  Tests verify the closed-form ``timing`` model
brackets this exact result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import PCNNAConfig
from repro.core.simkernel import _maxplus_scan
from repro.core.timing import STAGE_NAMES, simulate_layer, stage_service_times
from repro.nn.shapes import ConvLayerSpec

__bit_identity__ = True


@dataclass(frozen=True)
class PipelineResult:
    """Exact pipeline simulation outcome.

    Attributes:
        spec: the simulated layer.
        makespan_s: time the last output leaves the last stage.
        stage_busy_s: total busy time per stage, in STAGE_NAMES order.
        stage_utilization: busy time / makespan per stage.
        critical_stage: the busiest stage's name.
    """

    spec: ConvLayerSpec
    makespan_s: float
    stage_busy_s: tuple[float, float, float, float]

    @property
    def stage_utilization(self) -> tuple[float, ...]:
        """Per-stage busy fraction of the makespan."""
        return tuple(busy / self.makespan_s for busy in self.stage_busy_s)

    @property
    def critical_stage(self) -> str:
        """Name of the stage with the largest total busy time."""
        index = int(np.argmax(self.stage_busy_s))
        return STAGE_NAMES[index]


# repro: allow[API002] closed-form cycle-level model: every input is a
# layer spec and a config constant, nothing stochastic to seed
def simulate_pipeline(
    spec: ConvLayerSpec,
    config: PCNNAConfig | None = None,
    include_adc: bool = True,
) -> PipelineResult:
    """Run the exact pipeline for one layer.

    Returns:
        The :class:`PipelineResult` with the true makespan.
    """
    service = stage_service_times(spec, config, include_adc)
    finish = np.zeros(service.shape[1])
    for stage_times in service:
        finish = _maxplus_scan(finish, stage_times, 0.0)
    busy = tuple(
        # repro: allow[BIT001] a report of stage load, not a time any
        # fold reads back; numpy's pairwise sum over one stage row
        float(stage_times.sum())
        for stage_times in service
    )
    return PipelineResult(
        spec=spec, makespan_s=float(finish[-1]), stage_busy_s=busy
    )


def max_approximation_error(
    spec: ConvLayerSpec,
    config: PCNNAConfig | None = None,
    include_adc: bool = True,
) -> float:
    """Relative error of the timing.py max() model vs the exact makespan.

    Positive values mean the closed-form model over-estimates (it always
    should: summing per-location maxima plus a fill bound is an upper
    bound on the true makespan).
    """
    exact = simulate_pipeline(spec, config, include_adc).makespan_s
    approx = simulate_layer(spec, config, include_adc).pipelined_time_s
    return (approx - exact) / exact
