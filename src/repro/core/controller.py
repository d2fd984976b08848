"""Layer-sequencing controller: the Fig. 4 control path as a state machine.

The paper's architecture diagram implies a controller that, per layer:
loads kernel weights from DRAM into the Kernel Weights Buffer, programs
the MRR banks, then streams receptive fields through the Input Buffer /
cache / DACs while draining results through the ADC and Output Buffer.
:class:`LayerController` executes that sequence against the real buffer
and memory models, emitting a timestamped event trace that the tests use
to verify ordering invariants (weights before inputs, every location
produced exactly once, buffers never over/underflow).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.core.analytical import kernels_per_pass
from repro.core.config import PCNNAConfig
from repro.core.scheduler import LayerSchedule
from repro.electronics.buffers import InputBuffer, KernelWeightsBuffer, OutputBuffer
from repro.electronics.dram import Dram
from repro.nn.shapes import ConvLayerSpec


class Phase(enum.Enum):
    """Controller phases, in execution order."""

    IDLE = "idle"
    LOAD_WEIGHTS = "load-weights"
    PROGRAM_BANKS = "program-banks"
    STREAM_LOCATIONS = "stream-locations"
    DRAIN_OUTPUTS = "drain-outputs"
    DONE = "done"


@dataclass(frozen=True)
class TraceEvent:
    """One timestamped controller event.

    Attributes:
        time_s: simulation time of the event.
        phase: controller phase the event belongs to.
        action: short event name (e.g. ``"mac-wave"``).
        detail: free-form payload (location index, byte count, ...).
    """

    time_s: float
    phase: Phase
    action: str
    detail: int = 0


@dataclass
class ControllerReport:
    """Result of running one layer through the controller.

    Attributes:
        spec: the executed layer.
        events: the full ordered event trace.
        finish_time_s: timestamp of the final event.
        locations_executed: MAC waves issued.
        outputs_written: result values written back to DRAM.
    """

    spec: ConvLayerSpec
    events: list[TraceEvent] = field(default_factory=list)
    finish_time_s: float = 0.0
    locations_executed: int = 0
    outputs_written: int = 0

    def events_in_phase(self, phase: Phase) -> list[TraceEvent]:
        """All events belonging to one phase."""
        return [event for event in self.events if event.phase == phase]


class LayerController:
    """Sequences one convolution layer through the PCNNA pipeline.

    The controller is deliberately *serial* (each phase completes before
    the next): it models the control flow, not peak performance — the
    pipelined timing lives in :mod:`repro.core.timing`.  Buffer pressure
    is handled by draining the output buffer to DRAM whenever it fills.

    Args:
        config: hardware configuration.
        input_buffer_capacity: Input Buffer slots (values).
        output_buffer_capacity: Output Buffer slots (values).
    """

    def __init__(
        self,
        config: PCNNAConfig | None = None,
        input_buffer_capacity: int = 4096,
        output_buffer_capacity: int = 4096,
    ) -> None:
        self.config = config if config is not None else PCNNAConfig()
        self.input_buffer_capacity = input_buffer_capacity
        self.output_buffer_capacity = output_buffer_capacity

    def run_layer(self, spec: ConvLayerSpec) -> ControllerReport:
        """Execute one layer; returns the event trace and counters."""
        cfg = self.config
        dram = Dram(cfg.dram)
        weights_buffer = KernelWeightsBuffer(capacity=max(spec.total_weights, 1))
        input_buffer = InputBuffer(capacity=self.input_buffer_capacity)
        output_buffer = OutputBuffer(capacity=self.output_buffer_capacity)
        schedule = LayerSchedule(spec)
        report = ControllerReport(spec=spec)
        clock = 0.0

        def log(phase: Phase, action: str, detail: int = 0) -> None:
            report.events.append(TraceEvent(clock, phase, action, detail))

        # -- load weights ----------------------------------------------------
        log(Phase.LOAD_WEIGHTS, "begin")
        weight_bytes = spec.total_weights * cfg.value_bytes
        clock += dram.read(weight_bytes)
        weights_buffer.push_many([None] * spec.total_weights)
        log(Phase.LOAD_WEIGHTS, "weights-buffered", spec.total_weights)

        # -- program banks ----------------------------------------------------
        drained = len(weights_buffer.drain())
        clock += drained / (cfg.num_weight_dacs * cfg.weight_dac.sample_rate_hz)
        log(Phase.PROGRAM_BANKS, "banks-programmed", drained)

        # -- stream locations ---------------------------------------------
        kernels = kernels_per_pass(spec, cfg)
        for step in schedule.steps():
            if step.new_values > input_buffer.free_space:
                # The buffer refills as the core consumes; model as a drain.
                input_buffer.clear()
            input_buffer.push_many([None] * step.new_values)
            clock += dram.stream_read(step.new_values * cfg.value_bytes)
            clock += step.new_values / (
                cfg.num_input_dacs * cfg.input_dac.sample_rate_hz
            )
            clock += cfg.fast_clock_period_s
            log(Phase.STREAM_LOCATIONS, "mac-wave", step.index)
            report.locations_executed += 1

            if kernels > output_buffer.free_space:
                flushed = len(output_buffer.drain())
                clock += dram.write(flushed * cfg.value_bytes)
                report.outputs_written += flushed
                log(Phase.DRAIN_OUTPUTS, "flush", flushed)
            output_buffer.push_many([None] * kernels)

        # -- final drain -----------------------------------------------------
        flushed = len(output_buffer.drain())
        if flushed:
            clock += dram.write(flushed * cfg.value_bytes)
            report.outputs_written += flushed
            log(Phase.DRAIN_OUTPUTS, "flush", flushed)

        log(Phase.DONE, "layer-complete")
        report.finish_time_s = clock
        return report
