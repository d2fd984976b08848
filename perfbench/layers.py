"""The layers a traced pass measures, and the per-layer metrics.

:func:`install` wraps each layer's public calls on a :class:`Tracer`;
:func:`layer_metrics` folds one traced pass into ``<module>.<metric>``
figures.  Span names follow the same ``<module>.<call>`` scheme.
"""

from __future__ import annotations

import importlib
import statistics

from repro.analysis import parallel, policy_eval
from repro.core import accelerator, adaptive, cluster, faults, fleet, simkernel
from repro.electronics.converters import ConverterSpec
from repro.nn.layers import (
    Dense,
    Flatten,
    LocalResponseNorm,
    MaxPool2D,
    ReLU,
    Softmax,
)
from repro.photonics import broadcast_weight, drift
from repro.workloads import cluster_mixes, fleet_mixes, traffic

from perfbench.spans import NAME, PARENT, TAG, VALUE, Breakdown, Tracer

ENGINE_MODES = ("ideal", "device")
ENGINE_CONVS = (
    "conv1_7x7",
    "conv2_3x3_reduce",
    "conv2_3x3",
    "inception_3x3_reduce",
    "inception_3x3",
)
ENGINE_FIELDS = ("gather_s", "gather_mb", "core_s", "readout_s")
_ELECTRONIC = (ReLU, MaxPool2D, LocalResponseNorm, Flatten, Dense, Softmax)


def conv_key(layer_name: str) -> str:
    """``conv1/7x7`` -> ``conv1_7x7``: a conv layer's metric name."""
    return layer_name.replace("/", "_")


def _engine_mode(engine) -> str:
    return "device" if engine.method == "device" else "ideal"


def install(tracer: Tracer, conv_names: dict[int, str]) -> None:
    """Wrap every measured layer; ``conv_names`` maps ``id(weights)``
    of each conv layer to its metric name."""
    fn, method = tracer.patch_function, tracer.patch_method
    for generator in (
        traffic.poisson_arrivals,
        traffic.diurnal_arrivals,
        cluster_mixes.cluster_mix,
        fleet_mixes.fleet_mix,
    ):
        fn(generator, "traffic.gen")
    fn(simkernel.plan_batches, "simkernel.plan")
    fn(simkernel.pipeline_completions, "simkernel.scan")
    method(
        simkernel.EventLoopKernel,
        "run",
        "simkernel.loop",
        value=lambda args, run: len(run.batches),
    )
    method(faults.CoreHealthState, "advance_to", "faults.advance")
    method(faults.CoreHealthState, "recalibrate", "faults.recal")
    method(drift.DriftingWeightBank, "set_condition", "drift.retune")
    method(drift.DriftingWeightBank, "weight_error", "drift.error")
    method(
        cluster.ClusterSimulator,
        "run",
        "cluster.run",
        value=lambda args, report: (
            sum(len(tenant.batches) for tenant in report.tenants),
            report.num_shed,
        ),
    )
    method(adaptive.EwmaRecalDecider, "observe", "adaptive.observe")
    method(adaptive.EwmaRecalDecider, "decide", "adaptive.decide")
    fn(
        fleet.simulate_fleet_serving,
        "fleet.run",
        value=lambda args, report: report.num_remote,
    )
    fn(policy_eval.evaluate_policy, "policy_eval.cell")
    fn(parallel.run_grid, "parallel.run_grid")
    method(
        accelerator.PCNNA,
        "run_network",
        "engine.network",
        tag=lambda args: _engine_mode(args[0].engine),
    )
    method(
        accelerator.PhotonicConvolution,
        "convolve",
        "engine.conv",
        tag=lambda args: (
            _engine_mode(args[0]),
            conv_names.get(id(args[2]), "other"),
            args[0].config.adc,
        ),
    )
    fn(
        # The package re-exports a function named ``im2col`` over the module.
        importlib.import_module("repro.nn.im2col").im2col_batch_stacked,
        "engine.gather",
        value=lambda args, columns: columns.nbytes,
    )
    method(broadcast_weight.BroadcastAndWeightLayer, "compute_batch", "engine.core")
    method(accelerator.ConvScaling, "decode", "engine.readout")
    method(ConverterSpec, "quantize", "engine.quantize", tag=lambda args: args[0])
    for layer in _ELECTRONIC:
        method(layer, "forward_batch", "engine.electronic")


def layer_metric_names() -> list[str]:
    """Every name :func:`layer_metrics` returns, in report order."""
    return list(layer_metrics(Breakdown([])))


def layer_metrics(bd: Breakdown) -> dict[str, float]:
    """Fold one traced pass into the per-layer metrics.

    Layers a workload does not reach read 0.
    """
    advances = bd.count("faults.advance")
    retunes = bd.count("drift.retune")
    cluster_runs = bd.values("cluster.run")
    cells = [bd.duration[i] for i in bd.indices("policy_eval.cell")]
    metrics = {
        "traffic.gen_s": bd.busy("traffic.gen"),
        "simkernel.plan_s": bd.busy("simkernel.plan"),
        "simkernel.plan_calls": bd.count("simkernel.plan"),
        "simkernel.scan_s": bd.busy("simkernel.scan"),
        "simkernel.loop_self_s": bd.self_s("simkernel.loop"),
        "simkernel.dispatches": sum(bd.values("simkernel.loop"))
        + sum(dispatches for dispatches, _ in cluster_runs),
        "faults.advance_s": bd.busy("faults.advance"),
        "faults.advance_calls": advances,
        "faults.recal_s": bd.busy("faults.recal"),
        "faults.recals": bd.count("faults.recal"),
        "drift.retune_s": bd.busy("drift.retune"),
        "drift.retunes": retunes,
        "drift.error_s": bd.busy("drift.error"),
        "drift.retune_ratio": retunes / advances if advances else 0.0,
        "cluster.self_s": bd.self_s("cluster.run"),
        "cluster.shed": sum(shed for _, shed in cluster_runs),
        "adaptive.decide_s": bd.busy("adaptive.observe")
        + bd.busy("adaptive.decide"),
        "adaptive.decisions": bd.count("adaptive.decide"),
        "fleet.self_s": bd.self_s("fleet.run"),
        "fleet.remote": sum(bd.values("fleet.run")),
        "policy_eval.cell_s_p50": statistics.median(cells) if cells else 0.0,
        "policy_eval.cell_s_max": max(cells, default=0.0),
        "policy_eval.self_s": bd.self_s("policy_eval.cell"),
        "parallel.self_s": bd.self_s("parallel.run_grid"),
        "report.self_s": bd.self_s("report"),
    }
    metrics.update(_engine_metrics(bd))
    return metrics


def _engine_metrics(bd: Breakdown) -> dict[str, float]:
    """Per-conv gather/core/readout time and gathered size, per mode."""
    figures = {
        f"engine.{mode}.{conv}.{field}": 0.0
        for mode in ENGINE_MODES
        for conv in ENGINE_CONVS
        for field in ENGINE_FIELDS
    }
    for mode in ENGINE_MODES:
        figures[f"engine.{mode}.electronic_s"] = 0.0
    spans = bd.spans
    for index in bd.indices("engine.conv"):
        mode, conv, adc = spans[index][TAG]
        if conv not in ENGINE_CONVS:
            continue
        prefix = f"engine.{mode}.{conv}."
        if mode == "ideal":
            figures[prefix + "core_s"] += bd.self_time[index]
        for child in bd.children[index]:
            name = spans[child][NAME]
            took = bd.duration[child]
            if name == "engine.gather":
                figures[prefix + "gather_s"] += took
                figures[prefix + "gather_mb"] += spans[child][VALUE] / 1e6
            elif name == "engine.core":
                figures[prefix + "core_s"] += took
            elif name == "engine.readout" or (
                name == "engine.quantize" and spans[child][TAG] is adc
            ):
                figures[prefix + "readout_s"] += took
    for index in bd.indices("engine.electronic"):
        parent = spans[index][PARENT]
        if parent >= 0 and spans[parent][NAME] == "engine.network":
            figures[f"engine.{spans[parent][TAG]}.electronic_s"] += (
                bd.duration[index]
            )
    return figures
