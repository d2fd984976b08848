"""Run one PCNNA benchmark workload and print its metrics.

    python3 perfbench/run.py --workload drift-serving --seed 0 \\
        --seconds 20 --trace 0

``--trace 0`` times untraced passes for ``--seconds`` and prints the
end-to-end metrics.  ``--trace 1`` alternates untraced and traced passes
and prints the per-layer breakdown instead, plus the tracing overhead.
Every pass goes through the workload's correctness gate; a pass that
fails it counts as failed and the run exits 1.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--record PATH`` also writes the full
result, with provenance, to ``PATH``; without it nothing is written.

The library is imported from ``src/`` next to this directory, never
from an installed copy.  BLAS runs on one thread, set before NumPy loads,
so every pass runs on one thread.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
)
WORKLOAD_NAMES = ("drift-serving", "policy-grid", "frozen-serving", "engine-batch")

END_TO_END = {
    "setup_s": "s",
    "req_per_s": "req/s",
    "peak_rss_mb": "MB",
    "sim_p50_us": "sim-us",
    "sim_p99_us": "sim-us",
    "sim_availability": "ratio",
}
"""End-to-end metric -> unit, printed with ``--trace 0``.  ``sim-us`` is
microseconds on the simulated clock, which repeat exactly per seed."""

GRID_EXTRAS = ("parallel.pickle_bytes_per_cell", "parallel.workers2_speedup")
MIN_SETUPS, MAX_SETUPS = 5, 25
SETUP_SHARE = 1 / 3
"""Extra set-ups run while they have taken under this share of the run."""
MIN_PASSES = 3


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=WORKLOAD_NAMES + ("all",)
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record", type=Path, help="write the full result as JSON here"
    )
    parser.add_argument(
        "--smoke", action="store_true", help="tiny inputs; digests skipped"
    )
    return parser.parse_args(argv)


def configure_blas() -> None:
    """Pin BLAS to one thread before NumPy loads."""
    for var in BLAS_VARS:
        os.environ[var] = "1"


def use_checkout_source() -> None:
    """Import ``repro`` from this checkout's ``src/`` or stop."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no library source under {ROOT / 'src'}")
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"perfbench: repro resolved to {repro.__file__}")


def layer_unit(name: str) -> str:
    """A per-layer metric's unit, from its name."""
    if name.endswith(("_s", "_s_p50", "_s_max")):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_x", "_speedup")):
        return "x"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes_per_cell"):
        return "bytes"
    return "count"


def per_layer_names() -> list[str]:
    """Every metric ``--trace 1`` prints, in report order."""
    from perfbench.layers import layer_metric_names

    return [*layer_metric_names(), *GRID_EXTRAS, "trace.overhead_x"]


# -- provenance and memory ------------------------------------------------


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args, **counts) -> dict:
    import numpy as np

    return {
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "cores_available": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": args.seed,
        "smoke": args.smoke,
        "seconds": args.seconds,
        "trace": args.trace,
        **counts,
    }


def reset_peak_rss() -> None:
    """Restart the kernel's resident high-water mark for this process."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """Resident high-water mark since the last reset, in MB."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024 / 1e6
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


# -- passes and the correctness gate ----------------------------------------


class Gate:
    """Counts passes and fails any whose outputs are wrong.

    Every pass must match the run's first pass bit for bit; under the
    default seed at full size it must also match the pinned digest.
    """

    def __init__(self, workload, pinned: str | None) -> None:
        self.workload = workload
        self.pinned = pinned
        self.first: str | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, state, result, summary) -> None:
        digest, problems = self.workload.check(state, result, summary)
        if self.first is None:
            self.first = digest
            if self.pinned is not None and digest != self.pinned:
                problems.append(f"digest {digest[:16]} != pinned {self.pinned[:16]}")
        elif digest != self.first:
            problems.append(f"digest {digest[:16]} differs from the first pass")
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                message = f"gate: {self.workload.name} pass {self.attempted}: {problem}"
                self.problems.append(message)
                print(message, file=sys.stderr)


def timed_pass(workload, state, tracer, gate: Gate, **kwargs):
    """One pass: collect garbage, time run + summary, then gate it."""
    from perfbench.spans import clock

    gc.collect()
    began = clock()
    result, summary = workload.run(state, tracer, **kwargs)
    took = clock() - began
    gate.check(state, result, summary)
    return took, result, summary


@contextmanager
def installed(conv_names: dict[int, str]):
    """A tracer with every layer wrapped, unwrapped on exit."""
    from perfbench.layers import install
    from perfbench.spans import Tracer

    tracer = Tracer()
    try:
        install(tracer, conv_names)
        yield tracer
    finally:
        tracer.restore()


def timed_setup(workload, args, times: list[float]):
    """Set the workload up once, appending the time it took."""
    from perfbench.spans import clock

    gc.collect()
    began = clock()
    state = workload.setup(args.seed, args.smoke)
    times.append(clock() - began)
    return state


def quartile_spread(values: list[float]) -> float:
    """Inter-quartile range over median (0 for fewer than 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def measure(workload, args, gate: Gate) -> dict:
    """The untraced run: set-up times, timed passes, end-to-end metrics.

    Extra set-ups are timed between passes, so they sample the host over
    the whole run like the passes do; their states are discarded.
    """
    import numpy as np

    from perfbench.spans import NullTracer, clock

    setups: list[float] = []
    state = timed_setup(workload, args, setups)
    workload.prepare(state)
    null = NullTracer()
    timed_pass(workload, state, null, gate)  # warm-up, gated, untimed
    reset_peak_rss()
    passes = []
    began = clock()
    while (
        len(passes) < MIN_PASSES
        or len(setups) < MIN_SETUPS
        or clock() - began < args.seconds
    ):
        if len(setups) < MAX_SETUPS and sum(setups) <= SETUP_SHARE * (
            clock() - began
        ):
            timed_setup(workload, args, setups)
        took, _, summary = timed_pass(workload, state, null, gate)
        passes.append(took)
    fastest = min(passes)
    latencies_us = summary.latencies_s * 1e6
    metrics = {
        "setup_s": statistics.median(setups),
        "req_per_s": summary.work / fastest,
        "peak_rss_mb": peak_rss_mb(),
        "sim_p50_us": float(np.percentile(latencies_us, 50.0)),
        "sim_p99_us": float(np.percentile(latencies_us, 99.0)),
        "sim_availability": summary.availability,
    }
    return {
        "metrics": metrics,
        "units": END_TO_END,
        "summary": summary,
        "setups_s": setups,
        "passes_s": passes,
        "notes": [
            f"set-up: median of {len(setups)} "
            f"(IQR/median {quartile_spread(setups):.1%})",
            f"passes: fastest {fastest:.4f} s of {len(passes)}; median "
            f"{statistics.median(passes):.4f} s "
            f"(IQR/median {quartile_spread(passes):.1%})",
            f"served {summary.served} of {summary.offered} offered, "
            f"shed {summary.shed}; "
            f"{summary.served - int(np.ceil(0.99 * summary.served))} "
            f"served requests lie beyond sim_p99_us",
        ],
    }


def measure_traced(workload, args, gate: Gate) -> dict:
    """The traced run: alternate untraced and traced passes.

    The per-layer metrics come from the fastest traced pass, so its
    layers add up to one pass; the overhead compares the fastest traced
    pass with the fastest untraced one.
    """
    from perfbench.layers import layer_metrics
    from perfbench.spans import Breakdown, NullTracer, clock

    # A warm set-up first: the median keeps first-touch costs out of
    # setup_s, so keep them out of traffic.gen_s too.
    workload.setup(args.seed, args.smoke)
    with installed({}) as tracer:
        state = workload.setup(args.seed, args.smoke)
    setup_gen_s = Breakdown(tracer.spans).busy("traffic.gen")
    workload.prepare(state)
    conv_names = getattr(state, "conv_names", {})
    null = NullTracer()
    timed_pass(workload, state, null, gate)  # warm-up
    untraced, traced = [], []
    began = clock()
    while not traced or clock() - began < args.seconds:
        took, *_ = timed_pass(workload, state, null, gate)
        untraced.append(took)
        with installed(conv_names) as tracer:
            took, result, _ = timed_pass(workload, state, tracer, gate)
        if not traced or took < min(traced):
            fastest = (Breakdown(tracer.spans), result)
        traced.append(took)
    wall = min(traced)
    breakdown, result = fastest
    metrics = layer_metrics(breakdown)
    metrics["traffic.gen_s"] += setup_gen_s
    notes = []
    extras = dict.fromkeys(GRID_EXTRAS, 0.0)
    if workload.name == "policy-grid":
        extras = grid_executor_probe(workload, state, result, gate, untraced)
        notes.append(
            f"workers={extras.pop('workers')} probe: "
            f"{extras['parallel.workers2_speedup']:.2f}x serial"
        )
    metrics.update(extras)
    metrics["trace.overhead_x"] = wall / min(untraced)
    notes += [
        f"fastest of {len(traced)} traced passes {wall:.4f} s, of "
        f"{len(untraced)} untraced {min(untraced):.4f} s: overhead "
        f"{metrics['trace.overhead_x']:.3f}x",
        *share_notes(metrics, breakdown, wall),
    ]
    return {
        "metrics": metrics,
        "units": {name: layer_unit(name) for name in metrics},
        "breakdown": [
            {"layer": name, "calls": calls, "busy_s": busy, "self_s": own}
            for name, calls, busy, own in breakdown.table()
        ],
        "traced_wall_s": wall,
        "notes": notes,
    }


def grid_executor_probe(workload, state, report, gate: Gate, serial) -> dict:
    """``run_grid`` at two workers (at most the host's cores) against
    the serial passes, and the bytes a worker would pickle per cell."""
    import pickle

    from perfbench.spans import NullTracer

    workers = min(2, len(os.sched_getaffinity(0)))
    fanned = min(
        timed_pass(workload, state, NullTracer(), gate, workers=workers)[0]
        for _ in range(2)
    )
    cells = [
        (scenario, policy, None)
        for scenario in state.scenarios
        for policy in state.policies
    ]
    pickled = [
        len(pickle.dumps(cell)) + len(pickle.dumps(outcome))
        for cell, outcome in zip(cells, report.outcomes)
    ]
    return {
        "workers": workers,
        "parallel.pickle_bytes_per_cell": statistics.mean(pickled),
        "parallel.workers2_speedup": min(serial) / fanned,
    }


def share_notes(metrics: dict, breakdown, wall: float) -> list[str]:
    """The traced shares ROADMAP.md quotes from profiling, for comparison."""
    from perfbench.layers import ENGINE_CONVS
    from perfbench.spans import TAG

    notes = []
    if metrics["faults.advance_calls"]:
        notes.append(
            f"CoreHealthState.advance_to: {metrics['faults.advance_s'] / wall:.0%}"
            f" of the traced pass, retune ratio "
            f"{metrics['drift.retune_ratio']:.2f}"
        )
    runs = {
        breakdown.spans[i][TAG]: breakdown.duration[i]
        for i in breakdown.indices("engine.network")
    }
    if "ideal" in runs:
        share = metrics["engine.ideal.conv1_7x7.gather_s"] / runs["ideal"]
        notes.append(f"conv1 gather: {share:.0%} of the ideal run")
    if "device" in runs:
        core = sum(
            metrics[f"engine.device.{conv}.core_s"] for conv in ENGINE_CONVS
        )
        notes.append(f"compute_batch: {core / runs['device']:.0%} of the device run")
    return notes


# -- output -----------------------------------------------------------------


def run_workload(name: str, args) -> dict:
    """Measure one workload and print its human-readable report."""
    from perfbench.workloads import DEFAULT_SEED, WORKLOADS, pinned_digests

    workload = WORKLOADS[name]
    pinned = None
    if args.seed == DEFAULT_SEED and not args.smoke:
        pinned = pinned_digests().get(name, "missing")
    gate = Gate(workload, pinned)
    measured = (measure_traced if args.trace else measure)(workload, args, gate)
    metrics = measured["metrics"]
    units = measured["units"]
    prov = provenance(args, passes=gate.attempted, runs=1)
    print(f"== {name} ({'traced' if args.trace else 'untraced'})")
    print("provenance: " + json.dumps(prov, sort_keys=True))
    for metric, value in metrics.items():
        print(f"  {metric:44s} {value:14.6g} {units[metric]}")
    for note in measured["notes"]:
        print(f"  # {note}")
    summary = measured.get("summary")
    if summary is not None:
        for figure, value in summary.figures.items():
            print(f"  # figure {figure} = {value:.6g}")
    if "breakdown" in measured:
        wall = measured["traced_wall_s"]
        print(f"  {'layer':24s} {'calls':>8s} {'self s':>10s} {'self %':>7s}")
        for row in measured["breakdown"]:
            print(
                f"  {row['layer']:24s} {row['calls']:8d} "
                f"{row['self_s']:10.4f} {row['self_s'] / wall:7.1%}"
            )
    print(f"  # pass digest {gate.first}")
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {
            metric: {"value": value, "unit": units[metric]}
            for metric, value in metrics.items()
        },
    }
    record = {
        **result,
        "provenance": prov,
        "problems": gate.problems,
        "notes": measured["notes"],
        "digest": gate.first,
    }
    for key in ("setups_s", "passes_s", "breakdown"):
        if key in measured:
            record[key] = measured[key]
    if summary is not None:
        record["figures"] = summary.figures
    return {"line": result, "record": record}


def main(argv=None) -> int:
    args = parse_args(argv)
    use_checkout_source()
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    outcomes = {}
    for name in names:
        outcomes[name] = run_workload(name, args)
        print(json.dumps(outcomes[name]["line"]), flush=True)
    if args.record is not None:
        args.record.write_text(
            json.dumps(
                {
                    "schema": "perfbench/1",
                    "results": {n: o["record"] for n, o in outcomes.items()},
                },
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
    return 0 if all(o["line"]["correct"] for o in outcomes.values()) else 1


if __name__ == "__main__":
    configure_blas()
    sys.exit(main())
