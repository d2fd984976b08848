#!/usr/bin/env python
"""Request-level traffic serving with dynamic batching.

The pipelined minibatch runner answers "how fast is one pre-formed
batch"; this demo answers the serving question: requests from many users
arrive over time, queue, and are formed into batches by a scheduler
before hitting the multi-core photonic pipeline.  It

1. compares batch=1 FIFO, dynamic batching, and fixed-size batching
   across pipeline widths under one shared Poisson trace (same seed,
   directly comparable percentiles);
2. shows how bursty (MMPP) and diurnal traffic stress the same policy;
3. replays a simulated schedule's batches on the *real* batched
   photonic engine and checks the outputs are bit-identical to running
   every request alone — batching never changes anyone's answer;
4. cross-checks the default ``auto`` mode (the vectorized kernel)
   against ``reference`` mode (a pristine lane of the per-event lane
   loop), timing both on a long trace — bit-identical reports,
   order-of-magnitude faster.

Run:  python examples/traffic_serving.py
"""

import time

import numpy as np

from repro.analysis import SERVING_SWEEP_HEADER, format_table, sweep_serving_policies
from repro.core import (
    PCNNA,
    BatchingPolicy,
    PipelineServiceModel,
    ServingSimulator,
    replay_on_engine,
    simulate_serving,
)
from repro.workloads import (
    alexnet_conv_specs,
    make_arrivals,
    poisson_arrivals,
    serving_batch,
    serving_network,
)

NUM_REQUESTS = 20_000
MAX_BATCH = 32
MAX_WAIT_S = 2e-3


def policy_comparison() -> None:
    """Policy x core-count sweep over one shared AlexNet trace."""
    specs = alexnet_conv_specs()
    # Offer 4x the single-request capacity of the 4-core pipeline: FIFO
    # saturates, batching policies must absorb the excess.
    reference = PipelineServiceModel.from_specs(specs, 4)
    offered = 4.0 * reference.capacity_rps(1)
    arrivals = poisson_arrivals(offered, NUM_REQUESTS, seed=7)

    points = sweep_serving_policies(
        specs,
        policies=[
            BatchingPolicy.fifo(),
            BatchingPolicy.dynamic(MAX_BATCH, MAX_WAIT_S),
            BatchingPolicy.fixed(MAX_BATCH),
        ],
        core_counts=[1, 2, 4],
        arrival_s=arrivals,
    )
    print(
        format_table(
            SERVING_SWEEP_HEADER,
            [point.row() for point in points],
            title=(
                f"AlexNet serving, {NUM_REQUESTS} Poisson requests at "
                f"{offered:,.0f} req/s offered"
            ),
        )
    )
    print()


def traffic_shapes() -> None:
    """One policy under Poisson, bursty, and diurnal traffic."""
    specs = alexnet_conv_specs()
    model = PipelineServiceModel.from_specs(specs, 4)
    offered = 0.5 * model.capacity_rps(MAX_BATCH)
    policy = BatchingPolicy.dynamic(MAX_BATCH, MAX_WAIT_S)
    for pattern in ("poisson", "mmpp", "diurnal"):
        arrivals = make_arrivals(pattern, offered, NUM_REQUESTS, seed=11)
        report = ServingSimulator(model, policy).run(arrivals)
        print(f"[{pattern}]")
        print(report.describe())
    print()


def replay_demo() -> None:
    """Execute a simulated LeNet schedule on the real photonic engine."""
    network = serving_network("lenet5")
    requests = 12
    inputs = serving_batch(network, requests, seed=3)
    report = simulate_serving(
        network,
        poisson_arrivals(2e4, requests, seed=1),
        BatchingPolicy.dynamic(4, 1e-4),
        num_cores=2,
    )
    outputs = replay_on_engine(network, report, inputs)
    alone = PCNNA().run_network(network, inputs)
    sizes = [batch.size for batch in report.batches]
    print(
        f"replayed {requests} LeNet-5 requests as batches {sizes} on the "
        f"real engine; outputs bit-identical to per-request execution: "
        f"{bool(np.array_equal(outputs, alone))}"
    )


def kernel_mode_demo() -> None:
    """Reference vs auto mode: same numbers, a fraction of the time.

    ``"reference"`` serves the trace one dispatch at a time on a
    pristine lane of the per-event lane loop; ``"auto"`` plans it with
    whole-trace array ops.
    """
    model = PipelineServiceModel.from_specs(alexnet_conv_specs(), 4)
    offered = 4.0 * model.capacity_rps(1)
    arrivals = poisson_arrivals(offered, 200_000, seed=5)
    policy = BatchingPolicy.fifo()

    timings = {}
    reports = {}
    for mode in ("reference", "auto"):
        began = time.perf_counter()
        reports[mode] = ServingSimulator(model, policy, mode=mode).run(
            arrivals
        )
        timings[mode] = time.perf_counter() - began

    identical = bool(
        np.array_equal(
            reports["reference"].completion_s,
            reports["auto"].completion_s,
        )
        and reports["reference"].batches == reports["auto"].batches
        and reports["reference"].core_busy_s == reports["auto"].core_busy_s
    )
    print(
        f"200k-request FIFO trace: reference {timings['reference']:.2f} s, "
        f"auto {timings['auto']:.3f} s "
        f"({timings['reference'] / timings['auto']:.0f}x); "
        f"reports bit-identical: {identical}"
    )


def main() -> None:
    policy_comparison()
    traffic_shapes()
    replay_demo()
    kernel_mode_demo()


if __name__ == "__main__":
    main()
