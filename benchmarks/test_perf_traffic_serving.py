"""Perf benchmark: dynamic batching vs batch=1 FIFO under real traffic.

The request-level simulator quantifies what the batching scheduler is
*for*: at an offered load several times the single-request capacity
(where a batch=1 FIFO server saturates — each dispatch pays the full
once-per-layer weight-programming cost for one image), dynamic batching
amortizes the weight loads over every batch and sustains the offered
rate with per-request p99 latency bounded by the policy's ``max_wait``
plus one full-batch pipeline traversal.

All numbers are *simulated* time from the paper-calibrated analytical
model — deterministic under the fixed trace seed, so the asserted
floors hold on any machine and run in the default selection (no
``perf`` marker).  Run with ``-s`` to see the comparison table.

The soak test streams a 900k-request bursty trace through every policy.
It lost its ``slow`` mark when PR 6 vectorized the pluginless kernel
(trace *generation* now dominates its wall time), so it runs on every
benchmark invocation; see ``benchmarks/test_perf_kernel_vectorized.py``
for the reference-vs-vectorized trajectory that justified the change.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import SERVING_SWEEP_HEADER, format_table, sweep_serving_policies
from repro.core.traffic import (
    BatchingPolicy,
    PipelineServiceModel,
    ServingSimulator,
)
from repro.workloads import alexnet_conv_specs, make_arrivals, poisson_arrivals
from conftest import emit

NUM_CORES = 4
MAX_BATCH = 32
MAX_WAIT_S = 2e-3
NUM_REQUESTS = 20_000
MIN_THROUGHPUT_RATIO = 3.0


def test_dynamic_batching_sustains_3x_fifo_throughput(alexnet_specs):
    model = PipelineServiceModel.from_specs(alexnet_specs, NUM_CORES)
    # Offer 4x the single-request capacity: FIFO saturates at its
    # capacity, the batching scheduler must absorb the full rate.
    offered = 4.0 * model.capacity_rps(1)
    arrivals = poisson_arrivals(offered, NUM_REQUESTS, seed=7)

    policy = BatchingPolicy.dynamic(MAX_BATCH, MAX_WAIT_S)
    fifo = ServingSimulator(model, BatchingPolicy.fifo()).run(arrivals)
    dynamic = ServingSimulator(model, policy).run(arrivals)

    ratio = dynamic.throughput_rps / fifo.throughput_rps
    p99_bound = MAX_WAIT_S + model.batch_makespan_s(MAX_BATCH)
    emit(
        format_table(
            ["policy", "req/s", "p50 (us)", "p99 (us)", "mean batch"],
            [
                [
                    report.policy.name,
                    f"{report.throughput_rps:,.0f}",
                    f"{report.p50_s * 1e6:.0f}",
                    f"{report.p99_s * 1e6:.0f}",
                    f"{report.mean_batch_size:.1f}",
                ]
                for report in (fifo, dynamic)
            ],
            title=(
                f"AlexNet, {NUM_CORES} cores, offered {offered:,.0f} req/s "
                f"(4x single-request capacity): dynamic batching sustains "
                f"{ratio:.1f}x FIFO throughput; p99 bound "
                f"{p99_bound * 1e6:.0f} us"
            ),
        )
    )

    # FIFO is pinned at its single-request capacity...
    assert fifo.throughput_rps == pytest.approx(
        model.capacity_rps(1), rel=0.05
    )
    # ...while dynamic batching sustains the full offered load.
    assert dynamic.throughput_rps == pytest.approx(offered, rel=0.05)
    assert ratio >= MIN_THROUGHPUT_RATIO
    # The max-wait policy bounds the latency tail: no request waits
    # longer than max_wait for batch-mates plus one full-batch pipeline
    # traversal.
    assert dynamic.p99_s <= p99_bound
    assert dynamic.latencies_s.max() <= p99_bound + model.batch_makespan_s(
        MAX_BATCH
    )


def test_simulation_is_deterministic(alexnet_specs):
    """Identical seeds produce bit-identical percentile latencies."""
    model = PipelineServiceModel.from_specs(alexnet_specs, NUM_CORES)
    policy = BatchingPolicy.dynamic(MAX_BATCH, MAX_WAIT_S)
    runs = [
        ServingSimulator(model, policy).run(
            poisson_arrivals(5000.0, 5000, seed=42)
        )
        for _ in range(2)
    ]
    assert runs[0].p50_s == runs[1].p50_s
    assert runs[0].p95_s == runs[1].p95_s
    assert runs[0].p99_s == runs[1].p99_s
    assert np.array_equal(runs[0].completion_s, runs[1].completion_s)


def test_soak_long_bursty_traces_stay_conservative():
    """Discrete-event soak: 900k requests of every traffic shape through
    every policy — the scheduler must conserve requests, respect
    causality, and keep utilization physical over long horizons.

    Ran slow-marked at 300k requests until PR 6; the vectorized kernel
    brought 900k into the default benchmark tier."""
    specs = alexnet_conv_specs()
    model = PipelineServiceModel.from_specs(specs, NUM_CORES)
    offered = 0.6 * model.capacity_rps(MAX_BATCH)
    policies = [
        BatchingPolicy.fifo(),
        BatchingPolicy.dynamic(MAX_BATCH, MAX_WAIT_S),
        BatchingPolicy.fixed(MAX_BATCH),
    ]
    rows = []
    for pattern in ("poisson", "mmpp", "diurnal"):
        arrivals = make_arrivals(pattern, offered, 900_000, seed=13)
        for policy in policies:
            report = ServingSimulator(model, policy).run(arrivals)
            assert report.num_requests == 900_000
            assert sum(b.size for b in report.batches) == 900_000
            assert np.all(report.dispatch_s >= report.arrival_s)
            assert np.all(report.completion_s > report.dispatch_s)
            assert all(0.0 < u <= 1.0 for u in report.core_utilization)
            assert np.isfinite(report.latencies_s).all()
            rows.append(
                [
                    pattern,
                    policy.name,
                    f"{report.throughput_rps:,.0f}",
                    f"{report.p99_s * 1e6:.0f}",
                    f"{max(report.core_utilization):.0%}",
                ]
            )
    emit(
        format_table(
            ["traffic", "policy", "req/s", "p99 (us)", "peak util"],
            rows,
            title="900k-request soak, AlexNet over 4 cores",
        )
    )


def test_policy_sweep_smoke(alexnet_specs):
    """The sweep entry point stays functional at benchmark scale."""
    arrivals = poisson_arrivals(5000.0, 2000, seed=3)
    points = sweep_serving_policies(
        alexnet_specs,
        [BatchingPolicy.fifo(), BatchingPolicy.dynamic(MAX_BATCH, MAX_WAIT_S)],
        [1, 2, 4],
        arrivals,
    )
    assert len(points) == 6
    emit(
        format_table(
            SERVING_SWEEP_HEADER,
            [point.row() for point in points],
            title="policy x cores sweep, shared 2k-request Poisson trace",
        )
    )
