"""Perf benchmark: the vectorized kernel vs the reference event loop.

PR 6 rebuilt the pluginless serving hot path on array ops.  The default
run pins the behaviour: reference and vectorized agree bit for bit on a
10k-request FIFO trace, and a 10M-request dynamic-batching soak, which
the reference loop cannot reach in reasonable wall time, conserves
every request.  The ``perf``-marked gates (``pytest -m perf
benchmarks``) time them: the vectorized kernel clears >=10x the
reference on the 900k-request FIFO soak (bit-identity re-asserted on
the timed runs), and the 10M soak finishes inside 60 s.

Run with ``-s`` to see the figures.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.traffic import (
    BatchingPolicy,
    PipelineServiceModel,
    ServingSimulator,
)
from repro.workloads import lenet5_conv_specs, poisson_arrivals
from conftest import emit, measure

NUM_CORES = 3
LOAD_FACTOR = 4.0  # offered load over single-request capacity
SPEEDUP_FLOOR = 10.0  # vectorized vs reference, 900k FIFO
SOAK_CEILING_S = 60.0  # generous "completes in seconds" bound for 10M
SMALL = 10_000
LARGE = 900_000
SOAK = 10_000_000
SOAK_POLICY = BatchingPolicy.dynamic(8, 1e-4)


def _model() -> PipelineServiceModel:
    return PipelineServiceModel.from_specs(lenet5_conv_specs(), NUM_CORES)


def _trace(model: PipelineServiceModel, num_requests: int) -> np.ndarray:
    offered = LOAD_FACTOR * model.capacity_rps(1)
    return poisson_arrivals(offered, num_requests, seed=29)


def _fifo_run(model: PipelineServiceModel, arrivals: np.ndarray, mode: str):
    return ServingSimulator(model, BatchingPolicy.fifo(), mode=mode).run(
        arrivals
    )


def _assert_runs_identical(ref, vec) -> None:
    assert ref.completion_s.tobytes() == vec.completion_s.tobytes()
    assert ref.batches == vec.batches


def test_vectorized_matches_reference_at_10k():
    """FIFO at 4x single-request capacity, the reference loop's worst
    case (one Python dispatch iteration per request): both modes agree
    bit for bit."""
    model = _model()
    arrivals = _trace(model, SMALL)
    _assert_runs_identical(
        _fifo_run(model, arrivals, "reference"),
        _fifo_run(model, arrivals, "auto"),
    )


@pytest.mark.perf
def test_vectorized_speedup_trajectory_vs_reference():
    """Reference vs vectorized requests/sec at 10k and 900k requests.

    The vectorized kernel must clear >=10x on the 900k pluginless soak,
    and the timed runs must agree bit for bit — a fast wrong kernel
    benchmarks nothing.
    """
    model = _model()
    rows = []
    speedups: dict[int, float] = {}
    for num_requests in (SMALL, LARGE):
        arrivals = _trace(model, num_requests)
        # The reference loop is O(requests) Python; at 900k one timed
        # pass (~10s) is long enough that repeat noise is negligible.
        ref = measure(
            lambda: _fifo_run(model, arrivals, "reference"),
            repeats=3 if num_requests <= SMALL else 1,
        )
        vec = measure(lambda: _fifo_run(model, arrivals, "auto"))
        _assert_runs_identical(ref.result, vec.result)
        speedups[num_requests] = ref.min_s / vec.min_s
        rows.append(
            f"  {num_requests:>10,} requests: reference {ref.min_s:8.3f} s, "
            f"vectorized {vec.min_s:8.3f} s -> {speedups[num_requests]:6.1f}x"
        )
    emit(
        "vectorized kernel trajectory (FIFO, LeNet-5, 3 cores, 4x load)\n"
        + "\n".join(rows)
    )
    assert speedups[LARGE] >= SPEEDUP_FLOOR


def _soak_run(model: PipelineServiceModel, arrivals: np.ndarray):
    return ServingSimulator(model, SOAK_POLICY, mode="auto").run(
        arrivals
    )


def test_ten_million_request_soak_conserves_requests():
    """The 10M-request dynamic-batching soak: reference-mode
    extrapolation puts it at minutes of Python bookkeeping; the
    vectorized kernel must conserve every request and keep the streams
    causal."""
    model = _model()
    report = _soak_run(model, _trace(model, SOAK))
    assert report.num_requests == SOAK
    assert sum(int(b.size) for b in report.batches) == SOAK
    assert np.all(report.dispatch_s >= report.arrival_s)
    assert np.all(report.completion_s > report.dispatch_s)
    assert all(0.0 < u <= 1.0 for u in report.core_utilization)
    emit(
        f"10M-request soak (dynamic(8, 1e-4)): "
        f"{len(report.batches):,} batches, p99 {report.p99_s:.3e} s"
    )


@pytest.mark.perf
def test_ten_million_request_soak_completes_in_seconds():
    """The same soak, timed: it finishes inside 60 s."""
    model = _model()
    arrivals = _trace(model, SOAK)
    soak = measure(lambda: _soak_run(model, arrivals), repeats=1)
    emit(
        f"10M-request soak: {soak.min_s:.1f} s wall, "
        f"{SOAK / soak.min_s:,.0f} req/s (ceiling {SOAK_CEILING_S} s)"
    )
    assert soak.min_s <= SOAK_CEILING_S
