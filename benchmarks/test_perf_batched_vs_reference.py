"""Perf benchmark: vectorized batched engine vs the reference wave loop.

Runs both device-simulation engines on the LeNet-5 conv layers at
batch=16 — the minibatch serving scenario the vectorized engine exists
for.  The default run asserts the outputs stay bit-identical (ideal
mode); the ``perf``-marked gate (``pytest -m perf benchmarks``) times
both and asserts the vectorized engine is at least 5x faster.  Run with
``-s`` to see the table.
"""

from __future__ import annotations

import numpy as np
import pytest
from oracles import reference_loops

from repro.core.accelerator import PhotonicConvolution
from conftest import emit, measure

BATCH = 16

# LeNet-5 conv layers: (name, input (C, H, W), kernels (K, C, m, m)).
LENET_CONV_LAYERS = [
    ("conv1", (1, 32, 32), (6, 1, 5, 5)),
    ("conv2", (6, 14, 14), (16, 6, 5, 5)),
]

MIN_SPEEDUP = 5.0


def _layer_inputs():
    """``(name, x, k)`` per LeNet-5 conv layer, seeded."""
    rng = np.random.default_rng(0)
    return [
        (
            name,
            rng.normal(size=(BATCH, *input_shape)),
            rng.normal(size=kernel_shape),
        )
        for name, input_shape, kernel_shape in LENET_CONV_LAYERS
    ]


def test_vectorized_matches_reference_on_lenet_batch16():
    engine = PhotonicConvolution(method="device")
    for name, x, k in _layer_inputs():
        vectorized = engine.convolve(x, k)
        with reference_loops():
            reference = engine.convolve(x, k)
        assert np.array_equal(vectorized, reference), name


@pytest.mark.perf
def test_vectorized_speedup_on_lenet_batch16():
    engine = PhotonicConvolution(method="device")

    rows = []
    for name, x, k in _layer_inputs():
        vec = measure(lambda: engine.convolve(x, k))
        with reference_loops():
            ref = measure(lambda: engine.convolve(x, k), repeats=1)
        rows.append((name, ref.min_s, vec.min_s, ref.min_s / vec.min_s))

    lines = [
        f"Batched photonic engine, LeNet-5 conv layers, batch={BATCH}",
        f"{'layer':<8}{'reference (s)':>15}{'vectorized (s)':>16}{'speedup':>10}",
    ]
    for name, ref_time, vec_time, speedup in rows:
        lines.append(
            f"{name:<8}{ref_time:>15.4f}{vec_time:>16.4f}{speedup:>9.1f}x"
        )
    total_ref = sum(row[1] for row in rows)
    total_vec = sum(row[2] for row in rows)
    lines.append(
        f"{'total':<8}{total_ref:>15.4f}{total_vec:>16.4f}"
        f"{total_ref / total_vec:>9.1f}x"
    )
    emit("\n".join(lines))

    for name, _, _, speedup in rows:
        assert speedup >= MIN_SPEEDUP, (
            f"{name}: vectorized engine only {speedup:.1f}x faster than the "
            f"reference loop (floor {MIN_SPEEDUP}x)"
        )
