"""Perf benchmark: batch-native electronic layers vs the per-image loop.

Times the electronic ops of each AlexNet block — max-pool, LRN, and the
whole ReLU→LRN→pool stage at the paper's feature-map shapes — at
batch=16, comparing the vectorized batch-native path
(``Layer.forward_batch``) against the pre-batching baseline: a per-image
Python loop whose pool iterates every output window and whose LRN
iterates every channel, exactly as the seed implementation did.

The asserted ≥5x floor gates *pooling*, the op the per-image loop made
the electronic bottleneck (thousands of per-window Python iterations per
minibatch).  The LRN baseline was already channel-blocked NumPy, so its
batched win is locality-dependent and reported ungated.  Outputs are
checked to agree by the default run; the timings and the floor are
the ``perf``-marked gate (``pytest -m perf benchmarks``).  Each op's
loop and batched sides are timed in alternating pairs and compared
fastest to fastest, so a slow spell of the host hits both sides.

Run with ``-s`` to see the table.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.layers import LocalResponseNorm, MaxPool2D, ReLU
from conftest import alternating_min, emit

BATCH = 16
MIN_SPEEDUP = 5.0

# AlexNet electronic stages: (name, feature-map shape the stage sees,
# whether the stage includes LRN).  relu/lrn/pool1 follows conv1
# (96 x 55 x 55), relu/lrn/pool2 follows conv2 (256 x 27 x 27),
# relu/pool5 follows conv5 (256 x 13 x 13).
ALEXNET_ELECTRONIC_STAGES = [
    ("stage1", (96, 55, 55), True),
    ("stage2", (256, 27, 27), True),
    ("stage5", (256, 13, 13), False),
]


def _max_pool2d_loop(feature_map: np.ndarray, pool: int, stride: int):
    """The seed per-window pooling loop (pre-batching baseline)."""
    channels, height, width = feature_map.shape
    out_h = (height - pool) // stride + 1
    out_w = (width - pool) // stride + 1
    output = np.empty((channels, out_h, out_w), dtype=feature_map.dtype)
    for oy in range(out_h):
        for ox in range(out_w):
            window = feature_map[
                :, oy * stride : oy * stride + pool, ox * stride : ox * stride + pool
            ]
            output[:, oy, ox] = window.max(axis=(1, 2))
    return output


def _lrn_loop(feature_map: np.ndarray, size=5, alpha=1e-4, beta=0.75, k=2.0):
    """The seed per-channel LRN loop (pre-batching baseline)."""
    channels = feature_map.shape[0]
    squared = feature_map.astype(float) ** 2
    half = size // 2
    denom = np.empty_like(squared)
    for channel in range(channels):
        lo = max(0, channel - half)
        hi = min(channels, channel + half + 1)
        denom[channel] = squared[lo:hi].sum(axis=0)
    return feature_map / (k + (alpha / size) * denom) ** beta


def _stage_loop(images: np.ndarray, with_lrn: bool) -> np.ndarray:
    """Per-image electronic stage, seed style."""
    outputs = []
    for image in images:
        current = np.maximum(image, 0.0)
        if with_lrn:
            current = _lrn_loop(current)
        outputs.append(_max_pool2d_loop(current, 3, 2))
    return np.stack(outputs)


def _stage_batched(images: np.ndarray, with_lrn: bool) -> np.ndarray:
    """Whole-minibatch electronic stage through the batch-native layers."""
    current = ReLU().forward_batch(images)
    if with_lrn:
        current = LocalResponseNorm().forward_batch(current)
    return MaxPool2D(3, stride=2).forward_batch(current)


def _stage_images():
    """``(name, shape, with_lrn, images)`` per AlexNet stage, seeded."""
    rng = np.random.default_rng(0)
    return [
        (name, shape, with_lrn, rng.normal(size=(BATCH, *shape)))
        for name, shape, with_lrn in ALEXNET_ELECTRONIC_STAGES
    ]


def test_batched_electronic_matches_loop_on_alexnet_batch16():
    for name, _, with_lrn, images in _stage_images():
        assert np.array_equal(
            F.max_pool2d(images, 3, 2),
            np.stack([_max_pool2d_loop(i, 3, 2) for i in images]),
        ), name
        if with_lrn:
            assert np.allclose(
                F.local_response_norm(images),
                np.stack([_lrn_loop(i) for i in images]),
                rtol=1e-12,
                atol=0.0,
            ), name
        assert np.allclose(
            _stage_batched(images, with_lrn),
            _stage_loop(images, with_lrn),
            rtol=1e-12,
            atol=0.0,
        ), name


@pytest.mark.perf
def test_batched_electronic_speedup_on_alexnet_batch16():
    rows = []
    pool_speedups = {}
    for name, shape, with_lrn, images in _stage_images():
        pool_loop, pool_batched = alternating_min(
            lambda: np.stack([_max_pool2d_loop(i, 3, 2) for i in images]),
            lambda: F.max_pool2d(images, 3, 2),
            rounds=9,
        )
        pool_speedups[name] = pool_loop / pool_batched
        rows.append((f"{name}/pool", shape, pool_loop, pool_batched))

        if with_lrn:
            lrn_loop, lrn_batched = alternating_min(
                lambda: np.stack([_lrn_loop(i) for i in images]),
                lambda: F.local_response_norm(images),
                rounds=9,
            )
            rows.append((f"{name}/lrn", shape, lrn_loop, lrn_batched))

        stage_loop, stage_batched = alternating_min(
            lambda: _stage_loop(images, with_lrn),
            lambda: _stage_batched(images, with_lrn),
            rounds=9,
        )
        rows.append((f"{name}/all", shape, stage_loop, stage_batched))

    lines = [
        f"Batch-native electronic path, AlexNet stages, batch={BATCH}",
        f"{'op':<14}{'shape':<16}{'per-image (s)':>14}{'batched (s)':>13}"
        f"{'speedup':>9}",
    ]
    for name, shape, loop_s, batched_s in rows:
        lines.append(
            f"{name:<14}{str(shape):<16}{loop_s:>14.4f}"
            f"{batched_s:>13.4f}{loop_s / batched_s:>8.1f}x"
        )
    lines.append(f"(speedup floor {MIN_SPEEDUP}x gates pooling)")
    emit("\n".join(lines))

    for name, speedup in pool_speedups.items():
        assert speedup >= MIN_SPEEDUP, (
            f"{name}: batch-native pooling only {speedup:.1f}x faster "
            f"than the per-window loop (floor {MIN_SPEEDUP}x)"
        )


def test_functional_ops_match_loop_baselines_exactly():
    """The vectorized ops reproduce the seed loops on AlexNet shapes."""
    rng = np.random.default_rng(1)
    x = rng.normal(size=(96, 55, 55))
    assert np.array_equal(F.max_pool2d(x, 3, 2), _max_pool2d_loop(x, 3, 2))
    assert np.allclose(
        F.local_response_norm(x), _lrn_loop(x), rtol=1e-12, atol=0.0
    )
