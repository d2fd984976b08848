"""GoogLeNet-style (Szegedy et al. 2015) executable stem builder.

:mod:`repro.workloads.googlenet` carries the full 58-conv GoogLeNet in
paper (analytical) notation.  This module provides the *executable*
counterpart for the functional engine: the GoogLeNet stem — conv1
7x7/s2, the conv2 1x1-reduce/3x3 pair, both LRNs and max-pools — plus
one inception-style 1x1-reduce → 3x3 branch, ending in a classifier
head.  On PCNNA's layer-sequential dataflow an inception module's
branches are just further layer requests, so a sequential branch stands
in faithfully for the batched-execution and pipelining studies.

Weights are seeded-random, as everywhere in :mod:`repro.nn.models`:
PCNNA evaluates shapes, timing, and numerics — never accuracy.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import (
    Conv2D,
    Dense,
    Flatten,
    LocalResponseNorm,
    MaxPool2D,
    ReLU,
    Softmax,
)
from repro.nn.models.weights import weight_source
from repro.nn.network import Network

GOOGLENET_INPUT_SIDE = 224
GOOGLENET_INPUT_CHANNELS = 3


def _scaled(count: int, scale: float) -> int:
    """Scale a channel count, keeping it at least 1."""
    return max(1, int(round(count * scale)))


def build_googlenet_stem(
    scale: float = 1.0,
    include_classifier: bool = True,
    num_classes: int = 1000,
    seed: int = 0,
    weight_sigma: float = 0.05,
    draw_weights: bool = True,
) -> Network:
    """Build the GoogLeNet stem + one inception-style branch.

    Args:
        scale: channel-count multiplier in (0, 1] — ``scale=1.0`` is the
            paper geometry; small scales keep the functional photonic
            simulation tractable while preserving the topology.
        include_classifier: append the flatten/dense/softmax head.
        num_classes: classifier width (only with the classifier head).
        seed: RNG seed for the weights.
        weight_sigma: Gaussian std-dev of the random weights.
        draw_weights: draw the random weights; ``False`` builds the
            geometry with zero weights and draws nothing.

    Returns:
        A shape-checked :class:`~repro.nn.network.Network`.

    Raises:
        ValueError: if ``scale`` is outside (0, 1].
    """
    if not 0.0 < scale <= 1.0:
        raise ValueError(f"scale must be in (0, 1], got {scale!r}")
    rng = weight_source(seed, draw_weights)

    def conv_weights(k: int, c: int, m: int) -> np.ndarray:
        return rng.normal(0.0, weight_sigma, (k, c, m, m)).astype(np.float32)

    c1 = _scaled(64, scale)
    c2_reduce = _scaled(64, scale)
    c2 = _scaled(192, scale)
    c3_reduce = _scaled(96, scale)
    c3 = _scaled(128, scale)

    layers = [
        Conv2D(
            conv_weights(c1, GOOGLENET_INPUT_CHANNELS, 7),
            stride=2,
            padding=3,
            name="conv1/7x7",
        ),
        ReLU(name="relu1"),
        MaxPool2D(pool_size=3, stride=2, name="pool1"),
        LocalResponseNorm(name="lrn1"),
        Conv2D(conv_weights(c2_reduce, c1, 1), name="conv2/3x3_reduce"),
        ReLU(name="relu2_reduce"),
        Conv2D(conv_weights(c2, c2_reduce, 3), padding=1, name="conv2/3x3"),
        ReLU(name="relu2"),
        LocalResponseNorm(name="lrn2"),
        MaxPool2D(pool_size=3, stride=2, name="pool2"),
        Conv2D(conv_weights(c3_reduce, c2, 1), name="inception/3x3_reduce"),
        ReLU(name="relu3_reduce"),
        Conv2D(conv_weights(c3, c3_reduce, 3), padding=1, name="inception/3x3"),
        ReLU(name="relu3"),
        MaxPool2D(pool_size=3, stride=2, name="pool3"),
    ]

    if include_classifier:
        feature_side = 13  # 224 -> 112 -> 55 -> 27 -> 13 through the stack.
        layers.extend(
            [
                Flatten(name="flatten"),
                Dense(
                    rng.normal(
                        0.0,
                        weight_sigma,
                        (num_classes, c3 * feature_side * feature_side),
                    ).astype(np.float32),
                    name="classifier",
                ),
                Softmax(name="softmax"),
            ]
        )

    return Network(
        layers,
        input_shape=(
            GOOGLENET_INPUT_CHANNELS,
            GOOGLENET_INPUT_SIDE,
            GOOGLENET_INPUT_SIDE,
        ),
        name=f"googlenet-stem(scale={scale:g})",
    )
