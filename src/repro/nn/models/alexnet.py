"""AlexNet (Krizhevsky et al. 2012) with the shapes used by the PCNNA paper.

The paper's worked examples fix the geometry: a 224 x 224 x 3 input,
conv1 with 96 kernels of 11 x 11 x 3, and the standard single-tower
(non-grouped) AlexNet from there — conv2 5x5/256, conv3-5 3x3 with
384/384/256 kernels.  Grouped convolutions are deliberately ignored, as
the paper's own counts (e.g. conv4 Nkernel = 3 * 3 * 384 = 3456) assume
full connectivity.

Weights are seeded-random: PCNNA never evaluates accuracy, only shapes
and timing, and the photonic functional validation needs representative
numerics rather than trained values.
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

ALEXNET_INPUT_SIDE = 224
ALEXNET_INPUT_CHANNELS = 3


def _scaled(count: int, scale: float) -> int:
    """Scale a channel count, keeping it at least 1."""
    return max(1, int(round(count * scale)))


def build_alexnet(
    scale: float = 1.0,
    include_classifier: bool = True,
    num_classes: int = 1000,
    seed: int = 0,
    weight_sigma: float = 0.01,
    draw_weights: bool = True,
) -> Network:
    """Build AlexNet with seeded-random weights.

    Args:
        scale: channel-count multiplier in (0, 1] — lets tests and the
            photonic functional simulation run a faithful-topology model
            at tractable size.  ``scale=1.0`` is the paper's geometry.
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

    c1 = _scaled(96, scale)
    c2 = _scaled(256, scale)
    c3 = _scaled(384, scale)
    c4 = _scaled(384, scale)
    c5 = _scaled(256, scale)

    layers = [
        Conv2D(
            conv_weights(c1, ALEXNET_INPUT_CHANNELS, 11),
            stride=4,
            padding=2,
            name="conv1",
        ),
        ReLU(name="relu1"),
        LocalResponseNorm(name="lrn1"),
        MaxPool2D(pool_size=3, stride=2, name="pool1"),
        Conv2D(conv_weights(c2, c1, 5), stride=1, padding=2, name="conv2"),
        ReLU(name="relu2"),
        LocalResponseNorm(name="lrn2"),
        MaxPool2D(pool_size=3, stride=2, name="pool2"),
        Conv2D(conv_weights(c3, c2, 3), stride=1, padding=1, name="conv3"),
        ReLU(name="relu3"),
        Conv2D(conv_weights(c4, c3, 3), stride=1, padding=1, name="conv4"),
        ReLU(name="relu4"),
        Conv2D(conv_weights(c5, c4, 3), stride=1, padding=1, name="conv5"),
        ReLU(name="relu5"),
        MaxPool2D(pool_size=3, stride=2, name="pool5"),
    ]

    if include_classifier:
        feature_side = 6  # 224 -> 55 -> 27 -> 13 -> 6 through the stack above.
        fc_in = c5 * feature_side * feature_side
        fc1 = _scaled(4096, scale)
        fc2 = _scaled(4096, scale)
        layers.extend(
            [
                Flatten(name="flatten"),
                Dense(
                    rng.normal(0.0, weight_sigma, (fc1, fc_in)).astype(np.float32),
                    name="fc6",
                ),
                ReLU(name="relu6"),
                Dense(
                    rng.normal(0.0, weight_sigma, (fc2, fc1)).astype(np.float32),
                    name="fc7",
                ),
                ReLU(name="relu7"),
                Dense(
                    rng.normal(0.0, weight_sigma, (num_classes, fc2)).astype(
                        np.float32
                    ),
                    name="fc8",
                ),
                Softmax(name="softmax"),
            ]
        )

    return Network(
        layers,
        input_shape=(ALEXNET_INPUT_CHANNELS, ALEXNET_INPUT_SIDE, ALEXNET_INPUT_SIDE),
        name=f"alexnet(scale={scale:g})",
    )
