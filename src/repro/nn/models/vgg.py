"""VGG-16 (Simonyan & Zisserman 2014) builder.

VGG is one of the "tens of layers with almost the same range of kernels
per layer" networks the paper cites as motivation; it appears in the
extension benchmarks to show PCNNA's analytics on a deeper CNN.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Conv2D, Dense, Flatten, MaxPool2D, ReLU, Softmax
from repro.nn.models.weights import weight_source
from repro.nn.network import Network

VGG_INPUT_SIDE = 224
VGG_INPUT_CHANNELS = 3

# (block, out_channels, convs in block) for VGG-16's feature extractor.
_VGG16_BLOCKS = [
    (1, 64, 2),
    (2, 128, 2),
    (3, 256, 3),
    (4, 512, 3),
    (5, 512, 3),
]


def _scaled(count: int, scale: float) -> int:
    """Scale a channel count, keeping it at least 1."""
    return max(1, int(round(count * scale)))


def build_vgg16(
    scale: float = 1.0,
    include_classifier: bool = False,
    num_classes: int = 1000,
    seed: int = 0,
    weight_sigma: float = 0.01,
    draw_weights: bool = True,
) -> Network:
    """Build VGG-16 with seeded-random weights.

    Args:
        scale: channel-count multiplier in (0, 1].
        include_classifier: append the 4096/4096/1000 dense head.
        num_classes: classifier width.
        seed: RNG seed for weights.
        weight_sigma: Gaussian std-dev of the random weights.
        draw_weights: draw the random weights; ``False`` builds the
            geometry with zero weights and draws nothing.

    Raises:
        ValueError: if ``scale`` is outside (0, 1].
    """
    if not 0.0 < scale <= 1.0:
        raise ValueError(f"scale must be in (0, 1], got {scale!r}")
    rng = weight_source(seed, draw_weights)
    layers = []
    in_channels = VGG_INPUT_CHANNELS
    for block, out_channels, conv_count in _VGG16_BLOCKS:
        out_channels = _scaled(out_channels, scale)
        for index in range(conv_count):
            weights = rng.normal(
                0.0, weight_sigma, (out_channels, in_channels, 3, 3)
            ).astype(np.float32)
            layers.append(
                Conv2D(weights, stride=1, padding=1, name=f"conv{block}_{index + 1}")
            )
            layers.append(ReLU(name=f"relu{block}_{index + 1}"))
            in_channels = out_channels
        layers.append(MaxPool2D(pool_size=2, name=f"pool{block}"))

    if include_classifier:
        feature_side = 7  # 224 halved five times.
        fc_in = in_channels * feature_side * feature_side
        fc1 = _scaled(4096, scale)
        fc2 = _scaled(4096, scale)
        layers.extend(
            [
                Flatten(name="flatten"),
                Dense(
                    rng.normal(0.0, weight_sigma, (fc1, fc_in)).astype(np.float32),
                    name="fc1",
                ),
                ReLU(name="relu_fc1"),
                Dense(
                    rng.normal(0.0, weight_sigma, (fc2, fc1)).astype(np.float32),
                    name="fc2",
                ),
                ReLU(name="relu_fc2"),
                Dense(
                    rng.normal(0.0, weight_sigma, (num_classes, fc2)).astype(
                        np.float32
                    ),
                    name="fc3",
                ),
                Softmax(name="softmax"),
            ]
        )

    return Network(
        layers,
        input_shape=(VGG_INPUT_CHANNELS, VGG_INPUT_SIDE, VGG_INPUT_SIDE),
        name=f"vgg16(scale={scale:g})",
    )
