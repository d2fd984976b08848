"""LeNet-5 (LeCun et al. 1998) builder.

A small, fast network used throughout the test suite and examples: its
convolutions are tiny enough that the full photonic functional simulation
can run end-to-end in seconds.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Conv2D, Dense, Flatten, MaxPool2D, ReLU, Softmax
from repro.nn.models.weights import weight_source
from repro.nn.network import Network

LENET_INPUT_SIDE = 32
LENET_INPUT_CHANNELS = 1


def build_lenet5(
    num_classes: int = 10,
    seed: int = 0,
    weight_sigma: float = 0.1,
    draw_weights: bool = True,
) -> Network:
    """Build LeNet-5 with seeded-random weights (zeros, drawing
    nothing, when ``draw_weights`` is false).

    Geometry: 32x32x1 -> conv 6@5x5 -> pool2 -> conv 16@5x5 -> pool2 ->
    conv 120@5x5 -> dense 84 -> dense ``num_classes``.
    """
    rng = weight_source(seed, draw_weights)

    def conv_weights(k: int, c: int, m: int) -> np.ndarray:
        return rng.normal(0.0, weight_sigma, (k, c, m, m))

    layers = [
        Conv2D(conv_weights(6, LENET_INPUT_CHANNELS, 5), name="conv1"),
        ReLU(name="relu1"),
        MaxPool2D(pool_size=2, name="pool1"),
        Conv2D(conv_weights(16, 6, 5), name="conv2"),
        ReLU(name="relu2"),
        MaxPool2D(pool_size=2, name="pool2"),
        Conv2D(conv_weights(120, 16, 5), name="conv3"),
        ReLU(name="relu3"),
        Flatten(name="flatten"),
        Dense(rng.normal(0.0, weight_sigma, (84, 120)), name="fc4"),
        ReLU(name="relu4"),
        Dense(rng.normal(0.0, weight_sigma, (num_classes, 84)), name="fc5"),
        Softmax(name="softmax"),
    ]
    return Network(
        layers,
        input_shape=(LENET_INPUT_CHANNELS, LENET_INPUT_SIDE, LENET_INPUT_SIDE),
        name="lenet5",
    )
