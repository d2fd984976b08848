"""Executable minibatch-serving workloads.

The other :mod:`repro.workloads` modules carry *analytical* layer specs
(paper Table I notation).  Serving studies additionally need executable
networks that run end-to-end through the batched photonic + electronic
path and the pipelined runner; this module names those scenarios so
examples, benchmarks, and tests all pull the same models at the same
tractable scales.
"""

from __future__ import annotations

import numpy as np

from repro.nn.models import build_alexnet, build_googlenet_stem, build_lenet5
from repro.nn.network import Network

SERVING_NETWORKS: tuple[str, ...] = ("lenet5", "alexnet", "googlenet-stem")
"""Names accepted by :func:`serving_network`."""


def serving_network(
    name: str, scale: float = 0.05, seed: int = 0, draw_weights: bool = True
) -> Network:
    """Build one of the named executable serving networks.

    Args:
        name: one of :data:`SERVING_NETWORKS`.
        scale: channel-count multiplier for the scalable topologies
            (AlexNet, GoogLeNet stem); LeNet-5 is already small and
            ignores it.
        seed: weight RNG seed.
        draw_weights: draw the random weights; ``False`` builds the
            geometry alone (zero weights, nothing drawn) for callers
            that read only its :meth:`~repro.nn.network.Network.conv_specs`.

    Raises:
        KeyError: if ``name`` is unknown.
    """
    if name == "lenet5":
        return build_lenet5(seed=seed, draw_weights=draw_weights)
    if name == "alexnet":
        return build_alexnet(
            scale=scale, num_classes=100, seed=seed, draw_weights=draw_weights
        )
    if name == "googlenet-stem":
        return build_googlenet_stem(
            scale=scale, num_classes=100, seed=seed, draw_weights=draw_weights
        )
    raise KeyError(f"unknown serving network {name!r}; have {SERVING_NETWORKS}")


def serving_batch(network: Network, batch_size: int, seed: int = 0) -> np.ndarray:
    """A seeded random ``(batch_size, *input_shape)`` minibatch.

    Raises:
        ValueError: if ``batch_size`` is not positive.
    """
    if batch_size <= 0:
        raise ValueError(f"batch size must be positive, got {batch_size!r}")
    rng = np.random.default_rng(seed)
    return rng.normal(size=(batch_size, *network.input_shape))
