"""The model builders' weight source.

Every builder in :mod:`repro.nn.models` draws its weights from one
source.  A seeded :func:`numpy.random.default_rng` gives the usual
random weights; a shape-only build (``draw_weights=False``) takes
zeros instead and draws nothing, for callers that read only the
network's geometry (its :meth:`~repro.nn.network.Network.conv_specs`).
"""

from __future__ import annotations

import numpy as np


class _Zeros:
    """A weight source whose every "draw" is zeros."""

    @staticmethod
    def normal(loc: float, scale: float, size: tuple[int, ...]) -> np.ndarray:
        return np.zeros(size)


def weight_source(seed: int, draw_weights: bool = True):
    """The generator a builder draws its weights from: seeded random
    normals, or zeros when ``draw_weights`` is false."""
    return np.random.default_rng(seed) if draw_weights else _Zeros()
