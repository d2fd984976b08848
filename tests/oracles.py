"""The test-side oracle: serve and compute on the reference loops.

The library picks each run's path from its inputs alone — a frozen
cluster serves each lane alone (``ClusterSimulator._frozen``), a lone
lane takes its fastest exact path (``cluster._serve_alone``), and the
device engine streams the wave stack vectorized
(``PhotonicConvolution._device_matvec_vectorized``).  The reference
loops those paths must match bit for bit stay in the library:

* ``cluster._serve_lanes`` — the per-dispatch lane loop (the global
  loop, for a cluster);
* ``PhotonicConvolution._device_matvec`` — the wave-by-wave engine
  loop.

:func:`reference_loops` patches the three selection points so that
every front door called inside it runs on those loops.  It is the one
way a differential pin reaches the oracle; ``tests/test_oracles.py``
guards that it really does.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from unittest import mock

from repro.core import cluster
from repro.core.accelerator import PhotonicConvolution


def _lane_loop(lane, health) -> None:
    """Serve a lone lane one dispatch at a time."""
    cluster._serve_lanes([lane], health, cluster._lone_lane)


@contextmanager
def reference_loops() -> Iterator[None]:
    """Run every serving and engine front door on its reference loop."""
    with (
        mock.patch.object(cluster, "_serve_alone", _lane_loop),
        mock.patch.object(cluster.ClusterSimulator, "_frozen", False),
        mock.patch.object(
            PhotonicConvolution,
            "_device_matvec_vectorized",
            PhotonicConvolution._device_matvec,
        ),
    ):
        yield
