"""The test-side oracle: serve and compute on the reference loops.

The library picks each run's path from its inputs alone — a cluster
serves each lane alone up to its first possible core move and the rest
on the global loop (``ClusterSimulator._serve``), a lone lane takes its
fastest exact path (``cluster._serve_alone``), and the device engine
streams the wave stack vectorized
(``PhotonicConvolution._device_matvec_vectorized``).  The reference
loops those paths must match bit for bit stay in the library:

* ``cluster._serve_lanes`` — the per-dispatch lane loop (the global
  loop, for a cluster, from its first dispatch on);
* ``PhotonicConvolution._device_matvec`` — the wave-by-wave engine
  loop.

:func:`reference_loops` patches the three selection points so that
every front door called inside it runs on those loops.  It is the one
way a differential pin reaches the oracle through a front door;
``tests/test_oracles.py`` guards that it really does.  A pin that builds
its own lane serves it on the lane loop with :func:`lane_loop`.

:func:`unshared_sweeps` turns off the one sharing the fault step's
epoch form does: ``PoolHealth.cut`` sweeps each distinct drift-probe
lineage once and hands the twins its readout.  Inside it every stage
core is swept on its own state.

:func:`verify_admission_walk` is the scalar form of the capped lane's
plan check, ``cluster._verify_admission_plan``: one batch at a time, a
monotone pointer over the judgment frontier.  The library computes the
same frontier in closed form; the differential pins hold the two to
the same verdict.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from unittest import mock

import numpy as np

from repro.core import cluster
from repro.core.accelerator import PhotonicConvolution
from repro.core.faults import PoolHealth
from repro.core.simkernel import plan_dispatch


def fresh_backlog(model) -> cluster._Backlog:
    """The backlog of a lane that has served nothing: no queue, nothing
    in flight, every core idle from time 0."""
    empty = np.empty(0)
    idle = [0.0] * model.num_cores
    return cluster._Backlog(empty, empty, np.zeros(1, np.int64), idle)


def _lone_lane(lane) -> int:
    """Tie key of a lane that has no one to tie with."""
    return 0


def lane_loop(lane, health) -> None:
    """Serve a lone lane one dispatch at a time on ``cluster._serve_lanes``
    (``health`` ``None`` for a pristine pool)."""
    cluster._serve_lanes([lane], health, _lone_lane)


def global_loop(simulator, lanes, health, reallocations) -> None:
    """Serve a whole cluster run on the global loop, from the pool's
    initial free cores."""
    free = [(core, 0.0) for core in simulator._free]
    simulator._serve_global(lanes, health, free, reallocations)


@contextmanager
def reference_loops() -> Iterator[None]:
    """Run every serving and engine front door on its reference loop."""
    with (
        mock.patch.object(cluster, "_serve_alone", lane_loop),
        mock.patch.object(cluster.ClusterSimulator, "_serve", global_loop),
        mock.patch.object(
            PhotonicConvolution,
            "_device_matvec_vectorized",
            PhotonicConvolution._device_matvec,
        ),
    ):
        yield


def _sweep_each_core(health, stage_to_core, dispatch_s) -> list:
    """Every stage core's sweep, swept on its own state."""
    return [health.states[core].sweep(dispatch_s) for core in stage_to_core]


@contextmanager
def unshared_sweeps() -> Iterator[None]:
    """Sweep every stage core's probe in ``PoolHealth.cut``, twins of
    one lineage included, as before sweeps were shared."""
    with mock.patch.object(PoolHealth, "_sweeps", _sweep_each_core):
        yield


def verify_admission_walk(
    raw, mask, policy, model, cap, sizes, disp, backlog
) -> bool:
    """``cluster._verify_admission_plan``, walked batch by batch.

    Per batch ``k``: advance the judged pointer to the previous
    dispatch's phase-B frontier, fail if the head outruns the visible
    admits, drain to the head admit when the queue is empty, extend the
    early-admit chain while ``kmin[judged] <= k``, stop once every admit
    is visible, and otherwise re-seal with ``plan_dispatch`` unless the
    batch is blind to the invisible suffix.  A ``backlog`` resumes the
    walk from a lane's state: its queue is visible from the start, its
    in-flight batches count before batch 0, and core 0 frees at its
    clock.
    """
    queued, _, completed0, core_free = backlog
    a0 = int(queued.size)
    n = int(raw.size)
    nb = int(sizes.size)
    adm_before = (a0 + np.concatenate(([0], np.cumsum(mask)))).tolist()
    total = adm_before[-1]
    cum = np.concatenate(([0], np.cumsum(sizes))).tolist()
    bounds = np.concatenate((completed0, cum[1:]))
    need = np.asarray(adm_before[:-1]) - cap + 1
    kmin = np.searchsorted(bounds, need, side="left") - (completed0.size - 1)
    kmin = np.where(mask, kmin, nb + 1).tolist()
    pb = np.searchsorted(raw, disp, side="right").tolist()
    queue_idx = [-1] * a0 + np.flatnonzero(mask).tolist()
    queue = np.concatenate((queued, raw[mask]))
    max_batch = policy.max_batch
    busy0 = (
        model.weight_load_s[0]
        + np.arange(max_batch + 1) * model.conv_time_s[0]
    )
    judged = 0
    for k in range(nb):
        if k and pb[k - 1] > judged:
            judged = pb[k - 1]
        head = cum[k]
        visible = adm_before[judged]
        if visible < head:
            return False
        if visible == head:
            judged = queue_idx[head] + 1
        while judged < n and kmin[judged] <= k:
            judged += 1
        visible = adm_before[judged]
        if visible == total:
            return True
        if head + max_batch <= visible and disp[k] < raw[judged]:
            continue
        dispatch, size = plan_dispatch(
            queue[:visible],
            head,
            policy,
            core_free[0]
            if k == 0
            else float(disp[k - 1]) + float(busy0[sizes[k - 1]]),
        )
        if dispatch != disp[k] or size != sizes[k]:
            return False
    return True
