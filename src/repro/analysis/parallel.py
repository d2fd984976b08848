"""Process-parallel grid execution with a byte-identity contract.

Scenario x policy grids (:mod:`repro.analysis.policy_eval`) and the
capacity/placement sweeps (:mod:`repro.analysis.sweeps`) are
embarrassingly parallel: every cell is a pure function of its own
arguments — the traces are explicit arrays, the seeds live inside the
cell spec, and no cell reads global RNG or mutable module state.  That
purity is what makes process parallelism *safe to offer*: fanning the
cells over workers changes wall-clock only, never a byte of output.

The determinism contract :func:`run_grid` guarantees (and the tests
pin):

* ``workers=N`` output is **byte-identical** to ``workers=1`` for every
  ``N`` — same cell results, same order, same array bytes;
* results are merged in **cell order**, regardless of which worker
  finished first;
* ``workers=1`` never touches :mod:`multiprocessing` at all — it is the
  plain serial loop, so it stays usable under restricted environments
  and debuggers, and it *is* the reference the parallel path is
  compared against;
* a cell exception propagates to the caller (the pool tears down and
  re-raises the first failing cell's error).

Workers are spawn-safe by construction: the cell function must be an
importable module-level callable and the cells picklable, so the
executor works under the ``spawn`` start method (the one it uses where
the platform offers no ``fork``) as well as ``fork``.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence, TypeVar

_Cell = TypeVar("_Cell")
_Result = TypeVar("_Result")

def run_grid(
    fn: Callable[[_Cell], _Result],
    cells: Sequence[_Cell],
    workers: int = 1,
) -> list[_Result]:
    """Map ``fn`` over ``cells``, optionally across worker processes.

    The workhorse behind every ``workers=`` knob in
    :mod:`repro.analysis`: ``workers=1`` runs the plain serial loop in
    this process; ``workers>1`` fans the cells over a process pool and
    merges the results back **in cell order**, so the output is
    byte-identical to serial (see the module docstring for the full
    contract).

    Args:
        fn: a module-level (hence picklable, spawn-safe) callable
            applied to each cell.
        cells: the cell arguments, one per grid cell.
        workers: worker processes; 1 means serial in-process.  The pool
            never exceeds ``len(cells)`` workers.  Workers start with
            ``fork`` where the platform offers it (they inherit the
            loaded interpreter instead of re-importing it) and with
            ``spawn`` elsewhere.

    Returns:
        ``[fn(cell) for cell in cells]`` — by construction for serial,
        by the ordered merge for parallel.

    Raises:
        ValueError: on a non-callable ``fn`` or a bad ``workers``
            count.
    """
    if not callable(fn):
        raise ValueError(f"cell function must be callable, got {fn!r}")
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise ValueError(f"workers must be an int >= 1, got {workers!r}")
    if workers < 1:
        raise ValueError(f"workers must be an int >= 1, got {workers!r}")
    todo = list(cells)
    if workers == 1 or len(todo) <= 1:
        return [fn(cell) for cell in todo]
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # the platform offers no fork (Windows)
        context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(
        max_workers=min(workers, len(todo)), mp_context=context
    ) as pool:
        return list(pool.map(fn, todo))


__all__ = ["run_grid"]
