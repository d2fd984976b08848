"""Unit contract for the process-parallel grid executor.

:func:`repro.analysis.run_grid` backs every ``workers=`` knob in the
analysis layer, so its determinism contract is pinned directly: ordered
merge, byte-identical serial/parallel results, strict argument
validation, exception propagation, and a genuine serial short-circuit
for ``workers=1`` (no :mod:`multiprocessing` involvement at all).

The cell functions live at module level on purpose — that is the
spawn-safety requirement ``run_grid`` imposes on its callers, and these
tests exercise it under the ``spawn`` start method by hiding ``fork``
from the platform, as on macOS and Windows.
"""

import multiprocessing
import sys

import numpy as np
import pytest

from repro.analysis import run_grid


def square(x):
    return x * x


def tag_with_pid(x):
    import os

    return (x, os.getpid())


def fail_on_three(x):
    if x == 3:
        raise RuntimeError(f"cell {x} exploded")
    return x


def scaled_arange(args):
    scale, count = args
    return scale * np.arange(count, dtype=float)


def record_start_methods(monkeypatch, offered):
    """Offer only the ``offered`` start methods; return those used."""
    used = []
    get_context = multiprocessing.get_context

    def offered_get_context(method):
        if method not in offered:
            raise ValueError(f"cannot find context for {method!r}")
        used.append(method)
        return get_context(method)

    monkeypatch.setattr(multiprocessing, "get_context", offered_get_context)
    return used


class TestRunGridContract:
    def test_serial_is_a_plain_map(self):
        assert run_grid(square, [3, 1, 4, 1, 5]) == [9, 1, 16, 1, 25]

    def test_serial_short_circuit_never_forks(self):
        """workers=1 must not spawn: every cell runs in this process."""
        import os

        results = run_grid(tag_with_pid, list(range(6)), workers=1)
        assert [x for x, _ in results] == list(range(6))
        assert {pid for _, pid in results} == {os.getpid()}

    def test_parallel_merges_in_cell_order(self):
        cells = list(range(20))
        assert run_grid(square, cells, workers=4) == [x * x for x in cells]

    def test_parallel_byte_identical_to_serial_on_arrays(self):
        cells = [(0.1, 50), (2.5, 17), (1e-9, 80), (3.0, 1)]
        serial = run_grid(scaled_arange, cells)
        fanned = run_grid(scaled_arange, cells, workers=3)
        for a, b in zip(serial, fanned):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.skipif(
        sys.platform == "win32", reason="platform offers no fork"
    )
    def test_fork_preferred_where_offered(self, monkeypatch):
        used = record_start_methods(monkeypatch, ["fork", "spawn"])
        assert run_grid(square, [2, 7, 9], workers=2) == [4, 49, 81]
        assert used == ["fork"]

    def test_start_method_follows_the_platform(self, monkeypatch):
        offered = multiprocessing.get_all_start_methods()
        used = record_start_methods(monkeypatch, offered)
        assert run_grid(square, [2, 7, 9], workers=2) == [4, 49, 81]
        assert used == ["fork" if "fork" in offered else "spawn"]

    def test_spawn_start_method_smoke(self, monkeypatch):
        """Module-level cells survive the re-import a spawn worker does."""
        used = record_start_methods(monkeypatch, ["spawn"])
        assert run_grid(square, [2, 7, 9], workers=2) == [4, 49, 81]
        assert used == ["spawn"]

    def test_single_cell_stays_serial(self):
        import os

        [(value, pid)] = run_grid(tag_with_pid, [5], workers=8)
        assert value == 5
        assert pid == os.getpid()

    def test_empty_grid(self):
        assert run_grid(square, [], workers=4) == []

    def test_cell_exception_propagates(self):
        with pytest.raises(RuntimeError, match="cell 3 exploded"):
            run_grid(fail_on_three, [1, 2, 3, 4], workers=2)
        with pytest.raises(RuntimeError, match="cell 3 exploded"):
            run_grid(fail_on_three, [1, 2, 3, 4], workers=1)


class TestRunGridValidation:
    def test_non_callable_rejected(self):
        with pytest.raises(ValueError, match="must be callable"):
            run_grid("not a function", [1, 2])

    @pytest.mark.parametrize("workers", [0, -1, 2.0, "2", True, False])
    def test_bad_workers_rejected(self, workers):
        with pytest.raises(ValueError, match="workers must be an int"):
            run_grid(square, [1, 2], workers=workers)

