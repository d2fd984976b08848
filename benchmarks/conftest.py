"""Shared helpers for the benchmark harness.

Every benchmark prints the paper artifact it regenerates (run pytest with
``-s`` to see the tables/charts) and asserts the paper's qualitative
conclusions, so a green benchmark run *is* a successful reproduction.

Wall-clock speed gates carry the ``perf`` marker, which the default
selection excludes (``pyproject.toml``); run them on a quiet host with
``pytest -m perf benchmarks``.  They time through :func:`measure`, the
one timing loop in this directory.  Recorded benchmark numbers come from
``perfbench/``, not from these tests.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable

import pytest


def emit(text: str) -> None:
    """Print a reproduced table/figure with surrounding whitespace."""
    print()
    print(text)
    print()


@dataclass(frozen=True)
class Timing:
    """Wall-clock statistics of repeated calls, plus the last result.

    Attributes:
        min_s: fastest timed call; the gates compare minima, the
            statistic least disturbed by a busy host.
        median_s: median timed call, reported alongside.
        result: what the last timed call returned.
    """

    min_s: float
    median_s: float
    result: Any


def measure(function: Callable[[], Any], repeats: int = 3) -> Timing:
    """Time ``function``: one untimed warm-up call, then ``repeats``.

    The warm-up keeps one-off costs (numpy dispatch, allocator growth,
    imports) out of the samples.
    """
    function()
    samples = []
    result = None
    for _ in range(repeats):
        began = time.perf_counter()
        result = function()
        samples.append(time.perf_counter() - began)
    return Timing(min(samples), statistics.median(samples), result)


def alternating_min(first, second, rounds: int) -> tuple[float, float]:
    """The fastest call of each of two functions, timed one after the
    other ``rounds`` times, so a slow spell of the host hits both."""
    pairs = [
        (measure(first, repeats=1).min_s, measure(second, repeats=1).min_s)
        for _ in range(rounds)
    ]
    return min(a for a, _ in pairs), min(b for _, b in pairs)


@pytest.fixture
def alexnet_specs():
    """The paper's AlexNet conv-layer table."""
    from repro.workloads import alexnet_conv_specs

    return alexnet_conv_specs()
