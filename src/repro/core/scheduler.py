"""Receptive-field dataflow scheduler (paper section IV).

PCNNA processes a layer as a sequence of kernel *locations*: for each
location the receptive field is staged in the input buffer/cache, one
optical MAC wave computes all K kernel outputs in parallel, and the
results are written back.  Between consecutive locations only the values
that *enter* the window need to be fetched — the stride-reuse property
the paper uses to bound front-end bandwidth at ``nc * m * s`` values per
step.

:class:`LayerSchedule` walks the locations in raster order and reports,
for every step, how many padded-input values are newly required and how
many leave the working set.  The counts are closed-form in the window
geometry: consecutive windows start at ``(row * s, col * s)``, so two
windows whose origins differ by ``(dy, dx)`` share
``nc * max(m - |dy|, 0) * max(m - |dx|, 0)`` values, and a value's first
window is the first row and the first column band that cover it.  The
cycle-level timing model, the exact pipeline, the DRAM traffic
accounting, and the SRAM working-set checks all consume this one
schedule, so they cannot disagree about the dataflow.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.nn.im2col import receptive_field_indices
from repro.nn.shapes import ConvLayerSpec


@dataclass(frozen=True)
class LocationStep:
    """One kernel location in the schedule.

    Attributes:
        index: location index in raster order (0 .. Nlocs-1).
        row: output row of this location.
        col: output column of this location.
        new_values: count of receptive-field values not present at the
            previous location (the DAC/DRAM load for this step).
        retired_values: count of values that left the window.
        working_set: receptive-field size (always ``Nkernel``).
        is_row_start: whether this location begins a new output row.
    """

    index: int
    row: int
    col: int
    new_values: int
    retired_values: int
    working_set: int
    is_row_start: bool


class LayerSchedule:
    """The raster-order location schedule of one conv layer.

    Args:
        spec: layer geometry.

    Every per-location count is closed-form in the window geometry, so
    it is exact for any stride/padding combination, including row
    wrap-around where the paper's ``nc * m * s`` steady-state bound does
    not apply.  The padded-input indices of each receptive field come
    from the shared :func:`~repro.nn.im2col.receptive_field_indices`
    map, built on first use.
    """

    def __init__(self, spec: ConvLayerSpec) -> None:
        self.spec = spec

    @property
    def num_locations(self) -> int:
        """Total kernel locations (``Nlocs``)."""
        return self.spec.n_locs

    @cached_property
    def _indices(self) -> np.ndarray:
        spec = self.spec
        return receptive_field_indices(
            height=spec.n,
            width=spec.n,
            channels=spec.nc,
            kernel_size=spec.m,
            stride=spec.s,
            padding=spec.p,
        )

    def indices_for(self, location: int) -> np.ndarray:
        """Padded-input flat indices of one location's receptive field.

        Raises:
            IndexError: if ``location`` is out of range.
        """
        if not 0 <= location < self.num_locations:
            raise IndexError(
                f"location {location} out of range [0, {self.num_locations})"
            )
        return self._indices[location]

    def steps(self) -> Iterator[LocationStep]:
        """Yield every location step with its new/retired value counts."""
        out_side = self.spec.output_side
        window = self.spec.n_kernel
        for location, new_values in enumerate(self.new_value_counts().tolist()):
            row, col = divmod(location, out_side)
            yield LocationStep(
                index=location,
                row=row,
                col=col,
                new_values=new_values,
                retired_values=new_values if location else 0,
                working_set=window,
                is_row_start=(col == 0),
            )

    def new_value_counts(self) -> np.ndarray:
        """Array of ``new_values`` per location (length ``Nlocs``).

        The first location loads its whole window; every later one loads
        the window less what it shares with the previous location (and
        retires as many values as it loads).
        """
        spec = self.spec
        rows, cols = np.divmod(np.arange(self.num_locations), spec.output_side)
        dy = np.diff(rows) * spec.s
        dx = np.abs(np.diff(cols)) * spec.s
        shared = spec.nc * np.maximum(spec.m - dy, 0) * np.maximum(spec.m - dx, 0)
        counts = np.full(self.num_locations, spec.n_kernel, dtype=np.int64)
        counts[1:] -= shared
        return counts

    def first_touch_counts(self) -> np.ndarray:
        """Per-location counts of values touched for the first time.

        A value enters the sliding window at up to ``m / s`` different
        locations, but only its *first* appearance requires a DRAM fetch
        when the SRAM cache can hold the live working set (the ``m``-row
        band of the padded input).  Subsequent appearances hit in SRAM.

        A value's first window is the first row band and the first
        column band that cover it: band 0 covers ``m`` new coordinates,
        every later band ``min(m, s)``.

        Returns:
            Array of length ``Nlocs``; entry ``i`` is the number of
            padded-input values whose first window membership is at
            location ``i``.  Sums to the number of distinct values the
            layer ever touches.
        """
        spec = self.spec
        per_band = np.full(spec.output_side, min(spec.m, spec.s), dtype=np.int64)
        per_band[0] = spec.m
        return spec.nc * np.outer(per_band, per_band).reshape(-1)

    def working_set_values(self) -> int:
        """Live SRAM working set: the ``m``-row band of the padded input.

        While the window walks one output row, every value in the ``m``
        input rows it covers is still live (it will be reused by later
        columns); capacity below this forces re-fetching.
        """
        padded_side = self.spec.n + 2 * self.spec.p
        return self.spec.nc * self.spec.m * padded_side

    def total_values_loaded(self) -> int:
        """Total values fetched over the layer (sum of new values).

        Thanks to stride reuse this is far below ``Nlocs * Nkernel``; with
        stride >= m (no overlap) it approaches the padded-input coverage.
        """
        return int(self.new_value_counts().sum())

    def steady_state_bound(self) -> int:
        """The paper's per-step bound ``nc * m * s`` (section V-B).

        Holds for every step except row starts (which refill up to the
        full window) — asserted by the test suite.
        """
        return self.spec.stride_update_values


def dram_traffic_bytes(
    spec: ConvLayerSpec, value_bytes: int = 2
) -> dict[str, int]:
    """Layer DRAM traffic under the Fig. 4 dataflow (bytes).

    Reads: every newly-required input value (stride reuse respected) plus
    the kernel weights once.  Writes: the full output feature map.

    Args:
        spec: layer geometry.
        value_bytes: bytes per stored value (paper: 16-bit = 2).

    Returns:
        Mapping with ``input_read``, ``weight_read``, ``output_write``
        and ``total`` byte counts.
    """
    if value_bytes <= 0:
        raise ValueError(f"value width must be positive, got {value_bytes!r}")
    schedule = LayerSchedule(spec)
    input_read = schedule.total_values_loaded() * value_bytes
    weight_read = spec.total_weights * value_bytes
    output_write = spec.n_output * value_bytes
    return {
        "input_read": input_read,
        "weight_read": weight_read,
        "output_write": output_write,
        "total": input_read + weight_read + output_write,
    }
