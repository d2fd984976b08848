"""Mapping convolution layers onto MRR weight banks (paper Fig. 2, sec. IV).

The paper's central optimization is *receptive-field filtering*: a kernel
only ever sees ``Nkernel = m * m * nc`` input values at a time, so its
weight bank needs ``Nkernel`` rings — not one ring per input-feature-map
value.  This module builds the concrete mapping:

* :class:`KernelBankMapping` — one kernel's bank: rings, and the
  wavelength channel assigned to each (channel, ky, kx) weight position;
* :class:`LayerMapping` — all K banks of a layer, the WDM grid they
  share, and how many wavelength groups are needed when ``Nkernel``
  exceeds the FSR-limited channel count;
* :func:`fig2_ring_counts` — the Fig. 2 comparison (16 x 16 input, five
  3 x 3 kernels): per-kernel and total ring counts with and without
  filtering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.analytical import kernel_passes, kernels_per_pass
from repro.core.config import PCNNAConfig
from repro.nn.shapes import ConvLayerSpec
from repro.photonics.wdm import WdmGrid, channel_count_limit


@dataclass(frozen=True)
class KernelBankMapping:
    """The bank serving one kernel.

    Attributes:
        kernel_index: which kernel (0-based).
        num_rings: rings in this bank (``Nkernel`` under filtering).
        wavelength_of: tuple mapping weight position ``(c, ky, kx)``
            flattened in C-major order to a WDM channel index.
    """

    kernel_index: int
    num_rings: int
    wavelength_of: tuple[int, ...]

    def channel_for(self, c: int, ky: int, kx: int, m: int) -> int:
        """WDM channel of weight position ``(c, ky, kx)`` for kernel side m.

        Raises:
            IndexError: if the flattened position is out of range.
        """
        flat = (c * m + ky) * m + kx
        if not 0 <= flat < len(self.wavelength_of):
            raise IndexError(
                f"weight position ({c}, {ky}, {kx}) out of range for "
                f"{len(self.wavelength_of)} rings"
            )
        return self.wavelength_of[flat]


@dataclass(frozen=True)
class LayerMapping:
    """The full MRR-bank mapping of one convolution layer.

    Attributes:
        spec: the layer being mapped.
        filtered: whether non-receptive-field values are filtered out
            (the paper's optimization; ``False`` models the naive design).
        banks: per-kernel bank mappings.
        rings_per_bank: rings in each bank.
        total_rings: rings across all banks.
        wavelengths_needed: distinct WDM channels the input encoding uses.
        wavelength_groups: serial wavelength reuse groups needed when the
            receptive field exceeds the single-FSR channel limit.
        parallel_kernel_passes: sequential passes to cover K kernels with
            the instantiated banks.
    """

    spec: ConvLayerSpec
    filtered: bool
    banks: tuple[KernelBankMapping, ...]
    rings_per_bank: int
    total_rings: int
    wavelengths_needed: int
    wavelength_groups: int
    parallel_kernel_passes: int

    def wdm_grid(self, config: PCNNAConfig | None = None) -> WdmGrid:
        """A WDM grid sized for one wavelength group of this mapping."""
        cfg = config if config is not None else PCNNAConfig()
        per_group = math.ceil(self.wavelengths_needed / self.wavelength_groups)
        return WdmGrid(num_channels=per_group)


def map_layer(
    spec: ConvLayerSpec,
    config: PCNNAConfig | None = None,
    filtered: bool = True,
) -> LayerMapping:
    """Build the MRR-bank mapping for a layer.

    With ``filtered=True`` each kernel's bank has ``Nkernel`` rings and
    each receptive-field position gets a dedicated wavelength.  With
    ``filtered=False`` every bank carries one ring per input-feature-map
    value (``Ninput`` rings), modeling the naive Fig. 2(a) design.

    Args:
        spec: layer geometry.
        config: hardware configuration (bank count cap, ring design).
        filtered: apply the paper's receptive-field filtering.

    Returns:
        The layer's :class:`LayerMapping`.
    """
    cfg = config if config is not None else PCNNAConfig()
    rings_per_bank = spec.n_kernel if filtered else spec.n_input
    wavelengths = rings_per_bank

    instantiated_banks = kernels_per_pass(spec, cfg)
    passes = kernel_passes(spec, cfg)

    fsr = cfg.ring_design.free_spectral_range_hz()
    grid_limit = channel_count_limit(fsr)
    groups = max(1, math.ceil(wavelengths / grid_limit))

    assignment = tuple(range(rings_per_bank))
    banks = tuple(
        KernelBankMapping(
            kernel_index=index,
            num_rings=rings_per_bank,
            wavelength_of=assignment,
        )
        for index in range(instantiated_banks)
    )
    return LayerMapping(
        spec=spec,
        filtered=filtered,
        banks=banks,
        rings_per_bank=rings_per_bank,
        total_rings=spec.num_kernels * rings_per_bank,
        wavelengths_needed=wavelengths,
        wavelength_groups=groups,
        parallel_kernel_passes=passes,
    )


@dataclass(frozen=True)
class Fig2RingCounts:
    """The Fig. 2 comparison numbers.

    Attributes:
        rings_per_kernel_unfiltered: rings per bank without filtering
            (one per input value).
        rings_per_kernel_filtered: rings per bank with filtering
            (one per receptive-field value).
        total_unfiltered: all banks, unfiltered.
        total_filtered: all banks, filtered.
        savings: unfiltered / filtered ratio.
    """

    rings_per_kernel_unfiltered: int
    rings_per_kernel_filtered: int
    total_unfiltered: int
    total_filtered: int

    @property
    def savings(self) -> float:
        """Ring-count reduction factor from filtering."""
        return self.total_unfiltered / self.total_filtered


def fig2_ring_counts(
    input_side: int = 16,
    kernel_size: int = 3,
    num_kernels: int = 5,
    channels: int = 1,
) -> Fig2RingCounts:
    """Reproduce the paper's Fig. 2 ring-count comparison.

    Defaults are the figure's own scenario: a 16 x 16 input feature map
    and five 3 x 3 kernels, single channel.
    """
    spec = ConvLayerSpec(
        name="fig2",
        n=input_side,
        m=kernel_size,
        nc=channels,
        num_kernels=num_kernels,
    )
    per_kernel_unfiltered = spec.n_input
    per_kernel_filtered = spec.n_kernel
    return Fig2RingCounts(
        rings_per_kernel_unfiltered=per_kernel_unfiltered,
        rings_per_kernel_filtered=per_kernel_filtered,
        total_unfiltered=num_kernels * per_kernel_unfiltered,
        total_filtered=num_kernels * per_kernel_filtered,
    )
