"""Silicon/photonic area roll-up (paper section V-A plus periphery).

The paper quantifies microring area (25 um x 25 um per ring; 3456 rings
= 2.2 mm^2) and lists the areas of the cited periphery (DAC 0.52 mm^2
each, SRAM macro 0.443 mm^2).  :func:`estimate_layer_area` combines them
into a per-layer floorplan estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.analytical import (
    bank_area_mm2,
    kernels_per_pass,
    rings_per_kernel_bank,
)
from repro.core.config import PCNNAConfig
from repro.nn.shapes import ConvLayerSpec


@dataclass(frozen=True)
class AreaReport:
    """Component area breakdown (mm^2).

    Attributes:
        spec: the analyzed layer.
        rings_mm2: microring area for the instantiated banks.
        dac_mm2: input + weight DAC area.
        adc_mm2: ADC area.
        sram_mm2: SRAM macro area.
        num_banks: weight banks instantiated.
        rings_per_bank: rings per bank.
    """

    spec: ConvLayerSpec
    rings_mm2: float
    dac_mm2: float
    adc_mm2: float
    sram_mm2: float
    num_banks: int
    rings_per_bank: int

    @property
    def total_mm2(self) -> float:
        """Total estimated area (mm^2)."""
        return self.rings_mm2 + self.dac_mm2 + self.adc_mm2 + self.sram_mm2


def estimate_layer_area(
    spec: ConvLayerSpec, config: PCNNAConfig | None = None
) -> AreaReport:
    """Floorplan estimate for running one layer on PCNNA.

    The ring area covers the instantiated banks (all K kernels unless
    ``max_parallel_kernels`` caps them); periphery areas come from the
    cited parts' datasheets.
    """
    cfg = config if config is not None else PCNNAConfig()
    num_banks = kernels_per_pass(spec, cfg)
    per_bank = rings_per_kernel_bank(spec)
    rings_mm2 = bank_area_mm2(num_banks * per_bank, cfg)
    dac_mm2 = (
        cfg.num_input_dacs * cfg.input_dac.area_mm2
        + cfg.num_weight_dacs * cfg.weight_dac.area_mm2
    )
    adc_mm2 = cfg.num_adcs * cfg.adc.area_mm2
    return AreaReport(
        spec=spec,
        rings_mm2=rings_mm2,
        dac_mm2=dac_mm2,
        adc_mm2=adc_mm2,
        sram_mm2=cfg.sram.area_mm2,
        num_banks=num_banks,
        rings_per_bank=per_bank,
    )


def network_max_area_mm2(
    specs: list[ConvLayerSpec], config: PCNNAConfig | None = None
) -> float:
    """Area of the largest layer — the PCNNA chip is sized for it.

    PCNNA reuses one physical layer's hardware across the network
    (paper section IV), so the chip must fit the largest layer mapping.
    """
    cfg = config if config is not None else PCNNAConfig()
    return max(estimate_layer_area(spec, cfg).total_mm2 for spec in specs)
