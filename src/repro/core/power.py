"""Power and energy models (extension beyond the paper's evaluation).

The paper motivates PCNNA with photonics' "low power consumption" but
never quantifies system power.  This module rolls up component powers
from the same sources the paper cites, so the ablation benchmarks can
report energy-per-inference alongside latency:

* lasers — per-channel optical power / wall-plug efficiency;
* microring thermal tuning — per-ring heater power (Tait-class banks
  dissipate on the order of a milliwatt per actively tuned ring);
* DAC / ADC — datasheet powers of the cited converters;
* SRAM — the cited macro's 25 uW/MHz activity power;
* DRAM — energy per byte moved;
* receivers — TIA power per balanced detector.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.analytical import full_system_time_s, kernels_per_pass
from repro.core.config import PCNNAConfig
from repro.core.scheduler import dram_traffic_bytes
from repro.nn.shapes import ConvLayerSpec

DEFAULT_RING_TUNING_W = 1e-3
"""Average heater power per actively tuned microring (W)."""

DEFAULT_TIA_POWER_W = 3e-3
"""Receiver (balanced detector + TIA) power per output channel (W)."""

DEFAULT_LASER_WALL_PLUG = 0.1
"""Laser wall-plug efficiency used for the bank power roll-up."""

DEFAULT_CHANNEL_OPTICAL_W = 1e-3
"""Optical power per WDM channel (W)."""


@dataclass(frozen=True)
class PowerReport:
    """Component power/energy breakdown for one layer (W / J).

    Attributes:
        spec: the analyzed layer.
        laser_w: laser bank electrical power.
        tuning_w: microring heater power (active banks only).
        dac_w: input + weight DAC power.
        adc_w: ADC power.
        sram_w: SRAM activity power at the sustained access rate.
        receiver_w: balanced-detector/TIA power.
        layer_time_s: DAC-bound layer time used for energy.
        dram_energy_j: DRAM access energy for the layer's traffic.
    """

    spec: ConvLayerSpec
    laser_w: float
    tuning_w: float
    dac_w: float
    adc_w: float
    sram_w: float
    receiver_w: float
    layer_time_s: float
    dram_energy_j: float

    @property
    def total_power_w(self) -> float:
        """Sum of all continuous component powers (W)."""
        return (
            self.laser_w
            + self.tuning_w
            + self.dac_w
            + self.adc_w
            + self.sram_w
            + self.receiver_w
        )

    @property
    def layer_energy_j(self) -> float:
        """Continuous power * layer time + DRAM access energy (J)."""
        return self.total_power_w * self.layer_time_s + self.dram_energy_j

    @property
    def energy_per_mac_j(self) -> float:
        """Layer energy divided by the layer's MAC count (J/MAC)."""
        return self.layer_energy_j / self.spec.macs


def estimate_layer_power(
    spec: ConvLayerSpec,
    config: PCNNAConfig | None = None,
    ring_tuning_w: float = DEFAULT_RING_TUNING_W,
    tia_power_w: float = DEFAULT_TIA_POWER_W,
    laser_wall_plug: float = DEFAULT_LASER_WALL_PLUG,
    channel_optical_w: float = DEFAULT_CHANNEL_OPTICAL_W,
) -> PowerReport:
    """Roll up the power/energy estimate for one conv layer.

    Args:
        spec: layer geometry.
        config: hardware configuration.
        ring_tuning_w: average heater power per tuned ring.
        tia_power_w: receiver power per kernel output.
        laser_wall_plug: laser wall-plug efficiency.
        channel_optical_w: optical power per WDM channel.

    Returns:
        The layer's :class:`PowerReport`.
    """
    cfg = config if config is not None else PCNNAConfig()
    active_banks = kernels_per_pass(spec, cfg)

    num_channels = spec.n_kernel
    laser_w = num_channels * channel_optical_w / laser_wall_plug
    active_rings = active_banks * spec.n_kernel
    tuning_w = active_rings * ring_tuning_w
    dac_w = (
        cfg.num_input_dacs * cfg.input_dac.power_w
        + cfg.num_weight_dacs * cfg.weight_dac.power_w
    )
    adc_w = cfg.num_adcs * cfg.adc.power_w
    receiver_w = active_banks * tia_power_w

    layer_time = full_system_time_s(spec, cfg)
    # SRAM runs at the DAC feed rate during the layer.
    access_rate_hz = min(
        cfg.num_input_dacs * cfg.input_dac.sample_rate_hz, 1.0 / cfg.sram.access_time_s
    )
    sram_w = cfg.sram.power_per_mhz_w * (access_rate_hz / 1e6)

    traffic = dram_traffic_bytes(spec, cfg.value_bytes)
    dram_energy = traffic["total"] * cfg.dram.energy_per_byte_j

    return PowerReport(
        spec=spec,
        laser_w=laser_w,
        tuning_w=tuning_w,
        dac_w=dac_w,
        adc_w=adc_w,
        sram_w=sram_w,
        receiver_w=receiver_w,
        layer_time_s=layer_time,
        dram_energy_j=dram_energy,
    )


def estimate_network_energy_j(
    specs: list[ConvLayerSpec], config: PCNNAConfig | None = None
) -> float:
    """Total conv energy for a network, one inference (J)."""
    cfg = config if config is not None else PCNNAConfig()
    return sum(estimate_layer_power(spec, cfg).layer_energy_j for spec in specs)
