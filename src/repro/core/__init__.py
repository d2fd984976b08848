"""PCNNA core: the paper's contribution.

Analytical framework (ring counts, area, execution time — paper section
V), MRR-bank mapping with receptive-field filtering (section IV, Fig. 2),
the receptive-field dataflow scheduler, the cycle-level timing simulator,
the functional photonic convolution engine, and power/area roll-ups.

The package re-exports the front doors the examples and the README
import from ``repro.core``; everything else is imported from its
submodule (``repro.core.simkernel``, ``repro.core.timing``, ...).
"""

from repro.core.accelerator import PCNNA, PhotonicConvolution
from repro.core.adaptive import AdaptiveRecalibration
from repro.core.analytical import (
    analyze_network,
    full_system_time_s,
    optical_core_time_s,
    ring_savings_factor,
    speedup,
)
from repro.core.cluster import (
    ClusterTenant,
    ElasticReallocation,
    RoutingPolicy,
    replay_tenant_on_engine,
    simulate_cluster_serving,
)
from repro.core.config import PAPER_CONFIG, PCNNAConfig
from repro.core.faults import (
    DegradedServingSimulator,
    RecalibrationPolicy,
    replay_on_engine_degraded,
    simulate_degraded_serving,
)
from repro.core.fleet import (
    GlobalRoutingPolicy,
    RegionSpec,
    simulate_fleet_serving,
    uniform_rtt,
)
from repro.core.serving import run_network_pipelined
from repro.core.simkernel import BatchingPolicy
from repro.core.traffic import (
    PipelineServiceModel,
    ServingSimulator,
    replay_on_engine,
    simulate_serving,
)

__all__ = [
    "PCNNA",
    "PhotonicConvolution",
    "AdaptiveRecalibration",
    "analyze_network",
    "full_system_time_s",
    "optical_core_time_s",
    "ring_savings_factor",
    "speedup",
    "ClusterTenant",
    "ElasticReallocation",
    "RoutingPolicy",
    "replay_tenant_on_engine",
    "simulate_cluster_serving",
    "PAPER_CONFIG",
    "PCNNAConfig",
    "DegradedServingSimulator",
    "RecalibrationPolicy",
    "replay_on_engine_degraded",
    "simulate_degraded_serving",
    "GlobalRoutingPolicy",
    "RegionSpec",
    "simulate_fleet_serving",
    "uniform_rtt",
    "run_network_pipelined",
    "BatchingPolicy",
    "PipelineServiceModel",
    "ServingSimulator",
    "replay_on_engine",
    "simulate_serving",
]
