"""Named multi-tenant traffic mixes for cluster serving studies.

The cluster runtime (:mod:`repro.core.cluster`) takes arbitrary tenant
sets; studies, examples, and tests want *named, reproducible* ones.
Each mix here is a pure function of ``(name, rate_rps, num_requests,
seed)`` — the same arguments always build the same tenants and the same
per-tenant arrival traces — so cluster sweeps and the hypothesis suite
stay bit-reproducible.

The mixes cover the scenario axes the cluster layer exists for:

* ``interactive-batch`` — a latency-sensitive LeNet-5 front end
  (small dynamic batches, tight queue cap) sharing the pool with a
  throughput-oriented GoogLeNet-stem back end (full fixed batches,
  deep queue);
* ``model-zoo`` — four architectures (LeNet-5, AlexNet, GoogLeNet
  stem, VGG-16) co-served with equal weights, the heterogeneous
  "many models, one pool" deployment;
* ``minority-majority`` — two tenants of the same model where the
  majority offers 10x the minority's load, the canonical fairness
  stress (weighted-fair routing must keep the minority's latency
  bounded while the majority saturates the pool).
"""

from __future__ import annotations

import numpy as np

from repro.core.cluster import ClusterTenant
from repro.core.simkernel import BatchingPolicy, validate_count
from repro.nn.models import build_vgg16
from repro.workloads.serving import serving_network
from repro.workloads.traffic import poisson_arrivals, validate_positive

CLUSTER_MIXES: tuple[str, ...] = (
    "interactive-batch",
    "model-zoo",
    "minority-majority",
)
"""Names accepted by :func:`cluster_mix`."""

_VGG_SCALE = 0.02
"""Channel scale for the VGG-16 tenant (tractable spec sizes)."""


def cluster_mix(
    name: str,
    rate_rps: float,
    num_requests: int,
    seed: int = 0,
    scale: float = 0.05,
) -> tuple[tuple[ClusterTenant, ...], dict[str, np.ndarray]]:
    """Build one of the named tenant mixes and its arrival traces.

    ``rate_rps`` is the *total* offered load; each mix splits it over
    its tenants in fixed proportions, and each tenant's trace length is
    its share of ``num_requests``.  Per-tenant trace seeds derive from
    ``seed`` plus the tenant's position, so traces are independent but
    reproducible.

    Args:
        name: one of :data:`CLUSTER_MIXES`.
        rate_rps: total offered load across the tenants.
        num_requests: total requests across the tenants.
        seed: base RNG seed.
        scale: channel-count multiplier for the scalable networks.

    Returns:
        The tenants (in order) and a per-tenant arrival-trace dict.

    Raises:
        KeyError: on an unknown mix name.
        ValueError: on a rate that is not finite and > 0 or a request
            count that is not an integer >= 1.
    """
    validate_positive(rate_rps, "total rate")
    validate_count(num_requests, "request count")
    # The tenants need only their networks' conv geometry, which does
    # not depend on the weights: build it without drawing any.
    if name == "interactive-batch":
        plan = [
            (
                ClusterTenant.from_network(
                    "interactive",
                    serving_network("lenet5", draw_weights=False),
                    BatchingPolicy.dynamic(4, 1e-4),
                    weight=2.0,
                    priority=1,
                    queue_cap=64,
                ),
                0.7,
            ),
            (
                ClusterTenant.from_network(
                    "batch",
                    serving_network(
                        "googlenet-stem", scale=scale, draw_weights=False
                    ),
                    BatchingPolicy.fixed(16),
                    weight=1.0,
                    priority=0,
                ),
                0.3,
            ),
        ]
    elif name == "model-zoo":
        networks = [
            (net, serving_network(net, scale=scale, draw_weights=False))
            for net in ("lenet5", "alexnet", "googlenet-stem")
        ]
        networks.append(
            ("vgg16", build_vgg16(scale=_VGG_SCALE, draw_weights=False))
        )
        plan = [
            (
                ClusterTenant.from_network(
                    net_name,
                    network,
                    BatchingPolicy.dynamic(8, 1e-3),
                ),
                0.25,
            )
            for net_name, network in networks
        ]
    elif name == "minority-majority":
        network = serving_network("lenet5", draw_weights=False)
        plan = [
            (
                ClusterTenant.from_network(
                    "majority",
                    network,
                    BatchingPolicy.dynamic(16, 1e-3),
                    weight=1.0,
                    queue_cap=128,
                ),
                10.0 / 11.0,
            ),
            (
                ClusterTenant.from_network(
                    "minority",
                    network,
                    BatchingPolicy.dynamic(4, 1e-4),
                    weight=1.0,
                ),
                1.0 / 11.0,
            ),
        ]
    else:
        raise KeyError(f"unknown cluster mix {name!r}; have {CLUSTER_MIXES}")

    tenants = tuple(tenant for tenant, _ in plan)
    arrivals = {}
    for position, (tenant, share) in enumerate(plan):
        requests = max(1, int(round(share * num_requests)))
        arrivals[tenant.name] = poisson_arrivals(
            share * rate_rps, requests, seed=seed + 1000 * (position + 1)
        )
    return tenants, arrivals


__all__ = ["CLUSTER_MIXES", "cluster_mix"]
