"""Speed gates and bit-identity pins for the kernel and the cluster.

Two kinds of guarantee:

* **Bit identity and simulated time** — deterministic under the fixed
  trace seeds, so asserted in the default run on any machine: the
  kernel-based simulator agrees bit for bit with a verbatim inline copy
  of the pre-kernel loop; the vectorized frozen-allocation fast path
  reproduces the reference event loop on every named mix; the
  ``workers=4`` policy grid is byte-identical to serial; and
  weighted-fair routing keeps the minority tenant's p99 *bit-identical
  to running alone* while a 10x-load neighbour saturates the pool and
  sheds its overload.

* **Wall time** — the ``perf``-marked gates, run with
  ``pytest -m perf benchmarks``: the kernel stays within 1.1x of the
  inline loop on a soak-scale trace, the vectorized fast path serves
  the named mixes at >= 10x the reference req/s, and ``workers=4``
  delivers >= 2x the serial cells/s on a host with at least four cores.

The mix x pool soak streams every named tenant mix across pool sizes;
since PR 10's frozen-allocation fast path it runs at CI speed and sits
in the default suite.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.analysis import (
    CLUSTER_SWEEP_HEADER,
    default_policy_grid,
    default_scenarios,
    evaluate_policy_grid,
    format_table,
    sweep_cluster_serving,
)
from repro.core.cluster import (
    ClusterTenant,
    ElasticReallocation,
    simulate_cluster_serving,
)
from repro.core.simkernel import (
    BatchingPolicy,
    BatchRecord,
    plan_dispatch,
)
from repro.core.traffic import PipelineServiceModel, ServingSimulator
from repro.workloads import (
    CLUSTER_MIXES,
    cluster_mix,
    lenet5_conv_specs,
    poisson_arrivals,
)
from conftest import emit, measure

KERNEL_RATIO_CEILING = 1.1
SOAK_REQUESTS = 40_000
TIMING_REPEATS = 5

SOAK_RATE_RPS = 50_000.0
SOAK_MIX_REQUESTS = 30_000
VECTORIZED_SPEEDUP_FLOOR = 10.0  # aggregate req/s, vectorized over reference
GRID_WORKERS = 4
GRID_SPEEDUP_FLOOR = 2.0  # cells/s, workers=4 over serial


def _assert_reports_bit_identical(ref, vec) -> None:
    """Every stream of every tenant must agree bit for bit."""
    assert len(ref.tenants) == len(vec.tenants)
    for r, v in zip(ref.tenants, vec.tenants):
        assert r.tenant == v.tenant
        assert r.arrival_s.tobytes() == v.arrival_s.tobytes()
        assert r.dispatch_s.tobytes() == v.dispatch_s.tobytes()
        assert r.completion_s.tobytes() == v.completion_s.tobytes()
        assert r.offered_arrival_s.tobytes() == v.offered_arrival_s.tobytes()
        assert r.shed_arrival_s.tobytes() == v.shed_arrival_s.tobytes()
        assert tuple(r.batches) == tuple(v.batches)
        assert r.core_busy_s == v.core_busy_s
        assert np.array_equal(r.batch_num_cores, v.batch_num_cores)
        assert np.array_equal(r.accuracy_proxy, v.accuracy_proxy)
    assert ref.pool_size == vec.pool_size
    assert ref.routing == vec.routing
    assert ref.schedule_name == vec.schedule_name
    assert ref.recalibration_name == vec.recalibration_name
    assert ref.core_downtime_s == vec.core_downtime_s
    assert ref.final_core_errors == vec.final_core_errors
    assert ref.reallocations == vec.reallocations
    assert ref.recalibrations == vec.recalibrations


def _inline_pr3_loop(model, policy, arrivals):
    """A verbatim copy of the pre-kernel ServingSimulator event loop.

    The oracle the bit pin and the wall-time gate compare against: same
    ``plan_dispatch``, same pipeline-walk floats, no context or hook
    indirection.
    """
    num_requests = arrivals.size
    num_cores = model.num_cores
    core_free = [0.0] * num_cores
    core_busy = [0.0] * num_cores
    dispatch_s = np.empty(num_requests)
    completion_s = np.empty(num_requests)
    batches = []
    head = 0
    while head < num_requests:
        dispatch, size = plan_dispatch(arrivals, head, policy, core_free[0])
        start = dispatch
        for core in range(num_cores):
            begun = max(start, core_free[core])
            busy = model.core_busy_s(core, size)
            start = begun + busy
            core_free[core] = start
            core_busy[core] += busy
        batches.append(
            BatchRecord(
                index=len(batches),
                first_request=head,
                size=size,
                dispatch_s=dispatch,
                completion_s=start,
            )
        )
        dispatch_s[head : head + size] = dispatch
        completion_s[head : head + size] = start
        head += size
    return completion_s, tuple(batches), tuple(core_busy)


def _fifo_soak(alexnet_specs):
    """FIFO at 4x capacity maximizes the per-batch loop overhead (one
    dispatch per request), the worst case for the kernel refactor."""
    model = PipelineServiceModel.from_specs(alexnet_specs, 4)
    policy = BatchingPolicy.fifo()
    arrivals = poisson_arrivals(
        4.0 * model.capacity_rps(1), SOAK_REQUESTS, seed=13
    )
    return model, policy, arrivals


@pytest.mark.parametrize(
    "policy",
    [
        BatchingPolicy.fifo(),
        BatchingPolicy.dynamic(8, 1e-4),
        BatchingPolicy.fixed(4),
    ],
    ids=["fifo", "dynamic", "fixed"],
)
@pytest.mark.parametrize("mode", ["auto", "reference"])
def test_kernel_refactor_matches_inline_loop(alexnet_specs, mode, policy):
    """The PR 4-style soak through the kernel, in every mode and under
    every batching recipe, is bit-identical to the inline pre-kernel
    loop: an oracle that shares no loop code with the simulators."""
    model, _, arrivals = _fifo_soak(alexnet_specs)
    completions, batches, core_busy = _inline_pr3_loop(
        model, policy, arrivals
    )
    report = ServingSimulator(model, policy, mode=mode).run(arrivals)
    assert report.completion_s.tobytes() == completions.tobytes()
    assert report.batches == batches
    assert repr(report.core_busy_s) == repr(core_busy)


@pytest.mark.perf
def test_kernel_refactor_within_1p1x_of_inline_loop(alexnet_specs):
    """The same soak, timed: the kernel's indirection stays within
    1.1x of the inline loop's wall time."""
    model, policy, arrivals = _fifo_soak(alexnet_specs)
    inline = measure(
        lambda: _inline_pr3_loop(model, policy, arrivals),
        repeats=TIMING_REPEATS,
    )
    kernel = measure(
        lambda: ServingSimulator(model, policy).run(arrivals),
        repeats=TIMING_REPEATS,
    )
    ratio = kernel.min_s / inline.min_s
    emit(
        f"{SOAK_REQUESTS}-request FIFO soak: inline loop {inline.min_s:.3f} s "
        f"(median {inline.median_s:.3f}), unified kernel {kernel.min_s:.3f} s "
        f"(median {kernel.median_s:.3f}) -> {ratio:.2f}x "
        f"(ceiling {KERNEL_RATIO_CEILING}x)"
    )
    assert ratio <= KERNEL_RATIO_CEILING


def test_weighted_fair_bounds_minority_p99_under_10x_load():
    """The routing guarantee, in simulated time: while the majority
    tenant offers ~2x the pool's capacity and sheds the excess, the
    minority tenant's whole latency distribution is bit-identical to
    serving alone on its guaranteed share."""
    specs = tuple(lenet5_conv_specs())
    single = PipelineServiceModel.from_specs(list(specs), 1)
    majority_rate = 2.0 * single.capacity_rps(16)
    minority_rate = majority_rate / 10.0

    majority = ClusterTenant(
        "majority",
        specs,
        BatchingPolicy.dynamic(16, 1e-3),
        queue_cap=128,
    )
    minority = ClusterTenant(
        "minority", specs, BatchingPolicy.dynamic(4, 1e-4)
    )
    arrivals = {
        "majority": poisson_arrivals(majority_rate, 20_000, seed=11),
        "minority": poisson_arrivals(minority_rate, 2_000, seed=12),
    }
    report = simulate_cluster_serving(
        [majority, minority],
        arrivals,
        pool_size=2,
        elastic=ElasticReallocation(),
    )
    heavy = report.tenant("majority")
    light = report.tenant("minority")

    # The majority saturates its share and sheds the overload...
    assert heavy.shed_fraction > 0.3
    assert heavy.p99_s < 0.1  # bounded by admission control, not horizon
    # ...while weighted-fair keeps the minority's core untouched: its
    # run is bit-identical to having the share to itself.
    alone = simulate_cluster_serving(
        [minority], {"minority": arrivals["minority"]}, pool_size=1
    ).tenant("minority")
    assert np.array_equal(light.completion_s, alone.completion_s)
    assert light.p99_s == alone.p99_s
    assert light.num_shed == 0
    assert np.all(light.batch_num_cores == 1)

    emit(
        f"10x noisy neighbour on a 2-core pool: majority served "
        f"{heavy.num_requests}/{heavy.num_offered} "
        f"(shed {heavy.shed_fraction:.0%}, p99 "
        f"{heavy.p99_s * 1e6:.0f} us); minority p99 "
        f"{light.p99_s * 1e6:.0f} us, bit-identical to serving alone"
    )


def test_soak_every_mix_across_pool_sizes():
    """Cluster soak: every named mix, three pool sizes, conservation
    and causality over long horizons.

    Frozen allocations, so every lane rides the PR 10 vectorized fast
    path — this soak was ``slow``-marked when it crawled through the
    per-event reference loop; now it runs in the default suite.
    """
    rows = []
    for name in CLUSTER_MIXES:
        tenants, arrivals = cluster_mix(name, 50_000.0, 30_000, seed=13)
        pools = [len(tenants), len(tenants) + 2, len(tenants) * 3]
        points = sweep_cluster_serving(tenants, arrivals, pools)
        for point in points:
            for sub in point.report.tenants:
                assert sub.num_requests + sub.num_shed == sub.num_offered
                assert np.all(sub.dispatch_s >= sub.arrival_s)
                assert np.all(sub.completion_s > sub.dispatch_s)
                assert np.isfinite(sub.latencies_s).all()
            rows.extend(
                [name, *row] for row in point.rows()
            )
    emit(
        format_table(
            ["mix", *CLUSTER_SWEEP_HEADER],
            rows,
            title="cluster soak: tenant mix x pool size",
        )
    )


def _soak_mixes():
    """``(name, tenants, arrivals, pool)`` for every named mix."""
    for name in CLUSTER_MIXES:
        tenants, arrivals = cluster_mix(
            name, SOAK_RATE_RPS, SOAK_MIX_REQUESTS, seed=13
        )
        yield name, tenants, arrivals, len(tenants) * 2


def test_multi_tenant_soak_vectorized_bit_identical():
    """On every named frozen-allocation mix the vectorized fast path
    reproduces the reference event loop bit for bit."""
    for _, tenants, arrivals, pool in _soak_mixes():
        ref = simulate_cluster_serving(
            tenants, arrivals, pool_size=pool, mode="reference"
        )
        vec = simulate_cluster_serving(
            tenants, arrivals, pool_size=pool, mode="auto"
        )
        _assert_reports_bit_identical(ref, vec)


@pytest.mark.perf
def test_multi_tenant_soak_vectorized_speedup():
    """The PR 10 tentpole gate: in aggregate over the named mixes, the
    vectorized fast path serves requests at >= 10x the reference
    req/s."""
    ref_total_s = 0.0
    vec_total_s = 0.0
    total_requests = 0
    rows = []
    for name, tenants, arrivals, pool in _soak_mixes():
        ref = measure(
            lambda: simulate_cluster_serving(
                tenants, arrivals, pool_size=pool, mode="reference"
            )
        )
        vec = measure(
            lambda: simulate_cluster_serving(
                tenants, arrivals, pool_size=pool, mode="auto"
            )
        )
        served = sum(sub.num_offered for sub in ref.result.tenants)
        rows.append(
            f"  {name}: {served} requests, reference {ref.min_s:.3f} s, "
            f"vectorized {vec.min_s:.3f} s -> {ref.min_s / vec.min_s:.1f}x"
        )
        ref_total_s += ref.min_s
        vec_total_s += vec.min_s
        total_requests += served
    speedup = ref_total_s / vec_total_s
    emit(
        f"multi-tenant soak ({total_requests} requests over "
        f"{len(CLUSTER_MIXES)} mixes): reference {ref_total_s:.3f} s, "
        f"vectorized {vec_total_s:.3f} s -> {speedup:.1f}x "
        f"(floor {VECTORIZED_SPEEDUP_FLOOR}x)\n" + "\n".join(rows)
    )
    assert speedup >= VECTORIZED_SPEEDUP_FLOOR


def _grid():
    scenarios = default_scenarios(num_requests=200, rate_rps=2000.0)
    return scenarios, default_policy_grid()


def test_policy_grid_workers_byte_identical():
    """Grid executor: ``workers=4`` over the default dominance grid is
    byte-identical to serial."""
    scenarios, policies = _grid()
    serial = evaluate_policy_grid(scenarios, policies)
    fanned = evaluate_policy_grid(scenarios, policies, workers=GRID_WORKERS)

    assert len(fanned) == len(serial) == len(scenarios) * len(policies)
    for a, b in zip(serial, fanned):
        assert a.scenario == b.scenario
        assert a.policy == b.policy
        assert a.baseline == b.baseline
        assert a.availability == b.availability
        assert a.accuracy_error == b.accuracy_error
        assert a.p99_latency_s == b.p99_latency_s
        assert a.downtime_s == b.downtime_s
        assert (a.served, a.offered, a.shed) == (b.served, b.offered, b.shed)
        assert a.recalibrations == b.recalibrations
        _assert_reports_bit_identical(a.report, b.report)


@pytest.mark.perf
@pytest.mark.skipif(
    (os.cpu_count() or 1) < GRID_WORKERS,
    reason="process parallelism cannot beat serial without enough cores",
)
def test_policy_grid_parallel_cells_per_second():
    """Grid executor gate: ``workers=4`` delivers >= 2x the serial
    cells/s on the default dominance grid."""
    scenarios, policies = _grid()
    cells = len(scenarios) * len(policies)
    serial = measure(lambda: evaluate_policy_grid(scenarios, policies))
    parallel = measure(
        lambda: evaluate_policy_grid(
            scenarios, policies, workers=GRID_WORKERS
        )
    )
    speedup = serial.min_s / parallel.min_s
    emit(
        f"policy grid ({cells} cells): serial {serial.min_s:.2f} s "
        f"({cells / serial.min_s:.1f} cells/s), workers={GRID_WORKERS} "
        f"{parallel.min_s:.2f} s ({cells / parallel.min_s:.1f} cells/s) "
        f"-> {speedup:.2f}x (floor {GRID_SPEEDUP_FLOOR}x)"
    )
    assert speedup >= GRID_SPEEDUP_FLOOR
