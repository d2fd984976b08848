"""Randomized invariant tests for the batched execution engine.

PR 2 fixed two batched-vs-single divergences (quantized TIA gain, noise
forking) found by hand; these tests generalize that hunt.  Over random
shapes, strides, paddings, batch sizes, and execution modes they assert
the engine's two load-bearing invariants:

* **batch transparency** — executing a minibatch is *bit-identical* to
  stacking per-image executions, for the photonic convolution (ideal and
  quantized), the batch-native electronic ops, whole random layer
  stacks, and the multi-core pipelined runner;
* **geometry honesty** — ``pool_output_size`` / ``conv_output_side``
  (the shape equations every analytical model consumes) agree with the
  shapes the functional ops actually produce.

Noisy mode intentionally does not promise batch transparency (the noise
stream walks the whole wave stack, see ``docs/architecture.md``); what
it does promise — determinism under a fixed seed, batch-size-independent
per-image encodings — is asserted instead.

PR 4 adds the fault-injection engine; over random fault schedules
(random kinds, onset times, magnitudes, affected rings, recalibration
on/off) the degraded simulator must never deadlock, must conserve
requests, and must keep every latency, proxy, and downtime finite and
causally ordered.

PR 5 adds the multi-tenant cluster runtime; over random tenant mixes
(tenant counts, weights, priorities, queue caps, routing, elastic
reallocation) crossed with random pool-level fault schedules, every
tenant must conserve its offered load (``served + shed = offered``),
never leak requests across tenants, keep latencies finite and causal,
and reproduce bit-identically under the same inputs.

PR 6 vectorizes the pluginless serving hot path; over random (policy,
arrival-process, load, tie-quantization) draws the vectorized kernel
must be *bit-identical* to the retained reference event loop on every
per-request and per-batch stream, conserve requests, and keep dispatch
and completion times causal and monotone.

PR 8 adds the planet-scale fleet runtime; over random (region count ×
tenant mix × fault schedule × routing policy) draws the fleet must
conserve the global offered load (``served + shed = offered`` per
stream and globally), never route a request off its home region under
geo-affinity while the home is healthy, keep every served latency
finite and positive, and reproduce byte-identically under a fixed
seed.

PR 9 adds the adaptive control plane; over random (controller gain ×
fault schedule × tenant mix) draws, runs driven by EWMA recalibration,
burn-rate admission, and pressure-scaled reallocation must still
conserve every tenant's offered load, never leak requests across
tenants, keep latencies finite and causal, reproduce byte-identically
under identical inputs, and log a deterministic decision stream.

The streaming engine (per-image gather and encode, a device core that
walks the wave stack in blocks) adds two metamorphic batch properties
for the ideal and quantized-device engines: permuting a batch's images
permutes its outputs bit for bit, and splitting a batch into two
``convolve`` calls changes no output byte, including geometries whose
per-image wave count sits one below, at, or one above a core block.

All randomness is drawn through seeded ``default_rng`` streams from
hypothesis-chosen seeds, so failures shrink and replay deterministically.
"""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    fresh_backlog,
    reference_loops,
    unshared_sweeps,
    verify_admission_walk,
)

from repro.core.accelerator import PCNNA, PhotonicConvolution
from repro.core.adaptive import (
    DECISION_ACTIONS,
    AdaptiveRecalibration,
    BurnRateAdmission,
)
from repro.analysis import (
    default_policy_grid,
    default_scenarios,
    sweep_cluster_serving,
)
from repro.core import cluster, faults
from repro.core.cluster import (
    ClusterSimulator,
    ClusterTenant,
    ElasticReallocation,
    RoutingPolicy,
    simulate_cluster_serving,
)
from repro.core.config import PCNNAConfig
from repro.core.faults import (
    FAULT_KINDS,
    DegradedServingSimulator,
    FaultEvent,
    FaultSchedule,
    RecalibrationPolicy,
    simulate_degraded_serving,
)
from repro.core.fleet import (
    FLEET_ROUTING_KINDS,
    FleetRuntime,
    GlobalRoutingPolicy,
    RegionSpec,
    uniform_rtt,
)
from repro.core.serving import run_network_pipelined
from repro.core.simkernel import plan_batches, plan_dispatch
from repro.core.traffic import (
    BatchingPolicy,
    PipelineServiceModel,
    ServingSimulator,
)
from repro.nn import functional as F
from repro.nn.layers import (
    Conv2D,
    Dense,
    Flatten,
    LocalResponseNorm,
    MaxPool2D,
    ReLU,
    Softmax,
)
from repro.nn.network import Network
from repro.nn.shapes import conv_output_side, pool_output_size
from repro.photonics.broadcast_weight import BLOCK_BYTES
from repro.photonics.noise import realistic
from repro.workloads import (
    alexnet_conv_specs,
    cluster_mix,
    fault_scenario,
    lenet5_conv_specs,
    make_arrivals,
    poisson_arrivals,
    serving_network,
)


@st.composite
def conv_case(draw):
    """A random (batch, feature map, kernels, stride, padding) problem."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    batch = draw(st.integers(min_value=1, max_value=4))
    channels = draw(st.integers(min_value=1, max_value=3))
    height = draw(st.integers(min_value=4, max_value=9))
    width = draw(st.integers(min_value=4, max_value=9))
    kernel = draw(st.integers(min_value=1, max_value=3))
    stride = draw(st.integers(min_value=1, max_value=3))
    padding = draw(st.integers(min_value=0, max_value=2))
    num_kernels = draw(st.integers(min_value=1, max_value=4))
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(batch, channels, height, width))
    k = rng.normal(size=(num_kernels, channels, kernel, kernel))
    return x, k, stride, padding


class TestPhotonicBatchTransparency:
    """convolve(batch) == stack(convolve(image)) bit-exactly."""

    @given(case=conv_case())
    @settings(max_examples=30, deadline=None)
    def test_ideal_matrix_engine(self, case):
        x, k, stride, padding = case
        engine = PhotonicConvolution()
        batched = engine.convolve(x, k, stride, padding)
        stacked = np.stack(
            [engine.convolve(image, k, stride, padding) for image in x]
        )
        assert np.array_equal(batched, stacked)

    @given(case=conv_case())
    @settings(max_examples=15, deadline=None)
    def test_ideal_device_engine(self, case):
        x, k, stride, padding = case
        engine = PhotonicConvolution(method="device")
        batched = engine.convolve(x, k, stride, padding)
        stacked = np.stack(
            [engine.convolve(image, k, stride, padding) for image in x]
        )
        assert np.array_equal(batched, stacked)

    @given(case=conv_case())
    @settings(max_examples=15, deadline=None)
    def test_quantized_device_engine(self, case):
        """The invariant PR 2's per-image TIA gain fix established: an
        image's DAC/ADC quantization never depends on its batch-mates."""
        x, k, stride, padding = case
        engine = PhotonicConvolution(method="device", quantize=True)
        batched = engine.convolve(x, k, stride, padding)
        stacked = np.stack(
            [engine.convolve(image, k, stride, padding) for image in x]
        )
        assert np.array_equal(batched, stacked)

    @given(case=conv_case(), noise_seed=st.integers(min_value=0, max_value=99))
    @settings(max_examples=10, deadline=None)
    def test_noisy_engine_deterministic(self, case, noise_seed):
        """Noisy mode promises reproducibility, not batch transparency:
        identical calls draw identical noise (the NoiseConfig.fork
        invariant PR 2 established), batched or not."""
        x, k, stride, padding = case
        config = PCNNAConfig(noise=realistic(seed=noise_seed))
        engine = PhotonicConvolution(config, method="device")
        first = engine.convolve(x, k, stride, padding)
        second = engine.convolve(x, k, stride, padding)
        assert np.array_equal(first, second)


@st.composite
def streaming_case(draw):
    """A random conv problem with at least two images.

    Half the draws are strips whose per-image wave count sits at a
    device-core block boundary (block - 1, block or block + 1), so one
    image fills a block short, exact or one wave over.
    """
    seed = draw(st.integers(min_value=0, max_value=10_000))
    batch = draw(st.integers(min_value=2, max_value=4))
    channels = draw(st.integers(min_value=3, max_value=6))
    kernel = draw(st.integers(min_value=3, max_value=5))
    stride = draw(st.integers(min_value=1, max_value=2))
    num_kernels = draw(st.integers(min_value=1, max_value=3))
    if draw(st.booleans()):
        block = BLOCK_BYTES // (8 * channels * kernel * kernel)
        waves = block + draw(st.sampled_from([-1, 0, 1]))
        height, width, padding = kernel, (waves - 1) * stride + kernel, 0
    else:
        height = draw(st.integers(min_value=kernel, max_value=12))
        width = draw(st.integers(min_value=kernel, max_value=12))
        padding = draw(st.integers(min_value=0, max_value=2))
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(batch, channels, height, width))
    k = rng.normal(size=(num_kernels, channels, kernel, kernel))
    order = rng.permutation(batch)
    split = int(rng.integers(1, batch))
    return x, k, stride, padding, order, split


class TestStreamingMetamorphic:
    """Which batch an image rides in, and where, changes none of its bytes."""

    ENGINES = {
        "ideal": dict(),
        "quantized-device": dict(method="device", quantize=True),
    }

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    @given(case=streaming_case())
    @settings(max_examples=12, deadline=None)
    def test_permuting_images_permutes_outputs(self, engine, case):
        x, k, stride, padding, order, _ = case
        conv = PhotonicConvolution(**self.ENGINES[engine])
        whole = conv.convolve(x, k, stride, padding)
        permuted = conv.convolve(x[order], k, stride, padding)
        assert np.array_equal(permuted, whole[order])

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    @given(case=streaming_case())
    @settings(max_examples=12, deadline=None)
    def test_splitting_a_batch_changes_no_byte(self, engine, case):
        x, k, stride, padding, _, split = case
        conv = PhotonicConvolution(**self.ENGINES[engine])
        whole = conv.convolve(x, k, stride, padding)
        halves = np.concatenate(
            [
                conv.convolve(x[:split], k, stride, padding),
                conv.convolve(x[split:], k, stride, padding),
            ]
        )
        assert whole.tobytes() == halves.tobytes()


@st.composite
def electronic_stack_case(draw):
    """A random electronic-layer stack with a fitting input."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    channels = draw(st.integers(min_value=1, max_value=4))
    side = draw(st.integers(min_value=5, max_value=12))
    batch = draw(st.integers(min_value=1, max_value=4))
    shape: tuple[int, ...] = (channels, side, side)
    layers = []

    if draw(st.booleans()):
        num_kernels = draw(st.integers(min_value=1, max_value=4))
        kernel = draw(st.integers(min_value=1, max_value=min(3, side)))
        stride = draw(st.integers(min_value=1, max_value=2))
        bias = rng.normal(size=num_kernels) if draw(st.booleans()) else None
        conv = Conv2D(
            rng.normal(size=(num_kernels, channels, kernel, kernel)),
            stride=stride,
            bias=bias,
        )
        layers.append(conv)
        shape = conv.output_shape(shape)
    layers.append(ReLU())
    if draw(st.booleans()):
        layers.append(LocalResponseNorm(size=draw(st.integers(1, 5))))
    pool = draw(st.integers(min_value=1, max_value=3))
    if shape[1] >= pool and draw(st.booleans()):
        pool_layer = MaxPool2D(pool, stride=draw(st.integers(1, 2)))
        layers.append(pool_layer)
        shape = pool_layer.output_shape(shape)
    layers.append(Flatten())
    features = shape[0] * shape[1] * shape[2]
    out = draw(st.integers(min_value=1, max_value=5))
    layers.append(
        Dense(
            rng.normal(size=(out, features)),
            bias=rng.normal(size=out) if draw(st.booleans()) else None,
        )
    )
    if draw(st.booleans()):
        layers.append(Softmax())
    network = Network(layers, input_shape=(channels, side, side), name="rand")
    inputs = rng.normal(size=(batch, channels, side, side))
    return network, inputs


class TestNetworkBatchTransparency:
    @given(case=electronic_stack_case())
    @settings(max_examples=40, deadline=None)
    def test_forward_batch_equals_stacked_forward(self, case):
        """Network.forward_batch == stacked per-image forward, bit-exact,
        for random stacks of every electronic layer type."""
        network, inputs = case
        batched = network.forward_batch(inputs)
        stacked = np.stack([network.forward(image) for image in inputs])
        assert np.array_equal(batched, stacked)

    @given(case=electronic_stack_case())
    @settings(max_examples=10, deadline=None)
    def test_run_network_batched_equals_stacked(self, case):
        """The accelerator facade keeps the same invariant end to end
        (photonic convs + electronic rest) in ideal mode."""
        network, inputs = case
        accelerator = PCNNA()
        batched = accelerator.run_network(network, inputs)
        stacked = np.stack(
            [accelerator.run_network(network, image) for image in inputs]
        )
        assert np.array_equal(batched, stacked)

    @given(
        case=electronic_stack_case(),
        cores=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=10, deadline=None)
    def test_pipelined_runner_preserves_outputs(self, case, cores):
        """Splitting layers over cores never changes the outputs."""
        network, inputs = case
        if not network.conv_specs():
            return  # conv-free stacks cannot be pipelined (tested elsewhere)
        result = run_network_pipelined(network, inputs, cores, clamp_cores=True)
        assert np.array_equal(result.outputs, PCNNA().run_network(network, inputs))


class TestGeometryHonesty:
    """The shape equations match the shapes the ops actually produce."""

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        height=st.integers(min_value=1, max_value=12),
        width=st.integers(min_value=1, max_value=12),
        pool=st.integers(min_value=1, max_value=4),
        stride=st.integers(min_value=1, max_value=4),
        batch=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_pool_output_size_matches_max_pool2d(
        self, seed, height, width, pool, stride, batch
    ):
        if pool > min(height, width):
            with pytest.raises(ValueError):
                pool_output_size(min(height, width), pool, stride)
            return
        expected = (
            pool_output_size(height, pool, stride),
            pool_output_size(width, pool, stride),
        )
        rng = np.random.default_rng(seed)
        single = F.max_pool2d(rng.normal(size=(2, height, width)), pool, stride)
        assert single.shape == (2, *expected)
        batched = F.max_pool2d(
            rng.normal(size=(batch, 2, height, width)), pool, stride
        )
        assert batched.shape == (batch, 2, *expected)
        layer = MaxPool2D(pool, stride=stride)
        assert layer.output_shape((2, height, width)) == (2, *expected)

    @given(case=conv_case())
    @settings(max_examples=30, deadline=None)
    def test_conv_output_side_matches_engines(self, case):
        x, k, stride, padding = case
        batch, _, height, width = x.shape
        expected = (
            conv_output_side(height, k.shape[2], padding, stride),
            conv_output_side(width, k.shape[2], padding, stride),
        )
        functional = F.conv2d_batch(x, k, stride, padding)
        assert functional.shape == (batch, k.shape[0], *expected)
        photonic = PhotonicConvolution().convolve(x, k, stride, padding)
        assert photonic.shape == (batch, k.shape[0], *expected)


_FAULT_HORIZON_S = 0.1
"""Rough span of the random arrival traces the fault cases serve."""


@st.composite
def fault_event_case(draw, num_cores: int):
    """One random fault event, onset inside (or beyond) the horizon."""
    kind = draw(st.sampled_from(FAULT_KINDS))
    # Deliberately allow cores beyond the pipeline: such events are inert.
    core = draw(st.integers(min_value=0, max_value=num_cores))
    onset = draw(
        st.floats(
            min_value=0.0, max_value=1.5 * _FAULT_HORIZON_S, allow_nan=False
        )
    )
    duration = draw(
        st.one_of(
            st.just(math.inf),
            st.floats(min_value=1e-3, max_value=_FAULT_HORIZON_S),
        )
    )
    if kind == "thermal_ramp":
        magnitude = draw(st.floats(min_value=0.0, max_value=20.0))
    elif kind == "crosstalk":
        magnitude = draw(st.floats(min_value=0.0, max_value=0.8))
    else:
        magnitude = draw(st.floats(min_value=0.0, max_value=1.0))
    rings = tuple(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=7),
                min_size=1,
                max_size=8,
                unique=True,
            )
        )
    )
    return FaultEvent(
        kind=kind,
        core=core,
        onset_s=onset,
        magnitude=magnitude,
        duration_s=duration,
        rings=rings,
    )


@st.composite
def fault_serving_case(draw):
    """A random (schedule, policy, trace, recalibration) serving problem."""
    num_cores = draw(st.integers(min_value=1, max_value=3))
    events = draw(
        st.lists(fault_event_case(num_cores), min_size=0, max_size=5)
    )
    schedule = FaultSchedule(name="hypothesis", events=tuple(events))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    num_requests = draw(st.integers(min_value=5, max_value=150))
    arrivals = poisson_arrivals(
        num_requests / _FAULT_HORIZON_S, num_requests, seed=seed
    )
    policy = draw(
        st.sampled_from(
            [
                BatchingPolicy.fifo(),
                BatchingPolicy.dynamic(8, 1e-3),
                BatchingPolicy.fixed(16),
            ]
        )
    )
    recalibration = draw(
        st.sampled_from([None, RecalibrationPolicy()])
    )
    repartition = draw(st.booleans())
    return schedule, num_cores, arrivals, policy, recalibration, repartition


class TestFaultedServingInvariants:
    """Whatever the faults do, serving must finish, conserve, stay sane."""

    @given(case=fault_serving_case())
    @settings(max_examples=12, deadline=None)
    def test_never_deadlocks_conserves_and_stays_finite(self, case):
        schedule, num_cores, arrivals, policy, recalibration, repartition = (
            case
        )
        specs = alexnet_conv_specs()
        model = PipelineServiceModel.from_specs(specs, num_cores)
        report = DegradedServingSimulator(
            model,
            policy,
            schedule,
            recalibration=recalibration,
            specs=specs if repartition else None,
        ).run(arrivals)

        # Conservation: every request served exactly once, in order.
        assert report.num_requests == arrivals.size
        assert sum(batch.size for batch in report.batches) == arrivals.size
        cursor = 0
        for batch in report.batches:
            assert batch.first_request == cursor
            cursor += batch.size

        # Causality and finiteness: arrivals -> dispatch -> completion.
        assert np.all(np.isfinite(report.dispatch_s))
        assert np.all(np.isfinite(report.completion_s))
        assert np.all(report.dispatch_s >= report.arrival_s)
        assert np.all(report.completion_s > report.dispatch_s)
        assert np.all(report.latencies_s > 0.0)
        assert np.isfinite(report.p99_s)

        # Degradation accounting stays sane.
        assert np.all(np.isfinite(report.accuracy_proxy))
        assert np.all(report.accuracy_proxy >= 0.0)
        assert len(report.accuracy_proxy) == len(report.batches)
        assert np.all(report.batch_num_cores >= 1)
        assert np.all(report.batch_num_cores <= num_cores)
        assert np.all(np.diff(report.batch_num_cores) <= 0)
        assert all(
            0.0 <= downtime < math.inf for downtime in report.core_downtime_s
        )
        assert all(0.0 < a <= 1.0 for a in report.availability)
        if recalibration is None:
            assert report.recalibrations == ()
        if not repartition:
            assert report.repartitions == ()

    @given(case=fault_serving_case())
    @settings(max_examples=6, deadline=None)
    def test_deterministic_under_identical_inputs(self, case):
        """The whole degraded run is a pure function of its inputs."""
        schedule, num_cores, arrivals, policy, recalibration, repartition = (
            case
        )
        specs = alexnet_conv_specs()

        def run():
            model = PipelineServiceModel.from_specs(specs, num_cores)
            return DegradedServingSimulator(
                model,
                policy,
                schedule,
                recalibration=recalibration,
                specs=specs if repartition else None,
            ).run(arrivals)

        first, second = run(), run()
        assert np.array_equal(first.completion_s, second.completion_s)
        assert np.array_equal(first.accuracy_proxy, second.accuracy_proxy)
        assert first.batches == second.batches
        assert first.core_downtime_s == second.core_downtime_s
        assert first.recalibrations == second.recalibrations
        assert first.repartitions == second.repartitions


_TENANT_SPECS = (alexnet_conv_specs, lenet5_conv_specs)


@st.composite
def cluster_tenant_case(draw, index: int):
    """One random tenant: model, policy, weight, priority, queue cap."""
    specs = tuple(draw(st.sampled_from(_TENANT_SPECS))())
    policy = draw(
        st.sampled_from(
            [
                BatchingPolicy.fifo(),
                BatchingPolicy.dynamic(8, 1e-3),
                BatchingPolicy.fixed(16),
            ]
        )
    )
    return ClusterTenant(
        name=f"tenant-{index}",
        specs=specs,
        policy=policy,
        weight=draw(st.floats(min_value=0.5, max_value=4.0)),
        priority=draw(st.integers(min_value=0, max_value=2)),
        queue_cap=draw(st.one_of(st.none(), st.integers(8, 64))),
    )


@st.composite
def cluster_serving_case(draw):
    """A random (tenant mix, pool, traces, faults) cluster problem."""
    num_tenants = draw(st.integers(min_value=1, max_value=3))
    tenants = [
        draw(cluster_tenant_case(index)) for index in range(num_tenants)
    ]
    pool_size = draw(
        st.integers(min_value=num_tenants, max_value=num_tenants + 3)
    )
    arrivals = {}
    for position, tenant in enumerate(tenants):
        seed = draw(st.integers(min_value=0, max_value=10_000))
        count = draw(st.integers(min_value=5, max_value=80))
        arrivals[tenant.name] = poisson_arrivals(
            count / _FAULT_HORIZON_S, count, seed=seed
        )
    events = draw(
        st.lists(fault_event_case(pool_size), min_size=0, max_size=4)
    )
    schedule = (
        FaultSchedule(name="hypothesis", events=tuple(events))
        if events
        else None
    )
    routing = draw(
        st.sampled_from([RoutingPolicy.weighted_fair(), RoutingPolicy.priority()])
    )
    elastic = draw(
        st.sampled_from([None, ElasticReallocation(min_queue=8)])
    )
    recalibration = draw(st.sampled_from([None, RecalibrationPolicy()]))
    return tenants, pool_size, arrivals, schedule, routing, elastic, recalibration


class TestClusterServingInvariants:
    """Whatever the mix and faults, every tenant conserves and finishes."""

    @given(case=cluster_serving_case())
    @settings(max_examples=10, deadline=None)
    def test_conservation_isolation_and_finiteness(self, case):
        tenants, pool, arrivals, schedule, routing, elastic, recal = case
        report = ClusterSimulator(
            tenants,
            pool,
            routing=routing,
            elastic=elastic,
            schedule=schedule,
            recalibration=recal,
        ).run(arrivals)

        for tenant in tenants:
            sub = report.tenant(tenant.name)
            offered = arrivals[tenant.name]
            # Conservation: served + shed = offered, each exactly once.
            assert sub.num_requests + sub.num_shed == offered.size
            assert sum(batch.size for batch in sub.batches) == sub.num_requests
            cursor = 0
            for batch in sub.batches:
                assert batch.first_request == cursor
                cursor += batch.size
            # No cross-tenant leakage: every served and shed arrival is
            # the tenant's own, and together they partition its trace.
            merged = np.sort(
                np.concatenate([sub.arrival_s, sub.shed_arrival_s])
            )
            assert np.array_equal(merged, offered)
            # Causality and finiteness.
            assert np.all(np.isfinite(sub.completion_s))
            assert np.all(sub.dispatch_s >= sub.arrival_s)
            assert np.all(sub.completion_s > sub.dispatch_s)
            assert np.all(sub.latencies_s > 0.0)
            assert np.isfinite(sub.p99_s)
            # Width and proxy bookkeeping stays per-batch.
            assert len(sub.batch_num_cores) == len(sub.batches)
            assert np.all(sub.batch_num_cores >= 1)
            assert np.all(sub.batch_num_cores <= pool)
            assert np.all(np.isfinite(sub.accuracy_proxy))
            if schedule is None:
                assert np.all(sub.accuracy_proxy == 0.0)
        # Pool-level accounting.
        assert report.num_served + report.num_shed == report.num_offered
        assert all(
            0.0 <= downtime < math.inf for downtime in report.core_downtime_s
        )
        if recal is None or schedule is None:
            assert report.recalibrations == ()

    @given(case=cluster_serving_case())
    @settings(max_examples=5, deadline=None)
    def test_deterministic_under_identical_inputs(self, case):
        tenants, pool, arrivals, schedule, routing, elastic, recal = case

        def run():
            return ClusterSimulator(
                tenants,
                pool,
                routing=routing,
                elastic=elastic,
                schedule=schedule,
                recalibration=recal,
            ).run(arrivals)

        first, second = run(), run()
        assert first.reallocations == second.reallocations
        assert first.recalibrations == second.recalibrations
        for tenant in tenants:
            a, b = first.tenant(tenant.name), second.tenant(tenant.name)
            assert np.array_equal(a.completion_s, b.completion_s)
            assert np.array_equal(a.shed_arrival_s, b.shed_arrival_s)
            assert np.array_equal(a.accuracy_proxy, b.accuracy_proxy)
            assert a.batches == b.batches


# --------------------------------------------------------------------------
# PR 6: vectorized kernel vs reference event loop
# --------------------------------------------------------------------------


@st.composite
def kernel_trace_case(draw):
    """A random (model, policy, trace) pluginless serving problem.

    Policies span all three planner recipes (including the zero- and
    tiny-wait dynamic edges), traces span all three arrival processes at
    loads from starved to saturated, and an optional coarse quantization
    collapses arrivals onto a grid to force simultaneous-arrival ties.
    """
    num_cores = draw(st.integers(min_value=1, max_value=3))
    model = PipelineServiceModel.from_specs(lenet5_conv_specs(), num_cores)
    policy = draw(
        st.sampled_from(
            [
                BatchingPolicy.fifo(),
                BatchingPolicy.dynamic(1, 1e-3),
                BatchingPolicy.dynamic(4, 0.0),
                BatchingPolicy.dynamic(2, 1e-9),
                BatchingPolicy.dynamic(8, 1e-4),
                BatchingPolicy.fixed(3),
                BatchingPolicy.fixed(16),
            ]
        )
    )
    pattern = draw(st.sampled_from(["poisson", "mmpp", "diurnal"]))
    load = draw(st.sampled_from([0.2, 1.0, 4.0, 20.0]))
    num_requests = draw(st.integers(min_value=1, max_value=200))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rate = load * model.capacity_rps(max(policy.max_batch, 1))
    arrivals = make_arrivals(pattern, rate, num_requests, seed=seed)
    if draw(st.booleans()):
        # Quantize onto a coarse grid: rounding is monotone, so the
        # trace stays sorted, but distinct arrivals now collide.
        span = float(arrivals[-1]) if float(arrivals[-1]) > 0.0 else 1.0
        decimals = max(0, int(-np.floor(np.log10(span))) + 1)
        arrivals = np.round(arrivals, decimals)
    return model, policy, arrivals


class TestKernelModeEquivalence:
    """The vectorized kernel is the reference loop, bit for bit."""

    @given(case=kernel_trace_case())
    @settings(max_examples=60, deadline=None)
    def test_vectorized_bit_identical_to_reference(self, case):
        model, policy, arrivals = case
        with reference_loops():
            ref = ServingSimulator(model, policy).run(arrivals)
        vec = ServingSimulator(model, policy).run(arrivals)
        assert ref.dispatch_s.tobytes() == vec.dispatch_s.tobytes()
        assert ref.completion_s.tobytes() == vec.completion_s.tobytes()
        assert ref.core_busy_s == vec.core_busy_s
        assert len(ref.batches) == len(vec.batches)
        assert ref.batches == vec.batches
        for a, b in zip(ref.batches, vec.batches):
            assert a.first_request == b.first_request
            assert a.size == b.size
            assert a.dispatch_s == b.dispatch_s
            assert a.completion_s == b.completion_s

    @given(case=kernel_trace_case())
    @settings(max_examples=40, deadline=None)
    def test_vectorized_run_conserves_and_orders(self, case):
        model, policy, arrivals = case
        report = ServingSimulator(model, policy).run(arrivals)
        n = arrivals.size
        # Conservation: every request lands in exactly one batch, in
        # trace order, and the per-request streams cover the trace.
        sizes = np.array([batch.size for batch in report.batches])
        heads = np.array([batch.first_request for batch in report.batches])
        assert int(sizes.sum()) == n
        assert np.array_equal(heads, np.concatenate(([0], np.cumsum(sizes)[:-1])))
        assert report.dispatch_s.shape == (n,)
        assert report.completion_s.shape == (n,)
        # Causality and monotonicity: dispatch never precedes arrival,
        # completion never precedes dispatch, and batches finish in
        # dispatch order (the pipeline never reorders).
        assert np.all(report.dispatch_s >= report.arrival_s)
        assert np.all(report.completion_s > report.dispatch_s)
        assert np.all(np.diff(report.dispatch_s) >= 0.0)
        assert np.all(np.diff(report.completion_s) >= 0.0)
        assert all(busy >= 0.0 for busy in report.core_busy_s)


# --------------------------------------------------------------------------
# plan_batches vs a scalar plan_dispatch fold
# --------------------------------------------------------------------------

# Dyadic time unit: arrivals, waits and service times are small integer
# multiples of it, so every sum the planner forms is exact and
# ``free == trigger`` ties land on the streak predicates' boundaries.
_UNIT_S = 2.0**-20


@st.composite
def planner_trace_case(draw):
    """A random planning problem built to cross the streak gates.

    The trace is a chain of segments, each a run of equally spaced
    arrivals: *full* segments keep core 0 just ahead of full batches
    (their spacing sits on or one unit past the tie ``m * gap ==
    busy``), *congested* ones arrive faster than core 0 drains full
    batches, *sparse* ones leave every head alone past its deadline,
    and *tie* ones stack simultaneous arrivals.  Full and congested
    segments run long enough to open several streaks, and the draw
    alternates them freely.  Policies cover all three planner shapes
    with ``max_batch`` 2-19 for the dynamic one, and a resumed
    ``head``/``core0_free_s`` starts the plan part-way.
    """
    m = draw(st.integers(min_value=2, max_value=19))
    load = draw(st.integers(min_value=1, max_value=12))
    conv = draw(st.integers(min_value=1, max_value=3))
    busy = load + m * conv
    full_gap = -(-busy // m) + draw(st.integers(min_value=0, max_value=1))
    wait = (m - 1) * full_gap + draw(st.integers(min_value=0, max_value=4))
    shape = draw(st.sampled_from(["dynamic"] * 4 + ["fixed", "fifo"]))
    if shape == "fifo":
        policy = BatchingPolicy.fifo()
    elif shape == "fixed":
        policy = BatchingPolicy.fixed(m)
    else:
        policy = BatchingPolicy.dynamic(m, wait * _UNIT_S)
    gaps = []
    for kind in draw(
        st.lists(
            st.sampled_from(["full", "full", "congested", "sparse", "tie"]),
            min_size=1,
            max_size=6,
        )
    ):
        if kind == "full":
            count = m * draw(st.integers(min_value=1, max_value=160))
            gap = full_gap
        elif kind == "congested":
            count = m * draw(st.integers(min_value=1, max_value=60))
            fastest = max(0, busy // m - 1)
            gap = draw(st.integers(min_value=0, max_value=fastest))
        elif kind == "sparse":
            count = draw(st.integers(min_value=1, max_value=40))
            gap = wait + busy + draw(st.integers(min_value=1, max_value=9))
        else:
            count = draw(st.integers(min_value=2, max_value=3 * m))
            gap = 0
        lead = draw(st.integers(min_value=0, max_value=3 * busy))
        gaps.extend([lead] + [gap] * (count - 1))
    arrivals = np.cumsum(np.array(gaps, dtype=np.int64)) * _UNIT_S
    model = dataclasses.replace(
        PipelineServiceModel.from_specs(lenet5_conv_specs(), 1),
        weight_load_s=(load * _UNIT_S,),
        conv_time_s=(conv * _UNIT_S,),
    )
    head = draw(st.integers(min_value=0, max_value=arrivals.size - 1))
    free = 0.0
    if head and draw(st.booleans()):
        offset = draw(st.integers(min_value=-busy, max_value=4 * busy))
        free = max(0.0, float(arrivals[head]) + offset * _UNIT_S)
    return arrivals, policy, model, head, free


def plan_dispatch_fold(arrivals, policy, model, head, free):
    """The planner's spec: one ``plan_dispatch`` per batch, with core 0
    booked the way a lane commits it."""
    heads, sizes, disp = [], [], []
    while head < arrivals.size:
        dispatch, size = plan_dispatch(arrivals, head, policy, free)
        heads.append(head)
        sizes.append(size)
        disp.append(dispatch)
        free = max(dispatch, free) + model.core_busy_s(0, size)
        head += size
    return np.array(heads), np.array(sizes), np.array(disp, dtype=float)


class TestPlannerScalarFold:
    """``plan_batches`` is the ``plan_dispatch`` fold, batch for batch,
    including across both streaks of the dynamic planner."""

    @given(case=planner_trace_case())
    @settings(max_examples=150, deadline=None)
    def test_plan_batches_is_the_plan_dispatch_fold(self, case):
        arrivals, policy, model, head, free = case
        heads, sizes, disp = plan_batches(arrivals, policy, model, head, free)
        ref_heads, ref_sizes, ref_disp = plan_dispatch_fold(
            arrivals, policy, model, head, free
        )
        assert heads.tolist() == ref_heads.tolist()
        assert sizes.tolist() == ref_sizes.tolist()
        assert disp.tobytes() == ref_disp.tobytes()


# --------------------------------------------------------------------------
# PR 10: frozen-allocation cluster fast path + parallel grid executor
# --------------------------------------------------------------------------


@st.composite
def frozen_cluster_case(draw, max_tenants=3):
    """A random frozen-allocation cluster: no faults, no elastic — the
    shape the vectorized lane decomposition claims to cover exactly.
    Caps are drawn down to 1 so the admission walk and its scalar
    fallback both get exercised, and traces optionally quantize onto a
    coarse grid to pile ties onto cap boundaries."""
    num_tenants = draw(st.integers(min_value=1, max_value=max_tenants))
    tenants = []
    arrivals = {}
    for index in range(num_tenants):
        specs = tuple(draw(st.sampled_from(_TENANT_SPECS))())
        policy = draw(
            st.sampled_from(
                [
                    BatchingPolicy.fifo(),
                    BatchingPolicy.dynamic(8, 1e-3),
                    BatchingPolicy.dynamic(4, 0.0),
                    BatchingPolicy.fixed(8),
                ]
            )
        )
        tenant = ClusterTenant(
            name=f"tenant-{index}",
            specs=specs,
            policy=policy,
            weight=draw(st.floats(min_value=0.5, max_value=4.0)),
            priority=draw(st.integers(min_value=0, max_value=2)),
            queue_cap=draw(st.one_of(st.none(), st.integers(1, 64))),
        )
        count = draw(st.integers(min_value=1, max_value=120))
        seed = draw(st.integers(min_value=0, max_value=10_000))
        trace = poisson_arrivals(count / _FAULT_HORIZON_S, count, seed=seed)
        if draw(st.booleans()):
            span = float(trace[-1]) if float(trace[-1]) > 0.0 else 1.0
            decimals = max(0, int(-np.floor(np.log10(span))) + 1)
            trace = np.round(trace, decimals)
        tenants.append(tenant)
        arrivals[tenant.name] = trace
    pool_size = draw(
        st.integers(min_value=num_tenants, max_value=num_tenants + 3)
    )
    routing = draw(
        st.sampled_from(
            [RoutingPolicy.weighted_fair(), RoutingPolicy.priority()]
        )
    )
    return tenants, pool_size, arrivals, routing


@st.composite
def burn_admission_case(draw):
    """One enabled burn-rate controller, its SLO drawn log-uniformly
    across the served latencies so some runs shed on burn and some
    never do."""
    return BurnRateAdmission(
        slo_latency_s=10.0 ** draw(st.floats(min_value=-6.0, max_value=-2.0)),
        max_burn_rate=draw(st.floats(min_value=0.0, max_value=0.9)),
        window=draw(st.integers(min_value=1, max_value=32)),
    )


def assert_clusters_byte_identical(ref, vec):
    """Every tenant stream, batch table, busy ledger and shed array."""
    assert vec.routing == ref.routing
    for r, v in zip(ref.tenants, vec.tenants, strict=True):
        assert r.tenant == v.tenant
        assert r.arrival_s.tobytes() == v.arrival_s.tobytes()
        assert r.dispatch_s.tobytes() == v.dispatch_s.tobytes()
        assert r.completion_s.tobytes() == v.completion_s.tobytes()
        assert r.shed_arrival_s.tobytes() == v.shed_arrival_s.tobytes()
        assert tuple(r.batches) == tuple(v.batches)
        assert r.core_busy_s == v.core_busy_s
        assert np.array_equal(r.batch_num_cores, v.batch_num_cores)
        assert np.array_equal(r.accuracy_proxy, v.accuracy_proxy)


class TestClusterModeEquivalence:
    """Frozen-allocation clusters: vectorized == reference, byte for
    byte, and the parallel grid executor == serial, byte for byte."""

    @given(case=frozen_cluster_case())
    @settings(max_examples=25, deadline=None)
    def test_cluster_modes_byte_identical(self, case):
        tenants, pool, arrivals, routing = case
        with reference_loops():
            ref = simulate_cluster_serving(
                tenants, arrivals, pool, routing=routing
            )
        vec = simulate_cluster_serving(tenants, arrivals, pool, routing=routing)
        assert_clusters_byte_identical(ref, vec)

    @given(case=frozen_cluster_case(max_tenants=4), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_burn_admission_lanes_byte_identical(self, case, data):
        """A burn judgment reads only its own lane's completions, so a
        frozen cluster under enabled burn-rate controllers is served
        lane by lane exactly as the global loop serves it."""
        tenants, pool, arrivals, routing = case
        admission = {
            tenant.name: data.draw(burn_admission_case())
            for tenant in tenants
        }
        with reference_loops():
            ref = simulate_cluster_serving(
                tenants, arrivals, pool, routing=routing, admission=admission
            )
        vec = simulate_cluster_serving(
            tenants, arrivals, pool, routing=routing, admission=admission
        )
        assert_clusters_byte_identical(ref, vec)

    @given(case=frozen_cluster_case())
    @settings(max_examples=3, deadline=None)
    def test_sweep_workers_byte_identical(self, case):
        """``workers`` in {1, 2, 4} over a pool-size sweep returns the
        same points in the same order with the same bytes."""
        tenants, pool, arrivals, routing = case
        pools = [pool, pool + 1, pool + 2]
        serial = sweep_cluster_serving(
            tenants, arrivals, pools, routing=routing
        )
        for workers in (2, 4):
            fanned = sweep_cluster_serving(
                tenants, arrivals, pools, routing=routing, workers=workers
            )
            assert len(fanned) == len(serial)
            for a, b in zip(serial, fanned):
                assert a.pool_size == b.pool_size
                for r, v in zip(a.report.tenants, b.report.tenants):
                    assert r.tenant == v.tenant
                    assert r.dispatch_s.tobytes() == v.dispatch_s.tobytes()
                    assert (
                        r.completion_s.tobytes() == v.completion_s.tobytes()
                    )
                    assert (
                        r.shed_arrival_s.tobytes()
                        == v.shed_arrival_s.tobytes()
                    )
                    assert tuple(r.batches) == tuple(v.batches)


def admission_fixed_points(seed: int, count: int) -> list[tuple]:
    """Random capped lanes' admission fixed points, as handed to the
    plan check: ``(raw, mask, policy, model, cap, sizes, disp)``.

    Loads run from half to twenty times capacity, caps from one to
    past three batches, and some traces quantize onto a decimal or a
    dyadic grid so ties pile onto cap boundaries and deadlines.
    """
    rng = np.random.default_rng(seed)
    points = []
    real = cluster._verify_admission_plan

    def record(*args):
        points.append(args)
        return real(*args)

    with mock.patch.object(cluster, "_verify_admission_plan", record):
        for _ in range(count):
            num_cores = int(rng.integers(1, 4))
            model = PipelineServiceModel.from_specs(
                lenet5_conv_specs(), num_cores
            )
            m = int(rng.integers(1, 10))
            rate = float(rng.choice([0.5, 1.0, 2.0, 5.0, 20.0]))
            rate *= model.capacity_rps(m)
            count = int(rng.integers(1, 400))
            raw = poisson_arrivals(rate, count, seed=int(rng.integers(1 << 30)))
            wait = float(rng.choice([0.0, 1e-6, 1e-4, 1e-3]))
            grid = rng.random()
            if grid < 0.3:
                span = float(raw[-1]) if float(raw[-1]) > 0.0 else 1.0
                decimals = max(0, int(-np.floor(np.log10(span))) + 1)
                raw = np.round(raw, decimals)
            elif grid < 0.6:
                # A dyadic grid near the mean gap, with the wait on it:
                # deadlines land exactly on later arrivals.
                step = 2.0 ** np.floor(np.log2(1.0 / rate))
                raw = np.floor(raw / step) * step
                wait = step * int(rng.integers(0, 4 * m + 1))
            if rng.random() < 0.8:
                policy = BatchingPolicy.dynamic(m, wait)
            else:
                policy = BatchingPolicy.fixed(m)
            cap = int(rng.integers(1, 3 * m + 2))
            cluster._plan_admitted(
                raw, policy, model, cap, fresh_backlog(model)
            )
    return points


def resumed_admission_points() -> list[tuple]:
    """The plan checks capped faulted cluster lanes run on their epoch
    windows, as ``(raw, mask, policy, model, cap, sizes, disp,
    backlog)``."""
    points = []
    real = cluster._verify_admission_plan

    def record(*args):
        points.append(args)
        return real(*args)

    with mock.patch.object(cluster, "_verify_admission_plan", record):
        for seed, cap in ((1, 2), (2, 8), (3, 64)):
            tenants, arrivals = cluster_mix(
                "interactive-batch", 6e4, 900, seed=seed
            )
            tenants = (
                dataclasses.replace(tenants[0], queue_cap=cap),
                tenants[1],
            )
            horizon = max(float(trace[-1]) for trace in arrivals.values())
            simulate_cluster_serving(
                tenants,
                arrivals,
                pool_size=4,
                schedule=FaultSchedule.uniform_drift(2.0 / horizon, 4),
                recalibration=RecalibrationPolicy(error_threshold=0.02),
            )
        tenants, arrivals, pool, schedule, recal = long_downtime_case(1e5)
        simulate_cluster_serving(
            tenants,
            arrivals,
            pool,
            schedule=schedule,
            recalibration=recal,
        )
        # An idle lane whose core 0 is still busy (after a downtime)
        # until a few arrivals in: the first seal waits for the clock.
        rng = np.random.default_rng(11)
        model = PipelineServiceModel.from_specs(lenet5_conv_specs(), 2)
        for _ in range(60):
            m = int(rng.integers(2, 8))
            raw = poisson_arrivals(
                float(rng.choice([0.5, 2.0, 8.0])) * model.capacity_rps(m),
                int(rng.integers(5, 120)),
                seed=int(rng.integers(1 << 30)),
            )
            busy = float(raw[min(int(rng.integers(0, 6)), raw.size - 1)])
            cluster._plan_admitted(
                raw,
                BatchingPolicy.dynamic(m, float(rng.choice([1e-5, 1e-4]))),
                model,
                int(rng.integers(1, 3 * m)),
                cluster._Backlog(
                    raw[:0], raw[:0], np.zeros(1, np.int64), [busy, 0.0]
                ),
            )
    return points


def long_downtime_case(rate_rps: float):
    """A capped LeNet-5 lane whose 3 ms recalibrations keep core 0 busy
    while a full window of arrivals comes in, as ``(tenants, arrivals,
    pool_size, schedule, recalibration)``."""
    specs = tuple(lenet5_conv_specs())
    trace = poisson_arrivals(rate_rps, 2000, seed=5)
    return (
        [
            ClusterTenant(
                "x", specs, BatchingPolicy.dynamic(4, 1e-4), queue_cap=64
            )
        ],
        {"x": trace},
        3,
        FaultSchedule.uniform_drift(0.3 / float(trace[-1]), 3),
        RecalibrationPolicy(error_threshold=0.02, overhead_s=3e-3),
    )


class TestAdmissionVerifyOracle:
    """The capped lane's closed-form plan check returns the scalar
    batch-by-batch walk's verdict (``oracles.verify_admission_walk``)
    on real fixed points and on plans one dispatch off by an ulp."""

    @staticmethod
    def assert_verdicts_match(points, rng) -> list[bool]:
        verdicts = []
        for *args, disp, backlog in points:
            verdict = verify_admission_walk(*args, disp, backlog)
            assert cluster._verify_admission_plan(*args, disp, backlog) == (
                verdict
            )
            verdicts.append(verdict)
            for _ in range(2):
                nudged = disp.copy()
                k = int(rng.integers(disp.size))
                toward = math.inf if rng.random() < 0.5 else -math.inf
                nudged[k] = np.nextafter(nudged[k], toward)
                assert cluster._verify_admission_plan(
                    *args, nudged, backlog
                ) == verify_admission_walk(*args, nudged, backlog)
        return verdicts

    @pytest.mark.parametrize("seed", [0, 1])
    def test_closed_form_matches_the_walk(self, seed):
        points = admission_fixed_points(seed, 200)
        rng = np.random.default_rng(seed + 100)
        verdicts = self.assert_verdicts_match(points, rng)
        # The sweep reaches both verdicts, so neither side is vacuous.
        assert True in verdicts and False in verdicts

    def test_closed_form_matches_the_walk_resumed(self):
        """Capped faulted lanes check each epoch's window from the
        lane's state: a queue, batches in flight, busy cores."""
        points = resumed_admission_points()
        assert any(
            backlog.queued.size and backlog.inflight_s.size
            for *_, backlog in points
        )
        verdicts = self.assert_verdicts_match(
            points, np.random.default_rng(7)
        )
        assert True in verdicts


@st.composite
def faulted_frozen_cluster_case(draw):
    """A random faulted frozen-allocation cluster: any trigger, caps
    none, tight or loose, some tenants under an enabled burn-rate
    controller, either routing.

    With ``shared`` every tenant offers the same trace under the same
    policy, so their lanes dispatch — and, under uniform drift,
    recalibrate — at the same instants, and the merged logs' order
    rests on the routing's tie key.
    """
    num_tenants = draw(st.integers(min_value=1, max_value=3))
    shared = draw(st.booleans())
    load = draw(st.sampled_from([0.5, 2.0, 8.0]))
    shared_policy = draw(
        st.sampled_from(
            [BatchingPolicy.fifo(), BatchingPolicy.dynamic(4, 1e-4)]
        )
    )
    shared_count = draw(st.integers(min_value=5, max_value=150))
    shared_seed = draw(st.integers(min_value=0, max_value=10_000))
    tenants = []
    arrivals = {}
    admission = {}
    for index in range(num_tenants):
        cap = draw(st.sampled_from(["none", "tight", "loose"]))
        tenant = ClusterTenant(
            name=f"tenant-{index}",
            specs=tuple(draw(st.sampled_from(_TENANT_SPECS))()),
            policy=shared_policy
            if shared
            else draw(
                st.sampled_from(
                    [
                        BatchingPolicy.fifo(),
                        BatchingPolicy.dynamic(4, 1e-4),
                        BatchingPolicy.dynamic(8, 1e-3),
                        BatchingPolicy.fixed(4),
                    ]
                )
            ),
            weight=draw(st.sampled_from([0.5, 1.0, 2.0, 3.0])),
            priority=draw(st.integers(min_value=0, max_value=2)),
            queue_cap={
                "none": None,
                "tight": draw(st.integers(min_value=1, max_value=4)),
                "loose": draw(st.integers(min_value=16, max_value=64)),
            }[cap],
        )
        count = shared_count if shared else draw(st.integers(5, 150))
        seed = shared_seed if shared else draw(st.integers(0, 10_000))
        trace = poisson_arrivals(
            load * count / _FAULT_HORIZON_S, count, seed=seed
        )
        tenants.append(tenant)
        arrivals[tenant.name] = trace
        if draw(st.booleans()):
            admission[tenant.name] = draw(burn_admission_case())
    pool = draw(st.integers(min_value=num_tenants, max_value=num_tenants + 2))
    horizon = max(float(trace[-1]) for trace in arrivals.values())
    if draw(st.booleans()):
        schedule = FaultSchedule.random(
            draw(st.integers(min_value=0, max_value=10_000)),
            pool,
            horizon,
            events_per_core=draw(st.integers(min_value=1, max_value=3)),
            max_drift_k_per_s=draw(st.sampled_from([1.0, 1.0 / horizon])),
        )
    else:
        schedule = FaultSchedule.uniform_drift(
            draw(st.sampled_from([0.03, 0.1, 0.3])) / horizon, pool
        )
    trigger = draw(st.sampled_from(["none", "static", "ewma"]))
    recalibration = {
        "none": None,
        "static": RecalibrationPolicy(
            error_threshold=draw(st.sampled_from([0.02, 0.05]))
        ),
        "ewma": draw(adaptive_controller_case()),
    }[trigger]
    routing = draw(
        st.sampled_from(
            [RoutingPolicy.weighted_fair(), RoutingPolicy.priority()]
        )
    )
    return tenants, pool, arrivals, schedule, recalibration, routing, admission


def run_keeping_health(tenants, pool, arrivals, **options):
    """A cluster run and the pool health it ran against."""
    made = []
    real = cluster.PoolHealth

    def keep(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    with mock.patch.object(cluster, "PoolHealth", keep):
        report = simulate_cluster_serving(tenants, arrivals, pool, **options)
    return report, made[0]


def assert_faulted_clusters_identical(ref, ref_health, vec, vec_health):
    """Streams, tables and ledgers, and both logs in order."""
    assert_clusters_byte_identical(ref, vec)
    assert repr(ref.recalibrations) == repr(vec.recalibrations)
    assert repr(ref.core_downtime_s) == repr(vec.core_downtime_s)
    assert repr(ref.final_core_errors) == repr(vec.final_core_errors)
    if ref_health.trigger is not None:
        assert ref_health.trigger.decisions == vec_health.trigger.decisions


@st.composite
def shared_sweep_case(draw):
    """A faulted single pipeline whose stage cores may share drift
    lineages: uniform drift, a random schedule struck alike on every
    core plus random events on some cores, or a random schedule per
    core; a static or EWMA trigger; a fail threshold or none.  Traces
    run to several hundred batches, so an epoch's probes are read out in
    more than one block."""
    num_cores = draw(st.integers(min_value=2, max_value=4))
    count = draw(st.integers(min_value=50, max_value=700))
    load = draw(st.sampled_from([0.5, 2.0, 8.0]))
    arrivals = poisson_arrivals(
        load * count / _FAULT_HORIZON_S,
        count,
        seed=draw(st.integers(min_value=0, max_value=10_000)),
    )
    horizon = float(arrivals[-1])
    kind = draw(st.sampled_from(["uniform", "shared", "per-core"]))
    if kind == "uniform":
        schedule = FaultSchedule.uniform_drift(
            draw(st.sampled_from([0.03, 0.1, 0.3])) / horizon, num_cores
        )
    else:
        seed = draw(st.integers(min_value=0, max_value=10_000))
        drift = draw(st.sampled_from([1.0, 1.0 / horizon]))
        events = draw(st.integers(min_value=1, max_value=3))
        schedule = FaultSchedule.random(seed, num_cores, horizon, events, drift)
        if kind == "shared":
            alike = FaultSchedule.random(seed + 1, 1, horizon, events, drift)
            loners = draw(st.sets(st.integers(0, num_cores - 1)))
            schedule = FaultSchedule(
                "shared",
                tuple(
                    dataclasses.replace(event, core=core)
                    for core in range(num_cores)
                    for event in alike.events
                )
                + tuple(
                    event for event in schedule.events if event.core in loners
                ),
            )
    recalibration = draw(
        st.one_of(
            st.builds(
                RecalibrationPolicy,
                error_threshold=st.sampled_from([0.02, 0.05]),
            ),
            adaptive_controller_case(),
        )
    )
    fail = draw(st.sampled_from([None, 0.1, 0.3]))
    policy = draw(
        st.sampled_from(
            [
                BatchingPolicy.fifo(),
                BatchingPolicy.dynamic(4, 1e-4),
                BatchingPolicy.dynamic(8, 1e-3),
            ]
        )
    )
    return num_cores, arrivals, schedule, recalibration, fail, policy


def run_faulted_pipeline(
    num_cores, arrivals, schedule, recalibration, fail, policy
):
    """One faulted AlexNet pipeline; ``fail`` ``None`` never drains."""
    specs = alexnet_conv_specs()
    return DegradedServingSimulator(
        PipelineServiceModel.from_specs(specs, num_cores),
        policy,
        schedule,
        recalibration=recalibration,
        specs=None if fail is None else specs,
        fail_error_threshold=0.5 if fail is None else fail,
    ).run(arrivals)


def assert_degraded_reports_identical(a, b, columns=True):
    """Completions, proxies, drift snapshots and both logs, byte for
    byte; with ``columns`` the drift table's columns too, over the
    stages each row uses.  (An epoch interns the fault keys of its whole
    window, so the per-dispatch loop may number the ring sets in another
    order.)"""
    assert a.completion_s.tobytes() == b.completion_s.tobytes()
    assert a.accuracy_proxy.tobytes() == b.accuracy_proxy.tobytes()
    assert a.batch_num_cores.tobytes() == b.batch_num_cores.tobytes()
    assert repr(a.batch_snapshots) == repr(b.batch_snapshots)
    if columns:
        table = a.batch_snapshots
        used = np.arange(table.core.shape[1]) < table.widths[:, None]
        for column in ("core", "residual_shift_hz", "tia_gain", "fault_key"):
            assert (
                getattr(table, column)[used].tobytes()
                == getattr(b.batch_snapshots, column)[used].tobytes()
            ), column
        assert table.faults == b.batch_snapshots.faults
    assert repr(a.recalibrations) == repr(b.recalibrations)
    assert repr(a.decisions) == repr(b.decisions)
    assert repr(a.final_core_errors) == repr(b.final_core_errors)
    assert repr(a.core_downtime_s) == repr(b.core_downtime_s)
    assert a.repartitions == b.repartitions


class TestSharedSweeps:
    """``PoolHealth.cut`` sweeps each distinct drift-probe lineage once
    and reads the probes out block by block up to the cut; sweeping
    every core on its own state, and the per-dispatch loop, are the
    oracles.  Blocks from one instant make the trigger carry on across
    many blocks within one cut."""

    @given(
        case=shared_sweep_case(),
        block=st.sampled_from([1, 3, faults._ERROR_BLOCK]),
    )
    @settings(max_examples=40, deadline=None)
    def test_sharing_changes_no_byte(self, case, block):
        with mock.patch.object(faults, "_ERROR_BLOCK", block):
            shared = run_faulted_pipeline(*case)
        with unshared_sweeps():
            unshared = run_faulted_pipeline(*case)
        assert_degraded_reports_identical(shared, unshared)
        with reference_loops():
            stepped = run_faulted_pipeline(*case)
        assert_degraded_reports_identical(shared, stepped, columns=False)


class TestDecomposedFaultedCluster:
    """A faulted frozen-allocation cluster is served lane by lane, each
    lane in epochs; the global per-dispatch loop is the oracle."""

    @given(case=faulted_frozen_cluster_case())
    @settings(max_examples=60, deadline=None)
    def test_lanes_match_the_global_loop(self, case):
        tenants, pool, arrivals, schedule, recal, routing, admission = case
        options = dict(
            schedule=schedule,
            recalibration=recal,
            routing=routing,
            admission=admission,
        )
        with reference_loops():
            ref = run_keeping_health(tenants, pool, arrivals, **options)
        vec = run_keeping_health(tenants, pool, arrivals, **options)
        assert_faulted_clusters_identical(*ref, *vec)

    @pytest.mark.parametrize("routing", ["weighted-fair", "priority"])
    @pytest.mark.parametrize("trigger", ["static", "ewma"])
    def test_simultaneous_logs_follow_the_tie_key(self, routing, trigger):
        """Three capped tenants offer one trace under uniform drift, so
        every lane recalibrates at the same dispatches; the heavier (or
        higher-priority) later tenants win those ties."""
        specs = tuple(lenet5_conv_specs())
        tenants = [
            ClusterTenant(
                f"t{index}",
                specs,
                BatchingPolicy.dynamic(4, 1e-4),
                weight=float(index + 1),
                priority=index,
                queue_cap=cap,
            )
            for index, cap in enumerate((2, 8, None))
        ]
        trace = poisson_arrivals(3e3, 300, seed=11)
        arrivals = {tenant.name: trace for tenant in tenants}
        base = RecalibrationPolicy(error_threshold=0.02)
        options = dict(
            schedule=FaultSchedule.uniform_drift(0.2 / float(trace[-1]), 6),
            recalibration=(
                base
                if trigger == "static"
                else AdaptiveRecalibration(
                    base=base, smoothing=0.5, pressure_hold=2
                )
            ),
            routing=RoutingPolicy(routing),
        )
        with reference_loops():
            ref = run_keeping_health(tenants, 6, arrivals, **options)
        vec = run_keeping_health(tenants, 6, arrivals, **options)
        assert_faulted_clusters_identical(*ref, *vec)
        # The pin is not vacuous: some instant logs several lanes'
        # recalibrations, and not in tenant order.
        allocations = ClusterSimulator(tenants, 6)._allocations
        owner = {
            core: index
            for index, cores in enumerate(allocations)
            for core in cores
        }
        by_time = {}
        for record in ref[0].recalibrations:
            by_time.setdefault(record.time_s, []).append(owner[record.core])
        assert any(lanes != sorted(lanes) for lanes in by_time.values())

    @pytest.mark.parametrize("rate_rps", [2e4, 1e5])
    def test_windows_end_before_the_first_arrival_past_them(self, rate_rps):
        """After a long recalibration core 0 frees only past a whole
        window of arrivals: the window keeps only batches dispatched
        before the first arrival it has not judged."""
        tenants, arrivals, pool, schedule, recal = long_downtime_case(
            rate_rps
        )
        options = dict(schedule=schedule, recalibration=recal)
        with reference_loops():
            ref = run_keeping_health(tenants, pool, arrivals, **options)
        vec = run_keeping_health(tenants, pool, arrivals, **options)
        assert_faulted_clusters_identical(*ref, *vec)
        assert ref[0].recalibrations and ref[0].num_shed

    def test_tie_key_reads_the_head_at_the_dispatch(self):
        """Weighted-fair ties go to the lane with fewer requests served
        *at that dispatch*: the early-burst tenant leads there, though
        the late-burst tenant ends the run ahead."""
        specs = tuple(lenet5_conv_specs())
        common = 0.02 + 0.005 * np.arange(40)
        arrivals = {
            "early": np.sort(
                np.concatenate((np.linspace(5e-4, 0.01, 100), common))
            ),
            "late": np.sort(
                np.concatenate((common, np.linspace(0.22, 0.23, 200)))
            ),
        }
        tenants = [
            ClusterTenant(name, specs, BatchingPolicy.fifo())
            for name in arrivals
        ]
        options = dict(
            schedule=FaultSchedule.uniform_drift(0.1, 6),
            recalibration=RecalibrationPolicy(error_threshold=0.02),
        )
        with reference_loops():
            ref = run_keeping_health(tenants, 6, arrivals, **options)
        vec = run_keeping_health(tenants, 6, arrivals, **options)
        assert_faulted_clusters_identical(*ref, *vec)
        report = ref[0]
        assert report.tenant("early").num_requests < (
            report.tenant("late").num_requests
        )
        # The late tenant's cores (3-5) log first at the shared instant.
        first = report.recalibrations[0]
        assert first.core == 3
        assert report.recalibrations[3].time_s == first.time_s


@st.composite
def elastic_cluster_case(draw):
    """A random elastic cluster whose cores can move: thresholds drawn
    low, tenants whose traffic ends early (so their cores free up
    mid-run) next to ones that keep a queue, caps none, tight or loose,
    some burn lanes, pools past one core per tenant, either routing,
    and a pristine pool or a random fault schedule under static or EWMA
    recalibration.  ``rounds`` shrinks the epoch loop's first window
    (and with it the speculation rounds, 4x that many batches) so that
    short traces are served alone over several rounds."""
    num_tenants = draw(st.integers(min_value=1, max_value=3))
    tenants = []
    arrivals = {}
    admission = {}
    for index in range(num_tenants):
        tenant = ClusterTenant(
            name=f"tenant-{index}",
            specs=tuple(draw(st.sampled_from(_TENANT_SPECS))()),
            policy=draw(
                st.sampled_from(
                    [
                        BatchingPolicy.fifo(),
                        BatchingPolicy.dynamic(4, 1e-4),
                        BatchingPolicy.fixed(4),
                    ]
                )
            ),
            weight=draw(st.sampled_from([0.5, 1.0, 2.0])),
            priority=draw(st.integers(min_value=0, max_value=2)),
            queue_cap=draw(
                st.sampled_from([None, None, 2, 4, 32])
            ),
        )
        count = draw(st.integers(min_value=5, max_value=120))
        load = draw(st.sampled_from([1.0, 4.0, 16.0]))
        # A tenant offering its trace over a fraction of the horizon
        # finishes early and frees its cores.
        span = draw(st.sampled_from([1.0, 0.5, 0.2]))
        trace = poisson_arrivals(
            load * count / (span * _FAULT_HORIZON_S),
            count,
            seed=draw(st.integers(min_value=0, max_value=10_000)),
        )
        tenants.append(tenant)
        arrivals[tenant.name] = trace
        if draw(st.integers(min_value=0, max_value=3)) == 0:
            # A lenient controller never sheds but still judges every
            # arrival only at a commit, so its queue builds unjudged.
            admission[tenant.name] = draw(
                st.one_of(
                    burn_admission_case(),
                    st.just(BurnRateAdmission(slo_latency_s=10.0)),
                )
            )
    pool = draw(st.integers(min_value=num_tenants, max_value=num_tenants + 6))
    horizon = max(float(trace[-1]) for trace in arrivals.values())
    options = dict(
        routing=draw(
            st.sampled_from(
                [RoutingPolicy.weighted_fair(), RoutingPolicy.priority()]
            )
        ),
        elastic=ElasticReallocation(
            pressure_ratio=draw(st.floats(min_value=1.0, max_value=4.0)),
            min_queue=draw(st.integers(min_value=1, max_value=8)),
            gain=draw(st.sampled_from([0.0, 0.0, 0.1, 0.5])),
        ),
        admission=admission,
    )
    trigger = draw(st.sampled_from(["pristine", "static", "ewma"]))
    if trigger != "pristine":
        options["schedule"] = FaultSchedule.random(
            draw(st.integers(min_value=0, max_value=10_000)),
            pool,
            horizon,
            events_per_core=draw(st.integers(min_value=1, max_value=3)),
            max_drift_k_per_s=draw(st.sampled_from([1.0, 1.0 / horizon])),
        )
        options["recalibration"] = (
            RecalibrationPolicy(
                error_threshold=draw(st.sampled_from([0.02, 0.05]))
            )
            if trigger == "static"
            else draw(adaptive_controller_case())
        )
    rounds = draw(st.sampled_from([1, 4, cluster._EPOCH_MIN_REQUESTS]))
    return tenants, pool, arrivals, options, rounds


def run_speculating(tenants, pool, arrivals, **options):
    """A cluster run, its pool health (``None`` when pristine), and what
    each round's search for its first core move returned."""
    made = []
    found = []
    real_health = cluster.PoolHealth
    real_first_move = ClusterSimulator._first_move

    def keep(*args, **kwargs):
        made.append(real_health(*args, **kwargs))
        return made[-1]

    def first_move(simulator, lanes):
        found.append(real_first_move(simulator, lanes))
        return found[-1]

    with (
        mock.patch.object(cluster, "PoolHealth", keep),
        mock.patch.object(ClusterSimulator, "_first_move", first_move),
    ):
        report = simulate_cluster_serving(tenants, arrivals, pool, **options)
    return report, made[0] if made else None, found


def assert_elastic_clusters_identical(ref, ref_health, vec, vec_health):
    """Streams, tables and ledgers, the moves and both logs in order."""
    assert_clusters_byte_identical(ref, vec)
    assert repr(ref.reallocations) == repr(vec.reallocations)
    assert repr(ref.recalibrations) == repr(vec.recalibrations)
    assert repr(ref.core_downtime_s) == repr(vec.core_downtime_s)
    assert repr(ref.final_core_errors) == repr(vec.final_core_errors)
    if ref_health is not None and ref_health.trigger is not None:
        assert ref_health.trigger.decisions == vec_health.trigger.decisions


def speculation_outcome(found, report) -> str:
    """How a run's lanes left the speculation: proved whole, cut at the
    first dispatch, or cut mid-run — with or without a core move."""
    if not found or found[-1] is None:
        kind = "proved"
    else:
        kind = "cut-mid-run" if sum(found[-1][0]) else "cut-at-start"
    return kind + ("-moved" if report.reallocations else "")


class TestElasticSpeculation:
    """An elastic cluster is served lane by lane up to the first
    dispatch that can move a core and on the global loop from there;
    the global loop over the whole run is the oracle."""

    def test_speculation_matches_the_global_loop(self):
        seen = {}

        @given(case=elastic_cluster_case())
        @settings(max_examples=80, deadline=None, database=None)
        def check(case):
            tenants, pool, arrivals, options, rounds = case
            with reference_loops():
                ref = run_speculating(tenants, pool, arrivals, **options)
            with mock.patch.object(cluster, "_EPOCH_MIN_REQUESTS", rounds):
                vec = run_speculating(tenants, pool, arrivals, **options)
            assert not ref[2]
            assert_elastic_clusters_identical(*ref[:2], *vec[:2])
            kind = speculation_outcome(vec[2], vec[0])
            seen[kind] = seen.get(kind, 0) + 1
            if len(vec[2]) > 1:
                seen["several-rounds"] = seen.get("several-rounds", 0) + 1

        check()
        # Not vacuous: some runs are proved whole, some are cut mid-run,
        # some move a core, and some search over several rounds.
        assert seen.get("proved", 0) > 0
        assert any(kind.startswith("cut-mid-run") for kind in seen)
        assert any(kind.endswith("-moved") for kind in seen)
        assert seen.get("several-rounds", 0) > 0

    @pytest.mark.parametrize("offset", [2, 10])
    def test_default_grid_moves_match_the_global_loop(self, offset):
        """The default grid two and ten seeds on: one core moves at the
        tail of every elastic cell, or two."""
        scenarios = tuple(
            dataclasses.replace(scenario, seed=scenario.seed + offset)
            for scenario in default_scenarios()
        )
        moves = set()
        for policy in default_policy_grid(scenarios):
            if policy.elastic is None:
                continue
            for scenario in scenarios:
                tenants, arrivals = cluster_mix(
                    scenario.mix,
                    rate_rps=scenario.rate_rps,
                    num_requests=scenario.num_requests,
                    seed=scenario.seed,
                )
                horizon = max(float(trace[-1]) for trace in arrivals.values())
                options = dict(
                    elastic=policy.elastic,
                    schedule=fault_scenario(
                        scenario.fault, scenario.pool_size, horizon
                    ),
                    recalibration=policy.recalibration,
                )
                case = (tenants, scenario.pool_size, arrivals)
                with reference_loops():
                    ref = run_speculating(*case, **options)
                vec = run_speculating(*case, **options)
                assert_elastic_clusters_identical(*ref[:2], *vec[:2])
                assert speculation_outcome(vec[2], vec[0]) == (
                    "cut-mid-run-moved"
                )
                moves.add(len(ref[0].reallocations))
        assert moves == ({1} if offset == 2 else {2})

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_burn_donor_depth_is_bounded_below(self, seed):
        """Under priority routing a burn lane can donate a core before
        any is freed.  Served alone it has judged arrivals the loop has
        not reached at a dispatch, so only the arrivals up to its own
        latest dispatch bound its queue from below; the ratio test
        must read that bound for the donor, or it misses moves."""
        tenants = [
            ClusterTenant(
                "donor",
                tuple(lenet5_conv_specs()),
                BatchingPolicy.dynamic(8, 1e-3),
                priority=1,
            ),
            ClusterTenant(
                "recipient",
                tuple(alexnet_conv_specs()),
                BatchingPolicy.fixed(2),
            ),
        ]
        arrivals = {
            "donor": poisson_arrivals(1e5, 200, seed=seed),
            "recipient": poisson_arrivals(1e4, 100, seed=seed + 10),
        }
        options = dict(
            routing=RoutingPolicy.priority(),
            elastic=ElasticReallocation(min_queue=4),
            admission={"donor": BurnRateAdmission(slo_latency_s=10.0)},
        )
        with reference_loops():
            ref = run_speculating(tenants, 4, arrivals, **options)
        vec = run_speculating(tenants, 4, arrivals, **options)
        assert_elastic_clusters_identical(*ref[:2], *vec[:2])
        assert ref[0].reallocations[0].from_tenant == "donor"
        assert not ref[0].num_shed

    @pytest.mark.parametrize("routing", ["weighted-fair", "priority"])
    def test_cores_free_up_in_release_order(self, routing):
        """Two lanes finish before the first move, the later-indexed one
        first; the move takes the core released first, as the global
        loop frees them, not in lane-index order."""
        specs = tuple(lenet5_conv_specs())
        tenants = [
            ClusterTenant("slow", specs, BatchingPolicy.fifo()),
            ClusterTenant("quick", specs, BatchingPolicy.fifo()),
            ClusterTenant(
                "burst", tuple(alexnet_conv_specs()), BatchingPolicy.fixed(4)
            ),
        ]
        arrivals = {
            "slow": poisson_arrivals(2e3, 40, seed=1),
            "quick": poisson_arrivals(2e3, 10, seed=2),
            "burst": 0.05 + poisson_arrivals(2e5, 200, seed=3),
        }
        assert float(arrivals["quick"][-1]) < float(arrivals["slow"][-1])
        assert float(arrivals["slow"][-1]) < float(arrivals["burst"][0])
        options = dict(
            routing=RoutingPolicy(routing),
            elastic=ElasticReallocation(min_queue=4),
        )
        with reference_loops():
            ref = run_speculating(tenants, 4, arrivals, **options)
        vec = run_speculating(tenants, 4, arrivals, **options)
        assert_elastic_clusters_identical(*ref[:2], *vec[:2])
        _, released = vec[2][-1]
        assert released == [1, 0]
        allocations = ClusterSimulator(tenants, 4)._allocations
        first = ref[0].reallocations[0]
        assert first.from_tenant is None and first.to_tenant == "burst"
        assert first.core == allocations[1][0]


# --------------------------------------------------------------------------
# PR 8: planet-scale fleet runtime
# --------------------------------------------------------------------------


@st.composite
def fleet_serving_case(draw, with_faults: bool = True):
    """A random (regions × tenants × faults × routing) fleet problem."""
    num_tenants = draw(st.integers(min_value=1, max_value=2))
    tenants = [
        draw(cluster_tenant_case(index)) for index in range(num_tenants)
    ]
    num_regions = draw(st.integers(min_value=1, max_value=3))
    regions = []
    for position in range(num_regions):
        pool_size = draw(
            st.integers(min_value=num_tenants, max_value=num_tenants + 2)
        )
        schedule = None
        if with_faults:
            events = draw(
                st.lists(fault_event_case(pool_size), min_size=0, max_size=3)
            )
            if events:
                schedule = FaultSchedule(
                    name="hypothesis", events=tuple(events)
                )
        regions.append(
            RegionSpec(f"region-{position}", pool_size, schedule=schedule)
        )
    arrival_s = {}
    for position, region in enumerate(regions):
        arrival_s[region.name] = {}
        for tenant in tenants:
            # Region 0 always offers tenant 0 so the fleet is non-empty;
            # elsewhere streams drop out at random (idle regions).
            if position > 0 or tenant is not tenants[0]:
                if draw(st.booleans()):
                    continue
            seed = draw(st.integers(min_value=0, max_value=10_000))
            count = draw(st.integers(min_value=5, max_value=60))
            arrival_s[region.name][tenant.name] = poisson_arrivals(
                count / _FAULT_HORIZON_S, count, seed=seed
            )
    routing = GlobalRoutingPolicy(
        kind=draw(st.sampled_from(FLEET_ROUTING_KINDS))
    )
    rtt_s = draw(
        st.sampled_from([None, 0.0, 1e-3, 5e-3])
    )
    if rtt_s is not None:
        rtt_s = uniform_rtt(num_regions, rtt_s)
    return tenants, regions, arrival_s, rtt_s, routing


class TestFleetServingInvariants:
    """Whatever the geography and faults, the fleet conserves and finishes."""

    @given(case=fleet_serving_case())
    @settings(max_examples=8, deadline=None)
    def test_global_conservation_and_finiteness(self, case):
        tenants, regions, arrival_s, rtt_s, routing = case
        report = FleetRuntime(
            tenants, regions, rtt_s=rtt_s, routing=routing
        ).run(arrival_s)

        offered = 0
        for trace in report.traces:
            stream = arrival_s[trace.home_region][trace.tenant]
            offered += stream.size
            # Conservation: served + shed = offered, stream by stream.
            assert trace.num_offered == stream.size
            assert trace.num_served + trace.num_shed == stream.size
            assert np.array_equal(trace.offered_arrival_s, stream)
            # Every request lands on a real region.
            assert np.all(trace.server_region >= 0)
            assert np.all(trace.server_region < len(regions))
            # Served latencies are finite and positive; shed are NaN.
            served = trace.latency_s[trace.served]
            assert np.all(np.isfinite(served))
            assert np.all(served > 0.0)
            assert np.all(np.isnan(trace.latency_s[~trace.served]))
        assert report.num_offered == offered
        assert report.num_served + report.num_shed == offered
        # Regional routed/served tallies close the same ledger.
        assert (
            sum(outcome.routed_in for outcome in report.regions) == offered
        )
        assert (
            sum(outcome.num_served + outcome.num_shed
                for outcome in report.regions)
            == offered
        )

    @given(case=fleet_serving_case(with_faults=False))
    @settings(max_examples=8, deadline=None)
    def test_geo_affinity_never_leaks_when_healthy(self, case):
        tenants, regions, arrival_s, rtt_s, _ = case
        report = FleetRuntime(
            tenants,
            regions,
            rtt_s=rtt_s,
            routing=GlobalRoutingPolicy.geo_affinity(),
        ).run(arrival_s)
        assert report.num_remote == 0
        for trace in report.traces:
            assert np.all(trace.server_region == trace.home_index)
        for outcome in report.regions:
            assert outcome.remote_in == 0

    @given(case=fleet_serving_case())
    @settings(max_examples=5, deadline=None)
    def test_byte_deterministic_under_identical_inputs(self, case):
        tenants, regions, arrival_s, rtt_s, routing = case

        def run():
            return FleetRuntime(
                tenants, regions, rtt_s=rtt_s, routing=routing
            ).run(arrival_s)

        first, second = run(), run()
        assert first.failovers == second.failovers
        assert first.autoscale_events == second.autoscale_events
        for a, b in zip(first.traces, second.traces):
            assert a.home_region == b.home_region
            assert a.tenant == b.tenant
            assert a.latency_s.tobytes() == b.latency_s.tobytes()
            assert a.server_region.tobytes() == b.server_region.tobytes()
            assert a.served.tobytes() == b.served.tobytes()


# --------------------------------------------------------------------------
# PR 9: adaptive control plane
# --------------------------------------------------------------------------


@st.composite
def adaptive_controller_case(draw):
    """One random (valid) EWMA recalibration controller."""
    base = RecalibrationPolicy(
        error_threshold=draw(st.floats(min_value=0.02, max_value=0.2))
    )
    return AdaptiveRecalibration(
        base=base,
        smoothing=draw(st.floats(min_value=0.05, max_value=1.0)),
        lead_time_s=draw(st.sampled_from([0.0, 0.005, 0.02])),
        pressure_hold=draw(st.one_of(st.none(), st.integers(1, 8))),
        downtime_budget_s=draw(st.sampled_from([math.inf, 1e-3, 1e-2])),
    )


@st.composite
def adaptive_cluster_case(draw):
    """A random cluster problem driven end to end by adaptive policies."""
    num_tenants = draw(st.integers(min_value=1, max_value=3))
    tenants = [
        draw(cluster_tenant_case(index)) for index in range(num_tenants)
    ]
    pool_size = draw(
        st.integers(min_value=num_tenants, max_value=num_tenants + 3)
    )
    arrivals = {}
    admission = {}
    for tenant in tenants:
        seed = draw(st.integers(min_value=0, max_value=10_000))
        count = draw(st.integers(min_value=5, max_value=60))
        arrivals[tenant.name] = poisson_arrivals(
            count / _FAULT_HORIZON_S, count, seed=seed
        )
        choice = draw(st.sampled_from(["none", "disabled", "burn"]))
        if choice == "disabled":
            admission[tenant.name] = BurnRateAdmission.disabled()
        elif choice == "burn":
            admission[tenant.name] = BurnRateAdmission(
                slo_latency_s=draw(
                    st.floats(min_value=1e-5, max_value=1e-2)
                ),
                max_burn_rate=draw(st.floats(min_value=0.0, max_value=1.0)),
                window=draw(st.integers(min_value=1, max_value=32)),
            )
    events = draw(
        st.lists(fault_event_case(pool_size), min_size=0, max_size=4)
    )
    schedule = (
        FaultSchedule(name="hypothesis", events=tuple(events))
        if events
        else None
    )
    elastic = draw(
        st.sampled_from(
            [
                None,
                ElasticReallocation(min_queue=8),
                ElasticReallocation(min_queue=8, gain=0.5),
            ]
        )
    )
    recalibration = draw(
        st.one_of(st.none(), adaptive_controller_case())
    )
    return tenants, pool_size, arrivals, schedule, elastic, recalibration, admission


class TestAdaptiveClusterInvariants:
    """Whatever the controllers decide, the ledgers must still close."""

    @given(case=adaptive_cluster_case())
    @settings(max_examples=10, deadline=None)
    def test_conservation_isolation_and_finiteness(self, case):
        tenants, pool, arrivals, schedule, elastic, recal, admission = case
        report = ClusterSimulator(
            tenants,
            pool,
            elastic=elastic,
            schedule=schedule,
            recalibration=recal,
            admission=admission,
        ).run(arrivals)

        for tenant in tenants:
            sub = report.tenant(tenant.name)
            offered = arrivals[tenant.name]
            assert sub.num_requests + sub.num_shed == offered.size
            assert sum(batch.size for batch in sub.batches) == sub.num_requests
            # No cross-tenant leakage: served and shed partition the
            # tenant's own trace exactly.
            merged = np.sort(
                np.concatenate([sub.arrival_s, sub.shed_arrival_s])
            )
            assert np.array_equal(merged, offered)
            assert np.all(np.isfinite(sub.completion_s))
            assert np.all(sub.dispatch_s >= sub.arrival_s)
            assert np.all(sub.completion_s > sub.dispatch_s)
            assert np.all(sub.latencies_s > 0.0)
            assert np.all(np.isfinite(sub.accuracy_proxy))
        assert report.num_served + report.num_shed == report.num_offered
        assert all(
            0.0 <= downtime < math.inf for downtime in report.core_downtime_s
        )
        if recal is not None and math.isfinite(recal.downtime_budget_s):
            # The budget gate: one recalibration may straddle the line,
            # never more.
            worst = recal.base.downtime_s(recal.base.max_iterations)
            assert all(
                downtime <= recal.downtime_budget_s + worst
                for downtime in report.core_downtime_s
            )

    @given(case=adaptive_cluster_case())
    @settings(max_examples=6, deadline=None)
    def test_byte_deterministic_under_identical_inputs(self, case):
        tenants, pool, arrivals, schedule, elastic, recal, admission = case

        def run():
            return ClusterSimulator(
                tenants,
                pool,
                elastic=elastic,
                schedule=schedule,
                recalibration=recal,
                admission=admission,
            ).run(arrivals)

        first, second = run(), run()
        assert first.reallocations == second.reallocations
        assert first.recalibrations == second.recalibrations
        for tenant in tenants:
            a, b = first.tenant(tenant.name), second.tenant(tenant.name)
            assert a.completion_s.tobytes() == b.completion_s.tobytes()
            assert a.shed_arrival_s.tobytes() == b.shed_arrival_s.tobytes()
            assert a.accuracy_proxy.tobytes() == b.accuracy_proxy.tobytes()
            assert a.batches == b.batches


@st.composite
def adaptive_serving_case(draw):
    """A random single-engine adaptive serving problem."""
    num_cores = draw(st.integers(min_value=1, max_value=3))
    events = draw(
        st.lists(fault_event_case(num_cores), min_size=0, max_size=4)
    )
    schedule = FaultSchedule(name="hypothesis", events=tuple(events))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    num_requests = draw(st.integers(min_value=1, max_value=120))
    arrivals = poisson_arrivals(
        num_requests / _FAULT_HORIZON_S, num_requests, seed=seed
    )
    policy = draw(
        st.sampled_from(
            [BatchingPolicy.fifo(), BatchingPolicy.dynamic(8, 1e-3)]
        )
    )
    controller = draw(adaptive_controller_case())
    return schedule, num_cores, arrivals, policy, controller


class TestAdaptiveServingInvariants:
    @given(case=adaptive_serving_case())
    @settings(max_examples=10, deadline=None)
    def test_decision_stream_deterministic_and_well_formed(self, case):
        schedule, num_cores, arrivals, policy, controller = case
        network = serving_network("lenet5")

        def run():
            return simulate_degraded_serving(
                network,
                arrivals,
                policy,
                schedule,
                num_cores,
                recalibration=controller,
                clamp_cores=True,
            )

        first, second = run(), run()
        # The run is conserved, causal, and finite.
        assert first.num_requests == arrivals.size
        assert np.all(np.isfinite(first.completion_s))
        assert np.all(first.dispatch_s >= first.arrival_s)
        assert np.all(first.completion_s > first.dispatch_s)
        # The decision log is deterministic and well formed.
        assert first.decisions == second.decisions
        assert first.completion_s.tobytes() == second.completion_s.tobytes()
        assert first.accuracy_proxy.tobytes() == second.accuracy_proxy.tobytes()
        times = [d.time_s for d in first.decisions]
        assert times == sorted(times)
        for decision in first.decisions:
            assert decision.action in DECISION_ACTIONS
            assert 0 <= decision.core < num_cores
            assert math.isfinite(decision.error)
            assert math.isfinite(decision.smoothed)
            assert math.isfinite(decision.projected)
        assert first.num_deferrals == sum(
            1 for d in first.decisions if d.action != "recalibrate"
        )
