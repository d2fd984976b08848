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

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reference_loops

from repro.core.accelerator import PCNNA, PhotonicConvolution
from repro.core.adaptive import (
    DECISION_ACTIONS,
    AdaptiveRecalibration,
    BurnRateAdmission,
    PressureController,
    simulate_adaptive_serving,
)
from repro.analysis import sweep_cluster_serving
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
)
from repro.core.fleet import (
    FLEET_ROUTING_KINDS,
    FleetRuntime,
    GlobalRoutingPolicy,
    RegionSpec,
    uniform_rtt,
)
from repro.core.serving import run_network_pipelined
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
# PR 10: frozen-allocation cluster fast path + parallel grid executor
# --------------------------------------------------------------------------


@st.composite
def frozen_cluster_case(draw):
    """A random frozen-allocation cluster: no faults, no elastic — the
    shape the vectorized lane decomposition claims to cover exactly.
    Caps are drawn down to 1 so the admission walk and its scalar
    fallback both get exercised, and traces optionally quantize onto a
    coarse grid to pile ties onto cap boundaries."""
    num_tenants = draw(st.integers(min_value=1, max_value=3))
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
        assert vec.routing == ref.routing
        for r, v in zip(ref.tenants, vec.tenants):
            assert r.tenant == v.tenant
            assert r.arrival_s.tobytes() == v.arrival_s.tobytes()
            assert r.dispatch_s.tobytes() == v.dispatch_s.tobytes()
            assert r.completion_s.tobytes() == v.completion_s.tobytes()
            assert r.shed_arrival_s.tobytes() == v.shed_arrival_s.tobytes()
            assert tuple(r.batches) == tuple(v.batches)
            assert r.core_busy_s == v.core_busy_s
            assert np.array_equal(r.batch_num_cores, v.batch_num_cores)
            assert np.array_equal(r.accuracy_proxy, v.accuracy_proxy)

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
            admission[tenant.name] = BurnRateAdmission.disabled(
                queue_cap=tenant.queue_cap
            )
        elif choice == "burn":
            admission[tenant.name] = BurnRateAdmission(
                slo_latency_s=draw(
                    st.floats(min_value=1e-5, max_value=1e-2)
                ),
                max_burn_rate=draw(st.floats(min_value=0.0, max_value=1.0)),
                window=draw(st.integers(min_value=1, max_value=32)),
                queue_cap=tenant.queue_cap,
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
                PressureController(
                    base=ElasticReallocation(min_queue=8), gain=0.5
                ),
                PressureController.inert(ElasticReallocation(min_queue=8)),
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
            return simulate_adaptive_serving(
                network,
                arrivals,
                policy,
                schedule,
                num_cores,
                controller=controller,
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
