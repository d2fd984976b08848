"""Tests for the batch-native electronic layer path.

The contract (see ``docs/architecture.md``): every electronic layer —
and the whole network execution built on them — processes a minibatch in
single array operations whose results are *bit-identical*
(``np.array_equal``, atol=0) to stacking the per-image results, across
odd strides, paddings, and batch sizes 1/2/7.  Also covers the two
reproducibility bugfixes that ride along: per-image quantized AGC and
the per-call noise-RNG fork.
"""

from contextlib import nullcontext

import numpy as np
import pytest
from oracles import reference_loops

from repro.core.accelerator import PCNNA, PhotonicConvolution
from repro.core.config import PCNNAConfig
from repro.nn import build_lenet5, functional as F
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
from repro.nn.shapes import pool_output_size
from repro.photonics.noise import realistic

BATCH_SIZES = (1, 2, 7)


def _batch(shape, seed):
    return np.random.default_rng(seed).normal(size=shape)


class TestFunctionalBatchEquality:
    """Each functional op: batched == np.stack(per-image), bit-for-bit."""

    @pytest.mark.parametrize("batch", BATCH_SIZES)
    @pytest.mark.parametrize(
        ("pool", "stride"), [(2, None), (3, 1), (3, 2), (3, 3), (2, 5)]
    )
    def test_max_pool2d(self, batch, pool, stride):
        x = _batch((batch, 5, 13, 11), seed=batch)
        batched = F.max_pool2d(x, pool, stride)
        stacked = np.stack([F.max_pool2d(image, pool, stride) for image in x])
        assert np.array_equal(batched, stacked)

    @pytest.mark.parametrize("batch", BATCH_SIZES)
    @pytest.mark.parametrize("size", [1, 3, 4, 5, 9])
    def test_local_response_norm(self, batch, size):
        x = _batch((batch, 8, 6, 7), seed=size)
        batched = F.local_response_norm(x, size=size)
        stacked = np.stack(
            [F.local_response_norm(image, size=size) for image in x]
        )
        assert np.array_equal(batched, stacked)

    @pytest.mark.parametrize("batch", BATCH_SIZES)
    def test_linear(self, batch):
        x = _batch((batch, 29), seed=batch)
        weights = _batch((13, 29), seed=100)
        bias = _batch((13,), seed=101)
        batched = F.linear(x, weights, bias)
        stacked = np.stack([F.linear(v, weights, bias) for v in x])
        assert np.array_equal(batched, stacked)

    @pytest.mark.parametrize("batch", BATCH_SIZES)
    @pytest.mark.parametrize(("stride", "padding"), [(1, 0), (2, 1), (3, 2)])
    def test_conv2d_batch(self, batch, stride, padding):
        x = _batch((batch, 3, 9, 8), seed=batch)
        kernels = _batch((4, 3, 3, 3), seed=102)
        bias = _batch((4,), seed=103)
        batched = F.conv2d_batch(x, kernels, stride, padding, bias)
        stacked = np.stack(
            [F.conv2d(image, kernels, stride, padding, bias) for image in x]
        )
        assert np.array_equal(batched, stacked)

    def test_relu_and_softmax_batched(self):
        x = _batch((7, 4, 5), seed=0)
        assert np.array_equal(
            F.relu(x), np.stack([F.relu(image) for image in x])
        )
        logits = _batch((7, 10), seed=1)
        assert np.array_equal(
            F.softmax(logits), np.stack([F.softmax(row) for row in logits])
        )


class TestLayerForwardBatch:
    """Layer.forward_batch == np.stack(per-image forward), bit-for-bit."""

    @pytest.mark.parametrize("batch", BATCH_SIZES)
    def test_every_builtin_layer(self, batch):
        rng = np.random.default_rng(batch)
        layers_and_inputs = [
            (
                Conv2D(rng.normal(size=(4, 3, 3, 3)), stride=2, padding=1),
                (batch, 3, 9, 9),
            ),
            (ReLU(), (batch, 3, 8, 8)),
            (MaxPool2D(3, stride=2), (batch, 3, 9, 9)),
            (LocalResponseNorm(), (batch, 8, 5, 5)),
            (Flatten(), (batch, 3, 4, 5)),
            (Dense(rng.normal(size=(6, 30)), rng.normal(size=6)), (batch, 30)),
            (Softmax(), (batch, 10)),
        ]
        for layer, shape in layers_and_inputs:
            x = rng.normal(size=shape)
            batched = layer.forward_batch(x)
            stacked = np.stack([layer.forward(image) for image in x])
            assert np.array_equal(batched, stacked), type(layer).__name__

    def test_rank_dispatch_in_forward(self):
        rng = np.random.default_rng(0)
        conv = Conv2D(rng.normal(size=(2, 3, 3, 3)))
        x = rng.normal(size=(4, 3, 8, 8))
        assert np.array_equal(conv.forward(x), conv.forward_batch(x))
        dense = Dense(rng.normal(size=(5, 9)))
        v = rng.normal(size=(4, 9))
        assert np.array_equal(dense.forward(v), dense.forward_batch(v))

    def test_custom_layer_falls_back_to_stacking(self):
        from repro.nn.layers import Layer

        class Shift(Layer):
            name = "shift"

            def forward(self, inputs):
                return inputs + 1.0

            def output_shape(self, input_shape):
                return input_shape

        layer = Shift()
        x = np.arange(24.0).reshape(2, 3, 4)
        # Base-class fallback stacks per-image forward results.
        assert np.array_equal(
            layer.forward_batch(x),
            np.stack([layer.forward(image) for image in x]),
        )


class TestNetworkForwardBatch:
    @pytest.mark.parametrize("batch", BATCH_SIZES)
    def test_lenet_bit_identical(self, batch):
        net = build_lenet5(seed=1)
        x = _batch((batch, 1, 32, 32), seed=batch)
        assert np.array_equal(
            net.forward_batch(x), np.stack([net.forward(image) for image in x])
        )

    def test_network_with_lrn_padding_odd_strides(self):
        rng = np.random.default_rng(2)
        net = Network(
            [
                Conv2D(rng.normal(size=(6, 2, 3, 3)), stride=2, padding=2),
                ReLU(),
                LocalResponseNorm(size=3),
                MaxPool2D(3, stride=3),
                Conv2D(rng.normal(size=(4, 6, 1, 1))),
                Flatten(),
                Dense(rng.normal(size=(5, 36)), rng.normal(size=5)),
                Softmax(),
            ],
            input_shape=(2, 17, 17),
        )
        x = rng.normal(size=(7, 2, 17, 17))
        assert np.array_equal(
            net.forward_batch(x), np.stack([net.forward(image) for image in x])
        )

    def test_forward_batch_shape_check(self):
        net = build_lenet5()
        with pytest.raises(ValueError, match="batched input shape"):
            net.forward_batch(np.zeros((2, 1, 30, 30)))
        with pytest.raises(ValueError, match="batched input shape"):
            net.forward_batch(np.zeros((1, 32, 32)))


class TestRunNetworkBatched:
    """The acceptance contract: batched run_network is bit-identical to
    per-image execution in ideal mode."""

    @pytest.mark.parametrize("batch", BATCH_SIZES)
    def test_lenet_bit_identical(self, batch):
        net = build_lenet5(seed=2)
        accelerator = PCNNA()
        x = _batch((batch, 1, 32, 32), seed=batch + 10)
        batched = accelerator.run_network(net, x)
        per_image = np.stack(
            [accelerator.run_network(net, image) for image in x]
        )
        assert np.array_equal(batched, per_image)

    def test_photonic_conv_with_padding_bit_identical(self):
        rng = np.random.default_rng(3)
        net = Network(
            [
                Conv2D(
                    rng.normal(size=(3, 2, 3, 3)),
                    stride=2,
                    padding=2,
                    bias=rng.normal(size=3),
                ),
                ReLU(),
                LocalResponseNorm(),
                MaxPool2D(2),
            ],
            input_shape=(2, 11, 11),
        )
        accelerator = PCNNA()
        x = rng.normal(size=(7, 2, 11, 11))
        batched = accelerator.run_network(net, x)
        per_image = np.stack(
            [accelerator.run_network(net, image) for image in x]
        )
        assert np.array_equal(batched, per_image)


class TestQuantizedAgcRegression:
    """Bugfix: the TIA gain is per image, so a quantized image's output
    cannot depend on which other images share its minibatch."""

    @pytest.mark.parametrize(
        "oracle", [nullcontext, reference_loops], ids=["vectorized", "reference"]
    )
    def test_quantized_batched_equals_single(self, oracle):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(5, 2, 9, 9))
        kernels = rng.normal(size=(3, 2, 3, 3))
        engine = PhotonicConvolution(method="device", quantize=True)
        with oracle():
            batched = engine.convolve(x, kernels, 2, 1)
            singles = np.stack(
                [engine.convolve(image, kernels, 2, 1) for image in x]
            )
        assert np.array_equal(batched, singles)

    def test_quantized_output_independent_of_batch_neighbours(self):
        rng = np.random.default_rng(5)
        image = rng.normal(size=(2, 8, 8))
        outlier = 50.0 * rng.normal(size=(2, 8, 8))
        kernels = rng.normal(size=(3, 2, 3, 3))
        engine = PhotonicConvolution(method="device", quantize=True)
        alone = engine.convolve(image[None], kernels)[0]
        with_outlier = engine.convolve(np.stack([image, outlier]), kernels)[0]
        assert np.array_equal(alone, with_outlier)


class TestNoiseForkRegression:
    """Bugfix: identical noisy calls on one engine give identical results."""

    def test_identical_noisy_convolve_calls_match(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 2, 7, 7))
        kernels = rng.normal(size=(3, 2, 3, 3))
        config = PCNNAConfig(noise=realistic(seed=7))
        engine = PhotonicConvolution(config, method="device")
        for oracle in (nullcontext(), reference_loops()):
            with oracle:
                first = engine.convolve(x, kernels)
                second = engine.convolve(x, kernels)
            assert np.array_equal(first, second)

    def test_noisy_runs_still_differ_by_seed(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(1, 6, 6))
        kernels = rng.normal(size=(2, 1, 3, 3))
        out = []
        for seed in (0, 1):
            engine = PhotonicConvolution(
                PCNNAConfig(noise=realistic(seed=seed)), method="device"
            )
            out.append(engine.convolve(x, kernels))
        assert not np.array_equal(out[0], out[1])


class TestPoolValidationUnification:
    """Bugfix: one geometry helper serves the functional op and the layer
    shape inference, so their checks and messages cannot diverge."""

    def test_functional_and_layer_raise_identical_messages(self):
        layer = MaxPool2D(5, stride=2)
        with pytest.raises(ValueError) as layer_error:
            layer.output_shape((1, 3, 3))
        with pytest.raises(ValueError) as functional_error:
            F.max_pool2d(np.zeros((1, 3, 3)), 5, 2)
        assert str(layer_error.value) == str(functional_error.value)

    def test_batched_inputs_get_the_same_message(self):
        with pytest.raises(ValueError) as single_error:
            F.max_pool2d(np.zeros((1, 3, 3)), 5)
        with pytest.raises(ValueError) as batch_error:
            F.max_pool2d(np.zeros((4, 1, 3, 3)), 5)
        assert str(single_error.value) == str(batch_error.value)

    def test_helper_contract(self):
        assert pool_output_size(55, 3, 2) == 27
        with pytest.raises(ValueError, match="pool size must be positive"):
            pool_output_size(8, 0, 1)
        with pytest.raises(ValueError, match="stride must be positive"):
            pool_output_size(8, 2, 0)
        with pytest.raises(ValueError, match="does not fit"):
            pool_output_size(2, 3, 1)

    def test_shape_inference_matches_forward(self):
        layer = MaxPool2D(3, stride=2)
        x = np.zeros((4, 2, 9, 11))
        assert layer.forward_batch(x).shape[1:] == layer.output_shape((2, 9, 11))
