"""Tests for the vectorized batched photonic execution engine.

The contract under test (see ``docs/architecture.md``):

* in ideal mode the vectorized engine is *bit-identical* to the retained
  wave-by-wave reference loop (``np.array_equal``, i.e. atol=0), across
  strides, paddings, batch sizes, and rectangular inputs;
* in noisy mode the two engines are statistically consistent — same
  error scale against the ideal result, seeded reproducibility;
* the batched entry points (``conv2d_batch``, batched ``convolve``,
  batched ``run_network``, ``compute_batch``) agree with their
  per-image / per-wave counterparts;
* the streaming engine (per-image encode then gather, blocked device
  core) is byte-identical to a whole-batch twin, and its memory stays
  bounded by one image's columns rather than the batch's.
"""

import hashlib
import tracemalloc
from contextlib import nullcontext

import numpy as np
import pytest
from oracles import reference_loops

from repro.core.accelerator import PCNNA, PhotonicConvolution, _compute_scaling
from repro.core.batching import network_batch_timing_simulated
from repro.core.config import PCNNAConfig
from repro.core.timing import simulate_layer, simulate_layer_batch
from repro.nn import build_lenet5, functional as F
from repro.nn.im2col import receptive_field_indices
from repro.nn.shapes import conv_output_side
from repro.photonics.broadcast_weight import BLOCK_BYTES, BroadcastAndWeightLayer
from repro.photonics.noise import NoiseConfig, realistic
from repro.workloads import alexnet_layer


def _vectorized_and_reference(engine, *args):
    """``engine.convolve(*args)`` on the vectorized core, then on the
    wave-by-wave reference loop."""
    vectorized = engine.convolve(*args)
    with reference_loops():
        reference = engine.convolve(*args)
    return vectorized, reference


class TestIdealBitEquality:
    @pytest.mark.parametrize(
        ("stride", "padding", "batch"),
        [(1, 0, 1), (2, 1, 3), (1, 2, 2), (3, 0, 4), (2, 2, 1)],
    )
    def test_vectorized_equals_reference_exactly(self, stride, padding, batch):
        rng = np.random.default_rng(stride * 100 + padding * 10 + batch)
        x = rng.normal(size=(batch, 2, 9, 7))
        k = rng.normal(size=(3, 2, 3, 3))
        out_vec, out_ref = _vectorized_and_reference(
            PhotonicConvolution(method="device"), x, k, stride, padding
        )
        assert np.array_equal(out_vec, out_ref)

    def test_single_image_bit_equal(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 8, 8))
        k = rng.normal(size=(4, 3, 3, 3))
        assert np.array_equal(
            *_vectorized_and_reference(PhotonicConvolution(method="device"), x, k)
        )

    def test_batch_of_one_equals_unbatched(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 6, 6))
        k = rng.normal(size=(3, 2, 3, 3))
        engine = PhotonicConvolution(method="device")
        assert np.array_equal(
            engine.convolve(x[None], k, 2, 1)[0], engine.convolve(x, k, 2, 1)
        )

    def test_quantized_paths_bit_equal(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 2, 7, 7))
        k = rng.normal(size=(3, 2, 3, 3))
        engine = PhotonicConvolution(method="device", quantize=True)
        assert np.array_equal(*_vectorized_and_reference(engine, x, k))

    def test_vectorized_matches_numpy_reference(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 3, 8, 8))
        k = rng.normal(size=(5, 3, 3, 3))
        out = PhotonicConvolution(method="device").convolve(x, k, 2, 1)
        assert np.allclose(out, F.conv2d_batch(x, k, 2, 1), atol=1e-9)

    def test_matrix_method_matches_device_batched(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 1, 6, 6))
        k = rng.normal(size=(2, 1, 3, 3))
        device = PhotonicConvolution(method="device").convolve(x, k)
        matrix = PhotonicConvolution(method="matrix").convolve(x, k)
        assert np.allclose(device, matrix, atol=1e-9)


class TestBatchedShapes:
    def test_batched_output_shape(self):
        x = np.zeros((5, 2, 8, 8))
        k = np.zeros((3, 2, 3, 3))
        out = PhotonicConvolution().convolve(x, k, stride=1, padding=1)
        assert out.shape == (5, 3, 8, 8)

    def test_unbatched_output_stays_3d(self):
        out = PhotonicConvolution().convolve(
            np.zeros((2, 6, 6)), np.zeros((3, 2, 3, 3))
        )
        assert out.shape == (3, 4, 4)

    def test_rejects_bad_rank(self):
        engine = PhotonicConvolution()
        with pytest.raises(ValueError):
            engine.convolve(np.zeros((4, 4)), np.zeros((1, 1, 2, 2)))
        with pytest.raises(ValueError):
            engine.convolve(np.zeros((1, 1, 2, 4, 4)), np.zeros((1, 2, 2, 2)))

    def test_rejects_empty_batch(self):
        with pytest.raises(ValueError, match="at least one image"):
            PhotonicConvolution().convolve(
                np.zeros((0, 2, 6, 6)), np.zeros((3, 2, 3, 3))
            )

    @pytest.mark.parametrize(
        ("method", "oracle"),
        [
            ("matrix", nullcontext),
            ("device", nullcontext),
            ("device", reference_loops),
        ],
        ids=["matrix-vectorized", "device-vectorized", "device-reference"],
    )
    def test_rejects_empty_batch_on_every_path(self, method, oracle):
        engine = PhotonicConvolution(method=method)
        with oracle(), pytest.raises(ValueError, match="at least one image"):
            engine.convolve(np.zeros((0, 2, 6, 6)), np.zeros((3, 2, 3, 3)))

    @pytest.mark.parametrize(
        ("method", "quantize"),
        [("matrix", False), ("device", False), ("device", True)],
    )
    @pytest.mark.parametrize(
        ("where", "value"),
        [
            ("pixel", np.nan),
            ("pixel", np.inf),
            ("pixel", -np.inf),
            ("weight", np.inf),
            ("weight", np.nan),
        ],
    )
    def test_rejects_non_finite_inputs(self, method, quantize, where, value):
        # Unchecked, one NaN pixel turns every output of its image to
        # NaN, and one infinite weight every output of the call.
        x = np.ones((2, 1, 6, 6))
        k = np.ones((3, 1, 3, 3))
        if where == "pixel":
            x[1, 0, 2, 3] = value
            match = r"feature map holds non-finite values \(image 1\)"
        else:
            k[2, 0, 1, 1] = value
            match = "kernels hold non-finite weights"
        engine = PhotonicConvolution(method=method, quantize=quantize)
        with pytest.raises(ValueError, match=match):
            engine.convolve(x, k, 1, 1)

    @pytest.mark.parametrize("method", ["matrix", "device"])
    def test_rejects_non_square_kernels(self, method):
        with pytest.raises(ValueError, match="kernels must be square"):
            PhotonicConvolution(method=method).convolve(
                np.zeros((2, 1, 8, 8)), np.zeros((2, 1, 3, 5))
            )

    def test_compute_batch_rejects_zero_waves(self):
        layer = BroadcastAndWeightLayer(5, 3)
        layer.set_weight_matrix(np.zeros((3, 5)))
        with pytest.raises(ValueError, match="at least one wave"):
            layer.compute_batch(np.zeros((0, 5)))

    def test_rejects_channel_mismatch(self):
        with pytest.raises(ValueError):
            PhotonicConvolution().convolve(
                np.zeros((2, 3, 4, 4)), np.zeros((1, 2, 2, 2))
            )

    def test_compute_batch_shape_check(self):
        layer = BroadcastAndWeightLayer(5, 3)
        layer.set_weight_matrix(np.zeros((3, 5)))
        with pytest.raises(ValueError):
            layer.compute_batch(np.zeros((2, 4)))
        with pytest.raises(ValueError):
            layer.compute_batch(np.zeros((2, 2, 5)))
        assert layer.compute_batch(np.zeros((2, 5))).shape == (2, 3)

    def test_mac_unit_compute_batch_rejects_3d(self):
        from repro.photonics.broadcast_weight import PhotonicMacUnit

        unit = PhotonicMacUnit(4)
        unit.set_weights(np.zeros(4))
        with pytest.raises(ValueError):
            unit.compute_batch(np.full((2, 2, 4), 0.5))


class TestNoisyConsistency:
    @staticmethod
    def _noisy_out(oracle, seed):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(2, 1, 6, 6))
        k = rng.normal(size=(2, 1, 3, 3))
        config = PCNNAConfig(noise=realistic(seed=seed))
        engine = PhotonicConvolution(config, method="device")
        with oracle():
            return engine.convolve(x, k), F.conv2d_batch(x, k)

    def test_noisy_engines_statistically_consistent(self):
        out_vec, ideal = self._noisy_out(nullcontext, seed=5)
        out_ref, _ = self._noisy_out(reference_loops, seed=5)
        err_vec = out_vec - ideal
        err_ref = out_ref - ideal
        # Both engines are noisy (non-exact) but stay on the same error
        # scale — the noise is injected per wave in both.
        assert np.any(err_vec != 0.0) and np.any(err_ref != 0.0)
        rms_vec = float(np.sqrt(np.mean(err_vec**2)))
        rms_ref = float(np.sqrt(np.mean(err_ref**2)))
        assert rms_vec < 3.0 * rms_ref
        assert rms_ref < 3.0 * rms_vec
        scale = float(np.max(np.abs(ideal)))
        assert np.max(np.abs(err_vec)) < 0.5 * scale

    def test_noisy_vectorized_reproducible(self):
        first, _ = self._noisy_out(nullcontext, seed=6)
        second, _ = self._noisy_out(nullcontext, seed=6)
        other, _ = self._noisy_out(nullcontext, seed=7)
        assert np.array_equal(first, second)
        assert not np.array_equal(first, other)

    def test_tuning_error_degrades_both_engines(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(1, 6, 6))
        k = rng.normal(size=(2, 1, 3, 3))
        ideal = F.conv2d(x, k)
        for oracle in (nullcontext(), reference_loops()):
            config = PCNNAConfig(
                noise=NoiseConfig(enabled=True, ring_tuning_sigma=0.01, seed=8)
            )
            engine = PhotonicConvolution(config, method="device")
            with oracle:
                out = engine.convolve(x, k)
            assert not np.allclose(out, ideal, atol=1e-12)


class TestNoisyBytePin:
    """Noisy device runs, pinned by sha256 of their output bytes.

    The digests were recorded while every block still called each
    bank's ``apply`` and each diode's ``detect``; reading the transfers
    once per call and summing in place must not move a single RIN, shot
    or thermal draw.
    """

    def test_compute_batch_under_realistic_noise(self):
        rng = np.random.default_rng(70)
        layer = BroadcastAndWeightLayer(12, 3, noise=realistic(seed=7))
        layer.set_weight_matrix(rng.uniform(-1.0, 1.0, size=(3, 12)))
        out = layer.compute_batch(rng.uniform(0.0, 1.0, size=(40, 12)))
        assert hashlib.sha256(out.tobytes()).hexdigest() == (
            "18687eecafb1b2362ae91d14329165ab1c5555e8182096bc0007d916226b2550"
        )

    def test_noisy_device_convolve(self):
        rng = np.random.default_rng(71)
        x = rng.normal(size=(2, 2, 9, 8))
        k = rng.normal(size=(3, 2, 3, 3))
        engine = PhotonicConvolution(
            PCNNAConfig(noise=realistic(seed=7)), method="device"
        )
        out = np.ascontiguousarray(engine.convolve(x, k, 2, 1))
        assert hashlib.sha256(out.tobytes()).hexdigest() == (
            "ce77a1a46579f18404c02621b384aecb73fcc6ac3fe17d7ab35a255431a14310"
        )


class TestDeviceCoreChecks:
    """``compute_batch`` checks each bank's transfer once per call and
    each block's powers once; it still rejects what the per-bank
    ``apply`` and per-diode ``detect`` checks rejected."""

    @staticmethod
    def _layer():
        layer = BroadcastAndWeightLayer(5, 3)
        layer.set_weight_matrix(np.linspace(-1.0, 1.0, 15).reshape(3, 5))
        return layer

    def test_rejects_a_negative_transfer(self, monkeypatch):
        layer = self._layer()
        bank = layer.banks[1]
        drop, through = bank.transmission_matrix()
        through[2] = -1e-3
        monkeypatch.setattr(bank, "transmission_matrix", lambda: (drop, through))
        with pytest.raises(ValueError, match="optical power cannot be negative"):
            layer.compute_batch(np.full((4, 5), 0.5))

    def test_rejects_a_negative_laser_power_in_a_later_block(self, monkeypatch):
        layer = self._layer()
        emit = layer.lasers.emit
        blocks = []

        def emit_negative_in_second_block(bandwidth_hz, batch_size):
            powers = emit(bandwidth_hz, batch_size=batch_size)
            blocks.append(batch_size)
            if len(blocks) == 2:
                powers[-1, 0] = -1e-6
            return powers

        monkeypatch.setattr(layer.lasers, "emit", emit_negative_in_second_block)
        waves = 2 * BLOCK_BYTES // (8 * 5) + 1
        with pytest.raises(ValueError, match="optical power cannot be negative"):
            layer.compute_batch(np.full((waves, 5), 0.5))
        assert len(blocks) == 2


def _whole_batch_twin(engine, x, k, stride, padding):
    """The engine as it ran before streaming: one gather of the whole
    batch (fancy index, then a C-contiguous copy), one encode over it,
    and the device core on the whole wave stack at once."""
    batch, channels, height, width = x.shape
    num_kernels, _, size, _ = k.shape
    out_h = conv_output_side(height, size, padding, stride)
    out_w = conv_output_side(width, size, padding, stride)
    padded = np.pad(
        x, ((0, 0), (0, 0), (padding, padding), (padding, padding))
    )
    indices = receptive_field_indices(
        height, width, channels, size, stride, padding
    )
    columns = np.ascontiguousarray(padded.reshape(batch, -1)[:, indices.T])
    scaling, weights = _compute_scaling(x, k, include_zero=padding > 0)
    normalized = (columns - scaling.input_offset[:, None, None]) / (
        scaling.input_scale[:, None, None]
    )
    np.clip(normalized, 0.0, 1.0, out=normalized)
    if engine.quantize:
        normalized = engine.config.input_dac.quantize(normalized)
    if engine._resolved_method() == "matrix":
        raw = np.stack([weights @ image for image in normalized])
    else:
        waves = np.ascontiguousarray(normalized.transpose(0, 2, 1)).reshape(
            -1, weights.shape[1]
        )
        layer = engine._build_layer(weights)
        powers = layer.lasers.emit(
            layer.detectors[0].spec.bandwidth_hz, batch_size=waves.shape[0]
        )
        powers = powers * layer.modulator.encode(waves)
        branch = powers * layer.splitter.per_output_transmission
        currents = np.empty((waves.shape[0], num_kernels))
        for index, (bank, detector) in enumerate(
            zip(layer.banks, layer.detectors)
        ):
            drop, through = bank.apply(branch)
            currents[:, index] = (
                detector.detect(drop, through) / layer.calibration_scale
            )
        raw = currents.reshape(batch, out_h * out_w, num_kernels).transpose(
            0, 2, 1
        )
    if engine.quantize:
        gain = np.maximum(np.abs(raw).max(axis=(1, 2)), 1e-30)[:, None, None]
        raw = engine.config.adc.quantize(raw / gain) * gain
    return scaling.decode(raw).reshape(batch, num_kernels, out_h, out_w)


class TestStreamingPin:
    """Per-image encode-then-gather and the blocked core change no byte
    against the whole-batch gather-then-encode twin."""

    @pytest.mark.parametrize("batch", [1, 3, 17])
    @pytest.mark.parametrize(
        ("method", "quantize", "noisy"),
        [
            ("matrix", False, False),
            ("device", False, False),
            ("device", True, False),
            ("device", False, True),
            ("device", True, True),
        ],
    )
    def test_streaming_equals_whole_batch_twin(
        self, batch, method, quantize, noisy
    ):
        rng = np.random.default_rng(batch)
        # 75 channels make a block of BLOCK_BYTES // 600 = 1747 waves, so
        # a batch of 17 (4352 waves) streams through three blocks.
        x = rng.normal(size=(batch, 3, 16, 16))
        k = rng.normal(size=(4, 3, 5, 5))
        noise = realistic(seed=21) if noisy else NoiseConfig()
        engine = PhotonicConvolution(
            PCNNAConfig(noise=noise), method=method, quantize=quantize
        )
        assert engine._resolved_method() == method
        out = engine.convolve(x, k, 1, 2)
        assert np.array_equal(out, _whole_batch_twin(engine, x, k, 1, 2))
        if batch == 17 and not noisy:
            assert out.shape[0] * out[0, 0].size > BLOCK_BYTES // (8 * 75)

    @pytest.mark.parametrize(
        ("method", "quantize"),
        [("matrix", False), ("device", False), ("device", True)],
    )
    @pytest.mark.parametrize(
        ("size", "stride", "padding", "inputs"),
        [
            # conv1's geometry: each pixel sits in up to 16 fields.
            (7, 2, 3, "normal"),
            # Stride above the kernel: some pixels are read by no field.
            (2, 3, 1, "normal"),
            # No padding: the encode must run on a copy of the batch.
            (3, 1, 0, "normal"),
            # A constant image has no span; the scaling forces it to 1.
            (3, 1, 0, "constant"),
            # All negative with padding: encode(0) is 1, not 0, so the
            # pad must be encoded like any pixel.
            (3, 2, 2, "negative"),
        ],
    )
    def test_encode_before_gather_equals_whole_batch_twin(
        self, method, quantize, size, stride, padding, inputs
    ):
        rng = np.random.default_rng(size * 10 + stride)
        x = {
            "normal": lambda: rng.normal(size=(3, 2, 16, 15)),
            "constant": lambda: np.full((3, 2, 16, 15), -1.5),
            "negative": lambda: -rng.uniform(0.5, 2.0, size=(3, 2, 16, 15)),
        }[inputs]()
        k = rng.normal(size=(4, 2, size, size))
        engine = PhotonicConvolution(method=method, quantize=quantize)
        assert engine._resolved_method() == method
        before = x.copy()
        out = engine.convolve(x, k, stride, padding)
        assert np.array_equal(x, before)
        twin = _whole_batch_twin(engine, x, k, stride, padding)
        assert np.array_equal(out, twin)


class TestBoundedMemory:
    """A conv1-shaped ``convolve`` holds one image's columns at a time.

    ``tracemalloc`` sees numpy's buffers, so these peaks are exact byte
    counts of what one call allocates, independent of the host.
    """

    SHAPE, KERNELS, STRIDE, PADDING = (3, 224, 224), (4, 3, 7, 7), 2, 3

    def _peak_and_sizes(self, method, batch):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(batch, *self.SHAPE))
        k = rng.normal(size=self.KERNELS)
        engine = PhotonicConvolution(method=method)
        engine.convolve(x[:1], k, self.STRIDE, self.PADDING)
        tracemalloc.start()
        try:
            out = engine.convolve(x, k, self.STRIDE, self.PADDING)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # One image's gathered columns: (C * 7 * 7, 112 * 112) float64.
        columns = k[0].size * out[0, 0].size * 8
        return peak, columns, out.nbytes

    def test_matrix_path_peak_is_one_image_of_columns(self):
        peak, columns, output = self._peak_and_sizes("matrix", 16)
        assert peak <= 2 * columns + 3 * output

    def test_device_path_peak_is_the_wave_stack_plus_one_image(self):
        # The device core consumes the (B * L, F) wave stack: B images'
        # columns, plus one image being encoded into it.
        peak, columns, output = self._peak_and_sizes("device", 4)
        assert peak <= (4 + 2) * columns + 3 * output


class TestBatchedFunctional:
    def test_conv2d_batch_matches_per_image(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(3, 2, 7, 9))
        k = rng.normal(size=(4, 2, 3, 3))
        bias = rng.normal(size=4)
        batched = F.conv2d_batch(x, k, 2, 1, bias)
        stacked = np.stack([F.conv2d(m, k, 2, 1, bias) for m in x])
        assert np.allclose(batched, stacked, atol=1e-10)

    def test_conv2d_batch_shape_checks(self):
        with pytest.raises(ValueError):
            F.conv2d_batch(np.zeros((2, 4, 4)), np.zeros((1, 2, 2, 2)))
        with pytest.raises(ValueError):
            F.conv2d_batch(
                np.zeros((1, 2, 4, 4)), np.zeros((1, 2, 2, 2)), bias=np.zeros(3)
            )
        with pytest.raises(ValueError, match="at least one image"):
            F.conv2d_batch(np.zeros((0, 2, 4, 4)), np.zeros((1, 2, 2, 2)))


class TestBatchedNetwork:
    def test_run_network_batched_matches_per_image(self):
        net = build_lenet5(seed=2)
        accelerator = PCNNA()
        x = np.random.default_rng(13).normal(size=(3, 1, 32, 32))
        batched = accelerator.run_network(net, x)
        per_image = np.stack(
            [accelerator.run_network(net, image) for image in x]
        )
        assert batched.shape == (3, 10)
        assert np.allclose(batched, per_image, atol=1e-9)

    def test_run_network_batched_shape_check(self):
        net = build_lenet5()
        with pytest.raises(ValueError):
            PCNNA().run_network(net, np.zeros((2, 1, 30, 30)))


class TestBatchedTiming:
    def test_simulate_layer_batch_composition(self):
        spec = alexnet_layer("conv3")
        single = simulate_layer(spec)
        batch = simulate_layer_batch(spec, 16)
        assert batch.total_time_s == pytest.approx(
            single.weight_load_time_s + 16 * single.pipelined_time_s
        )
        assert batch.per_image_s < simulate_layer_batch(spec, 1).per_image_s

    def test_simulate_layer_batch_rejects_bad_batch(self):
        with pytest.raises(ValueError):
            simulate_layer_batch(alexnet_layer("conv1"), 0)

    def test_network_batch_timing_simulated(self):
        from repro.workloads import alexnet_conv_specs

        specs = alexnet_conv_specs()[:2]
        small = network_batch_timing_simulated(specs, 1)
        large = network_batch_timing_simulated(specs, 64)
        assert large.images_per_s > small.images_per_s
        assert large.weight_load_fraction < small.weight_load_fraction
        with pytest.raises(ValueError):
            network_batch_timing_simulated(specs, 0)
