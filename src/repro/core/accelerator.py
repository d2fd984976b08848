"""The PCNNA accelerator facade: functional photonic convolution.

:class:`PhotonicConvolution` executes a *real* convolution through the
photonic substrate, exactly as the architecture does (paper section IV):

1. the kernel weights are scaled into [-1, 1] and programmed onto the K
   weight banks once per layer;
2. every kernel location's receptive field is scaled into [0, 1],
   DAC-quantized, encoded onto WDM wavelengths by the MZMs, broadcast to
   all K banks, and balanced-detected — producing all K outputs in one
   MAC wave;
3. outputs are ADC-quantized and rescaled back to the original ranges.

The device engine runs step 2 vectorized: every kernel location of
every image in the (optional) batch is encoded and gathered image by
image into one ``(waves, channels)`` stack, which
:meth:`~repro.photonics.broadcast_weight.BroadcastAndWeightLayer.compute_batch`
streams through the substrate in cache-sized blocks — a handful of
array operations per weight bank and block.  The original wave-by-wave
loop, :meth:`PhotonicConvolution._device_matvec`, is retained as the
transparently-correct reference; in ideal mode the two are bit-equal
(asserted by ``tests/test_batched_engine.py``).

``convolve`` accepts a single ``(C, H, W)`` feature map or a batched
``(B, C, H, W)`` stack; batching programs the weight banks once and
streams every image through them, mirroring the weight-stationary
amortization of :mod:`repro.core.batching`.

Signed inputs are handled with an affine encoding: the optical core
computes ``dot(w, x')`` for the shifted/normalized ``x'`` and the digital
back-end removes the shift using the per-kernel weight sums (a one-time
calibration constant) — no information is lost and ideal mode is exact
to float precision.

:class:`PCNNA` bundles the functional engine with the analytical and
cycle-level models into the single entry point users interact with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.analytical import LayerAnalysis, analyze_layer
from repro.core.config import PCNNAConfig
from repro.core.timing import LayerTimingResult, simulate_layer
from repro.nn.im2col import im2col_batch_stacked, pad_feature_map
from repro.nn.network import Network
from repro.nn.shapes import ConvLayerSpec, conv_output_side
from repro.photonics.broadcast_weight import BroadcastAndWeightLayer
from repro.photonics.wdm import WdmGrid

# Contract marker checked by `python -m repro.lint` (BIT001): the engine
# goldens (lenet5_*.npz, googlenet-stem_*.npz) pin its outputs byte for
# byte, so every float fold here must state why its rounding is fixed.
__bit_identity__ = True


@dataclass(frozen=True)
class ConvScaling:
    """Affine scaling constants for one photonic conv layer.

    The input range is derived *per image* so that an image's encoding —
    and therefore its DAC/ADC quantization — never depends on which
    other images share its minibatch; the weight scaling is per layer
    (the banks are programmed once for the whole batch).

    Attributes:
        input_offset: per-image offsets ``(B,)`` subtracted from inputs
            before normalization.
        input_scale: per-image spans ``(B,)`` dividing shifted inputs
            into [0, 1].
        weight_scale: divides weights into [-1, 1].
        weight_sums: per-kernel sums of the *scaled* weights, used to
            remove the input offset from the detected outputs.
    """

    input_offset: np.ndarray
    input_scale: np.ndarray
    weight_scale: float
    weight_sums: np.ndarray

    def decode(self, raw_outputs: np.ndarray) -> np.ndarray:
        """Map balanced-detector outputs back to true convolution values.

        Args:
            raw_outputs: array of shape ``(B, K, num_locations)``.
        """
        return (
            raw_outputs * self.input_scale[:, None, None]
            + self.input_offset[:, None, None] * self.weight_sums[None, :, None]
        ) * self.weight_scale


def _compute_scaling(
    stack: np.ndarray, kernels: np.ndarray, include_zero: bool = False
) -> tuple[ConvScaling, np.ndarray]:
    """Derive the per-image affine scaling and the scaled weight matrix.

    Args:
        stack: minibatch of shape ``(B, C, H, W)``.
        include_zero: extend the input ranges to contain 0 — required
            when zero padding injects literal zeros into receptive
            fields.

    Raises:
        ValueError: if an image or the kernels hold a NaN or an infinity,
            which would otherwise turn every output they reach into NaN.
    """
    # min and max propagate NaN and inf, so the ranges double as the
    # finiteness check at no extra pass over the batch.
    x_min = stack.min(axis=(1, 2, 3))
    x_max = stack.max(axis=(1, 2, 3))
    bad = np.flatnonzero(~(np.isfinite(x_min) & np.isfinite(x_max)))
    if bad.size:
        raise ValueError(
            f"feature map holds non-finite values (image {int(bad[0])})"
        )
    if include_zero:
        x_min = np.minimum(x_min, 0.0)
        x_max = np.maximum(x_max, 0.0)
    span = x_max - x_min
    # Constant image: any positive scale works; pick 1 to avoid 0/0.
    span = np.where(span <= 0.0, 1.0, span)
    w_max = float(np.abs(kernels).max())
    if not np.isfinite(w_max):
        raise ValueError("kernels hold non-finite weights")
    if w_max <= 0.0:
        w_max = 1.0
    num_kernels = kernels.shape[0]
    weight_matrix = kernels.reshape(num_kernels, -1) / w_max
    scaling = ConvScaling(
        input_offset=x_min,
        input_scale=span,
        weight_scale=w_max,
        # repro: allow[BIT001] one recipe on every path: each engine
        # and the reference loop decode with these sums, a per-row fold
        # of the C-contiguous (K, F) matrix that no batch size touches
        weight_sums=weight_matrix.sum(axis=1),
    )
    return scaling, weight_matrix


class PhotonicConvolution:
    """Executes convolutions on the broadcast-and-weight optical core.

    Args:
        config: hardware configuration (noise, converters, clocks).
        method: ``"device"`` runs every MAC wave through the full device
            simulation; ``"matrix"`` uses the mathematically-equivalent
            closed form (valid only in ideal mode, proven equivalent by
            the test suite); ``"auto"`` picks ``"matrix"`` when the
            configuration is ideal and quantization is disabled.
        quantize: apply DAC/ADC quantization to inputs/outputs.
    """

    def __init__(
        self,
        config: PCNNAConfig | None = None,
        method: str = "auto",
        quantize: bool = False,
    ) -> None:
        if method not in ("auto", "device", "matrix"):
            raise ValueError(
                f"method must be 'auto', 'device' or 'matrix', got {method!r}"
            )
        self.config = config if config is not None else PCNNAConfig()
        self.method = method
        self.quantize = quantize

    def _resolved_method(self) -> str:
        """The concrete execution method for the current configuration."""
        if self.method != "auto":
            return self.method
        if self.config.noise.enabled or self.quantize:
            return "device"
        return "matrix"

    def convolve(
        self,
        feature_map: np.ndarray,
        kernels: np.ndarray,
        stride: int = 1,
        padding: int = 0,
    ) -> np.ndarray:
        """Convolve ``feature_map`` with ``kernels`` on the optical core.

        Args:
            feature_map: input of shape ``(C, H, W)``, or a minibatch of
                shape ``(B, C, H, W)`` — batching programs the weight
                banks once and streams every image through them.
            kernels: weights of shape ``(K, C, m, m)``.
            stride: spatial stride.
            padding: zero padding.

        Returns:
            Output of shape ``(K, out_h, out_w)`` for a single input, or
            ``(B, K, out_h, out_w)`` for a batch — the photonic estimate
            of the convolution (exact in ideal mode).

        Raises:
            ValueError: on shape mismatches, non-square kernels, or a
                NaN or infinity in the feature map or the kernels.
        """
        feature_map = np.asarray(feature_map, dtype=float)
        kernels = np.asarray(kernels, dtype=float)
        batched = feature_map.ndim == 4
        if feature_map.ndim not in (3, 4):
            raise ValueError(
                "feature map must be (C, H, W) or batched (B, C, H, W), "
                f"got {feature_map.shape}"
            )
        stack = feature_map if batched else feature_map[None]
        if kernels.ndim != 4 or kernels.shape[1] != stack.shape[1]:
            raise ValueError(
                f"kernels {kernels.shape} incompatible with input "
                f"{feature_map.shape}"
            )
        if kernels.shape[2] != kernels.shape[3]:
            raise ValueError(
                f"kernels must be square (K, C, m, m), got {kernels.shape}"
            )

        batch_size = stack.shape[0]
        if batch_size == 0:
            raise ValueError("batch must contain at least one image")
        num_kernels, _, kernel_size, _ = kernels.shape
        out_h = conv_output_side(stack.shape[2], kernel_size, padding, stride)
        out_w = conv_output_side(stack.shape[3], kernel_size, padding, stride)
        num_locations = out_h * out_w

        # Zero padding injects literal zeros into receptive fields, so the
        # affine input range must contain 0 for the encoding to be exact.
        # The weights are programmed once for the whole batch, but the
        # input encoding range is *per image*: an image's normalization,
        # DAC/ADC quantization, and TIA gain must not depend on which
        # other images share its minibatch.
        scaling, weight_matrix = _compute_scaling(
            stack, kernels, include_zero=padding > 0
        )

        def encoded_columns(index: int, out=None) -> np.ndarray:
            """Image ``index``'s encoded, gathered ``(F, L)`` columns, or
            their ``(L, F)`` transpose written into ``out``.

            The affine encode and the input DAC are elementwise, so they
            run once per pixel of the padded image and the gather then
            copies the encoded pixels into every receptive field that
            holds them — eq. (8)'s accounting, which charges a kernel
            location only its new values.  The pad zeros are encoded as
            pixels, exactly as gathered zeros would be, so every column
            byte equals gather-then-encode.  One image at a time, so the
            chain streams over one image, not the batch.
            """
            # The encode runs in place: never on the caller's batch.
            image = (
                pad_feature_map(stack[index], padding)
                if padding
                else stack[index].copy()
            )
            np.subtract(image, scaling.input_offset[index], out=image)
            np.divide(image, scaling.input_scale[index], out=image)
            np.clip(image, 0.0, 1.0, out=image)
            if self.quantize:
                image = self.config.input_dac.quantize(image)
            return im2col_batch_stacked(
                image[None], kernel_size, stride, 0, out=out
            )[0]

        if self._resolved_method() == "matrix":
            # One 2-D GEMM per image — the same (K, F) @ (F, L) call a
            # single-image run issues, so batched execution is
            # bit-identical to running the images one by one.  A
            # broadcast batched matmul is not: NumPy may round the
            # stacked product differently depending on the batch size.
            raw = np.empty((batch_size, num_kernels, num_locations))
            for index in range(batch_size):
                np.matmul(weight_matrix, encoded_columns(index), out=raw[index])
        else:
            # Wave-major stack: wave b * L + l is image b's location l,
            # matching the image-major column order of im2col_batch.
            waves = np.empty((batch_size * num_locations, weight_matrix.shape[1]))
            for index in range(batch_size):
                rows = slice(index * num_locations, (index + 1) * num_locations)
                # The fields land in their wave rows straight from the
                # window view, with no (F, L) copy to transpose.
                encoded_columns(index, out=waves[rows][None])
            currents = self._device_matvec_vectorized(waves, weight_matrix)
            raw = currents.reshape(
                batch_size, num_locations, num_kernels
            ).transpose(0, 2, 1)

        if self.quantize:
            # The TIA's programmable gain maps the observed output range
            # onto the ADC full scale (automatic gain control), so the
            # quantizer's resolution is spent on the actual signal.  One
            # gain per image: a batch-wide gain would couple an image's
            # quantization to its batch neighbours.
            gain = np.maximum(np.abs(raw).max(axis=(1, 2)), 1e-30)
            gain = gain[:, None, None]
            raw = self.config.adc.quantize(raw / gain) * gain

        outputs = scaling.decode(raw)
        result = outputs.reshape(batch_size, num_kernels, out_h, out_w)
        return result if batched else result[0]

    def _build_layer(self, weight_matrix: np.ndarray) -> BroadcastAndWeightLayer:
        """Instantiate and program the optical core for one conv layer.

        The noise config is forked per call (fresh generator, seeded
        from the configured seed plus the layer geometry), so two
        identical noisy ``convolve`` calls draw identical noise instead
        of consuming successive slices of a shared stream, while
        different conv layers still get distinct streams.
        """
        num_kernels, field_size = weight_matrix.shape
        layer = BroadcastAndWeightLayer(
            num_inputs=field_size,
            num_outputs=num_kernels,
            grid=WdmGrid(num_channels=field_size),
            ring_design=self.config.ring_design,
            noise=self.config.noise.fork(key=(num_kernels << 32) | field_size),
        )
        layer.set_weight_matrix(weight_matrix)
        return layer

    def _device_matvec(
        self, waves: np.ndarray, weight_matrix: np.ndarray
    ) -> np.ndarray:
        """Reference engine: one wave at a time through the device stack.

        Args:
            waves: normalized receptive fields, shape ``(waves, field)``.

        Returns:
            Raw detector outputs, shape ``(waves, K)``.
        """
        layer = self._build_layer(weight_matrix)
        raw = np.empty((waves.shape[0], weight_matrix.shape[0]), dtype=float)
        for index in range(waves.shape[0]):
            raw[index] = layer.compute(waves[index])
        return raw

    def _device_matvec_vectorized(
        self, waves: np.ndarray, weight_matrix: np.ndarray
    ) -> np.ndarray:
        """Vectorized engine: the whole wave stack in batched array ops.

        Same contract as :meth:`_device_matvec`; bit-identical to it in
        ideal mode.
        """
        layer = self._build_layer(weight_matrix)
        return layer.compute_batch(waves)


@dataclass(frozen=True)
class LayerReport:
    """Combined analytical + simulated report for one layer.

    Attributes:
        analysis: closed-form quantities (rings, times, area).
        timing: cycle-level simulation result.
    """

    analysis: LayerAnalysis
    timing: LayerTimingResult

    @property
    def name(self) -> str:
        """Layer name."""
        return self.analysis.name


class PCNNA:
    """The PCNNA accelerator: one object tying every model together.

    Args:
        config: hardware configuration; defaults to the paper's.

    Example:
        >>> from repro import PCNNA
        >>> from repro.workloads import alexnet_layer
        >>> accelerator = PCNNA()
        >>> report = accelerator.report_layer(alexnet_layer("conv4"))
        >>> report.analysis.rings_per_bank
        3456
    """

    def __init__(self, config: PCNNAConfig | None = None) -> None:
        self.config = config if config is not None else PCNNAConfig()
        self.engine = PhotonicConvolution(self.config)

    def analyze_layer(self, spec: ConvLayerSpec) -> LayerAnalysis:
        """Closed-form analysis of one conv layer (paper section V)."""
        return analyze_layer(spec, self.config)

    # repro: allow[API002] delegate to the deterministic cycle-level
    # model; the engine's own randomness (noise) is seeded NoiseConfig
    def simulate_layer(
        self, spec: ConvLayerSpec, include_adc: bool = True
    ) -> LayerTimingResult:
        """Cycle-level timing simulation of one conv layer."""
        return simulate_layer(spec, self.config, include_adc)

    def report_layer(self, spec: ConvLayerSpec) -> LayerReport:
        """Both analyses for one layer."""
        return LayerReport(
            analysis=self.analyze_layer(spec),
            timing=self.simulate_layer(spec),
        )

    def convolve(
        self,
        feature_map: np.ndarray,
        kernels: np.ndarray,
        stride: int = 1,
        padding: int = 0,
    ) -> np.ndarray:
        """Functional photonic convolution (see :class:`PhotonicConvolution`).

        Accepts a single ``(C, H, W)`` feature map or a batched
        ``(B, C, H, W)`` stack.
        """
        return self.engine.convolve(feature_map, kernels, stride, padding)

    def run_network(self, network: Network, inputs: np.ndarray) -> np.ndarray:
        """Run a full CNN with every conv layer executed photonically.

        Non-conv layers (pooling, activation, normalization, dense) run on
        the electronic side, mirroring the paper's system partitioning.

        Args:
            network: the CNN to execute.
            inputs: one input matching ``network.input_shape``, or a
                minibatch with a leading batch axis — conv layers then run
                through the batched photonic engine (weights programmed
                once per layer for the whole batch) and electronic layers
                push the whole minibatch through single array operations
                (``Layer.forward_batch``).  In ideal mode the batched
                result is bit-identical to running the images one by one.

        Returns:
            The network output, with a leading batch axis iff the input
            had one.

        Raises:
            ValueError: if the input shape does not match the network.
        """
        from repro.nn.layers import Conv2D

        inputs = np.asarray(inputs, dtype=float)
        batched = inputs.ndim == len(network.input_shape) + 1
        if batched:
            if inputs.shape[1:] != network.input_shape:
                raise ValueError(
                    f"expected batched input shape (B, *{network.input_shape}),"
                    f" got {inputs.shape}"
                )
        elif inputs.shape != network.input_shape:
            raise ValueError(
                f"expected input shape {network.input_shape}, got {inputs.shape}"
            )
        current = inputs
        for layer in network.layers:
            if isinstance(layer, Conv2D):
                current = self.convolve(
                    current, layer.weights, layer.stride, layer.padding
                )
                if layer.bias is not None:
                    bias = (
                        layer.bias[None, :, None, None]
                        if batched
                        else layer.bias[:, None, None]
                    )
                    # convolve returns a fresh array: add in place.
                    current += bias
            elif batched:
                current = layer.forward_batch(current)
            else:
                current = layer.forward(current)
        return current
