"""Broadcast-and-weight networks: photonic MAC units and layers.

This module assembles the device models into the Fig. 1 protocol of the
PCNNA paper:

1. each input value is encoded onto a dedicated wavelength (laser + MZM);
2. the bundled WDM signal is broadcast on a waveguide to every destination
   weight bank (a splitter when there are several banks);
3. each bank weights every wavelength with its microrings;
4. a balanced photodiode per bank sums the weighted wavelengths into a
   photocurrent — completing one multiply-and-accumulate per bank.

:class:`PhotonicMacUnit` is a single bank + detector (one dot product);
:class:`BroadcastAndWeightLayer` is K banks sharing one broadcast bus (one
matrix-vector product, i.e. K kernels applied to one receptive field in
parallel — exactly the PCNNA inner loop).

Both expose a batched entry point (``compute_batch``) that pushes a whole
``(waves, channels)`` stack of MAC waves — e.g. every kernel location of
every image in a minibatch — through the substrate with a handful of
array operations per bank instead of a Python loop per wave.  In ideal
mode the batched path performs the identical per-element arithmetic as
wave-by-wave :meth:`~BroadcastAndWeightLayer.compute`, so the two are
bit-equal; in noisy mode RIN / shot / thermal samples are drawn
independently per wave, preserving the statistics.
"""

from __future__ import annotations

import numpy as np

from repro.photonics.laser import LaserBank, LaserSpec
from repro.photonics.microring import MicroringDesign
from repro.photonics.modulator import MachZehnderModulator, ModulatorSpec
from repro.photonics.noise import NoiseConfig, ideal
from repro.photonics.photodiode import BalancedPhotodetector, PhotodiodeSpec
from repro.photonics.waveguide import Splitter, Waveguide
from repro.photonics.wdm import WdmGrid

# Contract marker checked by `python -m repro.lint` (BIT001): the
# vectorized core is pinned bit-equal to the wave-by-wave loop and to
# the engine goldens.
__bit_identity__ = True

BLOCK_BYTES = 1 << 20
"""Size of one ``(waves, channels)`` float64 block of an ideal
:meth:`BroadcastAndWeightLayer.compute_batch` stream: about 1 MiB, so a
block and a bank's drop and through products stay in cache.  The banks'
transfers are read once per call, not once per block."""


class PhotonicMacUnit:
    """One weight bank + balanced detector: a signed dot product in light.

    Args:
        num_inputs: length of the dot product (== WDM channel count).
        grid: optional explicit WDM grid; defaults to a 100 GHz grid.
        ring_design: microring design shared by the bank.
        laser_spec: per-channel laser parameters.
        modulator_spec: MZM parameters.
        photodiode_spec: detector parameters.
        noise: non-ideality configuration shared by every device.
        bus: optional waveguide between modulators and the bank.
    """

    def __init__(
        self,
        num_inputs: int,
        grid: WdmGrid | None = None,
        ring_design: MicroringDesign | None = None,
        laser_spec: LaserSpec | None = None,
        modulator_spec: ModulatorSpec | None = None,
        photodiode_spec: PhotodiodeSpec | None = None,
        noise: NoiseConfig | None = None,
        bus: Waveguide | None = None,
    ) -> None:
        if num_inputs <= 0:
            raise ValueError(f"num_inputs must be positive, got {num_inputs!r}")
        self.noise = noise if noise is not None else ideal()
        self.grid = grid if grid is not None else WdmGrid(num_channels=num_inputs)
        if self.grid.num_channels != num_inputs:
            raise ValueError(
                f"grid has {self.grid.num_channels} channels but num_inputs is "
                f"{num_inputs}"
            )
        self.lasers = LaserBank(self.grid, laser_spec, self.noise)
        self.modulator = MachZehnderModulator(modulator_spec)
        self.bus = bus if bus is not None else Waveguide(length_m=0.0)
        # Import here is unnecessary; WeightBank is a sibling module.
        from repro.photonics.weight_bank import WeightBank

        self.bank = WeightBank(self.grid, ring_design, self.noise)
        self.detector = BalancedPhotodetector(photodiode_spec, self.noise)

    @property
    def num_inputs(self) -> int:
        """Dot-product length."""
        return self.grid.num_channels

    @property
    def calibration_scale(self) -> float:
        """Photocurrent produced per unit (x * w) term, in amperes.

        Dividing the balanced current by this scale recovers the
        dimensionless dot product.
        """
        return (
            self.detector.spec.responsivity_a_per_w
            * self.lasers.spec.power_w
            * self.bus.transmission
        )

    def set_weights(self, weights: np.ndarray) -> None:
        """Program the weight vector (each entry in [-1, 1])."""
        self.bank.set_weights(weights)

    def compute(self, inputs: np.ndarray) -> float:
        """Run one optical MAC: returns an estimate of ``dot(inputs, w)``.

        Args:
            inputs: normalized input vector, entries in [0, 1].

        Returns:
            The recovered dot product (exact in ideal mode).
        """
        powers = self.lasers.emit(self.detector.spec.bandwidth_hz)
        powers = powers * self.modulator.encode(inputs)
        powers = self.bus.propagate(powers)
        drop, through = self.bank.apply(powers)
        current = self.detector.detect(drop, through)
        return current / self.calibration_scale

    def compute_batch(self, inputs: np.ndarray) -> np.ndarray:
        """Run a stack of optical MACs in one vectorized pass.

        Args:
            inputs: normalized input vectors of shape
                ``(waves, num_inputs)``, entries in [0, 1].

        Returns:
            Array of shape ``(waves,)`` estimating ``inputs @ w``.

        Raises:
            ValueError: if the trailing axis mismatches the unit.
        """
        batch = np.ascontiguousarray(np.atleast_2d(np.asarray(inputs, dtype=float)))
        if batch.ndim != 2 or batch.shape[-1] != self.num_inputs:
            raise ValueError(
                f"expected (waves, {self.num_inputs}) inputs, got shape "
                f"{np.asarray(inputs).shape}"
            )
        powers = self.lasers.emit(
            self.detector.spec.bandwidth_hz, batch_size=batch.shape[0]
        )
        powers = powers * self.modulator.encode(batch)
        powers = self.bus.propagate(powers)
        drop, through = self.bank.apply(powers)
        currents = self.detector.detect(drop, through)
        return np.atleast_1d(currents) / self.calibration_scale

    def dot(self, inputs: np.ndarray, weights: np.ndarray) -> float:
        """Convenience: program ``weights`` then compute one MAC."""
        self.set_weights(weights)
        return self.compute(inputs)


class BroadcastAndWeightLayer:
    """K weight banks on one broadcast bus: a photonic matrix-vector product.

    This is the PCNNA optical core: one receptive field is broadcast once
    and K kernel banks weight it simultaneously, so all K outputs emerge
    within a single fast-clock cycle regardless of K (paper section IV).

    Args:
        num_inputs: receptive-field size (WDM channel count).
        num_outputs: number of kernels / banks operating in parallel.
        noise: shared non-ideality configuration.
        Other args mirror :class:`PhotonicMacUnit`.
    """

    def __init__(
        self,
        num_inputs: int,
        num_outputs: int,
        grid: WdmGrid | None = None,
        ring_design: MicroringDesign | None = None,
        laser_spec: LaserSpec | None = None,
        modulator_spec: ModulatorSpec | None = None,
        photodiode_spec: PhotodiodeSpec | None = None,
        noise: NoiseConfig | None = None,
    ) -> None:
        if num_inputs <= 0:
            raise ValueError(f"num_inputs must be positive, got {num_inputs!r}")
        if num_outputs <= 0:
            raise ValueError(f"num_outputs must be positive, got {num_outputs!r}")
        self.noise = noise if noise is not None else ideal()
        self.grid = grid if grid is not None else WdmGrid(num_channels=num_inputs)
        if self.grid.num_channels != num_inputs:
            raise ValueError(
                f"grid has {self.grid.num_channels} channels but num_inputs is "
                f"{num_inputs}"
            )
        self.num_outputs = num_outputs
        self.lasers = LaserBank(self.grid, laser_spec, self.noise)
        self.modulator = MachZehnderModulator(modulator_spec)
        self.splitter = Splitter(num_outputs)

        from repro.photonics.weight_bank import WeightBank

        self.banks = [
            WeightBank(self.grid, ring_design, self.noise)
            for _ in range(num_outputs)
        ]
        self.detectors = [
            BalancedPhotodetector(photodiode_spec, self.noise)
            for _ in range(num_outputs)
        ]

    @property
    def num_inputs(self) -> int:
        """Receptive-field size."""
        return self.grid.num_channels

    @property
    def total_rings(self) -> int:
        """Total microrings across all banks (K * Nkernel for one layer)."""
        # repro: allow[BIT001] integer count, exact in any order
        return sum(bank.num_rings for bank in self.banks)

    @property
    def calibration_scale(self) -> float:
        """Balanced current per unit (x * w) term at each detector (A)."""
        detector = self.detectors[0]
        return (
            detector.spec.responsivity_a_per_w
            * self.lasers.spec.power_w
            * self.splitter.per_output_transmission
        )

    def set_weight_matrix(self, matrix: np.ndarray) -> None:
        """Program all banks from a ``(num_outputs, num_inputs)`` matrix.

        Raises:
            ValueError: on shape mismatch or out-of-range weights.
        """
        weights = np.asarray(matrix, dtype=float)
        expected = (self.num_outputs, self.num_inputs)
        if weights.shape != expected:
            raise ValueError(
                f"expected weight matrix of shape {expected}, got {weights.shape}"
            )
        for bank, row in zip(self.banks, weights):
            bank.set_weights(row)

    def compute(self, inputs: np.ndarray) -> np.ndarray:
        """Broadcast ``inputs`` once and return all K weighted sums.

        Args:
            inputs: normalized receptive field, entries in [0, 1].

        Returns:
            Array of shape ``(num_outputs,)`` estimating ``W @ inputs``.
        """
        powers = self.lasers.emit(self.detectors[0].spec.bandwidth_hz)
        powers = powers * self.modulator.encode(inputs)
        branches = self.splitter.split(powers)
        scale = self.calibration_scale
        outputs = np.empty(self.num_outputs, dtype=float)
        for index, (bank, detector, branch) in enumerate(
            zip(self.banks, self.detectors, branches)
        ):
            drop, through = bank.apply(branch)
            outputs[index] = detector.detect(drop, through) / scale
        return outputs

    def compute_batch(self, inputs: np.ndarray) -> np.ndarray:
        """Broadcast a whole stack of MAC waves through the layer at once.

        This is the vectorized engine behind batched photonic
        convolution: every row of ``inputs`` is one receptive field (from
        any kernel location of any image in a minibatch), and each weight
        bank processes the stack with a few array operations —
        elementwise weighting plus one summation per wave — instead of a
        Python loop per wave.

        An ideal layer streams the stack in blocks of about
        :data:`BLOCK_BYTES` (emit, encode, split, then every bank's
        weight and detect), so its temporaries stay cache-sized; each
        wave's arithmetic does not depend on its block.  The banks'
        transfers are read and checked once per call and a block's
        powers once, where :meth:`compute` checks in every bank's
        ``apply`` and every diode's ``detect``; a negative power is
        rejected either way.  A noisy layer takes the whole stack as one
        block: its generator draws RIN for every wave, then each bank's
        detector noise, and that draw order is what makes a seeded call
        reproducible.

        Args:
            inputs: normalized receptive fields of shape
                ``(waves, num_inputs)``, entries in [0, 1].

        Returns:
            Array of shape ``(waves, num_outputs)`` estimating
            ``inputs @ W.T``.

        Raises:
            ValueError: if the trailing axis mismatches the layer or the
                stack holds no wave.
        """
        batch = np.ascontiguousarray(np.atleast_2d(np.asarray(inputs, dtype=float)))
        if batch.ndim != 2 or batch.shape[-1] != self.num_inputs:
            raise ValueError(
                f"expected (waves, {self.num_inputs}) inputs, got shape "
                f"{np.asarray(inputs).shape}"
            )
        num_waves = batch.shape[0]
        if num_waves == 0:
            raise ValueError("compute_batch needs at least one wave")
        if self.noise.enabled:
            block = num_waves
        else:
            block = max(1, BLOCK_BYTES // batch[0].nbytes)
        transfers = np.array([bank.transmission_matrix() for bank in self.banks])
        if np.any(transfers < 0):
            raise ValueError("optical power cannot be negative")
        bandwidth_hz = self.detectors[0].spec.bandwidth_hz
        scale = self.calibration_scale
        outputs = np.empty((num_waves, self.num_outputs), dtype=float)
        for start in range(0, num_waves, block):
            rows = batch[start : start + block]
            powers = self.lasers.emit(bandwidth_hz, batch_size=rows.shape[0])
            powers *= self.modulator.encode(rows)
            # The splitter delivers the same attenuated copy to every bank.
            powers *= self.splitter.per_output_transmission
            # One sign check stands for every bank's weight and detector
            # check: with both factors non-negative no product is negative.
            if np.any(powers < 0):
                raise ValueError("optical power cannot be negative")
            for index, ((drop, through), detector) in enumerate(
                zip(transfers, self.detectors)
            ):
                # repro: allow[BIT001] WeightBank.apply's product and
                # Photodiode.detect's contiguous row sum, as compute() runs them
                drop_w = (powers * drop).sum(axis=-1)
                # repro: allow[BIT001] the same fold for the through port
                through_w = (powers * through).sum(axis=-1)
                # Positive diode first: compute()'s noise draw order.
                current = detector.positive.detect_summed(
                    drop_w
                ) - detector.negative.detect_summed(through_w)
                outputs[start : start + block, index] = current / scale
        return outputs

    def matvec(self, inputs: np.ndarray, matrix: np.ndarray) -> np.ndarray:
        """Convenience: program ``matrix`` then compute ``matrix @ inputs``."""
        self.set_weight_matrix(matrix)
        return self.compute(inputs)
