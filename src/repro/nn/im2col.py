"""im2col / col2im transformations.

``im2col`` unrolls every receptive field of a convolution input into one
column of a matrix, turning convolution into a single matrix multiply.
This is both how the reference CNN engine computes convolutions quickly
and how PCNNA's scheduler thinks: each im2col column *is* the receptive
field that gets loaded into the input buffer and broadcast to the weight
banks for one kernel location.

Layout conventions: feature maps are ``(channels, height, width)``;
kernels are ``(num_kernels, channels, kh, kw)``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.nn.shapes import conv_output_side


def pad_feature_map(feature_map: np.ndarray, padding: int) -> np.ndarray:
    """Zero-pad the spatial dimensions of a ``(C, H, W)`` tensor.

    Raises:
        ValueError: if the tensor is not 3-D or padding is negative.
    """
    if feature_map.ndim != 3:
        raise ValueError(
            f"expected (channels, height, width), got shape {feature_map.shape}"
        )
    if padding < 0:
        raise ValueError(f"padding must be non-negative, got {padding!r}")
    if padding == 0:
        return feature_map
    return np.pad(
        feature_map,
        ((0, 0), (padding, padding), (padding, padding)),
        mode="constant",
    )


def _field_and_origins(
    height: int,
    width: int,
    channels: int,
    kernel_size: int,
    stride: int,
    padding: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The two separable parts of the receptive-field index map.

    Returns:
        ``(within_field, location_origins)``: the flat offsets of one
        field's elements in (channel, row, col) order, and the flat
        origin of every kernel location (row-major).  Element ``f`` of
        field ``i`` sits at ``location_origins[i] + within_field[f]``.
    """
    out_h = conv_output_side(height, kernel_size, padding, stride)
    out_w = conv_output_side(width, kernel_size, padding, stride)
    padded_h = height + 2 * padding
    padded_w = width + 2 * padding

    # Flat index of (c, y, x) in the padded tensor is c*ph*pw + y*pw + x.
    channel_offsets = np.arange(channels) * (padded_h * padded_w)
    ky, kx = np.meshgrid(
        np.arange(kernel_size), np.arange(kernel_size), indexing="ij"
    )
    within_field = (
        channel_offsets[:, None, None] + ky[None] * padded_w + kx[None]
    ).reshape(-1)

    oy, ox = np.meshgrid(np.arange(out_h), np.arange(out_w), indexing="ij")
    location_origins = (oy * stride * padded_w + ox * stride).reshape(-1)
    return within_field, location_origins


def receptive_field_indices(
    height: int,
    width: int,
    channels: int,
    kernel_size: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Flat padded-input indices of every receptive field.

    Returns:
        Integer array of shape ``(num_locations, channels * k * k)``; row
        ``i`` lists, in (channel, row, col) order, the flat indices into
        the *padded* ``(C, H + 2p, W + 2p)`` tensor that form receptive
        field ``i`` (locations scan row-major).

    This index map is shared by the reference conv, the photonic
    functional simulation, and the scheduler, guaranteeing all three agree
    on what "receptive field i" means.
    """
    within_field, location_origins = _field_and_origins(
        height, width, channels, kernel_size, stride, padding
    )
    return location_origins[:, None] + within_field[None, :]


@lru_cache(maxsize=16)
def _column_indices(
    height: int,
    width: int,
    channels: int,
    kernel_size: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """The field-major ``(C * k * k, num_locations)`` form of the map.

    Entry ``[f, i]`` equals ``receptive_field_indices(...)[i, f]``, but
    the array is built C-contiguous in this orientation, so ``np.take``
    over it writes the columns in their final layout in one pass.  It is
    memoized per geometry (a streaming engine gathers image by image)
    and therefore read-only.
    """
    within_field, location_origins = _field_and_origins(
        height, width, channels, kernel_size, stride, padding
    )
    indices = within_field[:, None] + location_origins[None, :]
    indices.flags.writeable = False
    return indices


def im2col(
    feature_map: np.ndarray, kernel_size: int, stride: int, padding: int
) -> np.ndarray:
    """Unroll receptive fields into columns.

    Args:
        feature_map: input tensor of shape ``(C, H, W)``.
        kernel_size: square kernel side ``m``.
        stride: stride ``s``.
        padding: zero padding ``p``.

    Returns:
        C-contiguous array of shape ``(C * m * m, num_locations)`` whose
        column ``i`` is receptive field ``i``.
    """
    if feature_map.ndim != 3:
        raise ValueError(
            f"expected (channels, height, width), got shape {feature_map.shape}"
        )
    channels, height, width = feature_map.shape
    padded = pad_feature_map(feature_map, padding)
    indices = _column_indices(
        height, width, channels, kernel_size, stride, padding
    )
    # ``np.take`` returns an array of the index map's shape, C-contiguous:
    # downstream GEMMs are layout-sensitive at the last bit, so every
    # gather must hand them this same layout.
    return np.take(padded.reshape(-1), indices)


def im2col_batch_stacked(
    feature_maps: np.ndarray, kernel_size: int, stride: int, padding: int
) -> np.ndarray:
    """Unroll a minibatch's receptive fields into a stacked column tensor.

    The primary batched gather: image ``b``'s slice ``[b]`` is exactly
    (bit-for-bit, and in the same C-contiguous layout) what
    :func:`im2col` returns for that image, so stacked matrix products
    over the result reproduce per-image GEMMs identically.  Both the
    photonic and the NumPy batched conv engines build on this.

    Args:
        feature_maps: minibatch of shape ``(B, C, H, W)``.

    Returns:
        Array of shape ``(B, C * m * m, num_locations)``.

    Raises:
        ValueError: if the batch is not 4-D or is empty.
    """
    maps = np.asarray(feature_maps)
    if maps.ndim != 4:
        raise ValueError(
            f"expected (batch, channels, height, width), got shape {maps.shape}"
        )
    if maps.shape[0] == 0:
        raise ValueError("batch must contain at least one image")
    batch_size, channels, height, width = maps.shape
    if padding > 0:
        maps = np.pad(
            maps,
            ((0, 0), (0, 0), (padding, padding), (padding, padding)),
            mode="constant",
        )
    indices = _column_indices(
        height, width, channels, kernel_size, stride, padding
    )
    # Taking along axis 1 keeps the batch axis outermost, so the result
    # is C-contiguous and each image slice has im2col's layout.
    return np.take(maps.reshape(batch_size, -1), indices, axis=1)


def im2col_batch(
    feature_maps: np.ndarray, kernel_size: int, stride: int, padding: int
) -> np.ndarray:
    """Unroll the receptive fields of a whole minibatch into one matrix.

    The columns are image-major: the first ``num_locations`` columns
    belong to image 0, the next to image 1, and so on.  This ordering is
    the contract :func:`fold_batch_outputs` inverts.  The hot batched
    engines use :func:`im2col_batch_stacked` directly (same gather, no
    transpose).

    Args:
        feature_maps: minibatch of shape ``(B, C, H, W)``.

    Returns:
        Array of shape ``(C * m * m, B * num_locations)``.

    Raises:
        ValueError: if the batch is not 4-D or is empty.
    """
    stacked = im2col_batch_stacked(feature_maps, kernel_size, stride, padding)
    batch_size, field_size, num_locations = stacked.shape
    return np.ascontiguousarray(stacked.transpose(1, 0, 2)).reshape(
        field_size, batch_size * num_locations
    )


def fold_batch_outputs(
    output_matrix: np.ndarray, batch_size: int, out_h: int, out_w: int
) -> np.ndarray:
    """Fold a ``(K, B * num_locations)`` output matrix back into images.

    Inverts the image-major column ordering of :func:`im2col_batch`.

    Returns:
        Tensor of shape ``(B, K, out_h, out_w)``.
    """
    num_kernels = output_matrix.shape[0]
    return output_matrix.reshape(
        num_kernels, batch_size, out_h, out_w
    ).transpose(1, 0, 2, 3)


def col2im_accumulate(
    columns: np.ndarray,
    input_shape: tuple[int, int, int],
    kernel_size: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Scatter-add columns back into a feature map (inverse of im2col).

    Overlapping receptive fields accumulate, which is the adjoint of the
    im2col gather; used by tests to verify the index map is a bijection
    over non-overlapping geometries.

    Args:
        columns: array of shape ``(C * m * m, num_locations)``.
        input_shape: the original ``(C, H, W)``.

    Returns:
        Tensor of shape ``(C, H, W)``.
    """
    channels, height, width = input_shape
    indices = receptive_field_indices(
        height, width, channels, kernel_size, stride, padding
    )
    if columns.shape != (indices.shape[1], indices.shape[0]):
        raise ValueError(
            f"columns shape {columns.shape} does not match geometry "
            f"{(indices.shape[1], indices.shape[0])}"
        )
    padded_h = height + 2 * padding
    padded_w = width + 2 * padding
    flat = np.zeros(channels * padded_h * padded_w, dtype=columns.dtype)
    np.add.at(flat, indices.reshape(-1), columns.T.reshape(-1))
    padded = flat.reshape(channels, padded_h, padded_w)
    if padding == 0:
        return padded
    return padded[:, padding:-padding, padding:-padding]
