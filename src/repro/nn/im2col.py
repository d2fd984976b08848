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

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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

    This index map is what "receptive field i" means: the scheduler
    walks it, and the window-copy gather of :func:`im2col` is pinned to
    it element for element.
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
    return location_origins[:, None] + within_field[None, :]


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
        A fresh, writable, C-contiguous array of shape
        ``(C * m * m, num_locations)`` whose column ``i`` is receptive
        field ``i``.
    """
    if feature_map.ndim != 3:
        raise ValueError(
            f"expected (channels, height, width), got shape {feature_map.shape}"
        )
    return im2col_batch_stacked(feature_map[None], kernel_size, stride, padding)[0]


def im2col_batch_stacked(
    feature_maps: np.ndarray,
    kernel_size: int,
    stride: int,
    padding: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Unroll a minibatch's receptive fields into a stacked column tensor.

    The one gather: image ``b``'s slice ``[b]`` is exactly (bit-for-bit,
    and in the same C-contiguous layout) what :func:`im2col` returns for
    that image, so stacked matrix products over the result reproduce
    per-image GEMMs identically.  Both the photonic and the NumPy
    batched conv engines build on this.

    The columns are one C-order copy of the padded batch's strided
    ``m x m`` window view, laid out ``(B, C, m, m, out_h, out_w)``: no
    index map is built or read.  With ``out`` the same view is copied
    once into the caller's ``(B, num_locations, C * m * m)`` array
    instead: the transposed columns, one receptive field per row, as the
    device engine's wave stack wants them.

    Args:
        feature_maps: minibatch of shape ``(B, C, H, W)``.
        out: optional C-contiguous destination of shape
            ``(B, num_locations, C * m * m)``.

    Returns:
        A fresh, writable array of shape ``(B, C * m * m, num_locations)``,
        or ``out``, filled.

    Raises:
        ValueError: if the batch is not 4-D or is empty, or the geometry
            is invalid.
    """
    maps = np.asarray(feature_maps)
    if maps.ndim != 4:
        raise ValueError(
            f"expected (batch, channels, height, width), got shape {maps.shape}"
        )
    if maps.shape[0] == 0:
        raise ValueError("batch must contain at least one image")
    batch_size, channels, height, width = maps.shape
    out_h = conv_output_side(height, kernel_size, padding, stride)
    out_w = conv_output_side(width, kernel_size, padding, stride)
    if padding > 0:
        maps = np.pad(
            maps,
            ((0, 0), (0, 0), (padding, padding), (padding, padding)),
            mode="constant",
        )
    windows = sliding_window_view(maps, (kernel_size, kernel_size), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride]
    if out is not None:
        shape = (batch_size, out_h, out_w, channels, kernel_size, kernel_size)
        np.copyto(out.reshape(shape), windows.transpose(0, 2, 3, 1, 4, 5))
        return out
    fields = windows.transpose(0, 1, 4, 5, 2, 3)
    # An explicit copy: for a 1x1 kernel, or one as large as the padded
    # map, the transposed view is already contiguous, and
    # ``np.ascontiguousarray`` would return it: read-only, aliasing the
    # input.  Downstream GEMMs are layout-sensitive at the last bit, so
    # every gather hands them this same C-contiguous layout.
    columns = np.array(fields, order="C", copy=True)
    return columns.reshape(
        batch_size, channels * kernel_size * kernel_size, out_h * out_w
    )


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
