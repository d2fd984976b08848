"""Tests for im2col / col2im and the receptive-field index map."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.im2col import (
    col2im_accumulate,
    im2col,
    im2col_batch,
    im2col_batch_stacked,
    pad_feature_map,
    receptive_field_indices,
)


class TestPadding:
    def test_zero_padding_identity(self):
        x = np.arange(12.0).reshape(1, 3, 4)
        assert pad_feature_map(x, 0) is x

    def test_padding_shape(self):
        x = np.ones((2, 3, 3))
        padded = pad_feature_map(x, 2)
        assert padded.shape == (2, 7, 7)

    def test_padding_zeros_border(self):
        x = np.ones((1, 2, 2))
        padded = pad_feature_map(x, 1)
        assert padded[0, 0, 0] == 0.0
        assert padded[0, 1, 1] == 1.0

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            pad_feature_map(np.ones((3, 3)), 1)

    def test_rejects_negative_padding(self):
        with pytest.raises(ValueError):
            pad_feature_map(np.ones((1, 3, 3)), -1)


class TestReceptiveFieldIndices:
    def test_shape(self):
        indices = receptive_field_indices(8, 8, 3, kernel_size=3, stride=1, padding=0)
        assert indices.shape == (36, 27)

    def test_first_window_is_top_left(self):
        indices = receptive_field_indices(4, 4, 1, kernel_size=2, stride=1, padding=0)
        assert indices[0].tolist() == [0, 1, 4, 5]

    def test_stride_moves_window(self):
        indices = receptive_field_indices(4, 4, 1, kernel_size=2, stride=2, padding=0)
        assert indices[1].tolist() == [2, 3, 6, 7]

    def test_channel_offsets(self):
        indices = receptive_field_indices(2, 2, 2, kernel_size=2, stride=1, padding=0)
        # Second channel's indices are offset by H*W = 4.
        assert indices[0].tolist() == [0, 1, 2, 3, 4, 5, 6, 7]

    def test_all_indices_within_padded_tensor(self):
        indices = receptive_field_indices(5, 5, 2, kernel_size=3, stride=2, padding=1)
        assert indices.min() >= 0
        assert indices.max() < 2 * 7 * 7

    def test_indices_unique_within_window(self):
        indices = receptive_field_indices(6, 6, 3, kernel_size=3, stride=1, padding=2)
        for row in indices:
            assert len(set(row.tolist())) == len(row)


class TestIm2Col:
    def test_matches_manual_extraction(self):
        x = np.arange(16.0).reshape(1, 4, 4)
        columns = im2col(x, kernel_size=2, stride=2, padding=0)
        assert columns.shape == (4, 4)
        assert columns[:, 0].tolist() == [0, 1, 4, 5]
        assert columns[:, 3].tolist() == [10, 11, 14, 15]

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            im2col(np.ones((4, 4)), 2, 1, 0)

    def test_padding_contributes_zeros(self):
        x = np.ones((1, 2, 2))
        columns = im2col(x, kernel_size=3, stride=1, padding=1)
        # Center window covers all four ones plus five zeros.
        assert columns.shape == (9, 4)
        assert columns[:, 0].sum() == 4.0

    @given(
        channels=st.integers(min_value=1, max_value=3),
        side=st.integers(min_value=2, max_value=8),
        kernel=st.integers(min_value=1, max_value=3),
        stride=st.integers(min_value=1, max_value=2),
        padding=st.integers(min_value=0, max_value=2),
    )
    @settings(max_examples=60, deadline=None)
    def test_columns_match_direct_windows(self, channels, side, kernel, stride, padding):
        if kernel > side + 2 * padding:
            return
        rng = np.random.default_rng(0)
        x = rng.normal(size=(channels, side, side))
        columns = im2col(x, kernel, stride, padding)
        padded = pad_feature_map(x, padding)
        out_side = (side + 2 * padding - kernel) // stride + 1
        for oy in range(out_side):
            for ox in range(out_side):
                window = padded[
                    :, oy * stride : oy * stride + kernel, ox * stride : ox * stride + kernel
                ].reshape(-1)
                assert np.array_equal(columns[:, oy * out_side + ox], window)


class TestCol2Im:
    def test_non_overlapping_roundtrip(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 4, 4))
        columns = im2col(x, kernel_size=2, stride=2, padding=0)
        recovered = col2im_accumulate(columns, (2, 4, 4), 2, 2, 0)
        assert np.allclose(recovered, x)

    def test_overlapping_accumulates(self):
        x = np.ones((1, 3, 3))
        columns = im2col(x, kernel_size=2, stride=1, padding=0)
        accumulated = col2im_accumulate(columns, (1, 3, 3), 2, 1, 0)
        # Center value is covered by all four windows.
        assert accumulated[0, 1, 1] == 4.0
        assert accumulated[0, 0, 0] == 1.0

    def test_shape_check(self):
        with pytest.raises(ValueError):
            col2im_accumulate(np.zeros((4, 5)), (1, 4, 4), 2, 2, 0)

    def test_padding_stripped(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 4, 4))
        columns = im2col(x, kernel_size=3, stride=3, padding=1)
        recovered = col2im_accumulate(columns, (1, 4, 4), 3, 3, 1)
        assert recovered.shape == (1, 4, 4)
        assert np.allclose(recovered, x)


class TestSingleCopyGather:
    def test_every_gather_has_the_fancy_index_values_in_c_order(self):
        rng = np.random.default_rng(3)
        maps = rng.normal(size=(3, 2, 7, 6))
        indices = receptive_field_indices(7, 6, 2, 3, 2, 1)
        stacked = im2col_batch_stacked(maps, 3, 2, 1)
        assert stacked.flags.c_contiguous
        for index, image in enumerate(maps):
            single = im2col(image, 3, 2, 1)
            assert single.flags.c_contiguous
            assert np.array_equal(
                single, pad_feature_map(image, 1).reshape(-1)[indices.T]
            )
            assert single.tobytes() == stacked[index].tobytes()
        assert np.array_equal(
            im2col_batch(maps, 3, 2, 1), np.concatenate(list(stacked), axis=1)
        )


def _fancy_index_columns(image, kernel_size, stride, padding):
    """The gather as a fancy index over the receptive-field map."""
    channels, height, width = image.shape
    indices = receptive_field_indices(
        height, width, channels, kernel_size, stride, padding
    )
    return pad_feature_map(image, padding).reshape(-1)[indices.T]


def _assert_fresh_columns(columns, source):
    assert columns.flags.c_contiguous
    assert columns.flags.writeable
    assert not np.shares_memory(columns, source)


class TestWindowCopyGather:
    """The window-copy gather equals the index-map oracle byte for byte
    and always hands back a fresh, writable, C-contiguous array."""

    @given(
        batch=st.integers(min_value=1, max_value=3),
        channels=st.integers(min_value=1, max_value=4),
        height=st.integers(min_value=1, max_value=9),
        width=st.integers(min_value=1, max_value=9),
        kernel=st.integers(min_value=1, max_value=5),
        stride=st.integers(min_value=1, max_value=6),
        padding=st.integers(min_value=0, max_value=6),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=150, deadline=None)
    def test_gathers_equal_the_fancy_index_oracle(
        self, batch, channels, height, width, kernel, stride, padding, seed
    ):
        if kernel > min(height, width) + 2 * padding:
            return
        maps = np.random.default_rng(seed).normal(
            size=(batch, channels, height, width)
        )
        stacked = im2col_batch_stacked(maps, kernel, stride, padding)
        _assert_fresh_columns(stacked, maps)
        for index, image in enumerate(maps):
            expected = _fancy_index_columns(image, kernel, stride, padding)
            assert stacked[index].tobytes() == expected.tobytes()
            single = im2col(image, kernel, stride, padding)
            _assert_fresh_columns(single, maps)
            assert single.shape == expected.shape
            assert single.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        ("shape", "kernel", "stride", "padding"),
        [
            # A 1x1 kernel: the transposed window view is contiguous.
            ((2, 3, 5, 4), 1, 1, 0),
            # A kernel as large as the image covers it in one field.
            ((2, 3, 5, 5), 5, 1, 0),
            # A kernel as large as the padded image.
            ((1, 2, 4, 4), 6, 2, 1),
        ],
    )
    def test_contiguous_window_views_are_still_copied(
        self, shape, kernel, stride, padding
    ):
        maps = np.random.default_rng(4).normal(size=shape)
        before = maps.copy()
        stacked = im2col_batch_stacked(maps, kernel, stride, padding)
        single = im2col(maps[0], kernel, stride, padding)
        expected = _fancy_index_columns(maps[0], kernel, stride, padding)
        assert stacked[0].tobytes() == single.tobytes() == expected.tobytes()
        for columns in (stacked, single):
            _assert_fresh_columns(columns, maps)
            columns[...] = 0.0
        assert np.array_equal(maps, before)


class TestTransposedGatherIntoWaves:
    """The ``out`` gather writes each image's receptive fields as rows,
    byte for byte the transpose of the column gather."""

    @given(
        batch=st.integers(min_value=1, max_value=3),
        channels=st.integers(min_value=1, max_value=4),
        height=st.integers(min_value=1, max_value=9),
        width=st.integers(min_value=1, max_value=9),
        kernel=st.integers(min_value=1, max_value=5),
        stride=st.integers(min_value=1, max_value=6),
        padding=st.integers(min_value=0, max_value=6),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=150, deadline=None)
    def test_rows_equal_the_transposed_columns(
        self, batch, channels, height, width, kernel, stride, padding, seed
    ):
        if kernel > min(height, width) + 2 * padding:
            return
        maps = np.random.default_rng(seed).normal(
            size=(batch, channels, height, width)
        )
        columns = im2col_batch_stacked(maps, kernel, stride, padding)
        # Rows of a larger stack, as the engine's wave stack holds them.
        waves = np.full((batch * columns.shape[2] + 2, columns.shape[1]), -1.0)
        rows = waves[1:-1].reshape(batch, columns.shape[2], columns.shape[1])
        filled = im2col_batch_stacked(maps, kernel, stride, padding, out=rows)
        assert filled is rows
        expected = np.ascontiguousarray(columns.transpose(0, 2, 1))
        assert rows.tobytes() == expected.tobytes()
        assert np.all(waves[0] == -1.0) and np.all(waves[-1] == -1.0)
