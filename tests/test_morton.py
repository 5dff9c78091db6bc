"""Unit tests for the Morton (Z-order) encoding."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.morton import (
    dense_to_morton,
    morton_decode,
    morton_encode,
    morton_order,
    morton_quadrant,
    morton_to_dense,
)


class TestEncodeDecode:
    def test_small_matrix_layout(self):
        # Z-order of a 2x2: (0,0), (0,1), (1,0), (1,1).
        assert morton_encode(0, 0, 2) == 0
        assert morton_encode(0, 1, 2) == 1
        assert morton_encode(1, 0, 2) == 2
        assert morton_encode(1, 1, 2) == 3

    @given(st.sampled_from([2, 4, 8, 16, 32]), st.data())
    def test_roundtrip(self, side, data):
        r = data.draw(st.integers(0, side - 1))
        c = data.draw(st.integers(0, side - 1))
        m = morton_encode(r, c, side)
        assert morton_decode(m, side) == (r, c)

    def test_bijection(self):
        side = 8
        r, c = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
        ms = morton_encode(r.ravel(), c.ravel(), side)
        assert sorted(ms.tolist()) == list(range(side * side))

    def test_vectorised_matches_scalar(self):
        side = 16
        rows = np.arange(side)
        cols = (rows * 7) % side
        vec = morton_encode(rows, cols, side)
        for i in range(side):
            assert vec[i] == morton_encode(int(rows[i]), int(cols[i]), side)


class TestQuadrants:
    def test_quadrant_is_top_bits(self):
        side = 8
        n = side * side
        for m in range(n):
            h, k = morton_quadrant(m, n)
            r, c = morton_decode(m, side)
            assert h == r // (side // 2)
            assert k == c // (side // 2)

    def test_quadrant_contiguous_ranges(self):
        # Each quadrant of a Morton-ordered matrix is one contiguous block.
        side, n = 8, 64
        for q in range(4):
            ms = range(q * n // 4, (q + 1) * n // 4)
            quads = {morton_quadrant(m, n) for m in ms}
            assert len(quads) == 1


class TestDenseConversion:
    def test_roundtrip(self, rng):
        a = rng.random((16, 16))
        assert np.array_equal(morton_to_dense(dense_to_morton(a)), a)

    def test_quadrant_slices_match_dense_blocks(self, rng):
        a = rng.random((8, 8))
        v = dense_to_morton(a)
        n = 64
        # Slice (2h+l) of the Morton vector == dense quadrant (h, l).
        for h in (0, 1):
            for l in (0, 1):
                blk = a[h * 4 : (h + 1) * 4, l * 4 : (l + 1) * 4]
                sl = v[(2 * h + l) * n // 4 : (2 * h + l + 1) * n // 4]
                assert np.array_equal(morton_to_dense(sl), blk)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            dense_to_morton(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            morton_to_dense(np.zeros(5))


class TestOrder:
    def test_order_matches_decode(self):
        side = 16
        rows, cols = morton_decode(np.arange(side * side), side)
        assert np.array_equal(morton_order(side), rows * side + cols)

    def test_conversions_preserve_dtype(self):
        a = np.arange(16).reshape(4, 4) % 2 == 0
        v = dense_to_morton(a)
        assert v.dtype == bool
        assert np.array_equal(morton_to_dense(v), a)
