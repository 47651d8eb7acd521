"""Tensor conventions: CHW layout and shape validation."""

import numpy as np
import pytest

from enetcpu.errors import ShapeError
from enetcpu.tensor import MAX_ELEMENTS, DType, Shape, check_shape


def test_create_fills_and_counts():
    t = np.full(Shape(16, 256, 256), 0.0, dtype=DType.F32.np_dtype)
    assert t.shape == (16, 256, 256)
    assert t.dtype == np.float32
    assert t.size == 1_048_576
    assert Shape(16, 256, 256).count == 1_048_576
    assert np.all(t == 0.0)
    assert np.all(np.full(Shape(2, 3, 4), 1.5, dtype=DType.F32.np_dtype) == 1.5)


def test_chw_flat_layout():
    # flat index = c*H*W + y*W + x
    c, h, w = 3, 4, 5
    t = np.zeros(Shape(c, h, w), dtype=np.float32)
    assert t.size == Shape(c, h, w).count
    flat = t.reshape(-1)
    flat[2 * h * w + 1 * w + 3] = 9.0
    assert t[2, 1, 3] == 9.0
    assert t.flags["C_CONTIGUOUS"]


def test_check_shape_rejects_bad_dims():
    with pytest.raises(ShapeError):
        check_shape(Shape(0, 4, 4))
    with pytest.raises(ShapeError):
        check_shape(Shape(1, -1, 4))
    with pytest.raises(ShapeError):
        check_shape(Shape(1, MAX_ELEMENTS, 2))


def test_dtype_sizes():
    assert DType.F32.itemsize == 4
    assert DType.F16.itemsize == 2
    assert DType.F32.np_dtype == np.dtype("<f4")
    assert DType.F16.np_dtype == np.dtype("<f2")
