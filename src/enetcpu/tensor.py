"""Tensor conventions used across the engine.

A tensor is a plain numpy array in CHW layout (channels, height, width),
dtype float32, C-contiguous, so flat index = c*H*W + y*W + x.  There is no
wrapper class; this module pins the conventions and provides the few helpers
the rest of the package shares.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

import numpy as np

from .errors import ShapeError

# Hard cap on element count per tensor; keeps accidental shape explosions
# (bad stride math, corrupted dims from a weight file) from trying to
# allocate the machine away.  2^31 elements = 8 GiB of float32.
MAX_ELEMENTS = 2**31


class DType(enum.Enum):
    """Storage dtypes understood by the engine and the weight format."""

    F32 = 0
    F16 = 1

    @property
    def itemsize(self) -> int:
        return 4 if self is DType.F32 else 2

    @property
    def np_dtype(self) -> np.dtype:
        return np.dtype("<f4") if self is DType.F32 else np.dtype("<f2")


class Shape(NamedTuple):
    """CHW shape triple."""

    channels: int
    height: int
    width: int

    @property
    def count(self) -> int:
        return self.channels * self.height * self.width

    def __str__(self) -> str:
        return f"{self.channels}x{self.height}x{self.width}"


def check_shape(shape: Shape) -> Shape:
    """Validate a shape: positive dims, element count under MAX_ELEMENTS."""
    c, h, w = shape
    if c <= 0 or h <= 0 or w <= 0:
        raise ShapeError(f"shape dims must be positive, got {c}x{h}x{w}")
    if shape.count > MAX_ELEMENTS:
        raise ShapeError(
            f"shape {shape} has {shape.count} elements, over the {MAX_ELEMENTS} cap"
        )
    return shape

