"""The heatmap type, heatmap argmax decoding to scene coordinates, and the
plain-text grid reader.
"""

from __future__ import annotations

import io
import warnings
from collections import namedtuple

import numpy as np

from .model import Point2D, input_text

__all__ = ["Heatmap", "decode_heatmap", "load_heatmap_text"]


class Heatmap(namedtuple("Heatmap", "values")):
    """A grid of non-negative gaze-probability values.

    Canonical size is 56x56 but any positive size is accepted. ``values``
    is indexed [row, col], a float array; the repr leaves it out.
    """

    __slots__ = ()

    def __new__(cls, values) -> Heatmap:
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("heatmap must be a non-empty 2-D grid")
        if np.any(arr < 0) or not np.all(np.isfinite(arr)):
            raise ValueError("heatmap values must be finite and non-negative")
        return super().__new__(cls, arr)

    def __repr__(self) -> str:
        return "Heatmap()"

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


def decode_heatmap(
    heatmap: Heatmap, scene_width: float, scene_height: float
) -> Point2D:
    """Map the heatmap argmax cell to a scene-coordinate gaze point.

    Ties break to the row-major first occurrence. The cell center is used:
    x = (col + 0.5) * scene_width / heatmap.width, likewise for y, which
    bounds the quantization error at half a cell.
    """
    if scene_width <= 0 or scene_height <= 0:
        raise ValueError("scene dimensions must be positive")
    values = heatmap.values
    if not np.any(values > 0):
        raise ValueError("undecodable heatmap: no positive cell")
    row, col = np.unravel_index(int(np.argmax(values)), values.shape)
    x = (col + 0.5) * scene_width / heatmap.width
    y = (row + 0.5) * scene_height / heatmap.height
    return Point2D(x, y)


def load_heatmap_text(path) -> Heatmap:
    """Read a heatmap from a plain-text grid (whitespace-separated rows),
    text as ``model.input_text`` reads it; a byte that is not UTF-8 is an
    error naming its line."""
    with open(path, "rb") as fh:
        text, bad = input_text(fh.read())
    if bad:
        raise ValueError(f"line {bad[0]}: {bad[1]}")
    with warnings.catch_warnings():  # an empty grid is Heatmap's error, named by the caller
        warnings.simplefilter("ignore")
        return Heatmap(values=np.loadtxt(io.StringIO(text, newline=None), dtype=float, ndmin=2))
