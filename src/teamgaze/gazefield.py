"""Heatmap argmax decoding to scene coordinates, and the plain-text grid
reader.
"""

from __future__ import annotations

import io
import warnings

import numpy as np

from .model import Heatmap, Point2D, input_text

__all__ = ["decode_heatmap", "load_heatmap_text"]


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
