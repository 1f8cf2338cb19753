"""Inference-side geometry of the gaze-following pipeline.

Covers direction-field encoding and heatmap argmax decoding with
rescaling to scene coordinates.
"""

from __future__ import annotations

import io
import math
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .model import Heatmap, Point2D, input_text

__all__ = [
    "DirectionField",
    "encode_direction_field",
    "direction_value",
    "multiscale_fields",
    "decode_heatmap",
    "load_heatmap_text",
    "DEFAULT_EXPONENTS",
]

# Sharpness exponents used when the caller does not choose their own.
DEFAULT_EXPONENTS = (1.0, 2.0, 5.0)

_MIN_DIRECTION_NORM = 1e-6


@dataclass(frozen=True)
class DirectionField:
    """Grid scoring each cell by angular alignment with a gaze direction.

    Cell (col, row) holds max(0, cos theta)^gamma where theta is the angle
    between the cell offset from the head and the gaze direction. The head
    cell itself is 0: the angle is undefined at zero offset and a spurious
    maximum there would be worse than a hole.
    """

    head: Point2D
    direction: tuple[float, float]
    exponent: float
    values: np.ndarray = field(repr=False)


def _normalize_direction(direction: Sequence[float]) -> tuple[float, float]:
    dx, dy = float(direction[0]), float(direction[1])
    norm = math.hypot(dx, dy)
    if not math.isfinite(norm) or norm < _MIN_DIRECTION_NORM:
        raise ValueError("degenerate direction: norm below 1e-6")
    return dx / norm, dy / norm


def direction_value(
    head: Point2D,
    direction: Sequence[float],
    exponent: float,
    point: Point2D,
) -> float:
    """Evaluate the field formula at an arbitrary (possibly off-grid) point."""
    dx, dy = _normalize_direction(direction)
    ox, oy = point.x - head.x, point.y - head.y
    norm = math.hypot(ox, oy)
    if norm == 0.0:
        return 0.0
    cos_theta = (ox * dx + oy * dy) / norm
    return max(0.0, cos_theta) ** exponent


def encode_direction_field(
    head: Point2D,
    direction: Sequence[float],
    exponent: float,
    width: int,
    height: int,
) -> DirectionField:
    """Encode one gaze direction field over a width x height cell grid.

    Cells are addressed by their integer (col, row) coordinates. The
    direction vector is normalized; a norm below 1e-6 is rejected.
    """
    if exponent <= 0:
        raise ValueError("exponent must be positive")
    if width <= 0 or height <= 0:
        raise ValueError("field dimensions must be positive")
    if not (0 <= head.x < width and 0 <= head.y < height):
        raise ValueError("head must lie inside the field")
    dx, dy = _normalize_direction(direction)

    cols, rows = np.meshgrid(np.arange(width), np.arange(height))
    ox = cols - head.x
    oy = rows - head.y
    norms = np.hypot(ox, oy)
    safe = np.where(norms == 0.0, 1.0, norms)
    cos_theta = (ox * dx + oy * dy) / safe
    values = np.clip(cos_theta, 0.0, None) ** exponent
    values[norms == 0.0] = 0.0
    # Head cell is zero even when the head sits off the exact lattice point.
    values[int(head.y), int(head.x)] = 0.0

    return DirectionField(
        head=head, direction=(dx, dy), exponent=float(exponent), values=values
    )


def multiscale_fields(
    head: Point2D,
    direction: Sequence[float],
    width: int,
    height: int,
    exponents: Sequence[float] = DEFAULT_EXPONENTS,
) -> list[DirectionField]:
    """One field per sharpness exponent, sharpest last if exponents ascend."""
    if len(exponents) == 0:
        raise ValueError("exponents must be non-empty")
    return [
        encode_direction_field(head, direction, gamma, width, height)
        for gamma in exponents
    ]


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
