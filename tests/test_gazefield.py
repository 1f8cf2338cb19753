import math
import warnings

import numpy as np
import pytest

from teamgaze.gazefield import (
    decode_heatmap,
    direction_value,
    encode_direction_field,
    load_heatmap_text,
    multiscale_fields,
)
from teamgaze.model import Heatmap, Point2D


def brute_force_field(head, direction, exponent, width, height):
    """Per-cell angle computation with plain trig, no vectorization."""
    dnorm = math.hypot(*direction)
    dx, dy = direction[0] / dnorm, direction[1] / dnorm
    out = np.zeros((height, width))
    for row in range(height):
        for col in range(width):
            ox, oy = col - head.x, row - head.y
            norm = math.hypot(ox, oy)
            if norm == 0:
                continue
            cos_theta = (ox * dx + oy * dy) / norm
            out[row, col] = max(0.0, cos_theta) ** exponent
    out[int(head.y), int(head.x)] = 0.0
    return out


def test_on_axis_cell_scores_one():
    field = encode_direction_field(Point2D(10, 10), (1, 0), 1.0, 32, 32)
    assert field.values[10, 20] == pytest.approx(1.0)


def test_opposite_cell_clamped_to_zero():
    field = encode_direction_field(Point2D(10, 10), (1, 0), 2.0, 32, 32)
    assert field.values[10, 0] == 0.0


def test_sixty_degrees_off_axis_squared():
    # cos 60 deg = 0.5, exponent 2 -> 0.25; evaluated off-grid analytically
    value = direction_value(Point2D(0, 0), (1, 0), 2.0, Point2D(1, math.sqrt(3)))
    assert value == pytest.approx(0.25, abs=1e-12)


def test_value_at_the_head_is_zero():
    head = Point2D(3.5, -2.0)
    assert direction_value(head, (1, 0), 1.0, Point2D(3.5, -2.0)) == 0.0


def test_field_matches_brute_force_oracle():
    head = Point2D(7.3, 4.1)
    direction = (0.6, -0.8)
    field = encode_direction_field(head, direction, 3.0, 20, 15)
    expected = brute_force_field(head, direction, 3.0, 20, 15)
    np.testing.assert_allclose(field.values, expected, atol=1e-12)


def test_head_cell_is_zero_and_values_in_unit_interval():
    field = encode_direction_field(Point2D(5, 5), (0, 1), 1.0, 16, 16)
    assert field.values[5, 5] == 0.0
    assert np.all(field.values >= 0) and np.all(field.values <= 1)


def test_degenerate_direction_rejected():
    with pytest.raises(ValueError, match="degenerate direction"):
        encode_direction_field(Point2D(5, 5), (1e-9, 0), 1.0, 16, 16)


@pytest.mark.parametrize(
    "call, args, message",
    [
        (encode_direction_field, (Point2D(1, 1), (1, 0), 0.0, 4, 4),
         "exponent must be positive"),
        (encode_direction_field, (Point2D(0, 0), (1, 0), 2.0, 0, 4),
         "field dimensions must be positive"),
        (encode_direction_field, (Point2D(0, 0), (1, 0), 2.0, 4, -1),
         "field dimensions must be positive"),
        (encode_direction_field, (Point2D(1, -1), (1, 0), 2.0, 4, 4),
         "head must lie inside the field"),
        (decode_heatmap, (Heatmap(np.ones((2, 2))), 0.0, 10.0),
         "scene dimensions must be positive"),
        (Heatmap, ([[1.0, -0.5]],), "heatmap values must be finite and non-negative"),
        (Heatmap, ([[math.nan, 1.0]],), "heatmap values must be finite and non-negative"),
        (Heatmap, ([[1.0], [math.inf]],), "heatmap values must be finite and non-negative"),
    ],
    ids=["exponent zero", "width zero", "height negative", "head outside", "scene width zero",
         "negative cell", "nan cell", "infinite cell"],
)
def test_bad_field_heatmap_or_scene_is_rejected(call, args, message):
    with pytest.raises(ValueError) as info:
        call(*args)
    assert str(info.value) == message


def test_non_unit_direction_normalized():
    a = encode_direction_field(Point2D(5, 5), (2, 0), 2.0, 16, 16)
    b = encode_direction_field(Point2D(5, 5), (1, 0), 2.0, 16, 16)
    np.testing.assert_allclose(a.values, b.values)


def test_multiscale_monotone_in_exponent():
    fields = multiscale_fields(Point2D(9.5, 7.5), (0.3, 0.7), 24, 24, [1, 2, 5])
    assert len(fields) == 3
    v1, v2, v5 = (f.values for f in fields)
    assert np.all(v5 <= v2 + 1e-15) and np.all(v2 <= v1 + 1e-15)


def test_multiscale_downward_ray_maximal():
    (field,) = multiscale_fields(Point2D(8, 2), (0, 1), 16, 16, [1])
    assert field.values[10, 8] == pytest.approx(1.0)


def test_multiscale_empty_exponents_rejected():
    with pytest.raises(ValueError):
        multiscale_fields(Point2D(8, 8), (1, 0), 16, 16, [])


def test_rotational_equivariance():
    rng = np.random.default_rng(7)
    head = Point2D(0.0, 0.0)
    for _ in range(200):
        theta0 = rng.uniform(0, 2 * math.pi)
        phi = rng.uniform(0, 2 * math.pi)
        radius = rng.uniform(0.1, 50)
        alpha = rng.uniform(0, 2 * math.pi)
        gamma = rng.uniform(0.5, 6)
        d0 = (math.cos(theta0), math.sin(theta0))
        p0 = Point2D(radius * math.cos(alpha), radius * math.sin(alpha))
        d1 = (math.cos(theta0 + phi), math.sin(theta0 + phi))
        p1 = Point2D(
            radius * math.cos(alpha + phi), radius * math.sin(alpha + phi)
        )
        v0 = direction_value(head, d0, gamma, p0)
        v1 = direction_value(head, d1, gamma, p1)
        assert v0 == pytest.approx(v1, abs=1e-9)


def test_decode_corner_cell_maps_to_cell_center():
    values = np.zeros((56, 56))
    values[0, 0] = 1.0
    point = decode_heatmap(Heatmap(values), 2560, 1440)
    assert point.x == pytest.approx(0.5 * 2560 / 56)
    assert point.y == pytest.approx(0.5 * 1440 / 56)


def test_decode_interior_cell():
    values = np.zeros((56, 56))
    values[13, 27] = 0.9
    point = decode_heatmap(Heatmap(values), 2560, 1440)
    assert point.x == pytest.approx(27.5 * 2560 / 56)
    assert point.y == pytest.approx(13.5 * 1440 / 56)


def test_decode_tie_breaks_row_major_first():
    point = decode_heatmap(Heatmap(np.ones((2, 2))), 100, 100)
    assert (point.x, point.y) == (25.0, 25.0)


def test_decode_all_zero_rejected():
    with pytest.raises(ValueError, match="undecodable heatmap"):
        decode_heatmap(Heatmap(np.zeros((4, 4))), 100, 100)


def test_decode_invariant_under_positive_scaling():
    rng = np.random.default_rng(3)
    values = rng.random((56, 56))
    a = decode_heatmap(Heatmap(values), 2560, 1440)
    b = decode_heatmap(Heatmap(values * 37.5), 2560, 1440)
    assert (a.x, a.y) == (b.x, b.y)


def test_decode_encode_spike_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(50):
        w, h = int(rng.integers(2, 64)), int(rng.integers(2, 64))
        col, row = int(rng.integers(0, w)), int(rng.integers(0, h))
        sw, sh = float(rng.uniform(10, 4000)), float(rng.uniform(10, 4000))
        values = np.zeros((h, w))
        values[row, col] = 1.0
        point = decode_heatmap(Heatmap(values), sw, sh)
        assert point.x == pytest.approx((col + 0.5) * sw / w)
        assert point.y == pytest.approx((row + 0.5) * sh / h)


def test_heatmap_text_round_trip(tmp_path):
    values = np.arange(12, dtype=float).reshape(3, 4)
    path = tmp_path / "grid.txt"
    np.savetxt(path, values)
    heatmap = load_heatmap_text(path)
    np.testing.assert_allclose(heatmap.values, values)
    assert (heatmap.width, heatmap.height) == (4, 3)


def test_heatmap_text_ends_lines_at_lf_cr_lf_and_cr(tmp_path):
    path = tmp_path / "grid.txt"
    path.write_bytes(b"0 1\r\n2 3\r4 5\n")
    np.testing.assert_array_equal(load_heatmap_text(path).values, [[0, 1], [2, 3], [4, 5]])


def test_empty_heatmap_text_is_an_error_without_a_warning(tmp_path):
    """The grid's error names it; numpy's no-data warning would not."""
    path = tmp_path / "grid.txt"
    path.write_text("# no rows\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-empty 2-D grid"):
            load_heatmap_text(path)
