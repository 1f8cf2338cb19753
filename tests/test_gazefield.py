import math
import warnings

import numpy as np
import pytest

from teamgaze.gazefield import decode_heatmap, load_heatmap_text
from teamgaze.gazefield import Heatmap


@pytest.mark.parametrize(
    "call, args, message",
    [
        (decode_heatmap, (Heatmap(np.ones((2, 2))), 0.0, 10.0),
         "scene dimensions must be positive"),
        (decode_heatmap, (Heatmap(np.ones((2, 2))), 10.0, -1.0),
         "scene dimensions must be positive"),
        (Heatmap, ([[1.0, -0.5]],), "heatmap values must be finite and non-negative"),
        (Heatmap, ([[math.nan, 1.0]],), "heatmap values must be finite and non-negative"),
        (Heatmap, ([[1.0], [math.inf]],), "heatmap values must be finite and non-negative"),
        (Heatmap, ([1.0, 2.0],), "heatmap must be a non-empty 2-D grid"),
        (Heatmap, (np.zeros((0, 3)),), "heatmap must be a non-empty 2-D grid"),
    ],
    ids=["scene width zero", "scene height negative", "negative cell", "nan cell",
         "infinite cell", "one-dimensional grid", "empty grid"],
)
def test_bad_heatmap_or_scene_is_rejected(call, args, message):
    with pytest.raises(ValueError) as info:
        call(*args)
    assert str(info.value) == message


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


def test_decode_tie_across_rows_breaks_to_the_earlier_row():
    point = decode_heatmap(Heatmap([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]), 300, 200)
    assert (point.x, point.y) == (250.0, 50.0)


def test_decode_one_cell_heatmap_is_the_scene_centre():
    point = decode_heatmap(Heatmap([[0.2]]), 2560, 1440)
    assert (point.x, point.y) == (1280.0, 720.0)


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
