import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_jva_count, reference_frame_table, team_jva_counts_of
from teamgaze.jva import team_jva_counts
from teamgaze.model import DENOMINATOR_POLICIES, SCALE_MODES, JvaConfig


def pair_rows(frame, a, b, w=2560, h=1440, discarded=False):
    """Frame-table rows of team t1's frame ``frame``: p1 gazes at ``a``, p2 at ``b``."""
    return [
        f"t1,{frame},0.0,{w},{h},{person},{x!r},{y!r},,,1.0,{int(discarded)}"
        for person, (x, y) in (("p1", a), ("p2", b))
    ]


def scored(rows, threshold=100.0, scale="absolute", policy="valid-pair-frames"):
    """Team t1's ``(jva, denominator)`` by ``team_jva_counts`` over frame
    rows, after checking the reference recounts every team the same, and
    the reference's ``(distance, is_jva, counted)`` of each frame."""
    args = (reference_frame_table(rows), threshold, scale, policy)
    counts, frames = brute_force_jva_count(*args)
    assert team_jva_counts_of(*args) == counts
    return counts["t1"], frames


def test_close_gazes_are_jva():
    counts, [(distance, _, _)] = scored(pair_rows("f", (100, 100), (150, 150)))
    assert counts == (1, 1)
    assert distance == pytest.approx(math.sqrt(5000))


def test_far_gazes_are_not_jva():
    counts, [(distance, _, _)] = scored(pair_rows("f", (1000, 700), (1150, 700)))
    assert counts == (0, 1)
    assert distance == pytest.approx(150.0)


def test_exactly_threshold_distance_is_not_jva():
    counts, [(distance, _, _)] = scored(pair_rows("f", (500, 500), (600, 500)))
    assert counts == (0, 1)
    assert distance == 100.0


def test_diagonal_normalized_threshold():
    config = JvaConfig(scale_mode="diagonal-normalized")
    # 1280x720 has exactly half the reference diagonal -> threshold 50 px
    assert config.effective_threshold(1280, 720) == pytest.approx(50.0)
    rows = pair_rows("f", (400, 400), (460, 400), w=1280, h=720)
    counts, [(distance, _, _)] = scored(rows, scale="diagonal-normalized")
    assert counts == (0, 1)
    assert distance == pytest.approx(60.0)


def frame_counts(config, gaze, w=2560, h=1440):
    """``team_jva_counts``'s ``(jva, denominator)`` under ``config`` of one
    frame whose persons gaze at the points ``gaze``."""
    x, y = zip(*gaze)
    jva, denominator = team_jva_counts(
        np.zeros(1, np.intp), 1, np.array([w]), np.array([h]), np.zeros(1, bool),
        np.array([0, len(gaze)]), np.array(x, float), np.array(y, float), config,
    )
    return int(jva[0]), int(denominator[0])


def test_the_default_labels_spelled_out_are_the_default_config():
    spelled = JvaConfig(scale_mode="absolute", denominator_policy="valid-pair-frames")
    assert spelled == JvaConfig()
    assert spelled.effective_threshold(1280, 720) == 100.0
    wide = [(400, 400), (460, 400)]  # 60 px apart: JVA at 100 px, not at 50
    for config in (spelled, JvaConfig()):
        assert frame_counts(config, wide, w=1280, h=720) == (1, 1)
        assert frame_counts(config, [(10, 10)]) == (0, 0)  # one person: not counted
    other = JvaConfig(scale_mode="diagonal-normalized", denominator_policy="all-captured-frames")
    assert frame_counts(other, wide, w=1280, h=720) == (0, 1)
    assert frame_counts(other, [(10, 10)]) == (0, 1)


@pytest.mark.parametrize(
    "key, value",
    [(key, value) for key in ("scale_mode", "denominator_policy")
     for value in ("Absolute", None, "bogus", " absolute")]
    + [("scale_mode", "valid-pair-frames"), ("denominator_policy", "absolute")],
)
def test_a_setting_outside_its_labels_is_an_error_naming_the_key(key, value):
    labels = SCALE_MODES if key == "scale_mode" else DENOMINATOR_POLICIES
    with pytest.raises(ValueError) as info:
        JvaConfig(**{key: value})
    assert str(info.value) == f"{key} must be {' | '.join(labels)}: {value!r}"


@pytest.mark.parametrize("policy", DENOMINATOR_POLICIES)
def test_discarded_frame_never_counts(policy):
    rows = pair_rows("f", (0, 0), (1, 1), discarded=True)
    assert scored(rows, policy=policy) == ((0, 0), [(None, False, False)])


def test_single_person_frame_counts_only_under_all_captured():
    rows = pair_rows("f", (10, 10), (0, 0))[:1]
    assert scored(rows) == ((0, 0), [(None, False, False)])
    assert scored(rows, policy="all-captured-frames") == ((0, 1), [(None, False, True)])


def test_out_of_bounds_observation_invalidates_pair():
    # The reader skips the row, so the frame holds p2 alone.
    rows = pair_rows("f", (-5, 10), (10, 10))
    assert scored(rows) == ((0, 0), [(None, False, False)])
    assert scored(rows, policy="all-captured-frames") == ((0, 1), [(None, False, True)])


def test_session_ratio_direct_count():
    rows = [r for i in range(10) for r in pair_rows(f"f{i}", (100, 100), (100 + 40 * i, 100))]
    # distances 0,40,...,360: i in 0..2 are < 100
    assert scored(rows)[0] == (3, 10)


def test_all_discarded_session_has_no_countable_frames():
    assert scored(pair_rows("f", (1, 1), (2, 2), discarded=True))[0] == (0, 0)


def test_nonpositive_threshold_rejected():
    with pytest.raises(ValueError):
        JvaConfig(threshold=-1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_config_values_rejected(value):
    with pytest.raises(ValueError, match="positive and finite"):
        JvaConfig(threshold=value)


coord = st.tuples(
    st.floats(0, 2560, allow_nan=False), st.floats(0, 1440, allow_nan=False)
)
frame_pairs = st.lists(st.tuples(coord, coord), min_size=1, max_size=50)


def rows_of(pairs, w=2560, h=1440):
    return [r for i, (a, b) in enumerate(pairs) for r in pair_rows(f"f{i}", a, b, w, h)]


@given(frame_pairs, st.floats(1, 400), st.floats(1, 400))
@settings(max_examples=200)
def test_ratio_monotone_in_threshold(pairs, t1, t2):
    lo, hi = sorted((t1, t2))
    (jva_lo, _), _ = scored(rows_of(pairs), lo)
    (jva_hi, _), _ = scored(rows_of(pairs), hi)
    assert jva_lo <= jva_hi


@given(frame_pairs)
@settings(max_examples=200)
def test_person_swap_symmetry(pairs):
    counts, frames = scored(rows_of(pairs))
    swapped_counts, swapped = scored(rows_of([(b, a) for a, b in pairs]))
    for (distance, _, _), (swapped_distance, _, _) in zip(frames, swapped):
        assert distance == pytest.approx(swapped_distance)
    assert counts == swapped_counts


@given(
    coord,
    coord,
    st.floats(-200, 200, allow_nan=False),
    st.floats(-200, 200, allow_nan=False),
)
def test_translation_invariance(a, b, dx, dy):
    def shift(p):
        # keep the shifted points inside a frame by enlarging it
        return (p[0] + dx + 200, p[1] + dy + 200)

    base, [(distance, _, _)] = scored(pair_rows("f", a, b, w=4000, h=3000))
    moved, [(moved_distance, _, _)] = scored(pair_rows("f", shift(a), shift(b), w=4000, h=3000))
    assert moved_distance == pytest.approx(distance, abs=1e-6)
    assert moved == base or abs(distance - 100.0) < 1e-6


@given(frame_pairs)
@settings(max_examples=100)
def test_ratio_bounds(pairs):
    (jva, denominator), _ = scored(rows_of(pairs))
    assert 0 <= jva <= denominator == len(pairs)


@given(frame_pairs, st.floats(10, 400))
@settings(max_examples=200)
def test_matches_brute_force_recount(pairs, threshold):
    recount = sum(math.hypot(ax - bx, ay - by) < threshold for (ax, ay), (bx, by) in pairs)
    assert scored(rows_of(pairs), threshold)[0] == (recount, len(pairs))


@pytest.mark.parametrize(
    "gaze, threshold, is_jva",
    [
        # math.hypot gives 6.658312473893066, np.hypot the threshold itself.
        ((1.05, 6.575), 6.658312473893067, True),
        # math.hypot gives the threshold itself, np.hypot 27.493726557162088.
        ((1.55, 27.45), 27.49372655716209, False),
    ],
)
def test_vectorized_scorer_decides_like_math_hypot(gaze, threshold, is_jva):
    assert (math.hypot(*gaze) < threshold) is is_jva
    counts, [(distance, _, _)] = scored(pair_rows("f", gaze, (0.0, 0.0)), threshold)
    assert counts == (int(is_jva), 1)
    assert distance == math.hypot(*gaze)


def test_vectorized_scorer_covers_policies_and_scaling():
    rows = [
        *pair_rows("a", (400, 400), (440, 400), w=1280, h=720),
        *pair_rows("b", (400, 400), (460, 400), w=1280, h=720),
        *pair_rows("c", (400, 400), (460, 400)),
        *pair_rows("d", (1, 1), (2, 2), discarded=True),
        *pair_rows("e", (5, 5), (0, 0))[:1],
    ]
    # 50 px everywhere: only a (40 px) is JVA. 100 px at 2560x1440 is
    # 50 px at 1280x720: a and c (60 px of 100) are JVA.
    expected = {
        (50.0, "absolute", "valid-pair-frames"): (1, 3),
        (50.0, "absolute", "all-captured-frames"): (1, 4),
        (100.0, "diagonal-normalized", "valid-pair-frames"): (2, 3),
        (100.0, "diagonal-normalized", "all-captured-frames"): (2, 4),
    }
    for (threshold, scale, policy), counts in expected.items():
        assert scored(rows, threshold, scale, policy)[0] == counts
