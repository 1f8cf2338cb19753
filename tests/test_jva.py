import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_jva_count
from teamgaze.jva import (
    DenominatorPolicy,
    JvaConfig,
    ScaleMode,
    classify_frame,
    session_jva,
    team_jva_counts,
)
from teamgaze.model import (
    Condition,
    FrameRecord,
    GazeObservation,
    GenderComposition,
    Point2D,
    TeamSession,
)


def pair_frame(frame_id, a, b, w=2560, h=1440, ts=0.0, discarded=False):
    return FrameRecord(
        frame_id=frame_id,
        timestamp=ts,
        image_width=w,
        image_height=h,
        observations=(
            GazeObservation("p1", Point2D(*a)),
            GazeObservation("p2", Point2D(*b)),
        ),
        discarded=discarded,
        discard_reason="camera difficulty" if discarded else "",
    )


def session_of(frames, team_id="t1"):
    return TeamSession(
        team_id=team_id,
        condition=Condition.AR,
        gender_composition=GenderComposition.FEMALES,
        team_post_test=2.5,
        frames=tuple(frames),
    )


def vector_counts(frames, config=JvaConfig()):
    """(jva_frames, denominator_frames) of one team's frames by team_jva_counts."""
    valid = [frame.valid_observations() for frame in frames]
    gaze = [obs.gaze for observations in valid for obs in observations]
    jva, denominator = team_jva_counts(
        np.zeros(len(frames), dtype=np.int64),
        1,
        np.array([f.image_width for f in frames], dtype=float),
        np.array([f.image_height for f in frames], dtype=float),
        np.array([f.discarded for f in frames], dtype=bool),
        np.cumsum([0] + [len(observations) for observations in valid]),
        np.array([g.x for g in gaze], dtype=float),
        np.array([g.y for g in gaze], dtype=float),
        config,
    )
    return int(jva[0]), int(denominator[0])


def both_counts(frames, config=JvaConfig()):
    """session_jva's counts, after checking team_jva_counts gives the same."""
    result = session_jva(session_of(frames), config)
    counts = (result.jva_frames, result.denominator_frames)
    assert vector_counts(frames, config) == counts
    return counts


def test_close_gazes_are_jva():
    result = classify_frame(pair_frame("f", (100, 100), (150, 150)))
    assert result.distance == pytest.approx(math.sqrt(5000))
    assert result.is_jva and result.counted_in_denominator


def test_far_gazes_are_not_jva():
    result = classify_frame(pair_frame("f", (1000, 700), (1150, 700)))
    assert result.distance == pytest.approx(150.0)
    assert not result.is_jva


def test_exactly_threshold_distance_is_not_jva():
    result = classify_frame(pair_frame("f", (500, 500), (600, 500)))
    assert result.distance == pytest.approx(100.0)
    assert not result.is_jva


def test_diagonal_normalized_threshold():
    config = JvaConfig(scale_mode=ScaleMode.DIAGONAL_NORMALIZED)
    # 1280x720 has exactly half the reference diagonal -> threshold 50 px
    assert config.effective_threshold(1280, 720) == pytest.approx(50.0)
    result = classify_frame(
        pair_frame("f", (400, 400), (460, 400), w=1280, h=720), config
    )
    assert result.distance == pytest.approx(60.0)
    assert not result.is_jva


def test_discarded_frame_never_counts():
    for policy in DenominatorPolicy:
        config = JvaConfig(denominator_policy=policy)
        result = classify_frame(
            pair_frame("f", (0, 0), (1, 1), discarded=True), config
        )
        assert not result.is_jva and not result.counted_in_denominator


def test_single_person_frame_counts_only_under_all_captured():
    frame = FrameRecord(
        frame_id="f",
        timestamp=0.0,
        image_width=2560,
        image_height=1440,
        observations=(GazeObservation("p1", Point2D(10, 10)),),
    )
    default = classify_frame(frame)
    assert not default.counted_in_denominator and default.distance is None
    lenient = classify_frame(
        frame, JvaConfig(denominator_policy=DenominatorPolicy.ALL_CAPTURED_FRAMES)
    )
    assert lenient.counted_in_denominator and not lenient.is_jva


def test_out_of_bounds_observation_invalidates_pair():
    frame = FrameRecord(
        frame_id="f",
        timestamp=0.0,
        image_width=2560,
        image_height=1440,
        observations=(
            GazeObservation("p1", Point2D(-5, 10)),
            GazeObservation("p2", Point2D(10, 10)),
        ),
    )
    assert classify_frame(frame).distance is None


def test_session_ratio_direct_count():
    frames = [
        pair_frame(f"f{i}", (100, 100), (100 + 40 * i, 100), ts=float(i))
        for i in range(10)
    ]
    # distances 0,40,...,360: i in 0..2 are < 100
    result = session_jva(session_of(frames))
    assert result.denominator_frames == 10
    assert result.jva_frames == 3
    assert result.jva_ratio == pytest.approx(0.3)


def test_all_discarded_session_has_no_countable_frames():
    frames = [pair_frame("f", (1, 1), (2, 2), discarded=True)]
    result = session_jva(session_of(frames))
    assert result.denominator_frames == 0
    assert result.jva_ratio is None


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


@given(frame_pairs, st.floats(1, 400), st.floats(1, 400))
@settings(max_examples=200)
def test_ratio_monotone_in_threshold(pairs, t1, t2):
    lo, hi = sorted((t1, t2))
    frames = [pair_frame(f"f{i}", a, b, ts=float(i)) for i, (a, b) in enumerate(pairs)]
    jva_lo, _ = both_counts(frames, JvaConfig(threshold=lo))
    jva_hi, _ = both_counts(frames, JvaConfig(threshold=hi))
    assert jva_lo <= jva_hi


@given(frame_pairs)
@settings(max_examples=200)
def test_person_swap_symmetry(pairs):
    frames = [pair_frame(f"f{i}", a, b, ts=float(i)) for i, (a, b) in enumerate(pairs)]
    swapped = [
        pair_frame(f"f{i}", b, a, ts=float(i)) for i, (a, b) in enumerate(pairs)
    ]
    for f, g in zip(frames, swapped):
        assert classify_frame(f).distance == pytest.approx(classify_frame(g).distance)
    assert session_jva(session_of(frames)).jva_ratio == session_jva(
        session_of(swapped)
    ).jva_ratio
    assert both_counts(frames) == both_counts(swapped)


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

    base = classify_frame(pair_frame("f", a, b, w=4000, h=3000))
    moved = classify_frame(pair_frame("f", shift(a), shift(b), w=4000, h=3000))
    assert moved.distance == pytest.approx(base.distance, abs=1e-6)


@given(frame_pairs)
@settings(max_examples=100)
def test_ratio_bounds(pairs):
    frames = [pair_frame(f"f{i}", a, b, ts=float(i)) for i, (a, b) in enumerate(pairs)]
    result = session_jva(session_of(frames))
    assert 0.0 <= result.jva_ratio <= 1.0
    jva, denominator = both_counts(frames)
    assert 0 <= jva <= denominator == len(frames)


@given(frame_pairs, st.floats(10, 400))
@settings(max_examples=200)
def test_matches_brute_force_recount(pairs, threshold):
    frames = [pair_frame(f"f{i}", a, b, ts=float(i)) for i, (a, b) in enumerate(pairs)]
    counts = both_counts(frames, JvaConfig(threshold=threshold))
    assert counts == brute_force_jva_count(pairs, threshold)


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
    frames = [pair_frame("f", gaze, (0.0, 0.0))]
    assert both_counts(frames, JvaConfig(threshold=threshold)) == (int(is_jva), 1)


def test_vectorized_scorer_covers_policies_and_scaling():
    frames = [
        pair_frame("a", (400, 400), (440, 400), w=1280, h=720),
        pair_frame("b", (400, 400), (460, 400), w=1280, h=720),
        pair_frame("c", (400, 400), (460, 400)),
        pair_frame("d", (1, 1), (2, 2), discarded=True),
        FrameRecord("e", 0.0, 2560, 1440, (GazeObservation("p1", Point2D(5, 5)),)),
    ]
    # 50 px everywhere: only a (40 px) is JVA. 100 px at 2560x1440 is
    # 50 px at 1280x720: a and c (60 px of 100) are JVA.
    expected = {
        (50.0, ScaleMode.ABSOLUTE, DenominatorPolicy.VALID_PAIR_FRAMES): (1, 3),
        (50.0, ScaleMode.ABSOLUTE, DenominatorPolicy.ALL_CAPTURED_FRAMES): (1, 4),
        (100.0, ScaleMode.DIAGONAL_NORMALIZED, DenominatorPolicy.VALID_PAIR_FRAMES): (2, 3),
        (100.0, ScaleMode.DIAGONAL_NORMALIZED, DenominatorPolicy.ALL_CAPTURED_FRAMES): (2, 4),
    }
    for (threshold, scale, policy), counts in expected.items():
        config = JvaConfig(threshold=threshold, scale_mode=scale, denominator_policy=policy)
        assert both_counts(frames, config) == counts
