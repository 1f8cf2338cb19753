import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from teamgaze.gazefield import load_heatmap_text
from teamgaze.io_report import load_config, read_frame_table
from teamgaze.model import (
    Condition,
    FrameRecord,
    GazeObservation,
    GenderComposition,
    Group,
    Point2D,
    TeamSession,
    group_for_condition,
    input_text,
    team_post_test_score,
    validate_session,
)


def make_frame(frame_id, ts, gazes, w=2560, h=1440, discarded=False, reason=""):
    obs = tuple(
        GazeObservation(person_id=f"p{i + 1}", gaze=Point2D(x, y))
        for i, (x, y) in enumerate(gazes)
    )
    return FrameRecord(
        frame_id=frame_id,
        timestamp=ts,
        image_width=w,
        image_height=h,
        observations=obs,
        discarded=discarded,
        discard_reason=reason,
    )


def make_session(frames=(), team_post_test=2.5, team_id="t1"):
    return TeamSession(
        team_id=team_id,
        condition=Condition.TABLET,
        gender_composition=GenderComposition.MIXED,
        team_post_test=team_post_test,
        frames=tuple(frames),
    )


def test_conforming_session_has_no_violations():
    session = make_session([make_frame("f1", 0.0, [(100, 100), (200, 200)])])
    assert validate_session(session) == []


def test_score_out_of_bounds_flagged():
    session = make_session(team_post_test=6.0)
    violations = validate_session(session)
    assert any("score out of [0,5]" in v for v in violations)


def test_three_persons_is_a_team_size_violation():
    frame = FrameRecord(
        frame_id="f1",
        timestamp=0.0,
        image_width=2560,
        image_height=1440,
        observations=tuple(
            GazeObservation(person_id=f"p{i}", gaze=Point2D(10.0 * i, 10.0))
            for i in range(1, 4)
        ),
    )
    violations = validate_session(make_session([frame]))
    assert any("team size != 2" in v for v in violations)


def test_gaze_outside_frame_flagged():
    session = make_session([make_frame("f1", 0.0, [(-5, 100), (200, 200)])])
    violations = validate_session(session)
    assert any("out of image bounds" in v for v in violations)


def test_non_positive_image_size_flagged_and_frame_not_checked_further():
    session = make_session([make_frame("f1", 0.0, [(-5, 100), (200, 200)], w=0)])
    assert validate_session(session) == ["team t1 frame f1: non-positive image dimensions"]


def test_non_finite_gaze_flagged():
    session = make_session([make_frame("f1", 0.0, [(math.nan, 100), (200, 200)])])
    assert "team t1 frame f1: non-finite gaze for p1" in validate_session(session)


def test_valid_observations_skip_non_finite_gaze():
    frame = make_frame("f1", 0.0, [(math.inf, 100), (200, math.nan), (300, 300)])
    assert [o.person_id for o in frame.valid_observations()] == ["p3"]


def test_decreasing_timestamps_flagged():
    session = make_session(
        [
            make_frame("f1", 10.0, [(1, 1), (2, 2)]),
            make_frame("f2", 0.0, [(1, 1), (2, 2)]),
        ]
    )
    assert any("timestamp decreases" in v for v in validate_session(session))


def test_discarded_frame_needs_a_reason():
    ok = make_frame("f1", 0.0, [], discarded=True, reason="camera difficulty")
    bad = make_frame("f2", 1.0, [], discarded=True)
    violations = validate_session(make_session([ok, bad]))
    assert len([v for v in violations if "without a reason" in v]) == 1


@given(st.sampled_from(list(Condition)))
def test_group_derivation_is_total_and_matches_control_split(condition):
    group = group_for_condition(condition)
    if condition is Condition.TEXTBOOK:
        assert group is Group.CONTROL
    else:
        assert group is Group.EXPERIMENT


@given(
    st.floats(0, 5, allow_nan=False),
    st.floats(0, 5, allow_nan=False),
)
def test_team_score_is_symmetric_mean(a, b):
    score = team_post_test_score(a, b)
    assert score == team_post_test_score(b, a)
    assert math.isclose(score, (a + b) / 2)
    assert 0 <= score <= 5


# A byte order mark, a line ended by CR LF, one by a lone CR, and on line 3
# a byte that is not UTF-8.
MIXED_BYTES = (
    b"\xef\xbb\xbfteam_id,frame_id,timestamp_s,image_w,image_h,person_id,gaze_x,gaze_y\r\n"
    b"t1,f0,0.0,100,100,p1,10,10\r"
    b"t1,f0,0.0,100,100,p2,\xe9t,10\n"
)
BAD_BYTE = "byte 0xe9 is not UTF-8 (invalid continuation byte)"


@pytest.mark.parametrize(
    "read, where",
    [(read_frame_table, "{}: line 3"), (load_config, "{}:3"), (load_heatmap_text, "line 3")],
    ids=["frame table", "config file", "heatmap grid"],
)
def test_every_input_reader_names_a_bad_byte_by_the_same_rule(tmp_path, read, where):
    path = tmp_path / "input"
    path.write_bytes(MIXED_BYTES)
    assert input_text(MIXED_BYTES)[1] == (3, BAD_BYTE)
    with pytest.raises(ValueError) as exc:
        read(path)
    assert str(exc.value) == f"{where.format(path)}: {BAD_BYTE}"
