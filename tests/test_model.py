import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from teamgaze.gazefield import Heatmap, load_heatmap_text
from teamgaze.frame_table import read_frame_table
from teamgaze.io_report import load_config
from teamgaze.model import (
    CONDITION_GROUP,
    CONDITIONS,
    DENOMINATOR_POLICIES,
    GROUPS,
    SCALE_MODES,
    JvaConfig,
    Point2D,
    input_text,
    team_post_test_score,
)
from teamgaze.stats import GroupSummary, anova_from_summary, correlation_from_r
from teamgaze.synth import SynthSpec


def test_textbook_is_the_control_group_and_tablet_and_ar_are_experimental():
    assert CONDITION_GROUP == {"textbook": "control", "tablet": "experiment", "ar": "experiment"}
    assert tuple(CONDITION_GROUP) == CONDITIONS
    assert set(CONDITION_GROUP.values()) == set(GROUPS)


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


# A value of each immutable type off the per-frame path (whose types
# test_per_frame_path.py checks), with one of its fields.
SUMMARIES = [GroupSummary("a", 3, 1.0, 0.5), GroupSummary("b", 4, 2.0, 0.5)]
FROZEN_VALUES = [
    (Point2D(1.0, 2.0), "x"),
    (JvaConfig(), "threshold"),
    (SUMMARIES[0], "n"),
    (anova_from_summary(SUMMARIES), "f"),
    (correlation_from_r(0.5, 10), "r"),
    (SynthSpec(), "teams"),
    (Heatmap([[0.0, 1.0]]), "values"),
]


@pytest.mark.parametrize(
    "value, field", FROZEN_VALUES, ids=[type(v).__name__ for v, _ in FROZEN_VALUES]
)
def test_a_value_object_takes_no_new_value(value, field):
    # A frozen dataclass's FrozenInstanceError is an AttributeError too.
    for name in (field, "other"):
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, field))


def test_settings_and_group_summaries_compare_by_value():
    labels = (SCALE_MODES[1], DENOMINATOR_POLICIES[1])
    config = JvaConfig(50.0, *labels)
    assert config == JvaConfig(threshold=50.0, scale_mode=labels[0],
                               denominator_policy=labels[1])
    assert hash(config) == hash(JvaConfig(50.0, *labels))
    assert JvaConfig() == JvaConfig(100.0) != config
    summary = GroupSummary("a", 3, 1.0, 0.5)
    assert summary == GroupSummary(label="a", n=3, mean=1.0, sd=0.5) == SUMMARIES[0]
    assert summary != GroupSummary("a", 3, 1.0, 0.25)
