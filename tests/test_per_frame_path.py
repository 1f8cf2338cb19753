"""The per-frame object path, pinned only while ``perfbench/traced.py``
imports it.

No command runs this path: ``io_report.load_frames`` and
``build_sessions``, ``TeamRow`` with ``stats_report_from_team_rows``, the
``model`` frame and session types with ``validate_session``, and
``jva.classify_frame`` and ``session_jva``. ``teamgaze analyze`` reads
with ``read_frame_table`` and scores with ``team_jva_counts``, which the
other test modules check against the plain reference in
``tests/oracles.py``. The benchmark's traced pass still calls this path,
and its synth check relies on ``classify_frame`` and ``session_jva``, so
this file keeps it checked until ROADMAP item 1 points the benchmark at
the program; item 3 then deletes the file with the code. The path takes
what the readers return and restates none of their rules: frames keep
``read_frame_table``'s order, and ``validate_session`` checks only the
team size, which no reader enforces.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    FRAME_TABLE_HEADER,
    Team,
    brute_force_jva_count,
    reference_frame_table,
    team_table,
    teams_of,
)

from teamgaze import io_report, jva, model
from teamgaze.cli import main
from teamgaze.io_report import (
    TeamRow,
    build_sessions,
    load_frames,
    read_frame_table,
    stats_report_from_team_rows,
)
from teamgaze.jva import DenominatorPolicy, JvaConfig, ScaleMode, classify_frame, session_jva
from teamgaze.model import (
    Condition,
    FrameRecord,
    GazeObservation,
    GenderComposition,
    Group,
    Point2D,
    TeamSession,
    validate_session,
)

GOLDEN = Path(__file__).parent / "golden"


def write_frames(directory, rows):
    path = Path(directory) / "frames.csv"
    path.write_text(FRAME_TABLE_HEADER + "\n" + "".join(r + "\n" for r in rows))
    return path


def make_frame(frame_id, ts, gazes, discarded=False):
    obs = tuple(
        GazeObservation(person_id=f"p{i + 1}", gaze=Point2D(x, y))
        for i, (x, y) in enumerate(gazes)
    )
    return FrameRecord(
        frame_id=frame_id,
        timestamp=ts,
        image_width=2560,
        image_height=1440,
        observations=obs,
        discarded=discarded,
    )


def make_session(frames):
    return TeamSession(
        team_id="t1",
        condition=Condition.TABLET,
        gender_composition=GenderComposition.MIXED,
        team_post_test=2.5,
        frames=tuple(frames),
    )


def test_conforming_session_has_no_violations():
    session = make_session([make_frame("f1", 0.0, [(100, 100), (200, 200)])])
    assert validate_session(session) == []


# The reader: test_io_report.py::
# test_a_third_person_counts_in_kept_rows_of_frames_not_discarded; a team
# of one person is noted as without countable frames in the report
# (test_golden.py::test_golden_t03_is_the_one_team_without_a_pair).
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


# Golden team t03's shape: one person in every frame.
def test_one_person_is_a_team_size_violation():
    frames = [make_frame(f"f{i}", float(i), [(100, 100)]) for i in range(3)]
    assert validate_session(make_session(frames)) == [
        "team t1: team size != 2 (1 distinct persons in valid frames)"
    ]


def test_discarded_frames_do_not_count_toward_the_team_size():
    frames = [
        make_frame("f1", 0.0, [(1, 1), (2, 2)]),
        make_frame("f2", 1.0, [(1, 1), (2, 2), (3, 3)], discarded=True),
    ]
    assert validate_session(make_session(frames)) == []


def test_load_frames_keeps_the_frame_tables_order(tmp_path):
    path = write_frames(
        tmp_path,
        [
            "t2,f9,30.0,2560,1440,p2,1,1,,,1.0,0",
            "t1,f2,20.0,2560,1440,p1,1,1,,,1.0,0",
            "t1,f1,10.0,2560,1440,p2,2,2,,,1.0,0",
            "t2,f9,30.0,2560,1440,p1,3,3,,,1.0,0",
            "t1,f2,20.0,2560,1440,p2,4,4,,,1.0,0",
            "t1,f0,5.0,2560,1440,p1,5,5,,,1.0,0",
        ],
    )
    table = read_frame_table(path)
    bounds = table.row_offsets.tolist()
    expected = {team: [] for team in table.team_ids}
    for f, team in enumerate(table.frame_team.tolist()):
        persons = [table.person_ids[p] for p in table.row_person[bounds[f]:bounds[f + 1]]]
        expected[table.team_ids[team]].append((table.frame_ids[f], persons))
    loaded = load_frames(path).frames_by_team
    assert {
        team: [(fr.frame_id, [o.person_id for o in fr.observations]) for fr in frames]
        for team, frames in loaded.items()
    } == expected
    assert [fr.frame_id for fr in loaded["t1"]] == ["f2", "f1", "f0"]


# A frame: its team, image size, discarded flag, and one or two persons'
# quarter-pixel gaze points, some outside the image.
GAZE = st.tuples(st.integers(-8, 4 * 2560 + 8), st.integers(-8, 4 * 1440 + 8))
FRAMES = st.lists(
    st.tuples(
        st.sampled_from(["t1", "t2"]),
        st.sampled_from([(1280, 720), (2560, 1440)]),
        st.booleans(),
        st.lists(GAZE, min_size=1, max_size=2),
    ),
    min_size=1,
    max_size=12,
)


@given(FRAMES, st.floats(1, 400), st.sampled_from(list(ScaleMode)),
       st.sampled_from(list(DenominatorPolicy)))
@settings(max_examples=100, deadline=None)
def test_session_jva_and_classify_frame_agree_with_the_reference(
    frames, threshold, scale, policy
):
    rows = [
        f"{team},f{f},{f}.0,{w},{h},p{p + 1},{x / 4},{y / 4},,,1.0,{int(discarded)}"
        for f, (team, (w, h), discarded, gaze) in enumerate(frames)
        for p, (x, y) in enumerate(gaze)
    ]
    reference = reference_frame_table(rows)
    counts, decisions = brute_force_jva_count(reference, threshold, scale.value, policy.value)
    by_frame = {
        (reference["team_ids"][team], frame): decision
        for team, frame, decision in zip(
            reference["frame_team"], reference["frame_ids"], decisions
        )
    }
    config = JvaConfig(threshold, scale, policy)
    teams = team_table([Team("t1", "ar", "FF", None, 2.5), Team("t2", "tablet", "MM", None, 3.0)])
    with tempfile.TemporaryDirectory() as tmp:
        loaded = load_frames(write_frames(tmp, rows))
    for session in build_sessions(loaded.frames_by_team, teams):
        result = session_jva(session, config)
        assert (result.jva_frames, result.denominator_frames) == counts.get(
            session.team_id, (0, 0)
        )
        for frame in session.frames:
            decided = classify_frame(frame, config)
            assert (decided.distance, decided.is_jva, decided.counted_in_denominator) == (
                by_frame[session.team_id, frame.frame_id]
            )


def test_build_sessions_rejects_frames_of_an_unknown_team(tmp_path):
    path = write_frames(tmp_path, ["t1,f1,0.0,2560,1440,p1,1,1,,,1.0,0",
                                   "t9,f1,0.0,2560,1440,p1,1,1,,,1.0,0"])
    teams = team_table([Team("t1", "ar", "FF", None, 2.5)])
    with pytest.raises(ValueError, match=r"frames reference unknown teams: \['t9'\]"):
        build_sessions(load_frames(path).frames_by_team, teams)


def test_stats_report_of_team_rows_is_that_of_their_table():
    teams = io_report.load_team_rows(GOLDEN / "analyze" / "bundle" / "teams.csv")
    rows = [
        TeamRow(t.team_id, Condition(t.condition), Group(t.group),
                GenderComposition(t.gender), t.jva_ratio_pct, t.team_post_test)
        for t in teams_of(teams)
    ]
    assert io_report.emit_report(stats_report_from_team_rows(rows), "json") == (
        io_report.emit_report(io_report.stats_report(teams), "json")
    )


# Each constructor and scorer of the per-frame path, where a command could
# reach it.
PER_FRAME_CALLS = [
    (io_report, "TeamRow"), (io_report, "TeamSession"), (io_report, "FrameRecord"),
    (io_report, "GazeObservation"), (io_report, "load_frames"), (io_report, "build_sessions"),
    (io_report, "stats_report_from_team_rows"), (model, "TeamSession"),
    (model, "FrameRecord"), (model, "GazeObservation"), (model, "validate_session"),
    (jva, "classify_frame"), (jva, "session_jva"),
]


def test_no_command_runs_the_per_frame_path(tmp_path, capsys, monkeypatch):
    data = tmp_path / "data"
    assert main(["synth", "--out-dir", str(data), "--teams", "6", "--frames-per-team", "40",
                 "--seed", "3"]) == 0
    capsys.readouterr()
    for owner, name in PER_FRAME_CALLS:
        def refuse(*args, name=name, **kwargs):
            raise AssertionError(f"a command called {name}")

        monkeypatch.setattr(owner, name, refuse)
    commands = [
        ["analyze", "--frames", str(data / "frames.csv"), "--teams", str(data / "teams.csv"),
         "--format", "csv-bundle", "--out", str(tmp_path / "bundle")],
        ["stats", "--teams", str(tmp_path / "bundle" / "teams.csv")],
        ["stats", "--teams", str(GOLDEN / "analyze" / "bundle" / "teams.csv")],
        ["stats"],
    ]
    for argv in commands:
        assert main(argv) == 0, argv
    assert capsys.readouterr().err == ""
