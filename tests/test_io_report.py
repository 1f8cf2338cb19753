import csv
import io
import json
import math
import re
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    Team,
    brute_force_jva_count,
    read_csv_columns,
    reference_frame_table,
    team_table,
    teams_of,
)

from teamgaze import io_report
from teamgaze.cli import main
from teamgaze.io_report import (
    analyze_table,
    emit_report,
    load_config,
    load_summary_fixture,
    load_team_rows,
    load_teams,
    paper_fixture_path,
    read_frame_table,
    stats_report,
    stats_report_from_summaries,
    stats_report_from_table,
)
from teamgaze.jva import DenominatorPolicy, JvaConfig, ScaleMode

FRAME_HEADER = (
    "team_id,frame_id,timestamp_s,image_w,image_h,person_id,"
    "gaze_x,gaze_y,head_x,head_y,confidence,discarded\n"
)


def write_frames(tmp_path, rows, name="frames.csv"):
    path = tmp_path / name
    path.write_text(FRAME_HEADER + "".join(r + "\n" for r in rows))
    return path


def test_two_rows_become_one_frame(tmp_path):
    path = write_frames(
        tmp_path,
        [
            "t1,f1,0.0,2560,1440,p1,100,100,,,1.0,0",
            "t1,f1,0.0,2560,1440,p2,150,150,90,90,0.8,0",
        ],
    )
    table = read_frame_table(path)
    assert table.row_errors == []
    assert (table.frame_ids, table.row_offsets.tolist()) == (["f1"], [0, 2])


def test_out_of_bounds_gaze_row_skipped_and_logged(tmp_path):
    path = write_frames(
        tmp_path,
        [
            "t1,f1,0.0,2560,1440,p1,-5,100,,,1.0,0",
            "t1,f1,0.0,2560,1440,p2,150,150,,,1.0,0",
            "t1,f2,1.0,2560,1440,p1,nan,100,,,1.0,0",
            "t1,f3,2.0,2560,1440,p1,100,inf,,,1.0,0",
        ],
    )
    table = read_frame_table(path)
    assert table.row_errors == [
        "line 2: gaze (-5.0, 100.0) outside 2560x1440 image, row skipped",
        "line 4: gaze (nan, 100.0) outside 2560x1440 image, row skipped",
        "line 5: gaze (100.0, inf) outside 2560x1440 image, row skipped",
    ]
    assert (table.frame_ids, table.row_offsets.tolist()) == (["f1"], [0, 1])


def test_missing_header_is_hard_error(tmp_path):
    path = tmp_path / "frames.csv"
    path.write_text("t1,f1,0.0,2560,1440,p1,100,100\n")
    with pytest.raises(ValueError, match="missing mandatory columns"):
        read_frame_table(path)


def test_a_column_no_reader_uses_may_repeat(tmp_path):
    path = tmp_path / "frames.csv"
    path.write_text(
        "team_id,frame_id,timestamp_s,image_w,image_h,person_id,gaze_x,gaze_y,"
        "head_x,head_x,confidence,Confidence,,\n"
        "t1,f1,0.0,2560,1440,p1,100,100,1,2,1.0,1.0,,\n"
    )
    table = read_frame_table(path)
    assert (table.gaze_x.tolist(), table.gaze_y.tolist()) == ([100.0], [100.0])
    teams = tmp_path / "teams.csv"
    teams.write_text("team_id,condition,group,group,gender,team_post_test\nt1,ar,,x,FF,2\n")
    assert load_team_rows(teams).team_ids == ["t1"]


def test_unparseable_column_is_hard_error(tmp_path):
    path = write_frames(tmp_path, ["t1,f1,abc,2560,1440,p1,100,100,,,1.0,0"])
    with pytest.raises(ValueError, match="timestamp_s"):
        read_frame_table(path)


GOOD_ROW = "t1,f1,0.0,2560,1440,p1,100,100,,,1.0,0"


@pytest.mark.parametrize(
    "rows, message",
    [
        (["t1,f1,0.0,2560"], "line 2: short row, no image_h cell"),
        (["t1,f1,0.0,inf,1440,p1,1,1,,,1.0,0"], "line 2: column 'image_w' not finite: 'inf'"),
        (["t1,f1,0.0,2560,nan,p1,1,1,,,1.0,0"], "line 2: column 'image_h' not finite: 'nan'"),
        (
            [GOOD_ROW, "", "t1,f2,1.0,2560,1440,p1,x,1,,,1.0,0"],
            "line 4: column 'gaze_x' not numeric: 'x'",
        ),
        (
            ['t1,f1,0.0,2560,1440,"p\n1",1,1,,,1.0,0', "t1,f2,1.0,2560,1440,p1,1,,,,1.0,0"],
            "line 4: column 'gaze_y' not numeric: ''",
        ),
        # Each of these used to load and change the team's ratio.
        (
            [GOOD_ROW, "t1,f1,0.0,2560,1440,p1,900,900,,,1.0,0"],
            "line 3: person_id 'p1' already on line 2 for team 't1' frame 'f1'",
        ),
        (
            [GOOD_ROW, "t1,f1,5.0,2560,1440,p2,100,100,,,1.0,0"],
            "line 3: timestamp_s 5.0 differs from 0.0 on line 2 for team 't1' frame 'f1'",
        ),
        (
            [GOOD_ROW, "t1,f1,0.0,1280,1440,p2,100,100,,,1.0,0"],
            "line 3: image_w 1280 differs from 2560 on line 2",
        ),
        (
            [GOOD_ROW, "t1,f1,0.0,2560,720,p2,100,100,,,1.0,0"],
            "line 3: image_h 720 differs from 1440 on line 2",
        ),
        (
            [GOOD_ROW, "t1,f1,0.0,2560,1440,p2,100,100,,,1.0,1"],
            "line 3: discarded True differs from False on line 2",
        ),
        (
            [GOOD_ROW, "t1,f2,1.0,2560,1440,p1,100,100,,,1.0,yes"],
            "line 3: discarded 'yes' is not empty, 0, 1, true or false",
        ),
        # A later row fails a check before the one an earlier row fails.
        (
            [GOOD_ROW, "t1,f2,1.0,2560,1440,p1,100,100,,,1.0,yes",
             "t1,f3,x,2560,1440,p1,100,100,,,1.0,0"],
            "line 3: discarded 'yes' is not empty, 0, 1, true or false",
        ),
        # One row failing three checks names the first.
        (["t1,f1,0.0,inf,1440,p1,x,1,,,1.0,yes"], "line 2: column 'image_w' not finite: 'inf'"),
        # A long row, a row without a discarded cell and a short row.
        (
            [GOOD_ROW + ",extra", "t1,f2,1.0,2560,1440,p1,1,1", "t1,f3,2.0,2560"],
            "line 4: short row, no image_h cell",
        ),
        # The csv module of Python 3.10 rejects a NUL; 3.11 reads it as a cell.
        (
            [GOOD_ROW, "t1,f2,1.0,2560,1440,p1,\0,1,,,1.0,0"],
            "line 3: line contains NUL" if sys.version_info < (3, 11)
            else "line 3: column 'gaze_x' not numeric: '\\x00'",
        ),
    ],
)
def test_malformed_frame_rows_name_their_physical_line(tmp_path, rows, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        read_frame_table(write_frames(tmp_path, rows))


def test_discarded_tokens_any_case(tmp_path):
    tokens = ["", "0", "1", "true", "FALSE", " True ", "TRUE"]
    rows = [f"t1,f{i},{i}.0,2560,1440,p1,1,1,,,1.0,{t}" for i, t in enumerate(tokens)]
    table = read_frame_table(write_frames(tmp_path, rows))
    assert table.discarded.tolist() == [False, False, True, True, False, True, True]


def test_frame_checks_skip_out_of_bounds_rows(tmp_path):
    rows = [GOOD_ROW, "t1,f1,0.0,2560,1440,p1,-1,1,,,1.0,0"]
    table = read_frame_table(write_frames(tmp_path, rows))
    assert table.row_offsets.tolist() == [0, 1]
    assert [table.person_ids[p] for p in table.row_person.tolist()] == ["p1"]


def test_a_third_person_counts_in_kept_rows_of_frames_not_discarded(tmp_path):
    rows = [
        "t1,f1,0.0,100,100,p1,1,1,,,1.0,0",
        "t1,f1,0.0,100,100,p2,1,1,,,1.0,0",
        "t1,f2,1.0,100,100,p3,1,1,,,1.0,1",  # a discarded frame may hold anyone
        "t1,f3,2.0,100,100,p4,-1,1,,,1.0,0",  # a row skipped for its gaze point
        "t2,f1,0.0,100,100,p3,1,1,,,1.0,0",
    ]
    assert read_frame_table(write_frames(tmp_path, rows)).person_ids == ["p1", "p2", "p3", "p4"]
    # Team t1's third person comes first in the file, team t2's after it.
    rows += ["t1,f4,3.0,100,100,p4,1,1,,,1.0,0", "t2,f1,0.0,100,100,p1,1,1,,,1.0,0",
             "t2,f1,0.0,100,100,p2,1,1,,,1.0,0"]
    message = "line 7: person_id 'p4' is a third person of team 't1' (a team is two people)"
    with pytest.raises(ValueError, match=re.escape(message)):
        read_frame_table(write_frames(tmp_path, rows))


@pytest.mark.parametrize(
    "rows, message",
    [
        # A frame error before a row error, in another chunk.
        ([GOOD_ROW, "t1,f2,1.0,2560,1440,p1,1,1,,,1.0,0", GOOD_ROW,
          "t1,f3,2.0,2560,1440,p1,1,1,,,1.0,0", "t1,f4,3.0,0,1440,p1,1,1,,,1.0,0"],
         "line 4: person_id 'p1' already on line 2"),
        # A row error before a frame error.
        ([GOOD_ROW, "t1,f2,1.0,2560,1440,p1,1,1,,,1.0,maybe", GOOD_ROW],
         "line 3: discarded 'maybe'"),
        # A frame whose rows are three chunks apart.
        ([GOOD_ROW] + [f"t1,f{i},{i}.0,2560,1440,p1,1,1,,,1.0,0" for i in range(2, 7)]
         + ["t1,f1,0.0,2560,1440,p2,1,1,,,1.0,1"],
         "line 8: discarded True differs from False on line 2"),
        # A frame error before an over-long cell or a broken comment, in another chunk.
        ([GOOD_ROW, GOOD_ROW, "t1,f2,1.0,2560,1440,p1,1,1,,,1.0,0", "x" * 140_000 + ","],
         "line 3: person_id 'p1' already on line 2"),
        ([GOOD_ROW, GOOD_ROW, "t1,f2,1.0,2560,1440,p1,1,1,,,1.0,0", '#,"', GOOD_ROW],
         "line 3: person_id 'p1' already on line 2"),
        # A quoted line break from one chunk into the next.
        (['t1,f1,0.0,2560,1440,"p\n1",1,1,,,1.0,0', "t1,f2,1.0,2560,1440,p1,1,x,,,1.0,0"],
         "line 4: column 'gaze_y' not numeric: 'x'"),
        # A quote opening on a chunk's last line and closing two chunks later.
        ([GOOD_ROW, "t1,f2,1.0,2560,1440,p1,1,1,,,1.0,0", "t1,f3,2.0,2560,1440,p1,1,1,,,1.0,0",
          't1,f4,3.0,2560,1440,"p\n\n\n1",1,1,,,1.0,0', "t1,f5,4.0,2560,1440,p1,1,1,,,1.0,0",
          "t1,f6,5.0,2560,1440,p1,1,x,,,1.0,0"],
         "line 10: column 'gaze_y' not numeric: 'x'"),
    ],
)
def test_first_bad_line_in_file_order_is_reported(tmp_path, monkeypatch, rows, message):
    monkeypatch.setattr(io_report, "_CHUNK_ROWS", 2)
    with pytest.raises(ValueError, match=re.escape(message)):
        read_frame_table(write_frames(tmp_path, rows))


def test_load_teams_happy_path(tmp_path):
    path = tmp_path / "teams.csv"
    path.write_text(
        "team_id,condition,gender,post_test_1,post_test_2\n"
        "t1,Tablet,mx,3,2\n"
    )
    assert teams_of(load_teams(path)) == [Team("t1", "tablet", "MX", None, 2.5)]


def test_load_teams_rejects_unknown_condition(tmp_path):
    path = tmp_path / "teams.csv"
    path.write_text(
        "team_id,condition,gender,post_test_1,post_test_2\nt1,chalkboard,FF,1,2\n"
    )
    with pytest.raises(ValueError, match="line 2.*chalkboard"):
        load_teams(path)


def test_load_teams_rejects_score_out_of_range(tmp_path):
    path = tmp_path / "teams.csv"
    path.write_text(
        "team_id,condition,gender,post_test_1,post_test_2\nt1,ar,FF,7,2\n"
    )
    with pytest.raises(ValueError, match="out of \\[0,5\\]"):
        load_teams(path)


TEAMS_HEADER = "team_id,condition,gender,post_test_1,post_test_2\n"


@pytest.mark.parametrize(
    "rows, message",
    [
        ("t1,ar,FF,1,2\nt2,ar,FF,1,2\nt1,tablet,MM,3,3\n",
         "line 4: duplicate team_id 't1' (first on line 2)"),
        ("t1,ar,FF,1,2\n\nt2,ar\n", "line 4: unknown gender '', expected FF"),
        ("t1,ar,FF,1,2\nt2,ar,FF,1,9", "line 3: post_test_2 '9' out of [0,5]"),
        ("t1,ar,FF,9,2\nt2,ar,ZZ,1,2", "line 2: post_test_1 '9' out of [0,5]"),
        ("t1,ar,FF,1,2\r\n\r\nt1,ar,FF,1,2\r\n",
         "line 4: duplicate team_id 't1' (first on line 2)"),
        # A blank id used to load, and two of them failed only as duplicates.
        ("t1,ar,FF,1,2\nt2,ar,FF,1,2\n ,ar,FF,5,5\n", "line 4: empty team_id"),
        ("t1,ar,FF,1,2\n,ar,FF,1,2\n ,tablet,MM,3,3\n", "line 3: empty team_id"),
    ],
)
def test_load_teams_rejects_bad_rows_with_physical_line(tmp_path, rows, message):
    path = tmp_path / "teams.csv"
    path.write_text(TEAMS_HEADER + rows)
    with pytest.raises(ValueError, match=re.escape(message)):
        load_teams(path)


def test_analyze_table_requires_metadata(tmp_path):
    table = read_frame_table(write_frames(tmp_path, ["tX,f1,0.0,2560,1440,p1,1,1,,,1.0,0"]))
    with pytest.raises(ValueError, match=re.escape("frames reference unknown teams: ['tX']")):
        analyze_table(table, team_table([Team("t1", "ar", "FF", None, 2.5)]))


def fixture_report():
    summaries, totals = load_summary_fixture(paper_fixture_path())
    return stats_report_from_summaries(summaries, totals)


@pytest.mark.parametrize(
    "fmt, message",
    [("csv-bundle", "--format csv-bundle needs --out, the bundle's directory"),
     ("xml", "unknown report format 'xml'")],
)
def test_emit_report_rejects_a_bundle_without_a_directory_or_an_unknown_format(fmt, message):
    with pytest.raises(ValueError) as info:
        emit_report(fixture_report(), fmt)
    assert str(info.value) == message


def test_fixture_reproduces_published_f_values():
    report = fixture_report()
    assert report.anovas["group_jva_ratio_pct"].f == pytest.approx(6.65, abs=0.05)
    assert report.anovas["group_post_test"].f == pytest.approx(7.56, abs=0.05)
    assert report.anovas["condition_jva_ratio_pct"].f == pytest.approx(3.26, abs=0.05)
    assert report.anovas["gender_jva_ratio_pct"].f == pytest.approx(1.10, abs=0.05)
    assert report.anovas["gender_post_test"].f == pytest.approx(1.29, abs=0.05)
    assert report.effect_d["group_jva_ratio_pct"] == pytest.approx(1.00, abs=0.02)
    assert report.effect_d["group_post_test"] == pytest.approx(1.06, abs=0.02)


def test_fixture_total_row_renders_exactly():
    text = emit_report(fixture_report(), fmt="text")
    assert "40.80 ± 15.59" in text
    assert "1.95 ± 1.25" in text


def test_emit_deterministic(tmp_path):
    report = fixture_report()
    assert emit_report(report, "text") == emit_report(report, "text")
    assert emit_report(report, "json") == emit_report(report, "json")


def test_emit_json_is_valid_and_rounded():
    payload = json.loads(emit_report(fixture_report(), "json"))
    assert payload["anovas"]["condition_jva_ratio_pct"]["p"] == 0.054
    assert payload["totals"]["jva_ratio_pct"]["mean"] == 40.80


def test_empty_report_renders():
    report = stats_report_from_summaries({})
    text = emit_report(report, "text")
    assert "summary statistics" in text


def test_csv_bundle_round_trip(tmp_path):
    rows = [
        Team("t1", "textbook", "FF", 30.0, 1.0),
        Team("t2", "tablet", "MM", 50.0, 2.5),
        Team("t3", "ar", "MX", 45.0, 3.0),
    ]
    report = stats_report(team_table(rows))
    emit_report(report, "csv-bundle", tmp_path / "bundle")
    reloaded = load_team_rows(tmp_path / "bundle" / "teams.csv")
    assert teams_of(reloaded) == rows
    fixture = paper_fixture_path()
    for table, expected in [
        (tmp_path / "bundle" / "teams.csv", stats_report(reloaded)),
        (fixture, stats_report_from_summaries(*load_summary_fixture(fixture))),
    ]:
        for fmt in ("json", "text"):
            assert emit_report(stats_report_from_table(table), fmt) == emit_report(expected, fmt)


def test_analyze_report_correlation_present_with_enough_teams(tmp_path):
    rows = [Team(f"t{i}", "ar", "MX", float(20 + 3 * i), 0.5 + 0.4 * i) for i in range(8)]
    report = stats_report(team_table(rows))
    assert report.correlation is not None
    assert report.correlation.r == pytest.approx(1.0)
    assert int(report.teams.has_ratio.sum()) == 8


def test_config_precedence(tmp_path, monkeypatch):
    config_file = tmp_path / "jva.conf"
    config_file.write_text(
        "threshold = 80  # tighter criterion\nscale_mode = diagonal-normalized\n"
    )
    config = load_config(config_file)
    assert config.threshold == 80.0
    assert config.scale_mode is ScaleMode.DIAGONAL_NORMALIZED
    # flag overrides file
    config = load_config(config_file, threshold=120.0)
    assert config.threshold == 120.0
    assert config.scale_mode is ScaleMode.DIAGONAL_NORMALIZED
    # defaults when nothing is given
    default = load_config(None)
    assert default.threshold == 100.0
    assert default.denominator_policy is DenominatorPolicy.VALID_PAIR_FRAMES


def test_config_override_is_a_flag_value_or_an_enum_member(tmp_path):
    config_file = tmp_path / "jva.conf"
    config_file.write_text("scale_mode = diagonal-normalized\nthreshold = 80\n")
    by_text = load_config(config_file, scale_mode="absolute",
                          denominator_policy="all-captured-frames", threshold=None)
    by_member = load_config(config_file, scale_mode=ScaleMode.ABSOLUTE,
                            denominator_policy=DenominatorPolicy.ALL_CAPTURED_FRAMES)
    expected = JvaConfig(80.0, ScaleMode.ABSOLUTE, DenominatorPolicy.ALL_CAPTURED_FRAMES)
    assert by_text == by_member == expected
    with pytest.raises(TypeError, match="thresold"):  # JvaConfig names an unknown keyword
        load_config(None, thresold=5.0)


def test_config_unknown_key_rejected(tmp_path):
    config_file = tmp_path / "jva.conf"
    config_file.write_text("thresold = 80\n")
    with pytest.raises(ValueError, match="unknown key"):
        load_config(config_file)


def test_config_duplicate_key_rejected(tmp_path):
    config_file = tmp_path / "jva.conf"
    config_file.write_text("threshold = 50\n# tuned\nscale_mode = absolute\nthreshold = 80\n")
    with pytest.raises(ValueError) as info:
        load_config(config_file)
    assert str(info.value) == f"{config_file}:4: duplicate key 'threshold' (first on line 1)"
    # The same value twice is still two settings of one key.
    config_file.write_text("scale_mode = absolute\nscale_mode = absolute\n")
    with pytest.raises(ValueError, match=":2: duplicate key 'scale_mode' .first on line 1.$"):
        load_config(config_file)


@pytest.mark.parametrize(
    "line, message",
    [
        ("scale_mode = bogus", "jva.conf:2: bad scale_mode 'bogus', expected absolute"),
        ("denominator_policy = most", "jva.conf:2: bad denominator_policy 'most'"),
        ("threshold = wide", "jva.conf:2: bad threshold 'wide', expected a positive"),
        ("threshold = nan", "jva.conf:2: bad threshold 'nan'"),
        ("threshold = -3", "jva.conf:2: bad threshold '-3'"),
    ],
)
def test_config_bad_value_names_file_and_line(tmp_path, line, message):
    config_file = tmp_path / "jva.conf"
    config_file.write_text(f"# tuned\n{line}\n")
    with pytest.raises(ValueError, match=re.escape(message)):
        load_config(config_file)


@pytest.mark.parametrize(
    "text, message",
    [
        # str.splitlines would also break at the form feed and at U+0085.
        ("threshold = 120\f\nfoo\n", "jva.conf:2: expected key=value"),
        ("# note \u0085 x\nthreshold = 120\nbad line\n", "jva.conf:3: expected key=value"),
        ("# tuned\r\nthreshold = 120\r\nbad line\r\n", "jva.conf:3: expected key=value"),
        ("# tuned\rthreshold = 120\rbad line\r", "jva.conf:3: expected key=value"),
    ],
    ids=["form feed", "next line", "crlf", "cr"],
)
def test_config_lines_end_at_lf_crlf_and_cr_only(tmp_path, text, message):
    config_file = tmp_path / "jva.conf"
    config_file.write_bytes(text.encode())
    with pytest.raises(ValueError, match=re.escape(message)):
        load_config(config_file)


def test_text_summary_shows_each_measures_own_n():
    rows = [
        Team(f"c{i}", "textbook", "FF", None if i == 0 else 20.0 + i, 1.0 + i) for i in range(3)
    ] + [Team(f"e{i}", "tablet", "MM", 40.0 + i, 2.0 + i) for i in range(3)]
    text = emit_report(stats_report(team_table(rows)), "text")
    summary = text.split("Summary by group\n")[1].split("\n\n")[0].splitlines()
    assert summary[0].split() == ["label", "n", "JVA", "ratio", "(%)", "n", "Post-test"]
    assert summary[1].split()[:2] == ["control", "2"]
    assert summary[1].split()[5] == "3"


TEAM_ROWS_HEADER = "team_id,condition,group,gender,jva_ratio_pct,team_post_test\n"


@pytest.mark.parametrize(
    "row, message",
    [
        ("t1,chalkboard,,FF,30,2", "line 3: unknown condition 'chalkboard'"),
        ("t1,ar,,XY,30,2", "line 3: unknown gender 'XY', expected FF | MM | MX"),
        ("t1,ar,,FF,30,9", "line 3: team_post_test '9' out of [0,5]"),
        ("t1,ar,,FF,-5,2", "line 3: jva_ratio_pct '-5' out of [0,100]"),
        ("t1,ar,,FF,100.5,2", "line 3: jva_ratio_pct '100.5' out of [0,100]"),
        ("t1,ar,,FF,nan,2", "line 3: jva_ratio_pct 'nan' out of [0,100]"),
        ("t1,ar,,FF,30,x", "line 3: column 'team_post_test' not numeric"),
        ("t1,ar,,FF", "line 3: column 'team_post_test' not numeric: ''"),
        # A repeated team used to be counted twice.
        ("t0,ar,,FF,30,2", "line 3: duplicate team_id 't0' (first on line 2)"),
        # A blank id used to enter every ANOVA.
        (" ,ar,,FF,30,2", "line 3: empty team_id"),
    ],
)
def test_load_team_rows_rejects_bad_rows_with_line(tmp_path, row, message):
    path = tmp_path / "teams.csv"
    path.write_text(TEAM_ROWS_HEADER + "t0,ar,,FF,,2\n" + row + "\n")
    with pytest.raises(ValueError, match=re.escape(message)):
        load_team_rows(path)


def team_rows_file(tmp_path, rows):
    path = tmp_path / "teams.csv"
    path.write_text(TEAM_ROWS_HEADER + "".join(row + "\n" for row in rows))
    return path


def test_load_team_rows_names_the_first_of_two_bad_rows_past_the_first_chunk(tmp_path):
    # Lines 1,502 and 1,602 share the second chunk; the first has the error
    # its row checks last, the second the error its row checks first.
    rows = [f"t{i},ar,,FF,30,2" for i in range(2000)]
    rows[1500] = "t1500,ar,,FF,30,9"
    rows[1600] = "t1600,chalkboard,,FF,30,2"
    with pytest.raises(ValueError, match=re.escape("line 1502: team_post_test '9' out of")):
        load_team_rows(team_rows_file(tmp_path, rows))


def test_load_team_rows_names_a_duplicate_first_seen_in_an_earlier_chunk(tmp_path):
    rows = [f"t{i},ar,,FF,30,2" for i in range(2000)]
    rows[1500] = " t5 ,ar,,FF,30,2"
    message = "line 1502: duplicate team_id 't5' (first on line 7)"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_team_rows(team_rows_file(tmp_path, rows))


def test_team_rows_and_summary_errors_count_comment_lines(tmp_path):
    teams = tmp_path / "teams.csv"
    teams.write_text("# run 3\n# tuned\n" + TEAM_ROWS_HEADER + "t0,ar,,FF,,2\nt1,ar,,FF,30,9\n")
    with pytest.raises(ValueError, match=re.escape("line 5: team_post_test '9' out of [0,5]")):
        load_team_rows(teams)
    summary = tmp_path / "summary.csv"
    summary.write_text(
        "# run 3\n# tuned\ngrouping,label,measure,n,mean,sd\n"
        "group,control,post_test,5,1.5,0.5\ngroup,control,bogus,5,1.5,0.5\n"
    )
    with pytest.raises(ValueError, match=re.escape("line 5: unknown measure 'bogus'")):
        load_summary_fixture(summary)


def test_load_team_rows_names_a_missing_column(tmp_path):
    path = tmp_path / "teams.csv"
    path.write_text("team_id,condition,team_post_test\nt0,ar,2\n")
    message = f"{path}: missing mandatory columns ['gender']"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_team_rows(path)


SUMMARY_HEADER = "grouping,label,measure,n,mean,sd\n"


@pytest.mark.parametrize(
    "row, message",
    [
        ("group,control,post_test,5,1.5,-", "line 3: column 'sd' not numeric: '-'"),
        ("group,control,post_test,5,nan,1", "line 3: mean 'nan' out of [0,5]"),
        ("group,control,jva_ratio_pct,5,40,101", "line 3: sd '101' out of [0,100]"),
        # A repeated group used to become a second group with the same label.
        (
            "group, textbook ,jva_ratio_pct,5,1.5,0.5",
            "line 3: duplicate summary ('group', 'textbook', 'jva_ratio_pct') "
            "(first on line 2)",
        ),
        # A blank label used to join the ANOVAs, a blank grouping to be printed.
        ("group,,post_test,5,1.5,0.5", "line 3: empty grouping or label"),
        (" ,control,post_test,5,1.5,0.5", "line 3: empty grouping or label"),
    ],
)
def test_load_summary_fixture_rejects_bad_rows_with_line(tmp_path, row, message):
    path = tmp_path / "summary.csv"
    path.write_text(SUMMARY_HEADER + "group,textbook,jva_ratio_pct,5,1.5,0.5\n" + row + "\n")
    with pytest.raises(ValueError, match=re.escape(message)):
        load_summary_fixture(path)


def stats_command(path):
    """Run ``teamgaze stats --teams path``; raise its error as a ValueError."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(["stats", "--teams", str(path)])
    if code:
        raise ValueError(err.getvalue().removeprefix("error: ").rstrip("\n"))


# Each input table's loader, header and a good row.
TABLES = [
    (read_frame_table, FRAME_HEADER, GOOD_ROW),
    (load_teams, TEAMS_HEADER, "t1,ar,FF,1,2"),
    (load_team_rows, TEAM_ROWS_HEADER, "t0,ar,,FF,,2"),
    (load_summary_fixture, SUMMARY_HEADER, "group,textbook,jva_ratio_pct,5,1.5,0.5"),
]


@pytest.mark.parametrize("load, header, good_row", TABLES)
def test_cell_over_the_csv_field_limit_names_file_and_line(tmp_path, load, header, good_row):
    path = tmp_path / "table.csv"
    path.write_text(header + good_row + "\n" + "x" * 140_000 + "," + good_row + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: line 3: field larger than")):
        load(path)


@pytest.fixture
def field_limit():
    """csv.field_size_limit, restored after the test."""
    default = csv.field_size_limit()
    yield csv.field_size_limit
    csv.field_size_limit(default)


@pytest.mark.parametrize("limit", [None, 1000], ids=["default limit", "limit 1000"])
@pytest.mark.parametrize("chunk_rows", [1024, 1], ids=["same chunk", "later chunk"])
@pytest.mark.parametrize(
    "load, header, bad_row, message",
    [
        (read_frame_table, FRAME_HEADER, "t1,f1,x,2560,1440,p1,1,1,,,1.0,0",
         "line 2: column 'timestamp_s' not numeric: 'x'"),
        (load_teams, TEAMS_HEADER, "t1,ar,XY,1,2", "line 2: unknown gender 'XY'"),
    ],
)
def test_bad_row_before_an_over_long_cell_is_reported_first(
    tmp_path, monkeypatch, field_limit, load, header, bad_row, message, chunk_rows, limit
):
    monkeypatch.setattr(io_report, "_CHUNK_ROWS", chunk_rows)
    if limit:
        field_limit(limit)  # the limit in force when the table is read
    path = tmp_path / "table.csv"
    long_cell = "x" * (field_limit() + 1)
    path.write_text(header + bad_row + "\n" + long_cell + "," + bad_row + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        load(path)
    path.write_text(header + long_cell + "," + bad_row + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: line 2: field larger than")):
        load(path)


@pytest.mark.parametrize("load, header, good_row", TABLES)
def test_comment_row_with_a_quoted_line_break_is_rejected(tmp_path, load, header, good_row):
    # Read as one comment, the quote would swallow the rows up to the next quote.
    path = tmp_path / "table.csv"
    path.write_text(header + good_row + '\n# paused,"camera off\n' + good_row + "\n")
    message = f"{path}: line 3: comment row holds a quoted line break"
    with pytest.raises(ValueError, match=re.escape(message)):
        load(path)


@pytest.mark.parametrize(
    "load, header, good_row", TABLES, ids=["frames", "teams", "team rows", "summary"]
)
def test_quoted_cell_running_to_the_end_of_the_file_ends_on_its_last_line(
    tmp_path, load, header, good_row
):
    path = tmp_path / "table.csv"
    path.write_text(header + good_row.split(",")[0] + ',"ar\nFF\n')
    with pytest.raises(ValueError) as raised:
        load(path)
    assert str(raised.value).startswith(f"{path}: line 3: ")


@pytest.mark.parametrize(
    "load, header, good_row",
    TABLES + [
        (load_config, "# padding the first read buffer\n", "# tuned"),
        (stats_command, TEAM_ROWS_HEADER, "t0,ar,,FF,,2"),
        (stats_command, SUMMARY_HEADER, "group,textbook,jva_ratio_pct,5,1.5,0.5"),
    ],
    ids=["frames", "teams", "team rows", "summary", "config", "stats team rows",
         "stats summary"],
)
def test_each_loader_opens_its_file_once(tmp_path, load, header, good_row):
    # The byte lies past the first 64 KB, and past the first chunk of rows.
    lines = ["# padding the first read buffer"] * 2000 + [header.strip(), good_row]
    path = tmp_path / "table.csv"
    path.write_bytes("\n".join(lines + [""]).encode() + b"\xff\n")
    opened, real_open = [], io.open

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    with mock.patch("builtins.open", counting_open), mock.patch("io.open", counting_open):
        with pytest.raises(ValueError, match="2003: byte 0xff is not UTF-8"):
            load(path)
    assert [Path(f) for f in opened] == [path]


@pytest.mark.parametrize(
    "load, header, good_row",
    TABLES + [
        (stats_report_from_table, TEAM_ROWS_HEADER, "t0,ar,,FF,,2"),
        (load_config, "threshold = 80\n", "scale_mode = absolute"),
    ],
    ids=["frames", "teams", "team rows", "summary", "stats team rows", "config"],
)
def test_a_byte_order_mark_is_not_part_of_the_first_name(tmp_path, load, header, good_row):
    # Excel's "CSV UTF-8" starts the file with one.
    text = header + good_row + "\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert outcome(load, marked) == outcome(load, plain)
    assert outcome(load, plain)[0] == "ok"


@pytest.mark.parametrize(
    "text",
    [
        # Comment and blank lines above the header and between rows.
        "# exported by tracker 2.1\n" + FRAME_HEADER + GOOD_ROW + '\n\n  # pause, "x"\n',
        # Header names with spaces.
        FRAME_HEADER.replace(",", ", ") + GOOD_ROW + "\n",
        # CR LF and lone CR line ends.
        (FRAME_HEADER + GOOD_ROW + "\n").replace("\n", "\r\n"),
        (FRAME_HEADER + GOOD_ROW + "\n").replace("\n", "\r"),
    ],
)
def test_frame_table_follows_the_team_table_contract(tmp_path, text):
    later = "t1,f1,0.0,2560,1440,p2,150,-1,,,1.0,0\n"
    path = tmp_path / "frames.csv"
    path.write_text(text + later)
    plain = read_frame_table(write_frames(tmp_path, [GOOD_ROW, later.strip()], "plain.csv"))
    table = read_frame_table(path)
    line = len(text.splitlines()) + 1
    assert table.row_errors == [
        f"line {line}: gaze (150.0, -1.0) outside 2560x1440 image, row skipped"
    ]
    assert (table.team_ids, table.frame_ids, table.person_ids) == (
        plain.team_ids, plain.frame_ids, plain.person_ids
    )
    assert table.gaze_x.tolist() == plain.gaze_x.tolist() == [100.0]


@pytest.mark.parametrize(
    "load", [read_frame_table, load_teams, load_team_rows, load_summary_fixture,
             stats_report_from_table],
)
@pytest.mark.parametrize(
    "data",
    [b"", b"# only a comment\n\n", b"a,b\n1,2\n", b"team_id,\xff\n"],
    ids=["empty", "comment only", "other columns", "not utf-8"],
)
def test_every_table_error_names_its_file_once(tmp_path, load, data):
    path = tmp_path / "table.csv"
    path.write_bytes(data)
    with pytest.raises(ValueError) as raised:
        load(path)
    message = str(raised.value)
    assert message.startswith(f"{path}: ") and message.count(str(path)) == 1


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize(
    "load, header, good_row",
    TABLES + [(stats_command, TEAM_ROWS_HEADER, "t0,ar,,FF,,2")],
)
def test_non_utf8_byte_is_reported_at_its_line(tmp_path, load, header, good_row, newline):
    # 2,000 comment lines (64 KB) carry the byte past the decoder's first
    # read buffer and the first chunk of rows, after the header.
    lines = ["# padding the first read buffer"] * 2000 + [header.strip(), good_row]
    path = tmp_path / "table.csv"
    path.write_bytes(
        newline.join(lines + [""]).encode() + b"\xff" + (good_row + newline).encode()
    )
    with pytest.raises(ValueError) as raised:
        load(path)
    assert str(raised.value) == (
        f"{path}: line 2003: byte 0xff is not UTF-8 (invalid start byte)"
    )


@pytest.mark.parametrize("byte_line", [51, 2051], ids=["same chunk", "later chunk"])
@pytest.mark.parametrize(
    "load, header, good_row, bad_row, message",
    [
        (read_frame_table, FRAME_HEADER, "t1,f{},0.0,2560,1440,p1,1,1,,,1.0,0",
         "t1,f1,x,2560,1440,p1,1,1,,,1.0,0",
         "line 2: column 'timestamp_s' not numeric: 'x'"),
        (load_teams, TEAMS_HEADER, "t{},ar,FF,1,2", "t1,ar,ZZ,1,2",
         "line 2: unknown gender 'ZZ'"),
        (load_team_rows, TEAM_ROWS_HEADER, "t{},ar,,FF,,2", "t1,ar,,ZZ,,2",
         "line 2: unknown gender 'ZZ'"),
    ],
    ids=["frames", "teams", "team rows"],
)
def test_bad_row_before_a_non_utf8_byte_is_reported_first(
    tmp_path, load, header, good_row, bad_row, message, byte_line
):
    rows = [bad_row] + [good_row.format(i) for i in range(2, byte_line - 1)]
    path = tmp_path / "table.csv"
    path.write_bytes((header + "".join(r + "\n" for r in rows)).encode() + b"\xff\n")
    with pytest.raises(ValueError) as raised:
        load(path)
    assert str(raised.value).startswith(f"{path}: {message}")


def test_load_team_rows_accepts_range_ends(tmp_path):
    path = tmp_path / "teams.csv"
    path.write_text(TEAM_ROWS_HEADER + "t0,AR,,mx,0,5\nt1,textbook,,FF,100,0\n")
    assert teams_of(load_team_rows(path)) == [
        Team("t0", "ar", "MX", 0.0, 5.0),
        Team("t1", "textbook", "FF", 100.0, 0.0),
    ]


RESOLUTIONS = [(1280, 720), (1920, 1080), (2560, 1440)]
NOISE_LINES = ["", "# exported by tracker 2.1", '  #,"quoted, comma"', "\t# pause"]


def with_noise(draw, lines):
    """``lines`` with blank and comment lines drawn in before, between and after."""
    noise = st.lists(st.sampled_from(NOISE_LINES), max_size=2)
    gaps = [draw(noise) for _ in range(len(lines) + 1)]
    return gaps[0] + [x for line, gap in zip(lines, gaps[1:]) for x in [line] + gap]


@st.composite
def frame_tables(draw):
    """Frame-table rows (sorted by team, frame and person, or shuffled) and
    team-table rows (sorted by id) for a few teams, each also with blank and
    comment lines; the noisy team rows are shuffled too. A team is two
    persons, and a third in its discarded frames; one team in four, which
    the reader rejects, names a third in any frame."""
    rows = []
    teams = [f"t{i}" for i in range(draw(st.integers(1, 4)))]
    for team in teams:
        third = draw(st.sampled_from([False, False, False, True]))
        for f in range(draw(st.integers(0, 6))):
            w, h = draw(st.sampled_from(RESOLUTIONS))
            ts = draw(st.sampled_from([0.0, 10.0, 20.0]))
            discarded = draw(st.booleans())
            for person in range(draw(st.integers(1, 3 if third or discarded else 2))):
                # Quarter-pixel gaze points; some lie outside the image.
                x = draw(st.integers(-40, 4 * w + 40)) / 4
                y = draw(st.integers(-40, 4 * h + 40)) / 4
                rows.append(
                    f"{team},f{f},{ts},{w},{h},p{person},{x},{y},,,1.0,{int(discarded)}"
                )
    if draw(st.booleans()):
        rows = draw(st.permutations(rows))
    team_rows = [
        f"{team},{draw(st.sampled_from(['textbook', 'tablet', 'ar']))},"
        f"{draw(st.sampled_from(['FF', 'MM', 'MX']))},"
        f"{draw(st.integers(0, 5))},{draw(st.integers(0, 5))}"
        for team in teams
    ]
    shuffled_team_rows = draw(st.permutations(team_rows))
    noisy = [with_noise(draw, [header.strip()] + lines)
             for header, lines in ((FRAME_HEADER, rows), (TEAMS_HEADER, shuffled_team_rows))]
    return rows, team_rows, noisy


@given(
    frame_tables(),
    st.one_of(st.sampled_from([25.0, 50.0, 100.0]), st.floats(1, 400)),
    st.sampled_from(list(ScaleMode)),
    st.sampled_from(list(DenominatorPolicy)),
)
@settings(max_examples=150, deadline=None)
def test_columnar_ratios_match_the_per_frame_reference(tables, threshold, scale, policy):
    rows, team_rows, (noisy_frame_lines, noisy_team_lines) = tables
    config = JvaConfig(threshold=threshold, scale_mode=scale, denominator_policy=policy)
    with tempfile.TemporaryDirectory() as tmp:
        frames_path = write_frames(Path(tmp), rows)
        teams_path = Path(tmp) / "teams.csv"
        teams_path.write_text(TEAMS_HEADER + "".join(r + "\n" for r in team_rows))
        teams = load_teams(teams_path)
        rejected = outcome(read_frame_table, frames_path)
        if rejected[0] == "error":  # a team names a third person
            assert "is a third person of team" in rejected[1]
            assert reference_outcome(rows, frames_path) == rejected
            return
        table = read_frame_table(frames_path)
        frames_path.write_text("\n".join(noisy_frame_lines) + "\n")
        teams_path.write_text("\n".join(noisy_team_lines) + "\n")
        noisy_table, noisy_teams = read_frame_table(frames_path), load_teams(teams_path)
    noisy_report = analyze_table(noisy_table, noisy_teams, config)
    reference = reference_frame_table(rows)
    assert table.row_errors == reference["row_errors"]
    report = analyze_table(table, teams, config)
    counts, _ = brute_force_jva_count(reference, threshold, scale.value, policy.value)
    ratios = [(t.team_id, t.jva_ratio_pct) for t in teams_of(report.teams)]
    assert ratios == [
        (team, 100.0 * (jva / denominator) if denominator else None)
        for team, (jva, denominator) in sorted(
            (row.split(",")[0], counts.get(row.split(",")[0], (0, 0))) for row in team_rows
        )
    ]
    # Blank and comment lines and the team table's row order change nothing.
    assert [(t.team_id, t.jva_ratio_pct) for t in teams_of(noisy_report.teams)] == ratios
    assert emit_report(noisy_report, fmt="json") == emit_report(report, fmt="json")


# Each table the loaders read: a header and rows to draw from.
FUZZ_TABLES = [
    (FRAME_HEADER, [GOOD_ROW, "t1,f1,0.0,2560,1440,p2,150,150,,,1.0,0"]),
    (TEAMS_HEADER, ["t1,ar,FF,1,2", "t2,tablet,MM,3,4"]),
    (TEAM_ROWS_HEADER, ["t1,tablet,,MM,30,2", "t2,ar,,FF,40,3", "t3,textbook,,MX,,1"]),
    (SUMMARY_HEADER, [
        "group,control,post_test,5,1.5,0.5", "group,experiment,post_test,5,2.5,0.5",
        "condition,ar,post_test,5,2.0,0.5", "condition,tablet,post_test,5,3.0,0.5",
    ]),
    ("threshold = 5", ["scale_mode = absolute", "denominator_policy = all-captured-frames"]),
]
ODD_CELLS = st.one_of(
    st.sampled_from(["-1", "0", "1", "2.5", "1e200", "1e400", "nan", "inf"]),
    st.sampled_from(["", " ", "#", '"', "\r", "\n", "\x00"]),
    # Spellings that read apart as text and as bytes: U+00A0 and U+001F
    # strip as text only, and float() reads "١" (Arabic-Indic one) as text only.
    st.sampled_from(["\xa0t1", "\x1ft2", "\xa0ar", "\x1fFF", "\xa03", "١", "\xa0", "\x1f"]),
    st.text(max_size=3),
)


@st.composite
def fuzz_tables(draw):
    """A table with a few cells replaced, rows cut short and bytes appended."""
    header, rows = draw(st.sampled_from(FUZZ_TABLES))
    rows = draw(st.lists(st.sampled_from(rows), max_size=5, unique=True))
    lines = [header.strip()] + rows
    # (line from the end, cell, new value, cells kept); counting lines from
    # the end edits rows more often than the header.
    keep = st.sampled_from([None] * 3 + [1, 3, 5])
    edits = st.tuples(st.integers(0, 5), st.integers(0, 20), ODD_CELLS, keep)
    for back, cell, value, keep in draw(st.lists(edits, max_size=3)):
        line = -1 - back % len(lines)
        cells = lines[line].split(",")
        cells[cell % len(cells)] = value
        lines[line] = ",".join(cells[:keep])
    return "\n".join(lines).encode("utf-8") + draw(st.just(b"") | st.binary(max_size=2))


fuzz_files = st.one_of(st.binary(max_size=64), fuzz_tables())


TABLE_READERS = (load_teams, load_team_rows, load_summary_fixture, stats_report_from_table,
                 read_frame_table)
# What a table reader's error says after the path.
TABLE_ERROR = re.compile(
    r"line \d+: |missing mandatory columns |empty file, header row required"
    r"|unrecognized table header "
)


@given(fuzz_files)
@settings(max_examples=200, deadline=None)
def test_loaders_raise_only_value_and_os_errors(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        path.write_bytes(data)
        for load in TABLE_READERS:
            try:
                load(path)
            except ValueError as exc:
                assert str(exc).startswith(f"{path}: ")
                # Every row error names its line; none is a bare placeholder.
                assert TABLE_ERROR.match(str(exc).removeprefix(f"{path}: "))
        try:
            load_config(path)
        except (ValueError, OSError):
            pass
        teams = Path(tmp) / "teams.csv"
        teams.write_text(TEAMS_HEADER + "t1,ar,FF,1,2\nt2,tablet,MM,3,4\n")
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            assert main(["stats", "--teams", str(path)]) in (0, 1)
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(["analyze", "--frames", str(path), "--teams", str(teams),
                         "--format", "json"])
    assert code in (0, 1)
    if code == 0:
        ratios = [team["jva_ratio_pct"] for team in json.loads(out.getvalue())["teams"]]
        assert all(r is None or 0 <= r <= 100 for r in ratios)


# What the tokenizer tables are made of: each character csv.reader or the
# comment rule treats apart, and plain cell text.
TOKENIZER_CHARS = [",", "\n", "\r", '"', "#", " ", "\0", "x", "1", ".", "é"]
READ_CSV = io_report._read_csv
# Every column an input table names.
TABLE_COLUMNS = sorted(
    {name for header, _ in FUZZ_TABLES[:4] for name in header.strip().split(",")}
)


# Byte sequences that are not UTF-8, one for each reason the decoder gives:
# an invalid start byte, 2-, 3- and 4-byte sequences cut short, a lone
# continuation byte, an encoded surrogate and an overlong encoding.
NOT_UTF8 = [b"\xff", b"\xe2\x82", b"\xf0\x9f\x98", b"\x80", b"\xed\xa0\x80", b"\xc0\x80"]


@st.composite
def tokenizer_files(draw):
    """A table's header, then good rows, rows with a cell replaced, comment
    rows and bare text drawn from TOKENIZER_CHARS, each ended by LF, CR LF,
    CR or nothing; maybe with one sequence of ``NOT_UTF8`` bytes."""
    header, rows = draw(st.sampled_from(FUZZ_TABLES[:4]))
    noise = st.text(TOKENIZER_CHARS, max_size=8)
    end = st.sampled_from(["\n"] * 4 + ["\r\n", "\r", ""])
    lines = [header.strip()]
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["good", "edited", "comment", "noise"]))
        line = draw(noise) if kind == "noise" else draw(st.sampled_from(rows))
        if kind == "comment":
            line = draw(st.sampled_from(["", " ", "\t "])) + "#" + draw(noise)
        elif kind == "edited":
            cells = line.split(",")
            cells[draw(st.integers(0, len(cells) - 1))] = draw(noise)
            line = ",".join(cells[: draw(st.sampled_from([None, 1, 3, 20]))])
        lines.append(line)
    data = "".join(line + draw(end) for line in lines).encode()
    if draw(st.integers(0, 4)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(NOT_UTF8)) + data[at:]
    return data


def drain(chunks) -> tuple:
    """A column-form reader's header, each row's line and cells as text (a
    plain block's cells are bytes), and the message of the error it ends
    with."""
    header, rows, error = None, [], None
    try:
        header = next(chunks)
        for lines, cells, short in chunks:
            assert short == any(None in values for values in cells.values())
            for i, line in enumerate(lines.tolist()):
                rows.append((line, {
                    name: values[i].decode() if isinstance(values[i], bytes) else values[i]
                    for name, values in cells.items()
                }))
    except ValueError as exc:
        error = str(exc)
    return header, rows, error


def outcome(load, path) -> tuple:
    """What a loader returns, as text that compares NaN equal, or its error."""
    try:
        result = load(path)
    except ValueError as exc:
        return "error", str(exc)
    if isinstance(result, (io_report.FrameTable, io_report.TeamTable)):
        return "ok", repr([
            value.tolist() if hasattr(value, "tolist") else value
            for value in vars(result).values()
        ])
    return "ok", repr(result)


# Team tables whose lines end in a lone CR: plain, with a quoted cell
# holding a CR across chunk edges, with a bad byte, and with LF-ended lines
# that each hold several CR-ended ones.
CR_TEAM_ROWS = [f"t{i},ar,FF,1,2" for i in range(1, 9)]
CR_TABLES = [
    "\r".join([TEAMS_HEADER.strip(), *CR_TEAM_ROWS, ""]).encode(),
    "\r".join([TEAMS_HEADER.strip(), *CR_TEAM_ROWS[:3], 't4,"a\rr\r",FF,1,2', ""]).encode(),
    "\r".join([TEAMS_HEADER.strip(), *CR_TEAM_ROWS, ""]).encode().replace(b"t7", b"t\xff"),
    ("\r".join([TEAMS_HEADER.strip(), *CR_TEAM_ROWS[:3]]) + "\n"
     + "\r".join(CR_TEAM_ROWS[3:]) + "\r\n").encode(),
]


@pytest.mark.parametrize("chunk_rows", [1, 2, 3, 1024])
@given(data=tokenizer_files(), limit=st.sampled_from([None, 4, 16]))
@settings(max_examples=150, deadline=None)
@example(data=CR_TABLES[0], limit=None)
@example(data=CR_TABLES[1], limit=None)
@example(data=CR_TABLES[2], limit=None)
@example(data=CR_TABLES[3], limit=None)
def test_column_chunks_match_the_row_form_reader(chunk_rows, data, limit):
    """Every loader reads a table through the column-form reader as it does
    through the row-form one it replaced: the same header, cells, lines and
    error, at any chunk size and csv field limit."""
    default_limit = csv.field_size_limit()
    try:
        if limit:
            csv.field_size_limit(limit)
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(io_report, "_CHUNK_ROWS", chunk_rows):
            path = Path(tmp) / "table.csv"
            path.write_bytes(data)
            for load in TABLE_READERS:
                calls = []

                def spy(*args):
                    calls.append(args)
                    return READ_CSV(*args)

                with mock.patch.object(io_report, "_read_csv", spy):
                    got = outcome(load, path)
                with mock.patch.object(io_report, "_read_csv", read_csv_columns):
                    assert got == outcome(load, path)
                for _, columns, *_ in calls:
                    # The cells of every column, read by the loader or not;
                    # none is mandatory for a loader that picks its columns.
                    columns = () if callable(columns) else columns
                    assert drain(READ_CSV(path, columns, TABLE_COLUMNS)) == drain(
                        read_csv_columns(path, columns, TABLE_COLUMNS)
                    )
    finally:
        csv.field_size_limit(default_limit)


# Spellings of a cell that read apart as text and as bytes: U+00A0, U+3000
# and U+001F strip as text only, and float() reads U+00A0 and U+3000 as
# spaces and Arabic-Indic digits ("١") as digits as text only.
TEXT_ONLY_SPELLINGS = ["\xa0{}", "\x1f{}", "{}　", "١", "\xa0١　", "\xa0"]


@pytest.mark.parametrize("spelling", TEXT_ONLY_SPELLINGS)
@pytest.mark.parametrize("table", range(4), ids=["frames", "teams", "team rows", "summary"])
def test_a_plain_block_s_bytes_read_as_its_text(tmp_path, table, spelling):
    """A plain block's cells are bytes; each loader reads them as the text
    the row-form reader gives, in a column of one cell and among others."""
    header, rows = FUZZ_TABLES[table]
    path = tmp_path / "table.csv"
    for column in range(len(header.split(","))):
        for edited in ([0], range(len(rows))):
            lines = [line.split(",") for line in rows]
            for i in edited:
                lines[i][column] = spelling.format(lines[i][column])
            path.write_text(header.strip() + "\n" + "".join(",".join(c) + "\n" for c in lines))
            for load in TABLE_READERS:
                got = outcome(load, path)
                with mock.patch.object(io_report, "_read_csv", read_csv_columns):
                    assert got == outcome(load, path)


def csv_reader_spy(fed: list):
    """``csv.reader``, noting in ``fed`` each line it is fed."""
    real = csv.reader

    def reader(lines, *args, **kwargs):
        def feed():
            for line in lines:
                fed.append(line)
                yield line

        return real(feed(), *args, **kwargs)

    return reader


# A team table of 24 lines, read as line 1, then 4 lines at a time (2-5,
# 6-9, ...), and each test's edits of it.
QUOTE_TABLE = [TEAMS_HEADER.strip()] + [f"t{i},ar,FF,1,2" for i in range(1, 24)]
CROSSING_QUOTE = {9: 't8,"ar', **{line: "x" for line in range(10, 15)}, 15: 'MX",FF,1,2'}


QUOTE_CASES = {
    "no quote": ({}, [1], 24),
    "quote closing on its line": ({8: '"t7",ar,FF,1,2'}, [1, *range(6, 10)], 24),
    "quote across two blocks": (CROSSING_QUOTE, [1, *range(6, 18)], 24),
    "blank line mid-block": ({7: ""}, [1, *range(6, 10)], 24),
    # The read stops at the bad byte's row.
    "then a bad byte": (
        {**CROSSING_QUOTE, 23: "t22,\xff,FF,1,2"}, [1, *range(6, 18), 22, 23], 22
    ),
}


@pytest.mark.parametrize(
    "edits, fed, last_row, newline",
    [(*case, "\n") for case in QUOTE_CASES.values()]
    + [(*case, "\r") for case in QUOTE_CASES.values()],
    ids=[*QUOTE_CASES, *(f"{name}, lone CR" for name in QUOTE_CASES)],
)
def test_csv_reader_reads_only_the_blocks_a_quote_spans(
    tmp_path, monkeypatch, edits, fed, last_row, newline
):
    """Past the header's block, csv.reader reads only the blocks a quoted
    cell spans (``fed``: line numbers); the blocks after it go back to the
    comma split, whether lines end in LF or a lone CR. Rows, lines and
    errors are the row-form reader's."""
    monkeypatch.setattr(io_report, "_CHUNK_ROWS", 4)
    lines = [edits.get(number, line) for number, line in enumerate(QUOTE_TABLE, 1)]
    path = tmp_path / "teams.csv"
    path.write_bytes("".join(line + newline for line in lines).encode("latin-1"))
    read = []
    with mock.patch.object(csv, "reader", csv_reader_spy(read)):
        got = drain(READ_CSV(path, io_report.TEAM_COLUMNS))
    assert got == drain(read_csv_columns(path, io_report.TEAM_COLUMNS))
    assert got[1][-1][0] == last_row
    text = path.read_bytes().decode("utf-8", "surrogateescape").splitlines(True)
    assert read == [text[number - 1] for number in fed]


# Cells a frame row may hold in place of its own, by column: stripped
# duplicates of other ids, values each check of a row rejects, and
# spellings that read apart as text and as bytes (U+00A0 and U+001F strip
# as text only; float() reads U+00A0 and Arabic-Indic digits as text only).
ODD_FRAME_CELLS = {
    "team_id": ["  ", " t0", "t1 ", "\xa0t0", "\x1ft1"],
    "frame_id": ["", " f0", "f1 "],
    "timestamp_s": ["x", "nan", "inf", "5.0", "\xa05.0", "١٠"],
    "image_w": ["x", "inf", "0", "0.5", "1280.7", "640"],
    "image_h": ["nan", "-720", "720.9", "1e400"],
    "person_id": ["p0", " p1", ""],
    "gaze_x": ["-1", "nan", "x", "1e9", "0"],
    "gaze_y": ["-0.25", "inf", ""],
    "discarded": ["maybe", " TRUE", "", "1", "False", "\xa01"],
}
FRAME_TABLE_COLUMNS = FRAME_HEADER.strip().split(",")


@st.composite
def ordered_or_shuffled_frame_rows(draw):
    """Frame-table rows of a few teams, sorted by team, frame and person or
    shuffled, a few of them repeated or holding an odd cell
    (``ODD_FRAME_CELLS``). A team is two persons, and a third in its
    discarded frames; one team in four names a third in any frame."""
    rows = []
    for team in range(draw(st.integers(1, 3))):
        w, h = draw(st.sampled_from(RESOLUTIONS))
        third = draw(st.sampled_from([False, False, False, True]))
        for frame in draw(st.lists(st.integers(0, 3), max_size=4, unique=True)):
            ts, discarded = draw(st.sampled_from(["0.0", "10.0"])), draw(st.booleans())
            persons = st.integers(0, 2 if third or discarded else 1)
            for person in sorted(draw(st.sets(persons, min_size=1))):
                x = draw(st.integers(-4, 4 * w + 4)) / 4
                y = draw(st.integers(-4, 4 * h + 4)) / 4
                rows.append([f"t{team}", f"f{frame}", ts, str(w), str(h), f"p{person}",
                             str(x), str(y), "", "", "1.0", str(int(discarded))])
    for _ in range(draw(st.sampled_from([0, 0, 1, 2])) if rows else 0):
        i = draw(st.integers(0, len(rows) - 1))
        column = draw(st.sampled_from(["repeat", *sorted(ODD_FRAME_CELLS)]))
        if column == "repeat":  # the row's person twice in its frame
            rows.insert(i + 1, list(rows[i]))
        else:
            cell = draw(st.sampled_from(ODD_FRAME_CELLS[column]))
            rows[i][FRAME_TABLE_COLUMNS.index(column)] = cell
    if draw(st.booleans()):
        rows = draw(st.permutations(rows))
    return [",".join(row) for row in rows]


def reference_outcome(rows, path) -> tuple:
    """``outcome`` for the reference frame table of ``rows``, written at ``path``."""
    try:
        return "ok", repr(list(reference_frame_table(rows).values()))
    except ValueError as exc:
        return "error", f"{path}: {exc}"


@pytest.mark.parametrize("chunk_rows", [1, 3, 1024])
@given(rows=ordered_or_shuffled_frame_rows())
@settings(max_examples=100, deadline=None)
def test_frame_table_matches_the_row_at_a_time_reference(chunk_rows, rows):
    """Ordered or not, with constant columns or not, at any chunk size, a
    frame table reads as the reference groups it row by row, or raises the
    reference's error."""
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(io_report, "_CHUNK_ROWS", chunk_rows):
        path = write_frames(Path(tmp), rows)
        assert outcome(read_frame_table, path) == reference_outcome(rows, path)


def constant_rows(column: str, cell: str) -> list[str]:
    """Four good rows of two frames, every one holding ``cell`` in ``column``."""
    rows = [f"t1,f{f},{f}.0,1920,1080,p{p},{100 + p},{200 + p},,,1.0,0".split(",")
            for f in (1, 2) for p in (1, 2)]
    for row in rows:
        row[FRAME_TABLE_COLUMNS.index(column)] = cell
    return [",".join(row) for row in rows]


@pytest.mark.parametrize("chunk_rows", [1024, 2], ids=["one chunk", "two chunks"])
@pytest.mark.parametrize(
    "column, cell, message",
    [
        ("image_w", "x", "line 2: column 'image_w' not numeric: 'x'"),
        ("image_w", "inf", "line 2: column 'image_w' not finite: 'inf'"),
        ("image_w", "0", "line 2: non-positive image dimensions"),
        ("discarded", "maybe", "line 2: discarded 'maybe' is not empty, 0, 1, true or false"),
        ("team_id", "  ", "line 2: empty team_id or frame_id"),
    ],
)
def test_a_column_of_one_bad_cell_fails_at_its_first_row(
    tmp_path, monkeypatch, chunk_rows, column, cell, message
):
    monkeypatch.setattr(io_report, "_CHUNK_ROWS", chunk_rows)
    rows = constant_rows(column, cell)
    path = write_frames(tmp_path, rows)
    assert outcome(read_frame_table, path) == reference_outcome(rows, path) == (
        "error", f"{path}: {message}"
    )


@pytest.mark.parametrize("chunk_rows", [1024, 2], ids=["one chunk", "two chunks"])
def test_a_column_of_one_nan_timestamp_or_outside_gaze_loads(tmp_path, monkeypatch, chunk_rows):
    monkeypatch.setattr(io_report, "_CHUNK_ROWS", chunk_rows)
    rows = constant_rows("timestamp_s", "nan")
    path = write_frames(tmp_path, rows)
    assert outcome(read_frame_table, path) == reference_outcome(rows, path)
    table = read_frame_table(path)
    assert table.frame_ids == ["f1", "f2"] and all(map(math.isnan, table.timestamp.tolist()))
    table = read_frame_table(write_frames(tmp_path, constant_rows("gaze_x", "-1")))
    assert table.frame_ids == [] and table.gaze_x.tolist() == []
    assert table.row_errors == [
        f"line {line}: gaze (-1.0, {y}) outside 1920x1080 image, row skipped"
        for line, y in zip(range(2, 6), (201.0, 202.0, 201.0, 202.0))
    ]
