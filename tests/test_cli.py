import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from teamgaze import io_report
from teamgaze.cli import MAX_ROW_WARNINGS, _build_parser, main
from teamgaze.io_report import read_frame_table
from teamgaze.jva import DenominatorPolicy, ScaleMode
from teamgaze.synth import SynthSpec, generate


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def synth_inputs(tmp_path, capsys, **kwargs):
    args = ["synth", "--out-dir", str(tmp_path / "data"), "--teams", "6",
            "--frames-per-team", "40", "--seed", "3"]
    for key, value in kwargs.items():
        args += [f"--{key.replace('_', '-')}", str(value)]
    code, _, _ = run(capsys, args)
    assert code == 0
    return tmp_path / "data" / "frames.csv", tmp_path / "data" / "teams.csv"


def test_analyze_writes_report(tmp_path, capsys):
    frames, teams = synth_inputs(tmp_path, capsys, jva_probability="0.5")
    out = tmp_path / "report.json"
    code, _, _ = run(
        capsys,
        ["analyze", "--frames", str(frames), "--teams", str(teams),
         "--out", str(out), "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["teams"]) == 6


OUTSIDE, NAN = ("-1", "10"), ("5", "nan")  # gaze cells of a skipped row


@pytest.mark.parametrize(
    "skipped, gaze, chunk_rows",
    [
        pytest.param(MAX_ROW_WARNINGS, [OUTSIDE], None, id=str(MAX_ROW_WARNINGS)),
        pytest.param(MAX_ROW_WARNINGS + 3, [OUTSIDE], None, id=str(MAX_ROW_WARNINGS + 3)),
        pytest.param(MAX_ROW_WARNINGS + 3, [OUTSIDE, NAN], None, id="nan gaze among them"),
        # Blocks of 3 lines: the skipped rows span 8 chunks.
        pytest.param(MAX_ROW_WARNINGS + 3, [OUTSIDE], 3, id="across chunk edges"),
    ],
)
def test_analyze_warns_about_the_first_skipped_rows_then_counts_the_rest(
    tmp_path, capsys, monkeypatch, skipped, gaze, chunk_rows
):
    """stderr, byte for byte: the first skipped rows' warnings (row ``i``'s
    gaze cells are ``gaze[i % len(gaze)]``), then one line counting the rest."""
    if chunk_rows:
        monkeypatch.setattr(io_report, "_CHUNK_ROWS", chunk_rows)
    cells = [gaze[i % len(gaze)] for i in range(skipped + 1)]
    frames = tmp_path / "frames.csv"
    frames.write_text(
        "team_id,frame_id,timestamp_s,image_w,image_h,person_id,gaze_x,gaze_y\n"
        "t1,f0,0.0,100,100,p1,10,10\n"
        + "".join(f"t1,f{i},{i}.0,100,100,p1,{x},{y}\n" for i, (x, y) in enumerate(cells) if i)
    )
    teams = tmp_path / "teams.csv"
    teams.write_text("team_id,condition,gender,post_test_1,post_test_2\nt1,ar,FF,1,2\n")
    code, _, err = run(capsys, ["analyze", "--frames", str(frames), "--teams", str(teams)])
    assert code == 0
    assert err == "".join(
        f"warning: {frames}: line {i + 2}: gaze ({float(cells[i][0])}, {float(cells[i][1])}) "
        "outside 100x100 image, row skipped\n"
        for i in range(1, MAX_ROW_WARNINGS + 1)
    ) + (
        f"warning: {frames}: 3 more rows skipped: gaze point outside the image\n"
        if skipped > MAX_ROW_WARNINGS
        else ""
    )
    assert len(read_frame_table(frames).row_errors) == skipped


def test_analyze_negative_threshold_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--frames", "f.csv", "--teams", "t.csv",
              "--threshold", "-1"])
    assert exc.value.code == 2


def test_analyze_jva_flag_choices_are_the_enum_values():
    commands = next(a for a in _build_parser()._actions if a.dest == "command")
    choices = {a.dest: a.choices for a in commands.choices["analyze"]._actions}
    assert choices["scale_mode"] == [m.value for m in ScaleMode]
    assert choices["denominator_policy"] == [p.value for p in DenominatorPolicy]


@pytest.mark.parametrize("command", ["analyze", "stats"])
def test_format_choices_are_the_report_format_table(command):
    commands = next(a for a in _build_parser()._actions if a.dest == "command")
    fmt = next(a for a in commands.choices[command]._actions if a.dest == "format")
    assert fmt.choices == list(io_report.REPORT_FORMATS)
    assert fmt.choices == ["json", "text", "csv-bundle"]
    assert fmt.default == io_report.DEFAULT_REPORT_FORMAT == "text"


@pytest.mark.parametrize("value", ["nan", "inf", "0"])
def test_analyze_non_finite_threshold_is_usage_error(value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--frames", "f.csv", "--teams", "t.csv",
              "--threshold", value])
    assert exc.value.code == 2
    assert "positive and finite" in capsys.readouterr().err


def test_analyze_missing_file_is_data_error(tmp_path, capsys):
    code, _, err = run(
        capsys,
        ["analyze", "--frames", str(tmp_path / "nope.csv"),
         "--teams", str(tmp_path / "nope2.csv")],
    )
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("command", ["analyze", "stats"])
def test_csv_bundle_without_out_is_usage_error_before_any_input(tmp_path, capsys, command):
    missing = str(tmp_path / "nope.csv")
    inputs = {"analyze": ["--frames", missing, "--teams", missing], "stats": ["--teams", missing]}
    argv = [command, *inputs[command], "--format", "csv-bundle"]
    assert run(capsys, argv) == (
        2, "", "error: --format csv-bundle needs --out, the bundle's directory\n"
    )


@pytest.mark.parametrize(
    "row, message",
    [
        ("t1,f1,0.0,2560,1440", "line 3: short row, no person_id cell"),
        ("t1,f1,0.0,inf,1440,p1,1,1,,,1.0,0", "line 3: column 'image_w' not finite: 'inf'"),
    ],
)
def test_analyze_malformed_frame_row_is_data_error(tmp_path, capsys, row, message):
    frames = tmp_path / "frames.csv"
    frames.write_text(
        "team_id,frame_id,timestamp_s,image_w,image_h,person_id,gaze_x,gaze_y,"
        "head_x,head_y,confidence,discarded\n\n" + row + "\n"
    )
    teams = tmp_path / "teams.csv"
    teams.write_text("team_id,condition,gender,post_test_1,post_test_2\nt1,ar,FF,1,2\n")
    assert run(capsys, ["analyze", "--frames", str(frames), "--teams", str(teams)]) == (
        1, "", f"error: {frames}: {message}\n"
    )


FRAME_COLUMNS_HEAD = "team_id,frame_id,timestamp_s,image_w,image_h,person_id"


@pytest.mark.parametrize(
    "text, message",
    [
        # Read from the second gaze_x, the team would score 0% at --threshold 50.
        ("# capture 3\n" + FRAME_COLUMNS_HEAD + ",gaze_x,gaze_y,gaze_x\n"
         "t1,f1,0.0,100,100,p1,10,10,90\nt1,f1,0.0,100,100,p2,10,10,10\n",
         "line 2: header names column 'gaze_x' more than once"),
        # Ignored, the column would leave the flagged frame counted: 50%, not 100%.
        (FRAME_COLUMNS_HEAD + ",gaze_x,gaze_y,Discarded\n"
         "t1,f1,0.0,100,100,p1,10,10,0\nt1,f1,0.0,100,100,p2,10,10,0\n"
         "t1,f2,1.0,100,100,p1,10,10,1\nt1,f2,1.0,100,100,p2,90,90,1\n",
         "line 1: header column 'Discarded' is not 'discarded': "
         "column names are case-sensitive"),
        # An empty person would make a pair with p1.
        (FRAME_COLUMNS_HEAD + ",gaze_x,gaze_y\n"
         "t1,f1,0.0,100,100,p1,10,10\nt1,f1,0.0,100,100, ,10,10\n",
         "line 3: empty person_id"),
    ],
    ids=["gaze_x twice", "Discarded", "empty person_id"],
)
def test_analyze_rejects_a_misleading_header_or_person(tmp_path, capsys, text, message):
    frames = tmp_path / "frames.csv"
    frames.write_text(text)
    teams = tmp_path / "teams.csv"
    teams.write_text("team_id,condition,gender,post_test_1,post_test_2\nt1,ar,FF,1,2\n")
    argv = ["analyze", "--frames", str(frames), "--teams", str(teams), "--threshold", "50"]
    assert run(capsys, argv) == (1, "", f"error: {frames}: {message}\n")


def test_analyze_rejects_a_team_that_names_a_third_person(tmp_path, capsys):
    """p1/p2 in f0, p3/p4 in f1 and p1/p2/p3 in f2: the team's first row of a
    third person is an error, not a ratio."""
    frames = tmp_path / "frames.csv"
    frames.write_text(
        "team_id,frame_id,timestamp_s,image_w,image_h,person_id,gaze_x,gaze_y\n"
        + "".join(
            f"t1,{frame},{frame[1]}.0,100,100,{person},10,10\n"
            for frame, persons in (("f0", "p1 p2"), ("f1", "p3 p4"), ("f2", "p1 p2 p3"))
            for person in persons.split()
        )
    )
    teams = tmp_path / "teams.csv"
    teams.write_text("team_id,condition,gender,post_test_1,post_test_2\nt1,ar,FF,1,2\n")
    assert run(capsys, ["analyze", "--frames", str(frames), "--teams", str(teams)]) == (
        1, "", f"error: {frames}: line 4: person_id 'p3' is a third person of team 't1' "
        "(a team is two people)\n"
    )


def test_analyze_rejects_frames_of_a_team_the_team_table_lacks(tmp_path, capsys):
    frames = tmp_path / "frames.csv"
    frames.write_text(
        "team_id,frame_id,timestamp_s,image_w,image_h,person_id,gaze_x,gaze_y\n"
        "tX,f0,0.0,100,100,p1,10,10\ntX,f0,0.0,100,100,p2,10,10\n"
    )
    teams = tmp_path / "teams.csv"
    teams.write_text("team_id,condition,gender,post_test_1,post_test_2\nt1,ar,FF,1,2\n")
    assert run(capsys, ["analyze", "--frames", str(frames), "--teams", str(teams)]) == (
        1, "", "error: frames reference unknown teams: ['tX']\n"
    )


def test_stats_on_bundled_fixture_prints_published_f_values(capsys):
    code, out, _ = run(capsys, ["stats"])
    assert code == 0
    reported = {
        float(m) for m in re.findall(r"= (\d+\.\d+), p", out)
    }
    for expected in (6.65, 7.56, 3.26, 1.10, 1.29):
        assert any(abs(v - expected) <= 0.05 for v in reported), expected


def test_stats_accepts_per_team_table(tmp_path, capsys):
    table = tmp_path / "teams_results.csv"
    with open(table, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["team_id", "condition", "group", "gender", "jva_ratio_pct", "team_post_test"]
        )
        rng = np.random.default_rng(5)
        conditions = ["textbook", "tablet", "ar"]
        genders = ["FF", "MM", "MX"]
        for i in range(12):
            writer.writerow(
                [f"t{i:02d}", conditions[i % 3], "", genders[i % 3],
                 f"{rng.uniform(10, 70):.2f}", f"{rng.uniform(0, 5):.2f}"]
            )
    code, out, _ = run(capsys, ["stats", "--teams", str(table)])
    assert code == 0
    assert "Correlation" in out


def test_stats_with_zero_pooled_sd_keeps_the_report(tmp_path, capsys):
    table = tmp_path / "t.csv"
    table.write_text(
        "team_id,condition,gender,jva_ratio_pct,team_post_test\n"
        + "".join(
            f"t{i},{cond},{'FF MM MX'.split()[i % 3]},{ratio},{post}\n"
            for i, (cond, ratio, post) in enumerate(
                [("textbook", 30, 1)] * 3 + [("tablet", 50, 3), ("ar", 50, 3)] * 3
            )
        )
    )
    code, out, err = run(capsys, ["stats", "--teams", str(table)])
    assert (code, err) == (0, "")
    assert "group_jva_ratio_pct       F(1,7) = inf, p = 0.000" in out
    assert "Cohen's d = NA" in out
    assert "note: cohen's d for group_post_test control vs experiment not reported" in out


SUMMARY_HEADER = "grouping,label,measure,n,mean,sd\n"
SUMMARY_ROW = "group,control,post_test,5,1.5,0.5\n"
TEAM_ROWS_HEADER = "team_id,condition,group,gender,jva_ratio_pct,team_post_test\n"


@pytest.mark.parametrize(
    "text, message",
    [
        (SUMMARY_HEADER + SUMMARY_ROW + "group,experiment,post_test,x,1,1\n",
         "line 3: column 'n' not numeric: 'x'"),
        (SUMMARY_HEADER + "# note\n" + SUMMARY_ROW + "group,experiment,post_test\n",
         "line 4: column 'n' not numeric: ''"),
        (SUMMARY_HEADER + SUMMARY_ROW + "group,experiment,post_test,1,1,1\n",
         "line 3: insufficient data: group needs n >= 2"),
        (SUMMARY_HEADER + SUMMARY_ROW + "group,experiment,post_test,5,1,-1\n",
         "line 3: sd '-1' out of [0,5]"),
        (SUMMARY_HEADER + SUMMARY_ROW + "group,experiment,post_test,5,1e200,1\n",
         "line 3: mean '1e200' out of [0,5]"),
        (SUMMARY_HEADER + SUMMARY_ROW + SUMMARY_ROW,
         "line 3: duplicate summary ('group', 'control', 'post_test') "
         "(first on line 2)"),
    ],
)
def test_stats_bad_table_is_data_error_with_line(tmp_path, capsys, text, message):
    table = tmp_path / "table.csv"
    table.write_text(text)
    expected = f"error: {table}: {message}\n"
    assert run(capsys, ["stats", "--teams", str(table)]) == (1, "", expected)


def test_stats_rejects_a_ratio_column_named_in_another_case(tmp_path, capsys):
    # Read as a table without ratios, it would drop the JVA ANOVAs and the
    # correlation without a note.
    table = tmp_path / "teams.csv"
    table.write_text(
        TEAM_ROWS_HEADER.replace("jva_ratio_pct", "JVA_ratio_pct")
        + "".join(f"t{i},{c},,FF,{10 * i},{i % 5}\n" for i, c in enumerate(["ar", "tablet"] * 3))
    )
    expected = (
        f"error: {table}: line 1: header column 'JVA_ratio_pct' is not 'jva_ratio_pct': "
        "column names are case-sensitive\n"
    )
    assert run(capsys, ["stats", "--teams", str(table)]) == (1, "", expected)


SUMMARY_ROWS = SUMMARY_ROW + "group,experiment,post_test,5,2.5,0.5\n"
TEAM_ROWS = "".join(f"t{i},{c},,FF,{10 * i},{i % 5}\n"
                    for i, c in enumerate(["ar", "tablet"] * 2))


@pytest.mark.parametrize(
    "plain, extra, message",
    [
        # Another kind's column, named in another case, is a column this kind ignores.
        (SUMMARY_HEADER + SUMMARY_ROWS, "Gender", None),
        (TEAM_ROWS_HEADER + TEAM_ROWS, "Label", None),
        (TEAM_ROWS_HEADER + TEAM_ROWS, "JVA_ratio_pct",
         "line 1: header column 'JVA_ratio_pct' is not 'jva_ratio_pct': "
         "column names are case-sensitive"),
        (TEAM_ROWS_HEADER + TEAM_ROWS, "team_id",
         "line 1: header names column 'team_id' more than once"),
    ],
    ids=["summary Gender", "per-team Label", "per-team JVA_ratio_pct", "per-team team_id"],
)
def test_stats_checks_a_header_by_the_kind_of_table_it_picks(
    tmp_path, capsys, plain, extra, message
):
    """A column added at the end of a table: a name the table's kind does
    not read is ignored, and the kind's own header rules still apply."""
    table, plain_table = tmp_path / "table.csv", tmp_path / "plain.csv"
    plain_table.write_text(plain)
    header, *rows = plain.splitlines()
    table.write_text("".join(f"{line},{cell}\n" for line, cell in zip(
        [header, *rows], [extra, *["x"] * len(rows)]
    )))
    code, out, err = run(capsys, ["stats", "--teams", str(table), "--format", "json"])
    if message is not None:
        assert (code, out, err) == (1, "", f"error: {table}: {message}\n")
        return
    assert (code, err) == (0, "")
    assert out == run(capsys, ["stats", "--teams", str(plain_table), "--format", "json"])[1]
    assert len(json.loads(out)["teams"]) == (4 if extra == "Label" else 0)


def test_stats_reports_a_bad_row_before_a_later_non_utf8_byte(tmp_path, capsys):
    table = tmp_path / "teams.csv"
    rows = ["t1,ar,,ZZ,,2"] + [f"t{i},ar,,FF,,2" for i in range(2, 50)]
    table.write_bytes((TEAM_ROWS_HEADER + "".join(r + "\n" for r in rows)).encode() + b"\xff\n")
    expected = f"error: {table}: line 2: unknown gender 'ZZ', expected FF | MM | MX\n"
    assert run(capsys, ["stats", "--teams", str(table)]) == (1, "", expected)


def test_stats_notes_an_anova_whose_n_overflows_a_float(tmp_path, capsys):
    table = tmp_path / "table.csv"
    huge_n = 10**400
    table.write_text(SUMMARY_HEADER + SUMMARY_ROW + f"group,experiment,post_test,{huge_n},1,1\n")
    code, out, err = run(capsys, ["stats", "--teams", str(table)])
    assert (code, err) == (0, "")
    assert "note: anova group_post_test skipped: int too large to convert to float" in out


def test_stats_reads_a_header_with_spaces(tmp_path, capsys):
    table = tmp_path / "table.csv"
    table.write_text(
        "team_id, condition, gender, team_post_test\n"
        + "".join(f"t{i}, {c}, FF, {i % 5}\n" for i, c in enumerate(["ar", "tablet"] * 3))
    )
    code, out, err = run(capsys, ["stats", "--teams", str(table)])
    assert (code, err) == (0, "")
    assert "Summary by condition" in out


def test_over_long_cell_is_data_error(tmp_path, capsys):
    long_cell = "x" * 140_000
    frames = tmp_path / "frames.csv"
    frames.write_text(
        "team_id,frame_id,timestamp_s,image_w,image_h,person_id,gaze_x,gaze_y\n"
        f"t1,f1,0,2560,1440,{long_cell},1,1\n"
    )
    teams = tmp_path / "teams.csv"
    teams.write_text(TEAM_ROWS_HEADER + f"{long_cell},ar,,FF,30,2\n")
    for argv, path in (
        (["analyze", "--frames", str(frames), "--teams", str(teams)], frames),
        (["stats", "--teams", str(teams)], teams),
    ):
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {path}: line 2: field larger than field limit")


def test_synth_then_analyze_round_trip(tmp_path, capsys):
    frames, teams = synth_inputs(tmp_path, capsys, jva_probability="0.4")
    truth = json.loads((tmp_path / "data" / "ground_truth.json").read_text())
    out = tmp_path / "report.json"
    code, _, _ = run(
        capsys,
        ["analyze", "--frames", str(frames), "--teams", str(teams),
         "--out", str(out), "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out.read_text())
    for row in payload["teams"]:
        expected = 100.0 * truth["team_ratios"][row["team_id"]]
        assert row["jva_ratio_pct"] == pytest.approx(expected, abs=0.005)


def test_synth_per_condition_probability_flags(tmp_path, capsys):
    code, _, _ = run(
        capsys,
        ["synth", "--out-dir", str(tmp_path / "d"), "--teams", "3",
         "--frames-per-team", "10",
         "--jva-probability", "textbook=0.2",
         "--jva-probability", "tablet=0.8",
         "--jva-probability", "ar=0.5"],
    )
    assert code == 0


def test_synth_invalid_probability_is_usage_error(tmp_path, capsys):
    code, _, err = run(
        capsys,
        ["synth", "--out-dir", str(tmp_path / "d"), "--jva-probability", "1.5"],
    )
    assert code == 2
    assert "error:" in err


def test_synth_image_too_small_is_usage_error(tmp_path, capsys):
    # A 400x300 image cannot hold a partner point 300 px from every target:
    # clipping it back would give frames whose JVA label differs from the
    # ground truth.
    code, _, err = run(
        capsys,
        ["synth", "--out-dir", str(tmp_path / "d"), "--image-w", "400",
         "--image-h", "300", "--teams", "3", "--frames-per-team", "500",
         "--seed", "1"],
    )
    assert code == 2
    assert err == (
        "error: image 400x300 too small for threshold 100: each side must be "
        "at least 2 * 3 * threshold = 600 px\n"
    )
    assert not (tmp_path / "d").exists()


def test_synth_without_flags_writes_the_default_spec(tmp_path, capsys):
    code, _, _ = run(capsys, ["synth", "--out-dir", str(tmp_path / "cli")])
    assert code == 0
    for path in generate(SynthSpec(), tmp_path / "api"):
        assert (tmp_path / "cli" / path.name).read_bytes() == path.read_bytes()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--seed", "-1"], "seed must be a non-negative integer: -1"),
        (["--noise-sigma", "nan"], "gaze_noise_sigma must be finite: nan"),
        (["--jva-probability", "team01=0.5", "--teams", "3"],
         "no jva_probability for team02 or its condition tablet"),
        (["--jva-probability", "textbook=0.2", "--jva-probability", "tablet=0.3",
          "--jva-probability", "ar=0.1", "--jva-probability", "tema02=0.3",
          "--teams", "3"],
         "jva_probability key 'tema02' is neither a condition (textbook, tablet, ar) "
         "nor a team id of this spec (team01..team03)"),
        (["--jva-probability", "ar=1.5"], "jva_probability['ar'] must lie in [0, 1]: 1.5"),
        (["--jva-probability", "0.5", "--jva-probability", "ar=0.2"],
         "mix of plain and NAME=P probabilities"),
        (["--jva-probability", "ar=0.2", "--jva-probability", "textbook=0.1",
          "--jva-probability", "tablet=0.3", "--jva-probability", "ar=1.0"],
         "--jva-probability ar given more than once"),
        (["--jva-probability", "team01=0.2", "--jva-probability", " team01 =0.2",
          "--teams", "1"],
         "--jva-probability team01 given more than once"),
        (["--jva-probability", "0.0", "--jva-probability", "1.0"],
         "--jva-probability: more than one plain probability"),
        (["--jva-probability", "0.5", "--jva-probability", "0.5"],
         "--jva-probability: more than one plain probability"),
        (["--jva-probability", "abc"], "jva_probability is not a number: 'abc'"),
        (["--jva-probability", "ar=abc"], "jva_probability['ar'] is not a number: 'abc'"),
        (["--teams", "0"], "teams must be positive: 0"),
        (["--frames-per-team", "-1"], "frames_per_team must be positive: -1"),
        (["--image-w", "0"], "image_w must be positive: 0"),
        (["--noise-sigma", "-1"], "gaze_noise_sigma must be non-negative: -1.0"),
    ],
)
def test_synth_bad_spec_is_usage_error_before_any_file(tmp_path, capsys, flags, message):
    code, _, err = run(capsys, ["synth", "--out-dir", str(tmp_path / "d"), *flags])
    assert code == 2
    assert err == f"error: {message}\n"
    assert not (tmp_path / "d").exists()


def test_analyze_config_not_utf8_names_file_and_line(tmp_path, capsys):
    config = tmp_path / "jva.conf"
    config.write_bytes(b"# tuned\nthreshold = 5 # \xff\n")
    code, out, err = run(
        capsys,
        ["analyze", "--frames", str(tmp_path / "f.csv"),
         "--teams", str(tmp_path / "t.csv"), "--config", str(config)],
    )
    assert (code, out) == (1, "")
    assert err == f"error: {config}:2: byte 0xff is not UTF-8 (invalid start byte)\n"


def test_decode_batch(tmp_path, capsys):
    grid_a = tmp_path / "a.txt"
    values = np.zeros((56, 56))
    values[13, 27] = 5.0
    np.savetxt(grid_a, values)
    out = tmp_path / "points.csv"
    code, _, _ = run(
        capsys,
        ["decode", str(grid_a), "--scene-width", "2560",
         "--scene-height", "1440", "--out", str(out)],
    )
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert float(rows[0]["gaze_x"]) == pytest.approx(27.5 * 2560 / 56, abs=1e-3)
    assert float(rows[0]["gaze_y"]) == pytest.approx(13.5 * 1440 / 56, abs=1e-3)


@pytest.mark.parametrize(
    "grid, message",
    [
        (b"0 x\n1 2\n", "could not convert string 'x' to float64"),
        (b"0 1\n\xff 2\n", "line 2: byte 0xff is not UTF-8 (invalid start byte)"),
        (
            b"0 1\n" * 30_000 + b"\xff 2\n",
            "line 30001: byte 0xff is not UTF-8 (invalid start byte)",
        ),
        (
            b"\xef\xbb\xbf0 1\r\n1 2\r0 \xe2\x82\n",
            "line 3: byte 0xe2 is not UTF-8 (invalid continuation byte)",
        ),
        (b"0 1 2\n1 2\n", "the number of columns changed from 3 to 2"),
    ],
    ids=["not a number", "not utf-8", "not utf-8 on line 30001", "not utf-8 after a bom",
         "ragged"],
)
def test_decode_error_names_the_bad_heatmap(tmp_path, capsys, grid, message):
    good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
    good.write_text("0 0\n0 5\n")
    bad.write_bytes(grid)
    code, out, err = run(
        capsys,
        ["decode", str(good), str(bad), "--scene-width", "100", "--scene-height", "100"],
    )
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {bad}: {message}")


def test_decode_reads_a_heatmap_after_a_byte_order_mark(tmp_path, capsys):
    """A UTF-8 byte order mark is not part of the first cell."""
    grid = tmp_path / "bom.txt"
    grid.write_bytes(b"\xef\xbb\xbf0 0\r\n0 5\r\n")
    code, out, _ = run(
        capsys, ["decode", str(grid), "--scene-width", "100", "--scene-height", "100"]
    )
    assert (code, out) == (0, f"file,gaze_x,gaze_y\r\n{grid},75.0000,75.0000\r\n")


def test_decode_all_zero_heatmap_is_data_error(tmp_path, capsys):
    grid = tmp_path / "z.txt"
    np.savetxt(grid, np.zeros((4, 4)))
    code, _, err = run(
        capsys,
        ["decode", str(grid), "--scene-width", "100", "--scene-height", "100"],
    )
    assert code == 1
    assert "undecodable" in err


def test_config_env_var(tmp_path, capsys, monkeypatch):
    config = tmp_path / "jva.conf"
    config.write_text("threshold = 5\n")
    monkeypatch.setenv("TEAMGAZE_CONFIG", str(config))
    frames, teams = synth_inputs(tmp_path, capsys, jva_probability="1.0")
    out = tmp_path / "strict.json"
    code, _, _ = run(
        capsys,
        ["analyze", "--frames", str(frames), "--teams", str(teams),
         "--out", str(out), "--format", "json"],
    )
    assert code == 0
    # threshold 5 px still classifies exact-coincidence frames as JVA
    payload = json.loads(out.read_text())
    assert all(r["jva_ratio_pct"] == 100.0 for r in payload["teams"])


def test_config_naming_reference_diagonal_is_data_error(tmp_path, capsys):
    config = tmp_path / "jva.conf"
    config.write_text("reference_diagonal = 3000\n")
    frames, teams = synth_inputs(tmp_path, capsys)
    code, out, err = run(
        capsys,
        ["analyze", "--frames", str(frames), "--teams", str(teams), "--config", str(config)],
    )
    assert (code, out, err) == (1, "", f"error: {config}:1: unknown key 'reference_diagonal'\n")


def test_config_duplicate_key_is_data_error(tmp_path, capsys):
    config = tmp_path / "jva.conf"
    config.write_text("threshold = 50\nthreshold = 80\n")
    frames, teams = synth_inputs(tmp_path, capsys)
    code, out, err = run(
        capsys,
        ["analyze", "--frames", str(frames), "--teams", str(teams), "--config", str(config)],
    )
    assert (code, out) == (1, "")
    assert err == f"error: {config}:2: duplicate key 'threshold' (first on line 1)\n"


ROOT = Path(__file__).resolve().parent.parent


def fresh_python(code: str, *argv: str, stdin: str = "") -> str:
    """Standard output of ``code`` run with ``argv`` in a new interpreter
    that imports teamgaze from the source tree, with ``stdin`` piped in."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=env, capture_output=True, text=True, timeout=120, input=stdin,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_stats_reads_a_table_piped_on_stdin(capsys):
    # A pipe can be read only once, so the table's kind must come from the
    # same read as its rows.
    piped = fresh_python(
        "import sys; from teamgaze.cli import main; sys.exit(main(sys.argv[1:]))",
        "stats", "--teams", "/dev/stdin",
        stdin=io_report.paper_fixture_path().read_text(encoding="utf-8"),
    )
    assert piped == run(capsys, ["stats"])[1]


# Runs one CLI command, then prints its exit code and the teamgaze modules
# it imported.
LOADED_MODULES = """
import sys
from teamgaze.cli import main
code = main(sys.argv[1:])
print(code, *sorted(m for m in sys.modules if m.startswith("teamgaze")))
"""


@pytest.mark.parametrize("command", ["analyze", "stats-summary", "stats-per-team"])
def test_analyze_and_stats_import_neither_synth_nor_gazefield(tmp_path, capsys, command):
    frames, teams = synth_inputs(tmp_path, capsys)
    per_team = tmp_path / "per_team"
    run(capsys, ["analyze", "--frames", str(frames), "--teams", str(teams),
                 "--format", "csv-bundle", "--out", str(per_team)])
    argv = {
        "analyze": ["analyze", "--frames", str(frames), "--teams", str(teams)],
        "stats-summary": ["stats"],
        "stats-per-team": ["stats", "--teams", str(per_team / "teams.csv")],
    }[command]
    out = fresh_python(
        LOADED_MODULES, *argv, "--format", "json", "--out", str(tmp_path / "report.json")
    )
    assert out.split() == [
        "0", "teamgaze", "teamgaze.cli", "teamgaze.io_report", "teamgaze.jva",
        "teamgaze.model", "teamgaze.stats",
    ]
    assert json.loads((tmp_path / "report.json").read_text())["anovas"]


def test_package_exports_are_imported_on_first_use():
    out = fresh_python(
        "import sys\n"
        "import teamgaze\n"
        "print(*sorted(m for m in sys.modules if m.startswith('teamgaze')))\n"
        "from teamgaze import SynthSpec, Heatmap, decode_heatmap, analyze_table, emit_report\n"
        "from teamgaze import Point2D, multiscale_fields, synth\n"
        "from teamgaze import gazefield, io_report, model\n"
        "assert SynthSpec is synth.SynthSpec and emit_report is io_report.emit_report\n"
        "assert (Heatmap, Point2D) == (model.Heatmap, model.Point2D)\n"
        "assert (decode_heatmap, multiscale_fields) == "
        "(gazefield.decode_heatmap, gazefield.multiscale_fields)\n"
        "assert analyze_table is io_report.analyze_table\n"
        "try:\n"
        "    teamgaze.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    assert out.splitlines() == [
        "teamgaze",
        "module 'teamgaze' has no attribute 'no_such_name'",
    ]
