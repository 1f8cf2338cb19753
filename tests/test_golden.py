"""Byte-for-byte golden outputs of every report format.

Each report below is rendered as JSON, text and a CSV bundle and compared
with the files under ``tests/golden/<report>/``. After an intended change
to the output, rewrite the goldens with

    PYTHONPATH=src python tests/test_golden.py

and review the diff.
"""

import shutil
from pathlib import Path

import pytest

from teamgaze.cli import main
from teamgaze.io_report import (
    Report,
    TeamRow,
    analyze_table,
    build_sessions,
    emit_report,
    load_frames,
    load_summary_fixture,
    load_teams,
    paper_fixture_path,
    read_frame_table,
    stats_report_from_summaries,
    stats_report_from_table,
    stats_report_from_team_rows,
)
from teamgaze.model import Condition, GenderComposition, group_for_condition, validate_session
from teamgaze.stats import GroupSummary, anova_from_summary, correlation_from_r

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"


def team_row(team_id, condition, gender, ratio, post_test):
    cond = Condition(condition)
    return TeamRow(
        team_id, cond, group_for_condition(cond), GenderComposition(gender), ratio, post_test
    )


def fixture_report():
    return stats_report_from_summaries(*load_summary_fixture(paper_fixture_path()))


def analyze_inputs_report():
    return analyze_table(
        read_frame_table(INPUTS / "frames.csv"), load_teams(INPUTS / "teams.csv")
    )


def rows_with_missing_ratio_report():
    return stats_report_from_team_rows(
        [
            team_row("a1", "textbook", "FF", 31.25, 1.5),
            team_row("a2", "textbook", "MM", None, 2.0),
            team_row("a3", "textbook", "MX", 28.4, 1.0),
            team_row("a4", "textbook", "FF", 35.0, 2.5),
            team_row("b1", "tablet", "MM", 47.5, 3.0),
            team_row("b2", "tablet", "MX", None, 3.5),
            team_row("b3", "tablet", "FF", 52.125, 2.5),
            team_row("c1", "ar", "MX", 44.0, 4.0),
            team_row("c2", "ar", "FF", 46.875, 3.5),
            team_row("c3", "ar", "MM", 39.5, 2.0),
        ]
    )


def three_team_report():
    return stats_report_from_team_rows(
        [
            team_row("t1", "textbook", "FF", 30.0, 1.0),
            team_row("t2", "tablet", "MM", 50.0, 2.5),
            team_row("t3", "ar", "MX", 45.0, 3.0),
        ]
    )


def degenerate_effect_size_report():
    """Zero spread within every condition: F is infinite and d is missing."""
    teams = [("textbook", 30.0, 1.0)] * 3 + [("tablet", 50.0, 3.0), ("ar", 50.0, 3.0)] * 3
    return stats_report_from_team_rows(
        [
            team_row(f"t{i}", condition, ("FF", "MM", "MX")[i % 3], ratio, post_test)
            for i, (condition, ratio, post_test) in enumerate(teams)
        ]
    )


def empty_report():
    return stats_report_from_summaries({})


def correlation_only_report():
    report = Report(correlation=correlation_from_r(0.4478, 30))
    report.notes.append("correlation from r and n only")
    return report


REPORTS = {
    "fixture": fixture_report,
    "analyze": analyze_inputs_report,
    "rows_missing_ratio": rows_with_missing_ratio_report,
    "three_teams": three_team_report,
    "degenerate_d": degenerate_effect_size_report,
    "empty": empty_report,
    "correlation_only": correlation_only_report,
}

FILES = {"json": "report.json", "text": "report.txt"}


def render(report, fmt, directory):
    """Write one format of ``report`` under ``directory``."""
    if fmt == "csv-bundle":
        emit_report(report, fmt, directory / "bundle")
    else:
        emit_report(report, fmt, directory / FILES[fmt])


def rendered_files(directory):
    return {
        p.relative_to(directory).as_posix(): p.read_bytes()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


@pytest.mark.parametrize("fmt", ["json", "text", "csv-bundle"])
@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_matches_golden(name, fmt, tmp_path):
    render(REPORTS[name](), fmt, tmp_path)
    if fmt == "csv-bundle":
        expected = rendered_files(GOLDEN / name / "bundle")
        assert expected, f"no golden bundle for {name}"
        assert rendered_files(tmp_path / "bundle") == expected
    else:
        golden = GOLDEN / name / FILES[fmt]
        assert (tmp_path / FILES[fmt]).read_bytes() == golden.read_bytes()


@pytest.mark.parametrize("fmt", ["json", "text", "csv-bundle"])
def test_analyze_cli_matches_golden(fmt, tmp_path):
    """``teamgaze analyze`` writes the same files as ``analyze_table``."""
    name = "bundle" if fmt == "csv-bundle" else FILES[fmt]
    argv = ["analyze", "--frames", str(INPUTS / "frames.csv"),
            "--teams", str(INPUTS / "teams.csv"), "--format", fmt,
            "--out", str(tmp_path / name)]
    assert main(argv) == 0
    if fmt == "csv-bundle":
        assert rendered_files(tmp_path / name) == rendered_files(GOLDEN / "analyze" / name)
    else:
        assert (tmp_path / name).read_bytes() == (GOLDEN / "analyze" / name).read_bytes()


def test_a_bundle_summaries_table_gives_the_anovas_of_its_rounded_summaries():
    """A CSV bundle's summaries.csv is a summary table ``teamgaze stats``
    reads: its ANOVAs have the per-team report's keys and degrees of
    freedom, and each F is the ANOVA of the summaries as the bundle rounds
    them (2 decimals), e.g. 7.933 from the rows and 7.984 from the bundle."""
    report = analyze_inputs_report()
    reloaded = stats_report_from_table(GOLDEN / "analyze" / "bundle" / "summaries.csv")
    assert reloaded.anovas.keys() == report.anovas.keys()
    for key, anova in report.anovas.items():
        grouping, measure = key.split("_", 1)
        rounded = [
            GroupSummary(g.label, g.n, float(f"{g.mean:.2f}"), float(f"{g.sd:.2f}"))
            for g in report.summaries[grouping][measure]
        ]
        again = reloaded.anovas[key]
        assert (again.df_between, again.df_within) == (anova.df_between, anova.df_within)
        assert again.f == pytest.approx(anova_from_summary(rounded).f, rel=1e-12)
    assert report.anovas["group_post_test"].f == pytest.approx(7.933, abs=5e-4)
    assert reloaded.anovas["group_post_test"].f == pytest.approx(7.984, abs=5e-4)


def test_reference_sessions_of_golden_inputs_validate():
    """The per-frame reference path's sessions carry the analyzed teams'
    metadata, and ``validate_session`` flags only t03, whose frames hold a
    single person (the team the report notes as without countable frames)."""
    sessions = build_sessions(
        load_frames(INPUTS / "frames.csv").frames_by_team, load_teams(INPUTS / "teams.csv")
    )
    assert [(s.team_id, s.condition, s.gender_composition, s.team_post_test)
            for s in sessions] == [
        (r.team_id, r.condition, r.gender, r.team_post_test)
        for r in analyze_inputs_report().teams
    ]
    assert all(s.frames for s in sessions)
    violations = {s.team_id: validate_session(s) for s in sessions}
    assert {team: v for team, v in violations.items() if v} == {
        "t03": ["team t03: team size != 2 (1 distinct persons in valid frames)"]
    }


def write_goldens():
    """Re-render every golden file from the current code."""
    for name, build in REPORTS.items():
        directory = GOLDEN / name
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        for fmt in ("json", "text", "csv-bundle"):
            render(build(), fmt, directory)


if __name__ == "__main__":
    write_goldens()
