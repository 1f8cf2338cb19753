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
from oracles import Team, reference_frame_table, team_table, teams_of

from teamgaze.cli import main
from teamgaze.frame_table import analyze_table, read_frame_table
from teamgaze.io_report import (
    Report,
    emit_report,
    load_teams,
    paper_fixture_path,
    stats_report,
    stats_report_from_summaries,
    stats_report_from_table,
)
from teamgaze.stats import GroupSummary, anova_from_summary, correlation_from_r

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"


def fixture_report():
    return stats_report_from_table(paper_fixture_path())


def analyze_inputs_report():
    return analyze_table(
        read_frame_table(INPUTS / "frames.csv"), load_teams(INPUTS / "teams.csv")
    )


def rows_with_missing_ratio_report():
    return stats_report(
        team_table(
            [
                Team("a1", "textbook", "FF", 31.25, 1.5),
                Team("a2", "textbook", "MM", None, 2.0),
                Team("a3", "textbook", "MX", 28.4, 1.0),
                Team("a4", "textbook", "FF", 35.0, 2.5),
                Team("b1", "tablet", "MM", 47.5, 3.0),
                Team("b2", "tablet", "MX", None, 3.5),
                Team("b3", "tablet", "FF", 52.125, 2.5),
                Team("c1", "ar", "MX", 44.0, 4.0),
                Team("c2", "ar", "FF", 46.875, 3.5),
                Team("c3", "ar", "MM", 39.5, 2.0),
            ]
        )
    )


def three_team_report():
    return stats_report(
        team_table(
            [
                Team("t1", "textbook", "FF", 30.0, 1.0),
                Team("t2", "tablet", "MM", 50.0, 2.5),
                Team("t3", "ar", "MX", 45.0, 3.0),
            ]
        )
    )


def degenerate_effect_size_report():
    """Zero spread within every condition: F is infinite and d is missing."""
    teams = [("textbook", 30.0, 1.0)] * 3 + [("tablet", 50.0, 3.0), ("ar", 50.0, 3.0)] * 3
    return stats_report(
        team_table(
            Team(f"t{i}", condition, ("FF", "MM", "MX")[i % 3], ratio, post_test)
            for i, (condition, ratio, post_test) in enumerate(teams)
        )
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


def test_a_bundle_teams_table_gives_back_the_reports_statistics(tmp_path):
    """``teamgaze stats`` on a CSV bundle's teams.csv, whose ratios and
    post-tests are rounded to 2 decimals, writes the bundle's ANOVAs,
    comparisons, summaries and correlation again byte for byte."""
    bundle = GOLDEN / "analyze" / "bundle"
    argv = ["stats", "--teams", str(bundle / "teams.csv"), "--format", "csv-bundle",
            "--out", str(tmp_path / "again")]
    assert main(argv) == 0
    for name in ("anovas.csv", "posthoc.csv", "summaries.csv", "correlation.csv"):
        assert (tmp_path / "again" / name).read_bytes() == (bundle / name).read_bytes(), name


def golden_frames():
    """The reference frame table of the golden frame rows."""
    return reference_frame_table(
        (INPUTS / "frames.csv").read_text(encoding="utf-8").splitlines()[1:]
    )


def test_golden_teams_carry_their_metadata_into_the_report():
    """Every team of the golden team table has frames, in the reader and in
    the reference, and the analyzed report carries each team's condition,
    gender and post-test from the team table."""
    table, teams = read_frame_table(INPUTS / "frames.csv"), load_teams(INPUTS / "teams.csv")
    assert table.team_ids == golden_frames()["team_ids"]
    assert sorted(table.team_ids) == sorted(teams.team_ids)
    assert [t._replace(jva_ratio_pct=None) for t in teams_of(analyze_inputs_report().teams)] == (
        sorted(teams_of(teams))
    )


def test_golden_t03_is_the_one_team_without_a_pair():
    """In the reference, each of t03's frames holds one person, and t03 is
    the one golden team whose kept rows in frames not discarded do not
    name two persons; the report notes it as without countable frames."""
    frames = golden_frames()
    offsets, persons = frames["row_offsets"], {}
    for f, team in enumerate(frames["frame_team"]):
        rows = range(offsets[f], offsets[f + 1])
        if frames["team_ids"][team] == "t03":
            assert len(rows) == 1
        if not frames["discarded"][f]:
            persons.setdefault(frames["team_ids"][team], set()).update(
                frames["row_person"][r] for r in rows
            )
    assert {team: len(p) for team, p in persons.items() if len(p) != 2} == {"t03": 1}
    assert "no countable frames for teams: ['t03']" in analyze_inputs_report().notes


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
