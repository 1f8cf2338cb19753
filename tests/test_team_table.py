"""The columnar team table against the per-row report it replaced.

Reports are built from random lists of ``oracles.Team`` records. The JSON emitter writes the
per-team columns by hand, so its text is pinned to json.dumps; every
format of the columnar report is pinned to the per-row reference in
``oracles.per_row_stats_report``. The emitters format each distinct team
value once; ``oracles.per_value_team_cells`` formats every team's values
one at a time, and every format must come out the same. The rows of a
team-level table may come in any order: ``teamgaze stats`` and
``teamgaze analyze`` write the same bytes for a shuffled table.
"""

import json
import math
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import Team, per_row_stats_report, per_value_team_cells, team_table, teams_of
from teamgaze import io_report
from teamgaze.cli import main
from teamgaze.io_report import Report, TeamTable, emit_report, load_team_rows, stats_report
from teamgaze.model import CONDITIONS, GENDERS

# Quotes, backslashes, separators, non-ASCII and control characters.
TEAM_IDS = st.text(st.sampled_from('tA"\\,# \t\n\x00\x1f\x7fé中😀'), max_size=3)

# Each table draws its ratios and post-tests from one of these pools: all
# missing, all equal (zero variance), the range ends, or any value.
RATIO_POOLS = [
    st.none(),
    st.just(40.0),
    st.sampled_from([None, 0.0, 100.0, 40.0]),
    st.one_of(st.none(), st.floats(0, 100)),
]
POST_TEST_POOLS = [st.just(2.5), st.sampled_from([0.0, 5.0, 2.5]), st.floats(0, 5)]


@st.composite
def team_rows(draw, team_ids=TEAM_IDS):
    """Team records in random order, some conditions and genders left out so
    that groups are empty or hold one team."""
    conditions = draw(st.lists(st.sampled_from(CONDITIONS), min_size=1, unique=True))
    genders = draw(st.lists(st.sampled_from(GENDERS), min_size=1, unique=True))
    ratios = draw(st.sampled_from(RATIO_POOLS))
    post_tests = draw(st.sampled_from(POST_TEST_POOLS))
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        rows.append(
            Team(
                draw(team_ids),
                draw(st.sampled_from(conditions)),
                draw(st.sampled_from(genders)),
                draw(ratios),
                draw(post_tests),
            )
        )
    return draw(st.permutations(rows))


def rendered(report) -> dict:
    """The report's bytes in every format: JSON, text and each bundle file."""
    with tempfile.TemporaryDirectory() as tmp:
        emit_report(report, "csv-bundle", Path(tmp))
        out = {p.name: p.read_bytes() for p in sorted(Path(tmp).iterdir())}
    out["json"] = emit_report(report, "json")
    out["text"] = emit_report(report, "text")
    return out


@given(team_rows())
@settings(max_examples=200, deadline=None)
def test_json_report_is_what_json_dumps_writes(rows):
    text = emit_report(stats_report(team_table(rows)), "json")
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def statistics(report) -> tuple:
    """The report's raw statistics, compared exactly before rounding."""
    return (report.summaries, report.totals, report.anovas, report.effect_d,
            report.posthoc, report.correlation, report.notes)


@given(team_rows())
@settings(max_examples=200, deadline=None)
def test_columnar_report_matches_the_per_row_reference(rows):
    report, reference = stats_report(team_table(rows)), per_row_stats_report(rows)
    assert statistics(report) == statistics(reference)
    assert rendered(report) == rendered(reference)


@given(team_rows(team_ids=st.just("")))
@settings(max_examples=100, deadline=None)
def test_loaded_team_table_matches_the_per_row_reference(rows):
    rows = [r._replace(team_id=f"team{i:02d}") for i, r in enumerate(rows)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "teams.csv"
        path.write_text(
            "team_id,condition,group,gender,jva_ratio_pct,team_post_test\n"
            + "".join(
                f"{r.team_id},{r.condition},,{r.gender},"
                f"{'' if r.jva_ratio_pct is None else repr(r.jva_ratio_pct)},"
                f"{r.team_post_test!r}\n"
                for r in rows
            )
        )
        table = load_team_rows(path)
    assert teams_of(table) == rows
    report, reference = stats_report(table), per_row_stats_report(rows)
    assert statistics(report) == statistics(reference)
    assert rendered(report) == rendered(reference)


def test_team_table_keeps_missing_ratios_apart_from_zero():
    rows = [Team("b", "ar", "MX", None, 1.0), Team("a", "textbook", "FF", 0.0, 2.0)]
    table = team_table(rows)
    assert len(table) == 2 and teams_of(table) == rows
    assert math.isnan(table.jva_ratio_pct[0]) and table.jva_ratio_pct[1] == 0.0
    assert teams_of(table.by_team_id()) == rows[::-1]


def test_a_table_sorted_by_id_is_its_own_sorted_table():
    table = team_table(Team(team_id, "ar", "MX", None, 1.0) for team_id in ("a", "b", "b", "c"))
    assert table.by_team_id() is table


def test_team_cells_keep_negative_zero_and_missing_apart(tmp_path):
    # 0.125 prints as 0.12 and the next float up as 0.13.
    path = tmp_path / "teams.csv"
    path.write_text(
        "team_id,condition,group,gender,jva_ratio_pct,team_post_test\n"
        "t1,textbook,,FF,12.345,-0\n"
        "t2,textbook,,FF,,0\n"
        "t3,ar,,MX,12.345,0\n"
        "t4,tablet,,MM,-0,-0\n"
        "t5,ar,,MX,0,2.5\n"
        "t6,ar,,MX,0.125,0.12500000000000003\n"
        "t7,ar,,MX,0.12500000000000003,0.125\n"
    )
    out = rendered(Report(teams=load_team_rows(path)))

    report = json.loads(out["json"], parse_float=str)
    assert [(t["jva_ratio_pct"], t["team_post_test"]) for t in report["teams"]] == [
        ("12.35", "-0.0"), (None, "0.0"), ("12.35", "0.0"), ("-0.0", "-0.0"), ("0.0", "2.5"),
        ("0.12", "0.13"), ("0.13", "0.12"),
    ]
    assert report["scatter"] == [
        ["12.35", "-0.0"], ["12.35", "0.0"], ["-0.0", "-0.0"], ["0.0", "2.5"],
        ["0.12", "0.13"], ["0.13", "0.12"],
    ]
    assert out["text"].splitlines() == [
        "Per-team results",
        "team      condition   group       gender   JVA ratio (%)  post-test",
        "t1        textbook    control     FF               12.35      -0.00",
        "t2        textbook    control     FF                  NA       0.00",
        "t3        ar          experiment  MX               12.35       0.00",
        "t4        tablet      experiment  MM               -0.00      -0.00",
        "t5        ar          experiment  MX                0.00       2.50",
        "t6        ar          experiment  MX                0.12       0.13",
        "t7        ar          experiment  MX                0.13       0.12",
    ]
    assert out["teams.csv"] == (
        b"team_id,condition,group,gender,jva_ratio_pct,team_post_test\r\n"
        b"t1,textbook,control,FF,12.35,-0.00\r\n"
        b"t2,textbook,control,FF,,0.00\r\n"
        b"t3,ar,experiment,MX,12.35,0.00\r\n"
        b"t4,tablet,experiment,MM,-0.00,-0.00\r\n"
        b"t5,ar,experiment,MX,0.00,2.50\r\n"
        b"t6,ar,experiment,MX,0.12,0.13\r\n"
        b"t7,ar,experiment,MX,0.13,0.12\r\n"
    )


# Values that tie after rounding (12.345, 12.355), differ only in sign
# (0.0, -0.0, and two NaNs) or in the last bit (0.125 and the next float,
# which round apart), or are not finite; drawn with repeats.
POOLED_VALUES = st.sampled_from([
    0.0, -0.0, math.nan, -math.nan, 12.345, 12.355, 100 / 3, 2.5, math.inf,
    0.125, math.nextafter(0.125, 1.0),
])


@st.composite
def pooled_team_tables(draw):
    n = draw(st.integers(0, 12))

    def column(elements):
        return draw(st.lists(elements, min_size=n, max_size=n))

    return TeamTable(
        team_ids=column(TEAM_IDS),
        condition=column(st.integers(0, len(CONDITIONS) - 1)),
        gender=column(st.integers(0, len(GENDERS) - 1)),
        jva_ratio_pct=column(POOLED_VALUES),
        post_test=column(POOLED_VALUES),
    )


@given(pooled_team_tables())
@settings(max_examples=200, deadline=None)
def test_distinct_value_cells_match_per_value_formatting(table):
    report = Report(teams=table)
    with mock.patch.object(io_report, "_team_cells", per_value_team_cells):
        reference = rendered(report)
    assert rendered(report) == reference


# Two-decimal values, whose means often lie on a rounding tie: the digit
# printed then depends on the last bit of the sum.
RATIOS = st.one_of(st.none(), st.integers(0, 10_000).map(lambda n: n / 100))
POST_TESTS = st.integers(0, 500).map(lambda n: n / 100)


def command_output(argv, out_dir: Path) -> dict:
    """The bytes ``teamgaze`` writes for ``argv`` in every format, under the
    new directory ``out_dir``: JSON, text and each bundle file."""
    out_dir.mkdir()
    out = {}
    for fmt in io_report.REPORT_FORMATS:
        assert main([*argv, "--format", fmt, "--out", str(out_dir / fmt)]) == 0
        paths = sorted((out_dir / fmt).iterdir()) if fmt == "csv-bundle" else [out_dir / fmt]
        out.update((f"{fmt}/{path.name}", path.read_bytes()) for path in paths)
    return out


@st.composite
def shuffled_tables(draw, row):
    """The lines of a team-level table whose rows ``row`` draws from a team
    index, and the same lines in another order."""
    lines = [draw(row(i)) for i in range(draw(st.integers(0, 16)))]
    return lines, draw(st.permutations(lines))


def team_results_row(i):
    return st.builds(
        lambda condition, gender, ratio, post: (
            f"team{i:02d},{condition},,{gender},{'' if ratio is None else ratio},{post}"
        ),
        st.sampled_from(CONDITIONS), st.sampled_from(GENDERS), RATIOS, POST_TESTS,
    )


def team_row(i):
    return st.builds(
        lambda condition, gender, a, b: f"team{i:02d},{condition},{gender},{a},{b}",
        st.sampled_from(CONDITIONS), st.sampled_from(GENDERS), POST_TESTS, POST_TESTS,
    )


@given(shuffled_tables(team_results_row))
@settings(max_examples=50, deadline=None)
def test_stats_report_does_not_depend_on_the_team_row_order(tables):
    header = "team_id,condition,group,gender,jva_ratio_pct,team_post_test\n"
    outputs = []
    with tempfile.TemporaryDirectory() as tmp:
        for lines in tables:
            path = Path(tmp) / "teams.csv"
            path.write_text(header + "".join(line + "\n" for line in lines))
            argv = ["stats", "--teams", str(path)]
            outputs.append(command_output(argv, Path(tmp) / str(len(outputs))))
    assert outputs[0] == outputs[1]


@given(shuffled_tables(team_row), st.randoms(use_true_random=False))
@settings(max_examples=50, deadline=None)
def test_analyze_report_does_not_depend_on_the_team_row_order(tables, random):
    # Up to five frames a team, each with gaze pairs 0 to 150 px apart.
    frames = [
        f"team{i:02d},f{f},{f}.0,2560,1440,p{p},{100 + p * random.randrange(76)},100"
        for i in range(len(tables[0])) for f in range(random.randrange(6)) for p in (1, 2)
    ]
    outputs = []
    with tempfile.TemporaryDirectory() as tmp:
        frames_path, teams_path = Path(tmp) / "frames.csv", Path(tmp) / "teams.csv"
        frames_path.write_text(
            "team_id,frame_id,timestamp_s,image_w,image_h,person_id,gaze_x,gaze_y\n"
            + "".join(line + "\n" for line in frames)
        )
        for lines in tables:
            teams_path.write_text(
                "team_id,condition,gender,post_test_1,post_test_2\n"
                + "".join(line + "\n" for line in lines)
            )
            argv = ["analyze", "--frames", str(frames_path), "--teams", str(teams_path)]
            outputs.append(command_output(argv, Path(tmp) / str(len(outputs))))
    assert outputs[0] == outputs[1]


FIXTURE_LINES = io_report.paper_fixture_path().read_text(encoding="utf-8").splitlines(True)
FIXTURE_DATA = FIXTURE_LINES.index("grouping,label,measure,n,mean,sd\n") + 1


@given(st.permutations(FIXTURE_LINES[FIXTURE_DATA:]))
@settings(max_examples=30, deadline=None)
def test_stats_report_does_not_depend_on_the_summary_row_order(rows):
    """The bundled fixture with its data rows in any order gives the report
    of the fixture as it ships, whose rows are in ``model``'s label order."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "summary.csv"
        path.write_text("".join(FIXTURE_LINES[:FIXTURE_DATA] + rows), encoding="utf-8")
        shipped = command_output(["stats"], Path(tmp) / "shipped")
        shuffled = command_output(["stats", "--teams", str(path)], Path(tmp) / "shuffled")
    assert shuffled == shipped
