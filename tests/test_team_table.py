"""The columnar team table against the per-row report it replaced.

Reports are built from random lists of ``oracles.Team`` records. The JSON emitter writes the
per-team columns by hand, so its text is pinned to json.dumps; every
format of the columnar report is pinned to the per-row reference in
``oracles.per_row_stats_report``. The emitters format each distinct team
value once; ``oracles.per_value_team_cells`` formats every team's values
one at a time, and every format must come out the same.
"""

import json
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import Team, per_row_stats_report, per_value_team_cells, team_table, teams_of
from teamgaze import io_report
from teamgaze.io_report import Report, TeamTable, emit_report, load_team_rows, stats_report
from teamgaze.model import Condition, GenderComposition

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
    conditions = draw(
        st.lists(st.sampled_from([c.value for c in Condition]), min_size=1, unique=True)
    )
    genders = draw(
        st.lists(st.sampled_from([g.value for g in GenderComposition]), min_size=1, unique=True)
    )
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
    path = tmp_path / "teams.csv"
    path.write_text(
        "team_id,condition,group,gender,jva_ratio_pct,team_post_test\n"
        "t1,textbook,,FF,12.345,-0\n"
        "t2,textbook,,FF,,0\n"
        "t3,ar,,MX,12.345,0\n"
        "t4,tablet,,MM,-0,-0\n"
        "t5,ar,,MX,0,2.5\n"
    )
    out = rendered(Report(teams=load_team_rows(path)))

    report = json.loads(out["json"], parse_float=str)
    assert [(t["jva_ratio_pct"], t["team_post_test"]) for t in report["teams"]] == [
        ("12.35", "-0.0"), (None, "0.0"), ("12.35", "0.0"), ("-0.0", "-0.0"), ("0.0", "2.5"),
    ]
    assert report["scatter"] == [
        ["12.35", "-0.0"], ["12.35", "0.0"], ["-0.0", "-0.0"], ["0.0", "2.5"],
    ]
    assert out["text"].splitlines() == [
        "Per-team results",
        "team      condition   group       gender   JVA ratio (%)  post-test",
        "t1        textbook    control     FF               12.35      -0.00",
        "t2        textbook    control     FF                  NA       0.00",
        "t3        ar          experiment  MX               12.35       0.00",
        "t4        tablet      experiment  MM               -0.00      -0.00",
        "t5        ar          experiment  MX                0.00       2.50",
    ]
    assert out["teams.csv"] == (
        b"team_id,condition,group,gender,jva_ratio_pct,team_post_test\r\n"
        b"t1,textbook,control,FF,12.35,-0.00\r\n"
        b"t2,textbook,control,FF,,0.00\r\n"
        b"t3,ar,experiment,MX,12.35,0.00\r\n"
        b"t4,tablet,experiment,MM,-0.00,-0.00\r\n"
        b"t5,ar,experiment,MX,0.00,2.50\r\n"
    )


# Values that tie after rounding (12.345, 12.355), differ only in sign
# (0.0, -0.0, and two NaNs), or are not finite; drawn with repeats.
POOLED_VALUES = st.sampled_from(
    [0.0, -0.0, math.nan, -math.nan, 12.345, 12.355, 100 / 3, 2.5, math.inf]
)


@st.composite
def pooled_team_tables(draw):
    n = draw(st.integers(0, 12))

    def column(elements, dtype):
        return np.array(draw(st.lists(elements, min_size=n, max_size=n)), dtype)

    return TeamTable(
        team_ids=draw(st.lists(TEAM_IDS, min_size=n, max_size=n)),
        condition=column(st.integers(0, len(Condition) - 1), np.int8),
        gender=column(st.integers(0, len(GenderComposition) - 1), np.int8),
        jva_ratio_pct=column(POOLED_VALUES, float),
        post_test=column(POOLED_VALUES, float),
    )


@given(pooled_team_tables())
@settings(max_examples=200, deadline=None)
def test_distinct_value_cells_match_per_value_formatting(table):
    report = Report(teams=table)
    with mock.patch.object(io_report, "_team_cells", per_value_team_cells):
        reference = rendered(report)
    assert rendered(report) == reference
