"""Every report format carries the same values.

Reports built from random group summaries (two or three groups, n from 2
to 50, SD 0 included, so F may be infinite and Cohen's d missing), with
notes and a correlation, are rendered as JSON, text and a CSV bundle. Each
summary, total, ANOVA, pairwise comparison, correlation and note in the
JSON must be its bundle cell under README's mapping, and each ANOVA's and
pairwise comparison's text line must show the same degrees of freedom, F
and p.
"""

import csv
import json
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from teamgaze.io_report import emit_report, stats_report_from_summaries
from teamgaze.stats import GroupSummary, correlation_from_r

LABELS = {
    "condition": ["textbook", "tablet", "ar"],
    "group": ["control", "experiment"],
    "gender": ["FF", "MM", "MX"],
}
HIGH = {"jva_ratio_pct": 100.0, "post_test": 5.0}
MEASURES = sorted(HIGH)

# README: the decimals of each rounded field in every format.
DECIMALS = {
    **dict.fromkeys(("mean", "sd", "f", "cohens_d", "f_equivalent"), 2),
    "p": 3,
    **dict.fromkeys(("eta_squared", "omega_squared", "r", "r_squared", "slope", "intercept"), 4),
}


def csv_cell(value, decimals):
    """README's CSV cell of a JSON value: null and "nan" are empty, "inf"
    is inf, a number has its field's decimals and a string is itself."""
    if value is None or value == "nan":
        return ""
    if isinstance(value, float):
        return f"{value:.{decimals}f}"
    return str(value)


def text_cell(value, decimals):
    """README's text of a JSON value: null and "nan" are NA."""
    return csv_cell(value, decimals) or "NA"


def csv_cells(record, **labels):
    return {**labels, **{k: csv_cell(v, DECIMALS.get(k)) for k, v in record.items()}}


def values(high):
    """A mean or SD in [0, high], often one of its ends."""
    return st.one_of(st.sampled_from([0.0, high]), st.floats(0.0, high))


def summaries(label, high):
    return st.builds(GroupSummary, st.just(label), st.integers(2, 50), values(high), values(high))


@st.composite
def reports(draw):
    by_grouping = {}
    for grouping in draw(st.lists(st.sampled_from(sorted(LABELS)), unique=True)):
        labels = LABELS[grouping]
        labels = labels[: draw(st.integers(2, len(labels)))]
        measures = draw(st.lists(st.sampled_from(MEASURES), min_size=1, unique=True))
        by_grouping[grouping] = {
            m: [draw(summaries(label, HIGH[m])) for label in labels] for m in measures
        }
    totals = {
        m: draw(summaries("total", HIGH[m]))
        for m in draw(st.lists(st.sampled_from(MEASURES), unique=True))
    }
    report = stats_report_from_summaries(by_grouping, totals)
    notes = st.text(st.characters(blacklist_categories=("Cc", "Cs")), max_size=30)
    report.notes.extend(draw(st.lists(notes, max_size=3)))
    if draw(st.booleans()):
        r, n = draw(st.floats(-1.0, 1.0)), draw(st.integers(3, 200))
        report.correlation = correlation_from_r(r, n)
    return report


def read_csv(path):
    if not path.exists():
        return None
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@given(reports())
@settings(max_examples=150, deadline=None)
def test_json_bundle_and_text_carry_the_same_values(report):
    with tempfile.TemporaryDirectory() as tmp:
        bundle = Path(emit_report(report, "csv-bundle", Path(tmp) / "bundle"))
        payload = json.loads(emit_report(report, "json"))
        text = emit_report(report, "text")

        groupings = payload["summaries"]
        assert read_csv(bundle / "summaries.csv") == [
            csv_cells(record, grouping=grouping, label=record["label"], measure=m)
            for grouping in sorted(groupings)
            for m in MEASURES
            for record in groupings[grouping].get(m, [])
        ] + [
            csv_cells(payload["totals"][m], grouping="total", label="total", measure=m)
            for m in MEASURES
            if m in payload["totals"]
        ]

        anovas = payload["anovas"]
        expected = []
        for key in sorted(anovas):
            record = dict(anovas[key])
            record["df1"], record["df2"] = record.pop("df")
            expected.append(csv_cells({"cohens_d": None, **record}, analysis=key))
        assert read_csv(bundle / "anovas.csv") == expected

        comparisons = []
        for key in sorted(payload["posthoc"]):
            for c in payload["posthoc"][key]:
                record = dict(c)
                record["df1"], record["df2"] = record.pop("df")
                comparisons.append(csv_cells(record, analysis=key))
        assert read_csv(bundle / "posthoc.csv") == (comparisons or None)

        notes = [{"note": note} for note in payload["notes"]]
        assert read_csv(bundle / "notes.csv") == (notes or None)

        correlation = payload.get("correlation")
        assert read_csv(bundle / "correlation.csv") == (
            None if correlation is None else [csv_cells(correlation)]
        )

        for key, anova in anovas.items():
            line = re.search(rf"^{key} *F\((\d+),(\d+)\) = (\S+), p = ([^,]+),", text, re.M)
            assert line, key
            assert line.groups() == (
                str(anova["df"][0]),
                str(anova["df"][1]),
                text_cell(anova["f"], 2),
                text_cell(anova["p"], 3),
            )

        for key, pairs in payload["posthoc"].items():
            section = text.split(f"Pairwise comparisons for {key} (uncorrected)\n")[1]
            assert section.split("\n\n")[0].splitlines() == [
                f"  {c['a']} vs {c['b']}: F({c['df'][0]},{c['df'][1]}) = "
                f"{text_cell(c['f'], 2)}, p = {text_cell(c['p'], 3)}, "
                f"d = {text_cell(c['cohens_d'], 2)}"
                for c in pairs
            ]
