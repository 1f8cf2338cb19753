"""Independent numerical oracles shared by the test modules.

These deliberately avoid the library's own code paths: the F tail oracle
integrates the density with adaptive quadrature, the brute-force JVA
recount walks frames with plain math, and the per-row stats report groups
TeamRow records one row at a time.
"""

import math

from scipy import integrate

from teamgaze.io_report import Report, TeamTable, _add_anova
from teamgaze.model import Condition, GenderComposition, Group
from teamgaze.stats import pearson, summarize


def f_density(x: float, df1: int, df2: int) -> float:
    if x <= 0:
        return 0.0
    a, b = df1 / 2.0, df2 / 2.0
    log_pdf = (
        a * math.log(df1 / df2)
        + (a - 1.0) * math.log(x)
        - (a + b) * math.log1p(df1 * x / df2)
        - (math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
    )
    return math.exp(log_pdf)


def f_tail_by_quadrature(f: float, df1: int, df2: int) -> float:
    value, _ = integrate.quad(
        f_density, f, math.inf, args=(df1, df2), epsabs=1e-12, epsrel=1e-12, limit=400
    )
    return value


def brute_force_jva_count(frames, threshold: float):
    """Recount JVA and denominator frames with plain per-frame arithmetic.

    ``frames`` is a list of (gaze_a, gaze_b) pixel tuples, or None for a
    frame without a valid pair.
    """
    jva = 0
    denominator = 0
    for pair in frames:
        if pair is None:
            continue
        (ax, ay), (bx, by) = pair
        denominator += 1
        if math.sqrt((ax - bx) ** 2 + (ay - by) ** 2) < threshold:
            jva += 1
    return jva, denominator


# The labels of each grouping and the TeamRow field holding each measure.
_GROUPINGS = {
    "condition": [c.value for c in Condition],
    "group": [g.value for g in Group],
    "gender": [g.value for g in GenderComposition],
}
_MEASURE_FIELDS = {"jva_ratio_pct": "jva_ratio_pct", "post_test": "team_post_test"}


def per_row_stats_report(rows) -> Report:
    """The stats report of TeamRow records, built a row at a time.

    Each (grouping, measure) collects its groups' values in one pass over
    the rows, keeping row order; the scatter and the correlation take the
    rows sorted by team_id. The columnar ``io_report.stats_report`` must
    render the same bytes.
    """
    report = Report(teams=TeamTable.from_rows(sorted(rows, key=lambda r: r.team_id)))
    for grouping, labels in _GROUPINGS.items():
        report.summaries[grouping] = {}
        for measure, attr in _MEASURE_FIELDS.items():
            values_by_label = {label: [] for label in labels}
            for row in rows:
                if (v := getattr(row, attr)) is not None:
                    values_by_label[getattr(row, grouping).value].append(v)
            groups = [
                summarize(values, label=label)
                for label, values in values_by_label.items()
                if len(values) >= 2
            ]
            report.summaries[grouping][measure] = groups
            if len(groups) >= 2:
                _add_anova(report, grouping, measure, groups)

    for measure, attr in _MEASURE_FIELDS.items():
        values = [v for row in rows if (v := getattr(row, attr)) is not None]
        if len(values) >= 2:
            report.totals[measure] = summarize(values, label="total")

    scatter = [
        (row.jva_ratio_pct, row.team_post_test)
        for row in sorted(rows, key=lambda r: r.team_id)
        if row.jva_ratio_pct is not None
    ]
    if len(scatter) >= 3:
        try:
            report.correlation = pearson(*zip(*scatter))
        except ValueError as exc:
            report.notes.append(f"correlation skipped: {exc}")
    return report
