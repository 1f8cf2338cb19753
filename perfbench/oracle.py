"""Independent checks of the program's outputs.

Per-team ratios come from the generator's arrays (see ``workloads``); the
ANOVA F/p and Pearson r come from ``scipy.stats`` over the same values.
Each check returns a list of mismatch messages; an empty list means the
output is correct at the report's rounding (2 decimals for ratios and F,
3 for p, 4 for r).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from scipy import stats as sps

from workloads import CONDITIONS, GENDERS, Expected

_MAX_MESSAGES = 5


def _close(got, want: float, decimals: int) -> bool:
    return got is not None and abs(got - want) <= 0.5 * 10.0**-decimals + 1e-9 * max(
        1.0, abs(want)
    )


def check_report(report: dict, exp: Expected, ratios: np.ndarray) -> list:
    """Compare a JSON report with the expected per-team rows and statistics.

    ``ratios`` are the per-team JVA percentages the program was given or
    should have computed: exact for analyze, 2-decimal for stats.
    """
    problems = []
    teams = report.get("teams", [])
    if [row["team_id"] for row in teams] != exp.team_ids:
        problems.append(f"team ids differ ({len(teams)} rows, {len(exp.team_ids)} expected)")
    else:
        for i, row in enumerate(teams):
            want = (
                CONDITIONS[exp.condition[i]],
                GENDERS[exp.gender[i]],
                "control" if exp.condition[i] == 0 else "experiment",
            )
            if (row["condition"], row["gender"], row["group"]) != want:
                problems.append(f"{row['team_id']}: labels {row} != {want}")
            if not _close(row["jva_ratio_pct"], ratios[i], 2):
                problems.append(
                    f"{row['team_id']}: jva_ratio_pct {row['jva_ratio_pct']} != {ratios[i]:.4f}"
                )
            if not _close(row["team_post_test"], exp.post_test[i], 2):
                problems.append(f"{row['team_id']}: team_post_test {row['team_post_test']}")
            if len(problems) >= _MAX_MESSAGES:
                return problems

    labels = {
        "condition": exp.condition,
        "group": (exp.condition != 0).astype(int),
        "gender": exp.gender,
    }
    measures = {"jva_ratio_pct": ratios, "post_test": exp.post_test}
    for grouping, label in labels.items():
        for measure, values in measures.items():
            key = f"{grouping}_{measure}"
            groups = [values[label == k] for k in np.unique(label)]
            want = sps.f_oneway(*groups)
            got = report.get("anovas", {}).get(key)
            if got is None:
                problems.append(f"anova {key} missing")
            elif not (_close(got["f"], want.statistic, 2) and _close(got["p"], want.pvalue, 3)):
                problems.append(
                    f"anova {key}: F={got['f']} p={got['p']}, "
                    f"scipy F={want.statistic:.4f} p={want.pvalue:.5f}"
                )
    r = sps.pearsonr(ratios, exp.post_test).statistic
    got_r = report.get("correlation", {}).get("r")
    if not _close(got_r, r, 4):
        problems.append(f"pearson r {got_r} != scipy {r:.6f}")
    return problems


def check_report_file(path: Path, exp: Expected, ratios: np.ndarray) -> list:
    try:
        report = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"{path.name}: unreadable report: {exc}"]
    return check_report(report, exp, ratios)


def check_synth(out_dir: Path, teams: int, frames: int) -> list:
    """Row counts of a synth run and the team count of its ground truth."""
    problems = []
    want = {"frames.csv": teams * frames * 2, "teams.csv": teams}
    for name, rows in want.items():
        try:
            got = (out_dir / name).read_bytes().count(b"\n") - 1
        except OSError as exc:
            problems.append(f"synth {name}: {exc}")
            continue
        if got != rows:
            problems.append(f"synth {name}: {got} rows, expected {rows}")
    try:
        truth = json.loads((out_dir / "ground_truth.json").read_text(encoding="utf-8"))
        if len(truth["team_ratios"]) != teams:
            problems.append(f"synth ground truth has {len(truth['team_ratios'])} teams")
    except (OSError, ValueError, KeyError) as exc:
        problems.append(f"synth ground_truth.json: {exc}")
    return problems


def check_counts(counts: dict, exp: Expected, synth_rows: int) -> list:
    """Counts recorded by the traced run against the generator's."""
    want = {
        "ingest.rows_read": exp.rows_read,
        "ingest.rows_skipped": exp.rows_skipped,
        "ingest.frames_built": exp.frames_built,
        "score.frames_counted": exp.frames_counted,
        "score.frames_jva": exp.frames_jva,
        "synth.rows": synth_rows,
    }
    return [
        f"{name}: traced {counts.get(name)} != expected {value}"
        for name, value in want.items()
        if counts.get(name) != value
    ]
