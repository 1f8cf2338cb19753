"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import math

import numpy as np
import pytest

from oracles import (
    brute_force_jva_count,
    f_tail_by_quadrature,
    moment_matched_groups,
    raw_sample_anova,
    reference_frame_table,
    team_jva_counts_of,
    teams_of,
)
from scipy import stats as scipy_stats

from teamgaze.gazefield import decode_heatmap
from teamgaze.frame_table import analyze_table, read_frame_table
from teamgaze.io_report import load_teams
from teamgaze.gazefield import Heatmap
from teamgaze.stats import (
    GroupSummary,
    anova_from_summary,
    correlation_from_r,
    f_tail_p,
    pairwise_comparisons,
)
from teamgaze.synth import SynthSpec, generate


def report(criterion: str, ok: bool = True) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {criterion}")


def test_criterion_01_two_group_jva_anova():
    control = GroupSummary("control", 10, 31.30, 9.73)
    experiment = GroupSummary("experiment", 20, 45.55, 15.97)
    result = anova_from_summary([control, experiment])
    assert result.f == pytest.approx(6.65, abs=0.05)
    assert (result.df_between, result.df_within) == (1, 28)
    assert result.p < 0.05
    (comparison,) = pairwise_comparisons([control, experiment])
    assert comparison["cohens_d"] == pytest.approx(1.00, abs=0.02)
    report("criterion 1: two-group JVA ANOVA F=6.65 (1,28), p<0.05, d=1.00")


def test_criterion_02_three_condition_jva_anova():
    result = anova_from_summary(
        [
            GroupSummary("textbook", 10, 31.30, 9.73),
            GroupSummary("tablet", 10, 46.50, 15.43),
            GroupSummary("ar", 10, 44.60, 17.28),
        ]
    )
    assert result.f == pytest.approx(3.26, abs=0.05)
    assert (result.df_between, result.df_within) == (2, 27)
    assert result.p == pytest.approx(0.054, abs=0.004)
    report("criterion 2: three-condition JVA ANOVA F=3.26 (2,27), p=0.054")


def test_criterion_03_post_test_group_comparison():
    control = GroupSummary("control", 10, 1.15, 0.95)
    experiment = GroupSummary("experiment", 20, 2.35, 1.20)
    result = anova_from_summary([control, experiment])
    assert result.f == pytest.approx(7.56, abs=0.05)
    (comparison,) = pairwise_comparisons([control, experiment])
    assert comparison["cohens_d"] == pytest.approx(1.06, abs=0.02)
    report("criterion 3: post-test group ANOVA F=7.56, d=1.06")


def test_criterion_04_gender_anovas():
    jva = anova_from_summary(
        [
            GroupSummary("FF", 15, 37.00, 15.05),
            GroupSummary("MM", 7, 41.86, 16.72),
            GroupSummary("MX", 8, 47.00, 15.46),
        ]
    )
    post = anova_from_summary(
        [
            GroupSummary("FF", 15, 1.63, 1.29),
            GroupSummary("MM", 7, 2.00, 1.04),
            GroupSummary("MX", 8, 2.50, 1.28),
        ]
    )
    assert jva.f == pytest.approx(1.10, abs=0.05)
    assert post.f == pytest.approx(1.29, abs=0.05)
    assert (jva.df_between, jva.df_within) == (2, 27)
    assert (post.df_between, post.df_within) == (2, 27)
    assert jva.p > 0.05 and post.p > 0.05
    report("criterion 4: gender ANOVAs F=1.10 and F=1.29, both ns")


def test_criterion_05_correlation_identity():
    result = correlation_from_r(0.50, 30)
    assert result.f_equivalent == pytest.approx(9.33, abs=0.01)
    assert result.r_squared == 0.25
    report("criterion 5: correlation identity F=9.33, r2=0.25 at r=0.50, n=30")


def test_criterion_06_grand_mean_totals():
    condition_jva = [(10, 31.30), (10, 46.50), (10, 44.60)]
    condition_post = [(10, 1.15), (10, 2.35), (10, 2.35)]
    gender_jva = [(15, 37.00), (7, 41.86), (8, 47.00)]
    gender_post = [(15, 1.63), (7, 2.00), (8, 2.50)]
    for groups, expected in [
        (condition_jva, 40.80),
        (gender_jva, 40.80),
        (condition_post, 1.95),
        (gender_post, 1.95),
    ]:
        total = sum(n * m for n, m in groups) / sum(n for n, _ in groups)
        assert total == pytest.approx(expected, abs=0.005)
    report("criterion 6: grand means reconstruct totals 40.80 and 1.95")


def test_criterion_07_oracle_equivalence_raw_vs_summary():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        k = int(rng.integers(2, 7))
        specs = [
            (int(rng.integers(2, 30)), float(rng.uniform(-100, 100)),
             float(rng.uniform(0.05, 40)))
            for _ in range(k)
        ]
        raw = raw_sample_anova(moment_matched_groups(specs))
        summary = anova_from_summary(
            [GroupSummary(str(i), n, m, sd) for i, (n, m, sd) in enumerate(specs)]
        )
        df_within = sum(n for n, _, _ in specs) - k
        assert raw.f == pytest.approx(summary.f, rel=1e-9)
        p = scipy_stats.f.sf(raw.f, k - 1, df_within)
        assert p == pytest.approx(summary.p, rel=1e-9, abs=1e-12)
    report("criterion 7: raw vs summary ANOVA agree to 1e-9 over 200 configs")


def test_criterion_08_end_to_end_round_trip(tmp_path):
    probabilities = {"textbook": 0.1, "tablet": 0.5, "ar": 0.9}
    spec = SynthSpec(
        teams=9, frames_per_team=200, jva_probability=probabilities, seed=11
    )
    frames_path, teams_path, truth_path = generate(spec, tmp_path / "exact")
    truth = json.loads(truth_path.read_text())
    result = analyze_table(read_frame_table(frames_path), load_teams(teams_path))
    for team in teams_of(result.teams):
        assert team.jva_ratio_pct == pytest.approx(
            100.0 * truth["team_ratios"][team.team_id], abs=1e-12
        )

    noisy = SynthSpec(
        teams=9, frames_per_team=1000, jva_probability=probabilities,
        gaze_noise_sigma=20.0, seed=12,
    )
    frames_path, teams_path, truth_path = generate(noisy, tmp_path / "noisy")
    truth = json.loads(truth_path.read_text())
    result = analyze_table(read_frame_table(frames_path), load_teams(teams_path))
    for team in teams_of(result.teams):
        assert team.jva_ratio_pct == pytest.approx(
            100.0 * truth["team_ratios"][team.team_id], abs=2.0
        )
    report("criterion 8: synth round trip exact at zero noise, ±2 pp at sigma=20")


def _frame_rows(cases, one_team=False):
    """Frame-table rows of one 4000x4000 frame per case ``(ax, ay, bx, by)``:
    p1 gazes at (ax, ay) and p2 at (bx, by); each frame is a team of its
    own, or all are frames of team t."""
    return [
        f"{'t' if one_team else f't{i}'},f{i},0.0,4000,4000,{person},{x!r},{y!r},,,1.0,0"
        for i, (ax, ay, bx, by) in enumerate(cases)
        for person, x, y in (("p1", ax, ay), ("p2", bx, by))
    ]


def _decisions(table, threshold=100.0):
    """Each one-frame team's JVA decision by ``team_jva_counts``, after
    checking that the reference decides the same, and each frame's
    distance by the reference."""
    counts, frames = brute_force_jva_count(table, threshold)
    program = team_jva_counts_of(table, threshold)
    assert program == counts
    assert all(denominator == 1 for _, denominator in program.values())
    return np.array([jva == 1 for jva, _ in program.values()]), [d for d, _, _ in frames]


def test_criterion_09_jva_property_suite():
    rng = np.random.default_rng(7)
    cases = rng.uniform(0, 2000, size=(1000, 4))
    table = reference_frame_table(_frame_rows(cases.tolist()))

    # threshold monotonicity, 1000 frames at each of 50 threshold pairs
    for t1, t2 in np.sort(rng.uniform(1, 500, size=(50, 2))).tolist():
        low, _ = _decisions(table, t1)
        high, _ = _decisions(table, t2)
        assert (high | ~low).all()

    # person-swap symmetry and translation invariance
    base, distance = _decisions(table)
    swapped, swapped_distance = _decisions(
        reference_frame_table(_frame_rows(cases[:, [2, 3, 0, 1]].tolist()))
    )
    assert (swapped == base).all()
    assert swapped_distance == pytest.approx(distance)
    shift = np.tile(rng.uniform(0, 500, size=(1000, 2)), 2)
    moved_rows = _frame_rows((cases + shift).tolist())
    moved, moved_distance = _decisions(reference_frame_table(moved_rows))
    assert moved_distance == pytest.approx(distance, abs=1e-6)
    near = np.abs(np.array(distance) - 100.0) < 1e-6
    assert ((moved == base) | near).all()

    # strict boundary at exactly the threshold; quarter-pixel grid keeps
    # x + 100 exactly representable so the distance is exactly 100.0
    corners = np.round(rng.uniform(0, 1000, size=(1000, 2)) * 4) / 4
    at_threshold = np.column_stack([corners, corners[:, 0] + 100.0, corners[:, 1]])
    decided, at_distance = _decisions(reference_frame_table(_frame_rows(at_threshold.tolist())))
    assert at_distance == [100.0] * 1000
    assert not decided.any()

    # ratio bounds over one team's 1000 frames
    one_team = reference_frame_table(_frame_rows(cases.tolist(), one_team=True))
    counts, _ = brute_force_jva_count(one_team, 100.0)
    ((jva, denominator),) = team_jva_counts_of(one_team, 100.0).values()
    assert (jva, denominator) == counts["t"] and denominator == 1000
    assert 0.0 <= jva / denominator <= 1.0
    report("criterion 9: JVA properties hold over 1000 randomized frames each")


def test_criterion_10_f_tail_numerics():
    for df1 in (1, 2, 5):
        for df2 in (5, 27, 28, 100):
            for f in (0.1, 0.5, 1.0, 2.0, 3.26, 5.0, 8.0, 13.0, 20.0):
                assert f_tail_p(f, df1, df2) == pytest.approx(
                    f_tail_by_quadrature(f, df1, df2), abs=1e-8
                )
    rng = np.random.default_rng(1)
    for _ in range(500):
        f = float(rng.uniform(0.01, 50))
        df = int(rng.integers(2, 200))
        t_p = 2 * scipy_stats.t.sf(math.sqrt(f), df)
        assert f_tail_p(f, 1, df) == pytest.approx(t_p, abs=1e-9)
    report("criterion 10: F tail matches quadrature to 1e-8 and t identity to 1e-9")


def test_criterion_11_inference_geometry_suite():
    rng = np.random.default_rng(3)

    # decode/encode spike round trip and argmax scale invariance
    for _ in range(200):
        w, h = int(rng.integers(2, 80)), int(rng.integers(2, 80))
        col, row = int(rng.integers(0, w)), int(rng.integers(0, h))
        sw, sh = float(rng.uniform(50, 5000)), float(rng.uniform(50, 5000))
        values = np.zeros((h, w))
        values[row, col] = float(rng.uniform(0.1, 10))
        point = decode_heatmap(Heatmap(values), sw, sh)
        assert point.x == pytest.approx((col + 0.5) * sw / w)
        assert point.y == pytest.approx((row + 0.5) * sh / h)
        scaled = decode_heatmap(Heatmap(values * float(rng.uniform(0.5, 100))), sw, sh)
        assert (scaled.x, scaled.y) == (point.x, point.y)
    report("criterion 11: decode round trips")
