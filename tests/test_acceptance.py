"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import math

import numpy as np
import pytest

from oracles import f_tail_by_quadrature
from scipy import stats as scipy_stats

from teamgaze.gazefield import (
    decode_heatmap,
    direction_value,
    multiscale_fields,
)
from teamgaze.io_report import analyze_table, load_teams, read_frame_table
from teamgaze.jva import JvaConfig, classify_frame, session_jva
from teamgaze.model import (
    Condition,
    FrameRecord,
    GazeObservation,
    GenderComposition,
    Heatmap,
    Point2D,
    TeamSession,
)
from teamgaze.stats import (
    GroupSummary,
    anova_from_summary,
    anova_oneway,
    cohens_d,
    correlation_from_r,
    f_tail_p,
)
from teamgaze.synth import SynthSpec, generate, moment_matched_groups


def report(criterion: str, ok: bool = True) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {criterion}")


def test_criterion_01_two_group_jva_anova():
    control = GroupSummary("control", 10, 31.30, 9.73)
    experiment = GroupSummary("experiment", 20, 45.55, 15.97)
    result = anova_from_summary([control, experiment])
    assert result.f == pytest.approx(6.65, abs=0.05)
    assert (result.df_between, result.df_within) == (1, 28)
    assert result.p < 0.05
    assert cohens_d(control, experiment) == pytest.approx(1.00, abs=0.02)
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
    assert cohens_d(control, experiment) == pytest.approx(1.06, abs=0.02)
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
        samples = moment_matched_groups(specs)
        raw = anova_oneway(samples)
        summary = anova_from_summary(
            [GroupSummary(str(i), n, m, sd) for i, (n, m, sd) in enumerate(specs)]
        )
        assert raw.f == pytest.approx(summary.f, rel=1e-9)
        assert raw.p == pytest.approx(summary.p, rel=1e-9, abs=1e-12)
    report("criterion 7: raw vs summary ANOVA agree to 1e-9 over 200 configs")


def _session(team_id, frames):
    return TeamSession(
        team_id=team_id,
        condition=Condition.TABLET,
        gender_composition=GenderComposition.MIXED,
        team_post_test=2.5,
        frames=tuple(frames),
    )


def test_criterion_08_end_to_end_round_trip(tmp_path):
    probabilities = {f"team{i:02d}": i / 10 for i in range(1, 10)}
    spec = SynthSpec(
        teams=9, frames_per_team=200, jva_probability=probabilities, seed=11
    )
    frames_path, teams_path, truth_path = generate(spec, tmp_path / "exact")
    truth = json.loads(truth_path.read_text())
    result = analyze_table(read_frame_table(frames_path), load_teams(teams_path))
    for row in result.teams:
        assert row.jva_ratio_pct == pytest.approx(
            100.0 * truth["team_ratios"][row.team_id], abs=1e-12
        )

    noisy = SynthSpec(
        teams=9, frames_per_team=1000, jva_probability=probabilities,
        gaze_noise_sigma=20.0, seed=12,
    )
    frames_path, teams_path, truth_path = generate(noisy, tmp_path / "noisy")
    truth = json.loads(truth_path.read_text())
    result = analyze_table(read_frame_table(frames_path), load_teams(teams_path))
    for row in result.teams:
        assert row.jva_ratio_pct == pytest.approx(
            100.0 * truth["team_ratios"][row.team_id], abs=2.0
        )
    report("criterion 8: synth round trip exact at zero noise, ±2 pp at sigma=20")


def _pair_frame(i, a, b):
    return FrameRecord(
        frame_id=f"f{i}",
        timestamp=float(i),
        image_width=4000,
        image_height=4000,
        observations=(
            GazeObservation("p1", Point2D(*a)),
            GazeObservation("p2", Point2D(*b)),
        ),
    )


def test_criterion_09_jva_property_suite():
    rng = np.random.default_rng(7)
    cases = rng.uniform(0, 2000, size=(1000, 4))

    # threshold monotonicity
    for ax, ay, bx, by in cases:
        frame = _pair_frame(0, (ax, ay), (bx, by))
        t1, t2 = sorted(rng.uniform(1, 500, size=2))
        low = classify_frame(frame, JvaConfig(threshold=t1))
        high = classify_frame(frame, JvaConfig(threshold=t2))
        assert high.is_jva or not low.is_jva

    # person-swap symmetry and translation invariance
    for ax, ay, bx, by in cases:
        base = classify_frame(_pair_frame(0, (ax, ay), (bx, by)))
        swapped = classify_frame(_pair_frame(0, (bx, by), (ax, ay)))
        assert base.distance == pytest.approx(swapped.distance)
        dx, dy = rng.uniform(0, 500, size=2)
        moved = classify_frame(
            _pair_frame(0, (ax + dx, ay + dy), (bx + dx, by + dy))
        )
        assert moved.distance == pytest.approx(base.distance, abs=1e-6)
        assert moved.is_jva == base.is_jva or abs(base.distance - 100.0) < 1e-6

    # strict boundary at exactly the threshold; quarter-pixel grid keeps
    # x + 100 exactly representable so the distance is exactly 100.0
    for i in range(1000):
        x = round(float(rng.uniform(0, 1000)) * 4) / 4
        y = round(float(rng.uniform(0, 1000)) * 4) / 4
        frame = _pair_frame(i, (x, y), (x + 100.0, y))
        result = classify_frame(frame)
        assert result.distance == 100.0
        assert not result.is_jva

    # ratio bounds on random sessions
    session = _session("t", [_pair_frame(i, c[:2], c[2:]) for i, c in enumerate(cases)])
    ratio = session_jva(session).jva_ratio
    assert 0.0 <= ratio <= 1.0
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

    # multiscale monotonicity in the exponent
    for _ in range(50):
        head = Point2D(float(rng.uniform(0, 31)), float(rng.uniform(0, 31)))
        theta = rng.uniform(0, 2 * math.pi)
        fields = multiscale_fields(
            head, (math.cos(theta), math.sin(theta)), 32, 32, [1, 2, 5]
        )
        v1, v2, v5 = (f.values for f in fields)
        assert np.all(v5 <= v2 + 1e-12) and np.all(v2 <= v1 + 1e-12)

    # rotational equivariance of the analytic field formula
    head = Point2D(0.0, 0.0)
    for _ in range(500):
        theta0, phi, alpha = rng.uniform(0, 2 * math.pi, size=3)
        radius = float(rng.uniform(0.1, 100))
        gamma = float(rng.uniform(0.5, 8))
        v0 = direction_value(
            head, (math.cos(theta0), math.sin(theta0)), gamma,
            Point2D(radius * math.cos(alpha), radius * math.sin(alpha)),
        )
        v1 = direction_value(
            head, (math.cos(theta0 + phi), math.sin(theta0 + phi)), gamma,
            Point2D(radius * math.cos(alpha + phi), radius * math.sin(alpha + phi)),
        )
        assert v0 == pytest.approx(v1, abs=1e-9)

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
    report("criterion 11: field monotonicity, equivariance, decode round trips")
