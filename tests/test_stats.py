import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from oracles import f_tail_by_quadrature, moment_matched_groups, raw_sample_anova
from teamgaze import stats
from teamgaze.stats import (
    GroupSummary,
    anova_from_summary,
    correlation_from_r,
    f_tail_p,
    pairwise_comparisons,
    pearson,
    regularized_incomplete_beta,
    summarize,
)

# Published condition/group/gender summaries for the 30-team study.
JVA_CONTROL = GroupSummary("control", 10, 31.30, 9.73)
JVA_EXPERIMENT = GroupSummary("experiment", 20, 45.55, 15.97)
JVA_CONDITIONS = [
    GroupSummary("textbook", 10, 31.30, 9.73),
    GroupSummary("tablet", 10, 46.50, 15.43),
    GroupSummary("ar", 10, 44.60, 17.28),
]
POST_CONTROL = GroupSummary("control", 10, 1.15, 0.95)
POST_EXPERIMENT = GroupSummary("experiment", 20, 2.35, 1.20)
GENDER_JVA = [
    GroupSummary("FF", 15, 37.00, 15.05),
    GroupSummary("MM", 7, 41.86, 16.72),
    GroupSummary("MX", 8, 47.00, 15.46),
]
GENDER_POST = [
    GroupSummary("FF", 15, 1.63, 1.29),
    GroupSummary("MM", 7, 2.00, 1.04),
    GroupSummary("MX", 8, 2.50, 1.28),
]


def anova_of_samples(samples):
    """The ANOVA a report takes of raw samples: that of their summaries."""
    return anova_from_summary([summarize(s) for s in samples])


def cohens_d(a: GroupSummary, b: GroupSummary):
    """The Cohen's d a report gives two groups."""
    (comparison,) = pairwise_comparisons([a, b])
    return comparison["cohens_d"]


def test_summarize_simple():
    summary = summarize([1, 2, 3])
    assert summary.mean == pytest.approx(2.0)
    assert summary.sd == pytest.approx(1.0)


def test_summarize_constant_sample():
    summary = summarize([5, 5, 5, 5])
    assert (summary.mean, summary.sd) == (5.0, 0.0)


def test_summarize_needs_two_values():
    with pytest.raises(ValueError, match="insufficient data"):
        summarize([1.0])


def test_summarize_round_trips_through_moment_matching():
    (sample,) = moment_matched_groups([(10, 31.30, 9.73)])
    summary = summarize(sample)
    assert summary.mean == pytest.approx(31.30, abs=1e-9)
    assert summary.sd == pytest.approx(9.73, abs=1e-9)


def test_moment_matching_is_exact():
    samples = moment_matched_groups([(10, 31.30, 9.73), (4, 0.0, 1.0), (5, 2.5, 0.0)])
    a, b, c = samples
    assert np.mean(a) == pytest.approx(31.30, abs=1e-9)
    assert np.std(a, ddof=1) == pytest.approx(9.73, abs=1e-9)
    assert np.mean(b) == pytest.approx(0.0, abs=1e-12)
    assert np.std(b, ddof=1) == pytest.approx(1.0, abs=1e-12)
    assert c == [2.5] * 5


def test_identical_groups_give_zero_f():
    result = anova_of_samples([[1, 2, 3, 4], [1, 2, 3, 4]])
    assert result.f == pytest.approx(0.0)
    assert result.p == pytest.approx(1.0)


def test_two_group_jva_anova_matches_published_value():
    result = anova_from_summary([JVA_CONTROL, JVA_EXPERIMENT])
    assert result.f == pytest.approx(6.65, abs=0.05)
    assert (result.df_between, result.df_within) == (1, 28)
    assert result.p < 0.05


def test_three_group_jva_anova_matches_published_value():
    result = anova_from_summary(JVA_CONDITIONS)
    assert result.f == pytest.approx(3.26, abs=0.05)
    assert (result.df_between, result.df_within) == (2, 27)
    assert result.p == pytest.approx(0.054, abs=0.004)


def test_post_test_anovas_match_published_values():
    two = anova_from_summary([POST_CONTROL, POST_EXPERIMENT])
    assert two.f == pytest.approx(7.56, abs=0.05)
    assert two.p < 0.05


def test_gender_anovas_match_published_values():
    jva = anova_from_summary(GENDER_JVA)
    post = anova_from_summary(GENDER_POST)
    assert jva.f == pytest.approx(1.10, abs=0.05)
    assert post.f == pytest.approx(1.29, abs=0.05)
    assert jva.p > 0.05 and post.p > 0.05


def test_raw_anova_agrees_with_summary_on_matched_samples():
    samples = moment_matched_groups([(g.n, g.mean, g.sd) for g in JVA_CONDITIONS])
    raw = raw_sample_anova(samples)
    summary = anova_from_summary(JVA_CONDITIONS)
    assert raw.f == pytest.approx(summary.f, rel=1e-9)
    assert scipy_stats.f.sf(raw.f, 2, 27) == pytest.approx(summary.p, rel=1e-9)


def test_zero_within_variance_reports_infinite_f():
    n = 10**305  # takes ss_between past the largest float
    for result in (
        anova_of_samples([[1, 1, 1], [2, 2, 2]]),
        anova_from_summary([GroupSummary("a", n, 0.0, 0.0), GroupSummary("b", n, 100.0, 0.0)]),
        # A within sum of squares of ~1e-319, whose mean square underflows to 0.
        anova_from_summary([GroupSummary("a", 10, 1.0, 1e-160), GroupSummary("b", 10**6, 2, 0)]),
    ):
        assert math.isinf(result.f)
        assert (result.p, result.eta_squared, result.omega_squared) == (0.0, 1.0, 1.0)


def test_all_identical_values_degenerate():
    with pytest.raises(ValueError, match="zero total variance"):
        anova_of_samples([[3, 3, 3], [3, 3, 3]])


def test_cohens_d_matches_published_values():
    assert cohens_d(JVA_CONTROL, JVA_EXPERIMENT) == pytest.approx(1.00, abs=0.02)
    assert cohens_d(POST_CONTROL, POST_EXPERIMENT) == pytest.approx(1.06, abs=0.02)


def test_cohens_d_identical_groups_is_zero():
    group = GroupSummary("a", 10, 5.0, 2.0)
    assert cohens_d(group, group) == 0.0
    # A zero pooled SD with equal means: zero total variance, no comparison.
    constant = GroupSummary("a", 10, 5.0, 0.0)
    assert pairwise_comparisons([constant, constant]) == []


def test_cohens_d_degenerate_pooled_sd():
    assert cohens_d(GroupSummary("a", 5, 1.0, 0.0), GroupSummary("b", 5, 2.0, 0.0)) is None


def test_pearson_exact_line():
    x = list(range(1, 11))
    y = [2 * v + 1 for v in x]
    result = pearson(x, y)
    assert result.r == pytest.approx(1.0)
    assert result.slope == pytest.approx(2.0)
    assert result.intercept == pytest.approx(1.0)
    assert result.p == 0.0


def test_pearson_antisymmetry():
    x = list(range(1, 11))
    result = pearson(x, list(reversed(x)))
    assert result.r == pytest.approx(-1.0)


def test_pearson_constant_variable_degenerate():
    with pytest.raises(ValueError, match="constant variable"):
        pearson([1, 1, 1, 1], [1, 2, 3, 4])


def test_correlation_identity_matches_published_value():
    result = correlation_from_r(0.50, 30)
    assert result.f_equivalent == pytest.approx(9.33, abs=0.01)
    assert result.r_squared == 0.25
    assert result.p < 0.005


@given(
    # Hundredths in [-50, 50]: no x so small that y rounds to a constant.
    st.lists(st.integers(-5000, 5000), min_size=5, max_size=30, unique=True).map(
        lambda xs: [v / 100 for v in xs]
    ),
    st.floats(0.1, 10),
    st.floats(-100, 100),
)
@settings(max_examples=100)
def test_pearson_invariant_under_positive_affine_maps(x, scale, shift):
    y = [3.0 * v - 2.0 + 0.5 * (v % 7) for v in x]
    base = pearson(x, y)
    mapped = pearson([scale * v + shift for v in x], y)
    assert mapped.r == pytest.approx(base.r, abs=1e-9)


def test_pearson_sign_flips_under_negation():
    x = [1.0, 2.0, 4.0, 8.0, 9.0]
    y = [2.0, 1.0, 5.0, 7.0, 11.0]
    assert pearson([-v for v in x], y).r == pytest.approx(-pearson(x, y).r)


def test_pairwise_comparisons_are_labeled_uncorrected():
    out = pairwise_comparisons(JVA_CONDITIONS)
    assert len(out) == 3
    assert all(c["correction"] == "uncorrected" for c in out)
    tt = next(c for c in out if {c["a"], c["b"]} == {"textbook", "tablet"})
    assert tt["cohens_d"] > 1.0


def test_pairwise_comparison_with_zero_pooled_sd_reports_no_d():
    groups = [GroupSummary("a", 3, 1.0, 0.0), GroupSummary("b", 3, 2.0, 0.0),
              GroupSummary("c", 3, 2.0, 1.0)]
    by_pair = {(c["a"], c["b"]): c for c in pairwise_comparisons(groups)}
    assert by_pair[("a", "b")]["f"] == math.inf
    assert by_pair[("a", "b")]["cohens_d"] is None
    assert by_pair[("a", "c")]["cohens_d"] == pytest.approx(math.sqrt(2))


# Means snap to a 0.1 grid: near-identical means make the between-group
# sum of squares cancellation-dominated, which has nothing to do with the
# identity under test.
group_spec = st.tuples(
    st.integers(2, 25),
    st.floats(-100, 100).map(lambda m: round(m, 1)),
    st.floats(0.01, 50),
)


@given(st.lists(group_spec, min_size=2, max_size=6))
@settings(max_examples=250, deadline=None)
def test_oracle_equivalence_raw_vs_summary(specs):
    raw = raw_sample_anova(moment_matched_groups(specs))
    summary = anova_from_summary(
        [GroupSummary(str(i), n, m, sd) for i, (n, m, sd) in enumerate(specs)]
    )
    eta_squared = raw.ss_between / (raw.ss_between + raw.ss_within)
    assert raw.f == pytest.approx(summary.f, rel=1e-9, abs=1e-9)
    assert eta_squared == pytest.approx(summary.eta_squared, rel=1e-9, abs=1e-9)


@given(
    st.lists(group_spec, min_size=2, max_size=5),
    st.floats(-100, 100),
    st.floats(0.1, 100),
)
@settings(max_examples=150, deadline=None)
def test_f_invariant_under_shift_and_positive_scale(specs, shift, scale):
    samples = moment_matched_groups(specs)
    base = anova_of_samples(samples)
    transformed = anova_of_samples([[scale * v + shift for v in s] for s in samples])
    assert transformed.f == pytest.approx(base.f, rel=1e-9, abs=1e-9)


@given(st.lists(group_spec, min_size=2, max_size=6))
@settings(max_examples=150, deadline=None)
def test_effect_size_bounds(specs):
    result = anova_of_samples(moment_matched_groups(specs))
    assert 0.0 <= result.eta_squared <= 1.0
    assert result.omega_squared <= result.eta_squared + 1e-12


def test_f_tail_at_zero_is_one():
    assert f_tail_p(0.0, 2, 27) == 1.0


def test_f_tail_at_infinity_is_zero():
    assert f_tail_p(math.inf, 1, 28) == 0.0


def test_f_tail_published_p_value():
    assert f_tail_p(3.26, 2, 27) == pytest.approx(0.054, abs=0.001)


def test_f_tail_two_group_jva_p_in_expected_band():
    p = f_tail_p(6.65, 1, 28)
    assert 0.01 < p < 0.02


@pytest.mark.parametrize("df1", [1, 2, 5])
@pytest.mark.parametrize("df2", [5, 27, 28, 100])
def test_f_tail_matches_quadrature_oracle(df1, df2):
    for f in [0.1, 0.5, 1.0, 2.0, 3.26, 5.0, 10.0, 20.0]:
        assert f_tail_p(f, df1, df2) == pytest.approx(
            f_tail_by_quadrature(f, df1, df2), abs=1e-8
        )


def test_f_tail_monotone_decreasing_in_f():
    grid = np.linspace(0.01, 30, 200)
    for df1, df2 in [(1, 28), (2, 27), (5, 100)]:
        values = [f_tail_p(f, df1, df2) for f in grid]
        assert all(a >= b for a, b in zip(values, values[1:]))


@given(st.floats(0.01, 50), st.integers(2, 200))
@settings(max_examples=200, deadline=None)
def test_f_tail_equals_two_sided_t(f, df):
    t_p = 2 * scipy_stats.t.sf(math.sqrt(f), df)
    assert f_tail_p(f, 1, df) == pytest.approx(t_p, abs=1e-9)


def test_incomplete_beta_edge_cases():
    assert regularized_incomplete_beta(2, 3, 0.0) == 0.0
    assert regularized_incomplete_beta(2, 3, 1.0) == 1.0
    assert regularized_incomplete_beta(2.5, 4.5, 0.3) == pytest.approx(
        scipy_stats.beta.cdf(0.3, 2.5, 4.5), abs=1e-12
    )


@pytest.mark.parametrize(
    "call, args, message",
    [
        (GroupSummary, ("a", 5, 1.0, -0.1), "standard deviation must be non-negative"),
        (anova_from_summary, ([JVA_CONTROL],), "need at least two groups"),
        (pearson, ([1.0, 2.0, 3.0], [1.0, 2.0]), "x and y must have equal length"),
        # Constant x: without the size check, the constant-variable error.
        (pearson, ([1.0, 1.0], [1.0, 2.0]), "insufficient data: need n >= 3"),
        (correlation_from_r, (1.5, 10), "r must lie in [-1, 1]"),
        (correlation_from_r, (0.5, 2), "insufficient data: need n >= 3"),
        (regularized_incomplete_beta, (0.0, 1.0, 0.5), "a and b must be positive"),
        (regularized_incomplete_beta, (1.0, -1.0, 0.5), "a and b must be positive"),
        (f_tail_p, (-1.0, 1, 28), "f must be non-negative"),
        (f_tail_p, (1.0, 0, 28), "degrees of freedom must be >= 1"),
        (f_tail_p, (1.0, 1, 0), "degrees of freedom must be >= 1"),
    ],
    ids=["negative sd", "one summary",
         "unequal lengths", "two points", "r over 1", "r of two points",
         "a zero", "b negative", "negative f", "df1 zero", "df2 zero"],
)
def test_bad_input_is_rejected_naming_its_fault(call, args, message):
    with pytest.raises(ValueError) as info:
        call(*args)
    assert str(info.value) == message


def test_incomplete_beta_that_does_not_converge_names_its_last_step(monkeypatch):
    """The message gives the fraction's arguments and its last odd-term
    update, so it also pins the first step of the continued fraction."""
    monkeypatch.setattr(stats, "_BETA_MAX_ITER", 1)
    with pytest.raises(RuntimeError) as info:
        f_tail_p(6.65, 1, 28)
    assert str(info.value) == (
        "incomplete beta did not converge: a=14.0, b=0.5, x=0.8080808080808081, "
        "iterations=1, last delta=1.379e-02"
    )


def test_continued_fraction_steps_over_a_zero_denominator():
    """At a=1, b=3, x=0.5 the fraction's first denominator is 0; the guard
    carries it through to I_0.5(1, 3) = 1 - 0.5**3, over the front factor
    x**a (1-x)**b / (a B(a, b)) = 0.1875."""
    assert stats._betacf(1.0, 3.0, 0.5) * 0.1875 == pytest.approx(0.875, rel=1e-12)


def test_grand_mean_reconstruction_of_totals():
    jva_total = sum(g.n * g.mean for g in JVA_CONDITIONS) / 30
    post_groups = [POST_CONTROL, POST_EXPERIMENT]
    post_total = sum(g.n * g.mean for g in post_groups) / 30
    assert jva_total == pytest.approx(40.80, abs=0.005)
    assert post_total == pytest.approx(1.95, abs=0.005)
    gender_jva_total = sum(g.n * g.mean for g in GENDER_JVA) / 30
    gender_post_total = sum(g.n * g.mean for g in GENDER_POST) / 30
    assert gender_jva_total == pytest.approx(40.80, abs=0.005)
    assert gender_post_total == pytest.approx(1.95, abs=0.005)


# --- the plain-float battery against numpy's float64 ---------------------
#
# The battery sums with math.fsum over plain floats; numpy sums pairwise,
# 8 values to a lane and in runs of up to 128. The two may differ in the
# last bit of a sum, so each statistic is compared within 1e-12 of its own
# scale: the sample's largest magnitude for a mean or an SD, that squared
# times n for a sum of squares, 1 for r. F, p and eta^2 are compared where
# the sums of squares they divide are not themselves at the level of
# rounding.

TOLERANCE = 1e-12


@st.composite
def samples(draw, min_size=2):
    """n from 2 to 400, which crosses numpy's 8-lane and 128-value runs;
    magnitudes from 1e-6 to 1e6. The values come from a pool of 1 to n of
    them (1: a constant sample), or lie a few units in the last place
    apart (a near-constant one). A seeded generator fills the pool:
    drawing 400 floats one by one is slow."""
    n = draw(st.integers(min_size, 400))
    low, high = sorted(draw(st.tuples(st.integers(-6, 6), st.integers(-6, 6))))
    rng = random.Random(draw(st.integers(0, 2**32)))

    def value():
        return 10.0 ** rng.randint(low, high) * rng.uniform(1.0, 10.0)

    if draw(st.booleans()):
        base = value()
        return [base * (1 + rng.randint(0, 3) * 2.0**-52) for _ in range(n)]
    pool = [value() for _ in range(draw(st.integers(1, n)))]
    return [rng.choice(pool) for _ in range(n)]


def numpy_summary(x) -> tuple:
    a = np.asarray(x, dtype=float)
    return float(a.mean()), float(a.std(ddof=1))


def numpy_sums_of_squares(groups) -> tuple:
    arrays = [np.asarray(g, dtype=float) for g in groups]
    ns = np.array([a.size for a in arrays])
    means = np.array([a.mean() for a in arrays])
    grand_mean = (ns * means).sum() / ns.sum()
    ss_between = float((ns * (means - grand_mean) ** 2).sum())
    ss_within = float(sum(((a - a.mean()) ** 2).sum() for a in arrays))
    return ss_between, ss_within


def numpy_pearson_sums(x, y) -> tuple:
    """The means of x and y, and the sums of squares and products."""
    xa, ya = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    xc, yc = xa - xa.mean(), ya - ya.mean()
    sums = ((xc**2).sum(), (yc**2).sum(), (xc * yc).sum())
    return (float(xa.mean()), float(ya.mean()), *map(float, sums))


def scale(*samples) -> float:
    return max(max(map(abs, s)) for s in samples)


def close(value: float, reference: float, size: float) -> bool:
    return abs(value - reference) <= TOLERANCE * size


def constant(x) -> bool:
    return min(x) == max(x)


@given(samples())
@settings(max_examples=300, deadline=None)
def test_summarize_matches_numpy(x):
    summary, (mean, sd) = summarize(x), numpy_summary(x)
    assert close(summary.mean, mean, scale(x)) and close(summary.sd, sd, scale(x))
    assert (summary.sd == 0) == constant(x)


@given(st.lists(samples(), min_size=2, max_size=4))
@settings(max_examples=200, deadline=None)
def test_anova_of_samples_matches_numpy(groups):
    if constant([v for g in groups for v in g]):
        with pytest.raises(ValueError, match="^degenerate: zero total variance$"):
            anova_of_samples(groups)
        return
    ss_between, ss_within = numpy_sums_of_squares(groups)
    result = anova_of_samples(groups)
    k, n = len(groups), sum(map(len, groups))
    size = n * scale(*groups) ** 2
    assert close(result.ss_between, ss_between, size)
    assert close(result.ss_within, ss_within, size)
    assert (result.ss_within == 0) == all(map(constant, groups))
    if min(ss_between, ss_within) > 1e-6 * size:
        f = (ss_between / (k - 1)) / (ss_within / (n - k))
        assert result.f == pytest.approx(f, rel=TOLERANCE)
        assert result.p == pytest.approx(f_tail_p(f, k - 1, n - k), rel=1e-9)
        assert close(result.eta_squared, ss_between / (ss_between + ss_within), 1.0)


@given(samples(min_size=3).flatmap(lambda x: st.tuples(st.just(x), samples(len(x)))))
@settings(max_examples=300, deadline=None)
def test_pearson_matches_numpy(xy):
    x, y = xy[0], xy[1][: len(xy[0])]
    if constant(x) or constant(y):
        with pytest.raises(ValueError, match="^degenerate: constant variable$"):
            pearson(x, y)
        return
    result = pearson(x, y)  # a near-constant variable is not degenerate
    mean_x, mean_y, sxx, syy, sxy = numpy_pearson_sums(x, y)
    if sxx > 1e-6 * len(x) * scale(x) ** 2 and syy > 1e-6 * len(y) * scale(y) ** 2:
        slope = sxy / sxx
        assert close(result.r, sxy / math.sqrt(sxx * syy), 1.0)
        # The slope's scale: the sums' scales carried through sxy / sxx.
        slope_size = len(x) * scale(x) * (scale(y) + abs(slope) * scale(x)) / sxx
        assert close(result.slope, slope, slope_size)
        intercept_size = scale(y) + (slope_size + abs(slope)) * scale(x)
        assert close(result.intercept, mean_y - slope * mean_x, intercept_size)


def test_a_constant_sample_has_its_value_as_mean_and_no_spread():
    """numpy's mean of a constant sample may miss its value in the last bit
    (0.1 three times gives 0.10000000000000002), and its spread then reads
    as not zero; the battery's does not."""
    for value, n in ((0.1, 3), (0.1, 10), (1e6 / 3, 10), (3.3, 300), (-0.0, 9)):
        assert (summarize([value] * n).mean, summarize([value] * n).sd) == (value, 0.0)
        with pytest.raises(ValueError, match="^degenerate: zero total variance$"):
            anova_of_samples([[value] * n, [value] * 2])
        with pytest.raises(ValueError, match="^degenerate: constant variable$"):
            pearson([value] * n, list(range(n)))
