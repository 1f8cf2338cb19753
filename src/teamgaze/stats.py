"""Inferential statistics: descriptives, one-way ANOVA, effect sizes,
Pearson correlation with its regression line, and F-distribution tail
probabilities.

All variances are sample variances (n-1 denominator) throughout; the
two-group and three-group F statistics only come out right from published
(n, M, SD) summaries under that convention.

Samples are plain floats, and every sum over a sample is ``math.fsum``,
the correctly rounded sum. A mean is that sum over n, but a constant
sample's mean is its value, so that its spread is exactly zero; a sum of
squares is the fsum of the squared differences from the mean (two
passes).
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import repeat
from operator import mul, sub
from typing import NamedTuple, Sequence

__all__ = [
    "GroupSummary",
    "AnovaResult",
    "CorrelationResult",
    "summarize",
    "anova_from_summary",
    "pearson",
    "correlation_from_r",
    "pairwise_comparisons",
    "f_tail_p",
    "regularized_incomplete_beta",
]


class GroupSummary(namedtuple("GroupSummary", "label n mean sd")):
    """Label, size, mean and sample standard deviation of one group."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> GroupSummary:
        self = super().__new__(cls, *args, **kwargs)
        if self.n < 2:
            raise ValueError("insufficient data: group needs n >= 2")
        if self.sd < 0:
            raise ValueError("standard deviation must be non-negative")
        return self


class AnovaResult(NamedTuple):
    f: float
    df_between: int
    df_within: int
    p: float
    ss_between: float
    ss_within: float
    eta_squared: float
    omega_squared: float


class CorrelationResult(NamedTuple):
    r: float
    r_squared: float
    n: int
    f_equivalent: float
    p: float
    slope: float
    intercept: float


def _deviations(x: Sequence[float]) -> tuple[float, list]:
    """The mean of a non-empty sample and each value's difference from it."""
    mean = math.fsum(x) / len(x)
    if mean != x[0] and x[0] == x[-1] and min(x) == max(x):
        mean = float(x[0])  # a constant sample's, which the division may miss
    return mean, list(map(sub, x, repeat(mean)))


def _sum_of_squares(deviations: list) -> float:
    return math.fsum(map(mul, deviations, deviations))


def summarize(samples: Sequence[float], label: str = "") -> GroupSummary:
    """Mean and sample SD of a sequence; needs at least two values."""
    n = len(samples)
    if n < 2:
        raise ValueError("insufficient data: need n >= 2")
    mean, deviations = _deviations(samples)
    sd = math.sqrt(_sum_of_squares(deviations) / (n - 1))
    return GroupSummary(label=label, n=n, mean=mean, sd=sd)


def anova_from_summary(groups: Sequence[GroupSummary]) -> AnovaResult:
    """One-way ANOVA computed directly from (n, mean, sd) summaries."""
    k = len(groups)
    if k < 2:
        raise ValueError("need at least two groups")
    ns = [g.n for g in groups]
    means = [g.mean for g in groups]
    ss_within = sum((g.n - 1) * g.sd**2 for g in groups)
    n_total = int(sum(ns))
    grand_mean = means[0]  # exact when every group has the same mean
    if min(means) != max(means):
        grand_mean = sum(n * m for n, m in zip(ns, means)) / n_total
    ss_between = sum(n * (m - grand_mean) ** 2 for n, m in zip(ns, means))
    ss_total = ss_between + ss_within
    if ss_total == 0:
        raise ValueError("degenerate: zero total variance")
    df_between = k - 1
    df_within = n_total - k
    ms_within = ss_within / df_within
    eta_squared = ss_between / ss_total
    if ms_within == 0:
        # Distinct means with no within-group spread, or one whose mean
        # square underflows (an SD of 1e-160): F diverges. Eta squared is
        # set too: an n near 1e305 takes ss_between to inf.
        f, p, eta_squared, omega_squared = math.inf, 0.0, 1.0, 1.0
    else:
        f = (ss_between / df_between) / ms_within
        p = f_tail_p(f, df_between, df_within)
        omega_squared = (ss_between - df_between * ms_within) / (ss_total + ms_within)
    return AnovaResult(
        f=f,
        df_between=df_between,
        df_within=df_within,
        p=p,
        ss_between=ss_between,
        ss_within=ss_within,
        eta_squared=eta_squared,
        omega_squared=omega_squared,
    )


def pearson(x: Sequence[float], y: Sequence[float]) -> CorrelationResult:
    """Product-moment correlation with its least-squares line and F test."""
    n = len(x)
    if n != len(y):
        raise ValueError("x and y must have equal length")
    if n < 3:
        raise ValueError("insufficient data: need n >= 3")
    (mean_x, xc), (mean_y, yc) = _deviations(x), _deviations(y)
    sxx = _sum_of_squares(xc)
    syy = _sum_of_squares(yc)
    if sxx == 0 or syy == 0:
        raise ValueError("degenerate: constant variable")
    sxy = math.fsum(map(mul, xc, yc))
    r = sxy / math.sqrt(sxx * syy)
    r = max(-1.0, min(1.0, r))
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    return correlation_from_r(r, n)._replace(slope=slope, intercept=intercept)


def correlation_from_r(r: float, n: int) -> CorrelationResult:
    """Correlation result from r and n alone, via F = r^2 (n-2)/(1-r^2).

    Used when raw data is unavailable and only the coefficient is known;
    slope and intercept are reported as NaN.
    """
    if not (-1.0 <= r <= 1.0):
        raise ValueError("r must lie in [-1, 1]")
    if n < 3:
        raise ValueError("insufficient data: need n >= 3")
    r_squared = r * r
    if r_squared >= 1.0:
        f_equivalent, p = math.inf, 0.0
    else:
        f_equivalent = r_squared * (n - 2) / (1.0 - r_squared)
        p = f_tail_p(f_equivalent, 1, n - 2)
    return CorrelationResult(
        r=r,
        r_squared=r_squared,
        n=n,
        f_equivalent=f_equivalent,
        p=p,
        slope=math.nan,
        intercept=math.nan,
    )


def pairwise_comparisons(
    groups: Sequence[GroupSummary],
) -> list[dict]:
    """Uncorrected pairwise two-group ANOVAs plus Cohen's d.

    No multiple-comparison correction is applied; output is labeled
    accordingly by the report layer. ``cohens_d`` is None when the pair's
    pooled SD is zero but its means differ.
    """
    out = []
    for i in range(len(groups)):
        for j in range(i + 1, len(groups)):
            a, b = groups[i], groups[j]
            try:
                result = anova_from_summary([a, b])
            except ValueError:
                # degenerate pair (zero total variance); nothing to compare
                continue
            pooled_var = result.ss_within / result.df_within
            d = abs(a.mean - b.mean) / math.sqrt(pooled_var) if pooled_var else None
            out.append(
                {
                    "a": a.label,
                    "b": b.label,
                    "f": result.f,
                    "df": (result.df_between, result.df_within),
                    "p": result.p,
                    "cohens_d": d,
                    "correction": "uncorrected",
                }
            )
    return out


# --- F-distribution tail via the regularized incomplete beta function ---

_BETA_TOL = 1e-12
_BETA_MAX_ITER = 500
_TINY = 1e-300


def _guard(v: float) -> float:
    """``v``, or ``_TINY`` where ``|v|`` is below it."""
    return _TINY if abs(v) < _TINY else v


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta, modified Lentz method: step
    m adds the even term m(b-m)x / ((a-1+2m)(a+2m)), then the odd term
    -(a+m)(a+b+m)x / ((a+2m)(a+1+2m)), and convergence is checked after it."""
    c = 1.0
    d = 1.0 / _guard(1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, _BETA_MAX_ITER + 1):
        m2 = 2 * m
        even = m * (b - m) * x / ((a - 1.0 + m2) * (a + m2))
        odd = -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1.0 + m2))
        for aa in (even, odd):
            d = 1.0 / _guard(1.0 + aa * d)
            c = _guard(1.0 + aa / c)
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _BETA_TOL:
            return h
    raise RuntimeError(
        f"incomplete beta did not converge: a={a}, b={b}, x={x}, "
        f"iterations={_BETA_MAX_ITER}, last delta={delta - 1.0:.3e}"
    )


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b), evaluated by continued fraction with the symmetry switch."""
    if a <= 0 or b <= 0:
        raise ValueError("a and b must be positive")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(log_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def f_tail_p(f: float, df1: int, df2: int) -> float:
    """P(F >= f) for the F distribution with (df1, df2) degrees of freedom."""
    if f < 0:
        raise ValueError("f must be non-negative")
    if df1 < 1 or df2 < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if f == 0:
        return 1.0
    x = df2 / (df2 + df1 * f)
    return regularized_incomplete_beta(df2 / 2.0, df1 / 2.0, x)
