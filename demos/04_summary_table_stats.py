"""Inferential statistics from published summary tables.

When only group-level (n, M, SD) cells are available, the one-way ANOVA,
p-values and effect sizes are computable directly from the summaries. The
bundled fixture carries the 30-team study's condition, group and gender
tables; this demo rebuilds every F statistic from it.
"""

from teamgaze import emit_report
from teamgaze.io_report import paper_fixture_path, stats_report_from_table
from teamgaze.stats import anova_oneway
from teamgaze.synth import moment_matched_groups

report = stats_report_from_table(paper_fixture_path())
print(emit_report(report, fmt="text"))

# Summary-based ANOVA agrees with raw-sample ANOVA on samples constructed
# to match the summary moments exactly.
jva_groups = report.summaries["condition"]["jva_ratio_pct"]
samples = moment_matched_groups([(g.n, g.mean, g.sd) for g in jva_groups])
raw = anova_oneway(samples)
summary_f = report.anovas["condition_jva_ratio_pct"].f
print(f"moment-matched raw-sample F = {raw.f:.6f}")
print(f"summary-statistics F        = {summary_f:.6f}")
