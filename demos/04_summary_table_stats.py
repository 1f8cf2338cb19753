"""Inferential statistics from published summary tables.

When only group-level (n, M, SD) cells are available, the one-way ANOVA,
p-values and effect sizes are computable directly from the summaries. The
bundled fixture carries the 30-team study's condition, group and gender
tables; this demo rebuilds every F statistic from it.
"""

from teamgaze import emit_report
from teamgaze.io_report import paper_fixture_path, stats_report_from_table

report = stats_report_from_table(paper_fixture_path())
print(emit_report(report, fmt="text"))

# The paper's F values, each rebuilt from the fixture's summaries alone.
for key, anova in sorted(report.anovas.items()):
    print(f"{key:<26}F({anova.df_between},{anova.df_within}) = {anova.f:.6f}")
