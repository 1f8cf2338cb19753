"""End-to-end synthetic study: generate, ingest, score, report.

The generator writes frame/team CSV files with known per-team JVA
probabilities, the loaders read them back through the real ingestion
path, and the analysis recovers the ground-truth JVA ratios. With zero
gaze noise recovery is exact.
"""

import json
import tempfile

from teamgaze import SynthSpec, analyze_table, emit_report
from teamgaze.io_report import load_teams, read_frame_table
from teamgaze.synth import generate

spec = SynthSpec(
    teams=9,
    frames_per_team=155,          # ~ ten-second captures over a 26-minute task
    jva_probability={"textbook": 0.31, "tablet": 0.47, "ar": 0.45},
    gaze_noise_sigma=0.0,
    seed=2024,
)

with tempfile.TemporaryDirectory() as tmp:
    frames_path, teams_path, truth_path = generate(spec, tmp)
    truth = json.loads(truth_path.read_text(encoding="utf-8"))
    report = analyze_table(read_frame_table(frames_path), load_teams(teams_path))

    print("ground truth vs recovered JVA ratio (%):")
    for team_id, ratio in zip(report.teams.team_ids, report.teams.jva_ratio_pct.tolist()):
        expected = 100.0 * truth["team_ratios"][team_id]
        print(f"  {team_id}  {expected:6.2f}  ->  {ratio:6.2f}")

    print()
    print(emit_report(report, fmt="text"))
