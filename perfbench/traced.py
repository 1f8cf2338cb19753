"""Traced in-process run of the pipeline, one span around each public call.

Run as a child of ``run.py`` with ``src`` on ``PYTHONPATH``. It times the
program's layers from outside, first in the order ``teamgaze analyze`` calls
them, then the calls analyze does not make (the text and csv-bundle
emitters, validation, the team-results loader, synth). Spans (name, start, end,
parent) and the counts taken at the same boundaries stay in memory and are
written as JSON to ``--out`` when the run ends.

Span names are ``stage[.variant]`` with stage in the fixed vocabulary
setup, synth, ingest, build, validate, score, stats, emit.
"""

from __future__ import annotations

import argparse
import gc
import json
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1]["id"] if self._open else None,
            "counts": {},
        }
        self.spans.append(record)
        self._open.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record["counts"]
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


def _ingest(io_report, args):
    config = io_report.load_config(args.config)
    loaded = io_report.load_frames(args.frames)
    teams = io_report.load_teams(args.teams)
    return config, loaded, teams


def _synth_recovery(io_report, jva, synth_dir: Path) -> list:
    """Problems found re-scoring synth output against its ground_truth.json."""
    truth = json.loads((synth_dir / "ground_truth.json").read_text(encoding="utf-8"))
    loaded = io_report.load_frames(synth_dir / "frames.csv")
    teams = io_report.load_teams(synth_dir / "teams.csv")
    problems = []
    for session in io_report.build_sessions(loaded.frames_by_team, teams):
        labels = [jva.classify_frame(fr).is_jva for fr in session.frames]
        if labels != [bool(v) for v in truth["frame_labels"][session.team_id]]:
            problems.append(f"synth {session.team_id}: frame labels differ from ground truth")
        ratio = jva.session_jva(session).jva_ratio
        if ratio != truth["team_ratios"][session.team_id]:
            problems.append(f"synth {session.team_id}: ratio {ratio} != ground truth")
    return problems


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--frames", required=True)
    parser.add_argument("--teams", required=True)
    parser.add_argument("--team-results", required=True)
    parser.add_argument("--config", default=None)
    parser.add_argument("--synth", nargs=3, type=int, metavar=("TEAMS", "FRAMES", "SEED"))
    parser.add_argument("--work", required=True, help="directory for outputs")
    parser.add_argument("--out", required=True, help="spans JSON path")
    parser.add_argument("--check-synth", action="store_true")
    parser.add_argument("--ingest-peak", action="store_true")
    args = parser.parse_args()
    work = Path(args.work)
    tracer = Tracer()
    result = {"problems": []}

    with tracer.span("setup"):
        import teamgaze.cli  # noqa: F401  (the import every CLI call pays)
        from teamgaze import io_report, jva, model, synth

    # The analyze path, stage by stage, as io_report.analyze_report runs it.
    with tracer.span("analyze"):
        with tracer.span("ingest") as counts:
            config, loaded, teams = _ingest(io_report, args)
        frames = [fr for records in loaded.frames_by_team.values() for fr in records]
        counts["rows_skipped"] = len(loaded.row_errors)
        counts["rows_read"] = sum(len(fr.observations) for fr in frames) + len(
            loaded.row_errors
        )
        counts["frames_built"] = len(frames)
        del frames

        with tracer.span("build"):
            sessions = io_report.build_sessions(loaded.frames_by_team, teams)

        with tracer.span("score") as counts:
            scored = [(s, jva.session_jva(s, config)) for s in sessions]
            rows = [
                io_report.TeamRow(
                    team_id=s.team_id,
                    condition=s.condition,
                    group=s.group,
                    gender=s.gender_composition,
                    jva_ratio_pct=r.jva_ratio_pct,
                    team_post_test=s.team_post_test,
                )
                for s, r in scored
            ]
        counts["frames_counted"] = sum(r.denominator_frames for _, r in scored)
        counts["frames_jva"] = sum(r.jva_frames for _, r in scored)

        with tracer.span("stats") as counts:
            report = io_report.stats_report_from_team_rows(rows)
            no_frames = [r.team_id for r in rows if r.jva_ratio_pct is None]
            if no_frames:
                report.notes.append(f"no countable frames for teams: {no_frames}")
        counts["teams"] = len(rows)

        with tracer.span("emit.json") as counts:
            text = io_report.emit_report(report, fmt="json", out=work / "report.json")
        counts["bytes"] = len(text.encode("utf-8"))

    with tracer.span("emit.text"):
        io_report.emit_report(report, fmt="text", out=work / "report.txt")
    with tracer.span("emit.csv-bundle"):
        io_report.emit_report(report, fmt="csv-bundle", out=work / "bundle")
    with tracer.span("validate") as counts:
        violations = [v for s in sessions for v in model.validate_session(s)]
    counts["violations"] = len(violations)
    with tracer.span("ingest.team_rows") as counts:
        team_rows = io_report.load_team_rows(args.team_results)
    counts["teams"] = len(team_rows)
    with tracer.span("synth") as counts:
        synth_teams, synth_frames, synth_seed = args.synth
        spec = synth.SynthSpec(
            teams=synth_teams, frames_per_team=synth_frames, seed=synth_seed
        )
        synth.generate(spec, work / "synth")
    counts["rows"] = (work / "synth" / "frames.csv").read_bytes().count(b"\n") - 1

    if violations:
        result["problems"].append(f"validate_session: {violations[:3]}")
    if args.check_synth:
        result["problems"] += _synth_recovery(io_report, jva, work / "synth")
    if args.ingest_peak:
        # A separate pass, so tracemalloc's cost stays out of the timed spans.
        del loaded, teams, sessions, scored, rows, report, team_rows
        gc.collect()
        tracemalloc.start()
        _ingest(io_report, args)
        result["ingest_peak_bytes"] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()

    result["spans"] = tracer.spans
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
