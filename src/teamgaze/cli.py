"""Batch command-line interface.

Subcommands:
  analyze  frames + teams CSV -> per-team JVA report
  stats    per-team table or summary-statistics table -> inferential report
  synth    parameters -> synthetic frames/teams CSV + ground-truth JSON
  decode   plain-text heatmap grids -> gaze points CSV

Exit codes: 0 success, 1 data error, 2 usage error. Diagnostics go to
standard error; reports go to --out or standard output.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys

from . import io_report
from .jva import DenominatorPolicy, ScaleMode

USAGE_ERROR = 2
DATA_ERROR = 1

# Skipped frame rows warned about one by one; the rest get one summary line.
MAX_ROW_WARNINGS = 20


def _positive_float(raw: str) -> float:
    value = float(raw)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite: {raw}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="teamgaze",
        description="JVA scoring and collaboration analytics from gaze points",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="score JVA per team and report")
    analyze.add_argument("--frames", required=True, help="frame table CSV")
    analyze.add_argument("--teams", required=True, help="team table CSV")
    _add_jva_flags(analyze)
    _add_output_flags(analyze)

    stats = sub.add_parser("stats", help="inferential report from a table")
    stats.add_argument(
        "--teams",
        default=None,
        help="per-team results table or summary-statistics table "
        "(default: bundled summary fixture)",
    )
    _add_output_flags(stats)

    synth = sub.add_parser("synth", help="generate synthetic sessions")
    synth.add_argument("--out-dir", required=True)
    synth.add_argument("--teams", type=int, default=30)
    synth.add_argument("--frames-per-team", type=int, default=155)
    synth.add_argument("--image-w", type=int, default=2560)
    synth.add_argument("--image-h", type=int, default=1440)
    synth.add_argument(
        "--jva-probability",
        action="append",
        default=None,
        help="either a probability, or NAME=P where NAME is a team id or a "
        "condition (textbook/tablet/ar); repeatable, once per NAME",
    )
    synth.add_argument("--noise-sigma", type=float, default=0.0)
    synth.add_argument("--seed", type=int, default=0)

    decode = sub.add_parser("decode", help="decode heatmap grids to gaze points")
    decode.add_argument("heatmaps", nargs="+", help="plain-text heatmap grid files")
    decode.add_argument("--scene-width", type=_positive_float, required=True)
    decode.add_argument("--scene-height", type=_positive_float, required=True)
    decode.add_argument("--out", default=None, help="output CSV (default stdout)")

    return parser


def _add_jva_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--threshold", type=_positive_float, default=None)
    parser.add_argument(
        "--scale-mode",
        choices=[m.value for m in ScaleMode],
        default=None,
    )
    parser.add_argument(
        "--denominator-policy",
        choices=[p.value for p in DenominatorPolicy],
        default=None,
    )
    parser.add_argument(
        "--config",
        default=None,
        help=f"key=value config file (also via ${io_report.CONFIG_ENV_VAR})",
    )


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument(
        "--format", choices=["json", "text", "csv-bundle"], default="text"
    )


def _jva_config(args):
    config_path = args.config or io_report.config_path_from_env()
    return io_report.load_config(
        config_path,
        threshold=args.threshold,
        scale_mode=ScaleMode(args.scale_mode) if args.scale_mode else None,
        denominator_policy=(
            DenominatorPolicy(args.denominator_policy)
            if args.denominator_policy
            else None
        ),
    )


def _emit(report, args) -> None:
    text = io_report.emit_report(report, fmt=args.format, out=args.out)
    if args.out is None:
        sys.stdout.write(text)


def _cmd_analyze(args) -> int:
    config = _jva_config(args)
    table = io_report.read_frame_table(args.frames)
    for message in table.row_errors[:MAX_ROW_WARNINGS]:
        print(f"warning: {args.frames}: {message}", file=sys.stderr)
    if len(table.row_errors) > MAX_ROW_WARNINGS:
        print(
            f"warning: {args.frames}: {len(table.row_errors) - MAX_ROW_WARNINGS} more "
            "rows skipped: gaze point outside the image",
            file=sys.stderr,
        )
    teams = io_report.load_teams(args.teams)
    report = io_report.analyze_table(table, teams, config)
    _emit(report, args)
    return 0


def _cmd_stats(args) -> int:
    _emit(io_report.stats_report_from_table(args.teams or io_report.paper_fixture_path()), args)
    return 0


def _parse_probability_flags(raw_flags):
    if not raw_flags:
        return 0.4
    mapping = {}
    plain = None
    for raw in raw_flags:
        if "=" in raw:
            name, value = raw.split("=", 1)
            name = name.strip()
            if name in mapping:
                raise ValueError(f"--jva-probability {name} given more than once")
            mapping[name] = float(value)
        elif plain is not None:
            raise ValueError("--jva-probability: more than one plain probability")
        else:
            plain = float(raw)
    if mapping and plain is not None:
        raise ValueError("mix of plain and NAME=P probabilities")
    return mapping if mapping else plain


def _cmd_synth(args) -> int:
    from .synth import SynthSpec, generate

    try:
        probability = _parse_probability_flags(args.jva_probability)
        spec = SynthSpec(
            teams=args.teams,
            frames_per_team=args.frames_per_team,
            image_w=args.image_w,
            image_h=args.image_h,
            jva_probability=probability,
            gaze_noise_sigma=args.noise_sigma,
            seed=args.seed,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    frames_path, teams_path, truth_path, _ = generate(spec, args.out_dir)
    print(f"wrote {frames_path}, {teams_path}, {truth_path}", file=sys.stderr)
    return 0


def _cmd_decode(args) -> int:
    from .gazefield import decode_heatmap, load_heatmap_text

    rows = []
    for raw in args.heatmaps:
        try:
            heatmap = load_heatmap_text(raw)
            point = decode_heatmap(heatmap, args.scene_width, args.scene_height)
        except ValueError as exc:  # the grid's error, named by its file
            raise ValueError(f"{raw}: {exc}") from None
        rows.append((raw, point.x, point.y))
    out = open(args.out, "w", newline="", encoding="utf-8") if args.out else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(["file", "gaze_x", "gaze_y"])
        for name, x, y in rows:
            writer.writerow([name, f"{x:.4f}", f"{y:.4f}"])
    finally:
        if args.out:
            out.close()
    return 0


_COMMANDS = {
    "analyze": _cmd_analyze,
    "stats": _cmd_stats,
    "synth": _cmd_synth,
    "decode": _cmd_decode,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "format", None) == "csv-bundle" and args.out is None:
        print("error: --format csv-bundle needs --out, the bundle's directory", file=sys.stderr)
        return USAGE_ERROR
    try:
        return _COMMANDS[args.command](args)
    except (OSError, ValueError, KeyError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
