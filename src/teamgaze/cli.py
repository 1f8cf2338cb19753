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
import os
import sys

from . import io_report
from .model import CONDITIONS

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
        help="per-team results table or summary-statistics table "
        "(default: bundled summary fixture)",
    )
    _add_output_flags(stats)

    synth = sub.add_parser("synth", help="generate synthetic sessions")
    # Each flag left out takes SynthSpec's default.
    synth.add_argument("--out-dir", required=True)
    synth.add_argument("--teams", type=int)
    synth.add_argument("--frames-per-team", type=int)
    synth.add_argument("--image-w", type=int)
    synth.add_argument("--image-h", type=int)
    synth.add_argument(
        "--jva-probability",
        action="append",
        help="either a probability, or NAME=P where NAME is a condition "
        f"({'/'.join(CONDITIONS)}); repeatable, once per NAME",
    )
    synth.add_argument(
        "--noise-sigma", type=float, dest="gaze_noise_sigma", metavar="NOISE_SIGMA"
    )
    synth.add_argument("--seed", type=int)

    decode = sub.add_parser("decode", help="decode heatmap grids to gaze points")
    decode.add_argument("heatmaps", nargs="+", help="plain-text heatmap grid files")
    decode.add_argument("--scene-width", type=_positive_float, required=True)
    decode.add_argument("--scene-height", type=_positive_float, required=True)
    decode.add_argument("--out", help="output CSV (default stdout)")

    return parser


def _add_jva_flags(parser: argparse.ArgumentParser) -> None:
    for key, allowed in io_report.CONFIG_KEYS.items():
        values = {"type": _positive_float} if allowed is float else {"choices": allowed}
        parser.add_argument("--" + key.replace("_", "-"), **values)
    parser.add_argument(
        "--config",
        help=f"key=value config file (also via ${io_report.CONFIG_ENV_VAR})",
    )


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", help="output path (default stdout)")
    parser.add_argument(
        "--format", choices=[*io_report.REPORT_FORMATS], default=io_report.DEFAULT_REPORT_FORMAT
    )


def _jva_config(args):
    path = args.config or os.environ.get(io_report.CONFIG_ENV_VAR) or None
    overrides = {key: getattr(args, key) for key in io_report.CONFIG_KEYS}
    return io_report.load_config(path, **overrides)


def _emit(report, args) -> None:
    text = io_report.emit_report(report, fmt=args.format, out=args.out)
    if args.out is None:
        sys.stdout.write(text)


def _cmd_analyze(args) -> int:
    from .frame_table import analyze_table, read_frame_table

    config = _jva_config(args)
    table = read_frame_table(args.frames)
    for message in table.row_errors[:MAX_ROW_WARNINGS]:
        print(f"warning: {args.frames}: {message}", file=sys.stderr)
    if len(table.row_errors) > MAX_ROW_WARNINGS:
        print(
            f"warning: {args.frames}: {len(table.row_errors) - MAX_ROW_WARNINGS} more "
            "rows skipped: gaze point outside the image",
            file=sys.stderr,
        )
    teams = io_report.load_teams(args.teams)
    report = analyze_table(table, teams, config)
    _emit(report, args)
    return 0


def _cmd_stats(args) -> int:
    _emit(io_report.stats_report_from_table(args.teams or io_report.paper_fixture_path()), args)
    return 0


def _parse_probability_flags(raw_flags):
    """The flags' text, or NAME -> text mapping, for SynthSpec; None if none is given."""
    mapping, plain = {}, None
    for raw in raw_flags or ():
        if "=" in raw:
            name, value = raw.split("=", 1)
            name = name.strip()
            if name in mapping:
                raise ValueError(f"--jva-probability {name} given more than once")
            mapping[name] = value
        elif plain is not None:
            raise ValueError("--jva-probability: more than one plain probability")
        else:
            plain = raw
    if mapping and plain is not None:
        raise ValueError("mix of plain and NAME=P probabilities")
    return mapping or plain


def _cmd_synth(args) -> int:
    from .synth import SynthSpec, generate

    try:
        given = dict(vars(args), jva_probability=_parse_probability_flags(args.jva_probability))
        spec = SynthSpec(**{name: given[name] for name in SynthSpec._fields
                            if given[name] is not None})
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    print("wrote", ", ".join(map(str, generate(spec, args.out_dir))), file=sys.stderr)
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
    args = _build_parser().parse_args(argv)
    code = USAGE_ERROR  # a report's target is checked before any input is read
    try:
        if "format" in args:
            io_report.check_report_out(args.format, args.out)
        code = DATA_ERROR
        return _COMMANDS[args.command](args)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
