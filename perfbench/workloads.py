"""Seeded benchmark inputs and the answers the program must produce from them.

The generator is the benchmark's own (numpy PCG64 keyed by seed and
workload), not ``teamgaze.synth``: a given seed yields byte-identical files
whatever the program's synth does. Labels keep a wide margin from the JVA
threshold: JVA pairs lie within 0.5x the effective threshold and non-JVA
pairs at 2x to 4x, so rounding gaze to 4 decimals cannot flip a label.

The inputs also stay clear of semantics the loaders may tighten later: no
duplicate person in a frame, no duplicate team, one timestamp, size and
discarded flag per frame, ``discarded`` only 0/1, post-tests in [0, 5], and
frame 0 of every team is clean, so every team has a countable frame.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CONDITIONS = ("textbook", "tablet", "ar")
GENDERS = ("FF", "MM", "MX")
# Per-frame JVA probability by condition, near the paper's reported means.
JVA_PROBABILITY = np.array([0.31, 0.47, 0.45])
THRESHOLD = 100.0
REFERENCE_DIAGONAL = math.hypot(2560.0, 1440.0)

FRAME_HEADER = (
    "team_id,frame_id,timestamp_s,image_w,image_h,person_id,"
    "gaze_x,gaze_y,head_x,head_y,confidence,discarded"
)


@dataclass(frozen=True)
class Spec:
    teams: int
    frames: int
    resolutions: tuple = ((2560, 1440),)
    diagonal_normalized: bool = False
    all_captured: bool = False
    discard_rate: float = 0.0
    missing_rate: float = 0.0
    oob_rate: float = 0.0


SPECS = {
    # The study the paper reports; start-up and per-call costs dominate.
    "paper": Spec(teams=30, frames=155),
    # Stress scale: per-frame layers (ingest, score) do almost all the work.
    "stress": Spec(teams=300, frames=1000),
    # Many small teams: per-team layers (build, stats, emit, team-row load)
    # dominate, under the non-default config and the skipped-row path.
    "cohort": Spec(
        teams=20000,
        frames=6,
        resolutions=((1280, 720), (1920, 1080), (2560, 1440)),
        diagonal_normalized=True,
        all_captured=True,
        discard_rate=0.05,
        missing_rate=0.05,
        oob_rate=0.01,
    ),
}


@dataclass
class Expected:
    """What a correct program reports for one generated workload."""

    team_ids: list
    condition: np.ndarray  # index into CONDITIONS
    gender: np.ndarray  # index into GENDERS
    post_test: np.ndarray
    jva_pct: np.ndarray
    rows_read: int
    rows_skipped: int
    frames_built: int
    frames_counted: int
    frames_jva: int


def generate(name: str, seed: int, out_dir: Path) -> tuple[dict, Expected]:
    """Write the workload's input files; return their paths and the answers."""
    spec = SPECS[name]
    rng = np.random.default_rng([seed, list(SPECS).index(name)])
    t, f = spec.teams, spec.frames

    team_ids = [f"t{i + 1:05d}" for i in range(t)]
    condition = np.arange(t) % 3
    gender = rng.permutation(np.arange(t) % 3)
    scores = rng.integers(0, 6, size=(t, 2))
    res = np.array(spec.resolutions)[rng.integers(0, len(spec.resolutions), t)]
    w, h = res[:, :1], res[:, 1:]
    thr = np.full((t, 1), THRESHOLD)
    if spec.diagonal_normalized:
        thr = THRESHOLD * np.hypot(w, h) / REFERENCE_DIAGONAL

    label = rng.random((t, f)) < JVA_PROBABILITY[condition][:, None]
    margin = 4 * thr + 1
    ax = rng.uniform(margin, w - margin, (t, f))
    ay = rng.uniform(margin, h - margin, (t, f))
    dist = thr * np.where(label, rng.uniform(0, 0.5, (t, f)), rng.uniform(2, 4, (t, f)))
    angle = rng.uniform(0, 2 * np.pi, (t, f))
    gx = np.stack([ax, ax + dist * np.cos(angle)], axis=2)
    gy = np.stack([ay, ay + dist * np.sin(angle)], axis=2)

    discarded = rng.random((t, f)) < spec.discard_rate
    missing = (rng.random((t, f)) < spec.missing_rate)[..., None] & (
        rng.integers(0, 2, (t, f))[..., None] == np.arange(2)
    )
    oob = rng.random((t, f, 2)) < spec.oob_rate
    discarded[:, 0] = missing[:, 0] = oob[:, 0] = False
    # Out-of-bounds rows land 1 to 201 px left of or below the image.
    left = rng.random((t, f, 2)) < 0.5
    offset = 1 + rng.uniform(0, 200, (t, f, 2))
    gx = np.where(oob & left, -offset, gx)
    gy = np.where(oob & ~left, h[..., None] + offset, gy)

    # The loader skips out-of-bounds rows; a frame exists only if a row
    # survives, so a skipped row never creates a frame.
    present = ~missing
    kept = present & ~oob
    pair = kept.all(axis=2)
    exists = kept.any(axis=2)
    counted = (exists if spec.all_captured else pair) & ~discarded
    jva = counted & pair & label
    jva_pct = 100.0 * (jva.sum(axis=1) / counted.sum(axis=1))

    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "frames": out_dir / "frames.csv",
        "teams": out_dir / "teams.csv",
        "team_results": out_dir / "team_results.csv",
    }
    ti, fi, pi = np.nonzero(present)
    wl, hl = w[:, 0].tolist(), h[:, 0].tolist()
    lines = [FRAME_HEADER]
    lines.extend(
        f"{team_ids[a]},f{b:05d},{b * 10.0:.1f},{wl[a]},{hl[a]},p{c + 1},"
        f"{x:.4f},{y:.4f},,,1.0,{int(d)}"
        for a, b, c, x, y, d in zip(
            ti.tolist(),
            fi.tolist(),
            pi.tolist(),
            gx[present].tolist(),
            gy[present].tolist(),
            discarded[ti, fi].tolist(),
        )
    )
    _write_lines(paths["frames"], lines)
    _write_lines(
        paths["teams"],
        ["team_id,condition,gender,post_test_1,post_test_2"]
        + [
            f"{team_ids[i]},{CONDITIONS[condition[i]]},{GENDERS[gender[i]]},"
            f"{scores[i, 0]},{scores[i, 1]}"
            for i in range(t)
        ],
    )
    post_test = scores.mean(axis=1)
    # The per-team results table in the schema of analyze's csv-bundle.
    _write_lines(
        paths["team_results"],
        ["team_id,condition,group,gender,jva_ratio_pct,team_post_test"]
        + [
            f"{team_ids[i]},{CONDITIONS[condition[i]]},"
            f"{'control' if condition[i] == 0 else 'experiment'},"
            f"{GENDERS[gender[i]]},{jva_pct[i]:.2f},{post_test[i]:.2f}"
            for i in range(t)
        ],
    )
    if spec.diagonal_normalized or spec.all_captured:
        scale = "diagonal-normalized" if spec.diagonal_normalized else "absolute"
        policy = "all-captured-frames" if spec.all_captured else "valid-pair-frames"
        paths["config"] = out_dir / "config.txt"
        _write_lines(paths["config"], [f"scale_mode = {scale}", f"denominator_policy = {policy}"])

    expected = Expected(
        team_ids=team_ids,
        condition=condition,
        gender=gender,
        post_test=post_test,
        jva_pct=jva_pct,
        rows_read=int(present.sum()),
        rows_skipped=int((present & oob).sum()),
        frames_built=int(exists.sum()),
        frames_counted=int(counted.sum()),
        frames_jva=int(jva.sum()),
    )
    return paths, expected


def _write_lines(path: Path, lines: list) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def describe(path: Path) -> dict:
    """sha256, row count (below the header of a CSV) and size of one input file."""
    data = path.read_bytes()
    return {
        "sha256": hashlib.sha256(data).hexdigest(),
        "rows": data.count(b"\n") - (path.suffix == ".csv"),
        "bytes": len(data),
    }
