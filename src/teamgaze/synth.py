"""Synthetic-session generator with known ground truth.

Produces the frame and team CSV formats the loaders read (the columns
``io_report.FRAME_COLUMNS`` and ``io_report.TEAM_COLUMNS``), plus a
compact JSON sidecar recording each frame's intended JVA label and each
team's intended ratio. This is the end-to-end oracle for the pipeline: at
zero noise the analysis must recover the generated labels and ratios
exactly.

Randomness comes from numpy's Philox counter-based generator, keyed by
(seed, team index) through a SeedSequence, so output is reproducible
across platforms and teams are independent streams: team k's rows are the
same whatever the number of teams. Each stream gives the team's two
post-test scores, then one array of uniforms for each frame quantity (JVA
coin, target x, target y, partner angle) and, when the noise sigma is
positive, one array of Gaussian offsets for each gaze coordinate. Frames
are built with whole-array operations and written a block of teams at a
time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence, Union

import numpy as np

from .io_report import FRAME_COLUMNS, TEAM_COLUMNS
from .model import Condition, GenderComposition

__all__ = ["SynthSpec", "GroundTruth", "generate", "moment_matched_groups"]

# Non-JVA gaze targets are separated by this multiple of the threshold, so
# Gaussian noise up to sigma = threshold/3 leaves roughly a 3-sigma margin
# on each side of the decision boundary.
SEPARATION_FACTOR = 3.0

# Frame rows formatted and written at once, in whole teams; bounds memory.
_BLOCK_ROWS = 1 << 16

_CONDITION_CYCLE = (Condition.TEXTBOOK, Condition.TABLET, Condition.AR)
_GENDER_CYCLE = (
    GenderComposition.FEMALES,
    GenderComposition.MALES,
    GenderComposition.MIXED,
)

JvaProbability = Union[float, Mapping[str, float]]


@dataclass(frozen=True)
class SynthSpec:
    """Parameters for one synthetic study.

    ``jva_probability`` is either a single probability, a mapping from
    team_id (e.g. "team01") to probability, or a mapping from condition
    value ("textbook"/"tablet"/"ar") to probability. Each image side must
    be at least ``2 * SEPARATION_FACTOR * threshold`` pixels, so that a
    non-JVA partner point fits inside the image.
    """

    teams: int = 30
    frames_per_team: int = 155
    image_w: int = 2560
    image_h: int = 1440
    jva_probability: JvaProbability = 0.4
    gaze_noise_sigma: float = 0.0
    threshold: float = 100.0
    frame_interval_s: float = 10.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.teams <= 0 or self.frames_per_team <= 0:
            raise ValueError("counts must be positive")
        if self.image_w <= 0 or self.image_h <= 0:
            raise ValueError("image dimensions must be positive")
        if self.gaze_noise_sigma < 0:
            raise ValueError("noise sigma must be non-negative")
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")
        # Below this, a partner point can leave the image on both sides of
        # its target and clipping would pull it within the threshold.
        side = 2 * SEPARATION_FACTOR * self.threshold
        if min(self.image_w, self.image_h) < side:
            raise ValueError(
                f"image {self.image_w}x{self.image_h} too small for threshold "
                f"{self.threshold:g}: each side must be at least "
                f"2 * {SEPARATION_FACTOR:g} * threshold = {side:g} px"
            )


@dataclass(frozen=True)
class GroundTruth:
    """Intended per-frame labels and per-team ratios."""

    frame_labels: dict[str, list[bool]]
    team_ratios: dict[str, float]

    def to_json(self) -> str:
        payload = {
            "team_ratios": self.team_ratios,
            "frame_labels": {
                team: list(map(int, labels))
                for team, labels in self.frame_labels.items()
            },
        }
        # Without indent json uses its C encoder.
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _team_id(index: int) -> str:
    return f"team{index + 1:02d}"


def _probability_for(spec: SynthSpec, team_id: str, condition: Condition) -> float:
    p = spec.jva_probability
    if isinstance(p, Mapping):
        if team_id in p:
            p = p[team_id]
        elif condition.value in p:
            p = p[condition.value]
        else:
            raise KeyError(f"no jva_probability for {team_id} / {condition.value}")
    p = float(p)
    if not (0.0 <= p <= 1.0):
        raise ValueError("jva_probability must lie in [0, 1]")
    return p


def _gaze(spec: SynthSpec, uniform: np.ndarray, noise, probability: np.ndarray):
    """Gaze points of a block of teams and each frame's intended label.

    ``uniform`` holds per team the JVA coin, target x, target y and partner
    angle uniforms of every frame, shape (teams, 4, frames); ``noise`` the
    standard normal offsets of (p1 x, p1 y, p2 x, p2 y) in the same shape,
    or None. Returns the points in that (teams, 4, frames) layout and the
    labels, shape (teams, frames).
    """
    w, h = float(spec.image_w), float(spec.image_h)
    sep = SEPARATION_FACTOR * spec.threshold
    # Targets live inside an inner box one separation-length away from each
    # border (a quarter side on a small image). A partner point outside the
    # image is reflected through the target, which keeps it in bounds on
    # an image whose sides are at least 2 * sep.
    margin_x, margin_y = min(sep, w / 4), min(sep, h / 4)
    coin, ux, uy, turn = uniform.transpose(1, 0, 2)
    jva = coin < probability[:, None]
    ax = margin_x + (w - 2 * margin_x) * ux
    ay = margin_y + (h - 2 * margin_y) * uy
    angle = 2.0 * math.pi * turn
    dx, dy = sep * np.cos(angle), sep * np.sin(angle)
    bx = np.where((ax + dx >= 0) & (ax + dx <= w), ax + dx, ax - dx)
    by = np.where((ay + dy >= 0) & (ay + dy <= h), ay + dy, ay - dy)
    gaze = np.stack([ax, ay, np.where(jva, ax, bx), np.where(jva, ay, by)], axis=1)
    if noise is not None:
        gaze += spec.gaze_noise_sigma * noise
    bounds = np.array([w, h, w, h])[:, None]
    return np.clip(gaze, 0.0, bounds, out=gaze), jva


def generate(
    spec: SynthSpec, out_dir: Union[str, Path]
) -> tuple[Path, Path, Path, GroundTruth]:
    """Write frames.csv, teams.csv and ground_truth.json under ``out_dir``.

    Files rather than in-memory records: the generator exercises the real
    ingestion path. Returns the three paths and the ground truth.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    frames_path = out / "frames.csv"
    teams_path = out / "teams.csv"
    truth_path = out / "ground_truth.json"

    n_frames = spec.frames_per_team
    # Each frame's two rows, to be filled with the team id and the gaze
    # points; %-formatting a float runs about 1.5x as fast as f"{x:.4f}".
    frame_rows = []
    for f in range(n_frames):
        cells = f"f{f:05d},{f * spec.frame_interval_s:.1f},{spec.image_w},{spec.image_h}"
        frame_rows.append(f"%s,{cells},p1,%.4f,%.4f,0\n%s,{cells},p2,%.4f,%.4f,0\n")
    block = max(1, _BLOCK_ROWS // (2 * n_frames))
    frame_labels: dict[str, list[bool]] = {}
    team_ratios: dict[str, float] = {}

    with open(frames_path, "w", newline="", encoding="utf-8") as ff, open(
        teams_path, "w", newline="", encoding="utf-8"
    ) as tf:
        ff.write(",".join(FRAME_COLUMNS) + "\n")
        tf.write(",".join(TEAM_COLUMNS) + "\n")
        for start in range(0, spec.teams, block):
            indices = range(start, min(start + block, spec.teams))
            scores = np.empty((len(indices), 2))
            uniform = np.empty((len(indices), 4, n_frames))
            noise = np.empty_like(uniform) if spec.gaze_noise_sigma > 0 else None
            probability = np.empty(len(indices))
            names, team_cells = [], []
            for i, idx in enumerate(indices):
                team = _team_id(idx)
                condition = _CONDITION_CYCLE[idx % len(_CONDITION_CYCLE)]
                gender = _GENDER_CYCLE[idx % len(_GENDER_CYCLE)]
                rng = np.random.Generator(
                    np.random.Philox(np.random.SeedSequence(spec.seed, spawn_key=(idx,)))
                )
                probability[i] = _probability_for(spec, team, condition)
                # Post-test scores 0..5, as floor(6 u): rng.integers costs
                # several times more per call.
                rng.random(out=scores[i])
                rng.random(out=uniform[i])
                if noise is not None:
                    rng.standard_normal(out=noise[i])
                names.append(team)
                team_cells.append(f"{team},{condition.value},{gender.value}")
            gaze, jva = _gaze(spec, uniform, noise, probability)
            ff.write("".join([
                row % (team, x1, y1, team, x2, y2)
                for team, points in zip(names, gaze.tolist())
                for row, x1, y1, x2, y2 in zip(frame_rows, *points)
            ]))
            tf.write("".join([
                f"{cells},{a},{b}\n"
                for cells, (a, b) in zip(team_cells, (6 * scores).astype(int).tolist())
            ]))
            for team, labels, count in zip(
                names, jva.tolist(), jva.sum(axis=1).tolist()
            ):
                frame_labels[team] = labels
                team_ratios[team] = count / n_frames

    truth = GroundTruth(frame_labels=frame_labels, team_ratios=team_ratios)
    truth_path.write_text(truth.to_json(), encoding="utf-8")
    return frames_path, teams_path, truth_path, truth


def moment_matched_groups(
    specs: Sequence[tuple[int, float, float]],
) -> list[np.ndarray]:
    """Raw samples whose sample mean and SD match each (n, mean, sd) exactly.

    Built by affinely rescaling a fixed base pattern (0..n-1) to zero mean
    and unit sample SD, then shifting/scaling to the target moments. With
    sd = 0 the sample is constant.
    """
    out = []
    for n, mean, sd in specs:
        if n < 2:
            raise ValueError("insufficient data: need n >= 2")
        if sd < 0:
            raise ValueError("sd must be non-negative")
        if sd == 0:
            out.append(np.full(n, float(mean)))
            continue
        base = np.arange(n, dtype=float)
        z = (base - base.mean()) / base.std(ddof=1)
        out.append(mean + sd * z)
    return out
