"""Per-frame joint-visual-attention classification and per-team aggregation.

A frame exhibits JVA when the Euclidean distance between the two persons'
gaze points is strictly smaller than the threshold (100 px by default, at
the reference 2560x1440 capture resolution). ``model.JvaConfig`` states
what its settings mean (``effective_threshold``, ``needs_valid_pair``);
nothing here reads their labels.

Every command scores with ``team_jva_counts``, the one statement of that
rule. ``classify_frame`` and ``session_jva`` hand it the per-frame path's
frames, each frame as its own team; only ``perfbench/traced.py`` runs them
(ROADMAP item 3), and the tests' reference is ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .model import FrameRecord, JvaConfig, TeamSession

__all__ = [
    "JvaFrameResult",
    "JvaSessionResult",
    "classify_frame",
    "session_jva",
    "team_jva_counts",
]


@dataclass(frozen=True)
class JvaFrameResult:
    frame_id: str
    is_jva: bool
    counted_in_denominator: bool


@dataclass(frozen=True)
class JvaSessionResult:
    team_id: str
    jva_frames: int
    denominator_frames: int
    jva_ratio: Optional[float]

    @property
    def jva_ratio_pct(self) -> Optional[float]:
        return None if self.jva_ratio is None else 100.0 * self.jva_ratio


def _frame_counts(
    frames: Sequence[FrameRecord], config: JvaConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Each frame's JVA and denominator flags (0 or 1): ``team_jva_counts``
    with each frame as its own team."""
    gaze = [obs.gaze for frame in frames for obs in frame.observations]
    n = len(frames)
    return team_jva_counts(
        np.arange(n), n,
        np.array([frame.image_width for frame in frames]),
        np.array([frame.image_height for frame in frames]),
        np.array([frame.discarded for frame in frames], bool),
        np.cumsum([0] + [len(frame.observations) for frame in frames]),
        np.array([point.x for point in gaze], float),
        np.array([point.y for point in gaze], float),
        config,
    )


def classify_frame(frame: FrameRecord, config: JvaConfig = JvaConfig()) -> JvaFrameResult:
    """Decide JVA for one frame, as ``team_jva_counts`` does."""
    (is_jva,), (counted,) = _frame_counts([frame], config)
    return JvaFrameResult(frame.frame_id, bool(is_jva), bool(counted))


def session_jva(session: TeamSession, config: JvaConfig = JvaConfig()) -> JvaSessionResult:
    """Aggregate the session's frames into the team's JVA ratio, as
    ``team_jva_counts`` counts them.

    With a zero denominator the ratio is None ("no countable frames");
    callers decide whether that is an error.
    """
    is_jva, counted = _frame_counts(session.frames, config)
    jva_count, denominator = int(is_jva.sum()), int(counted.sum())
    ratio = jva_count / denominator if denominator > 0 else None
    return JvaSessionResult(
        team_id=session.team_id,
        jva_frames=jva_count,
        denominator_frames=denominator,
        jva_ratio=ratio,
    )


def team_jva_counts(
    team: np.ndarray,
    n_teams: int,
    width: np.ndarray,
    height: np.ndarray,
    discarded: np.ndarray,
    row_offsets: np.ndarray,
    gaze_x: np.ndarray,
    gaze_y: np.ndarray,
    config: JvaConfig = JvaConfig(),
) -> tuple[np.ndarray, np.ndarray]:
    """Per-team JVA and denominator frame counts of many frames at once.

    ``team`` (numbers below ``n_teams``), ``width``, ``height`` and
    ``discarded`` hold one entry per frame; frame ``f``'s valid observations
    are ``gaze_x``/``gaze_y[row_offsets[f]:row_offsets[f + 1]]``, a valid
    pair when there are exactly two. A distance near the threshold is
    re-decided with ``math.hypot``, so that each frame is decided as the
    per-frame reference in ``tests/oracles.py`` decides it.
    """
    valid_pair = np.diff(row_offsets) == 2
    counted = (valid_pair & ~discarded) if config.needs_valid_pair else ~discarded
    scored = np.flatnonzero(valid_pair & ~discarded)
    # Frames come in runs of one size: the distinct (width, height) pairs
    # are those of the runs' heads, as complex numbers (np.unique sorts
    # those far faster than rows of a 2-column array).
    size = width[scored] + 1j * height[scored]
    head = np.ones(len(size), bool)
    head[1:] = size[1:] != size[:-1]
    sizes, size_of = np.unique(size[head], return_inverse=True)
    threshold = np.array(
        [config.effective_threshold(int(s.real), int(s.imag)) for s in sizes.tolist()],
        dtype=float,
    )[size_of.reshape(-1)[np.cumsum(head) - 1]]
    first = row_offsets[scored]
    dx = gaze_x[first] - gaze_x[first + 1]
    dy = gaze_y[first] - gaze_y[first + 1]
    distance = np.hypot(dx, dy)
    is_jva = distance < threshold
    # np.hypot and math.hypot may differ in the last bit or two.
    for i in np.flatnonzero(np.abs(distance - threshold) <= 4 * np.spacing(threshold)):
        is_jva[i] = math.hypot(dx[i], dy[i]) < threshold[i]
    return (
        np.bincount(team[scored[is_jva]], minlength=n_teams),
        np.bincount(team[counted], minlength=n_teams),
    )
