"""Per-frame joint-visual-attention classification and per-team aggregation.

A frame exhibits JVA when the Euclidean distance between the two persons'
gaze points is strictly smaller than the threshold (100 px by default, at
the reference 2560x1440 capture resolution).

Every command scores with ``team_jva_counts``. ``classify_frame`` and
``session_jva`` score the per-frame path's frames, whose observations a
reader has already checked; only ``perfbench/traced.py`` runs them
(ROADMAP item 3), and the tests' reference is ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .model import FrameRecord, TeamSession

__all__ = [
    "ScaleMode",
    "DenominatorPolicy",
    "JvaConfig",
    "JvaFrameResult",
    "JvaSessionResult",
    "classify_frame",
    "session_jva",
    "team_jva_counts",
    "REFERENCE_DIAGONAL",
]

# Diagonal of the reference 2560x1440 capture resolution, in pixels.
REFERENCE_DIAGONAL = math.hypot(2560.0, 1440.0)


class ScaleMode(Enum):
    ABSOLUTE = "absolute"
    DIAGONAL_NORMALIZED = "diagonal-normalized"


class DenominatorPolicy(Enum):
    # Frames with exactly two valid observations (default: defective frames
    # were removed upstream, so they cannot count against JVA).
    VALID_PAIR_FRAMES = "valid-pair-frames"
    # Every non-discarded frame counts; for sensitivity analysis.
    ALL_CAPTURED_FRAMES = "all-captured-frames"


@dataclass(frozen=True)
class JvaConfig:
    threshold: float = 100.0
    scale_mode: ScaleMode = ScaleMode.ABSOLUTE
    denominator_policy: DenominatorPolicy = DenominatorPolicy.VALID_PAIR_FRAMES

    def __post_init__(self) -> None:
        if not 0 < self.threshold < math.inf:
            raise ValueError("threshold must be positive and finite")

    def effective_threshold(self, image_width: int, image_height: int) -> float:
        """Threshold in this frame's pixels, rescaled when normalizing."""
        if self.scale_mode is ScaleMode.ABSOLUTE:
            return self.threshold
        diagonal = math.hypot(image_width, image_height)
        return self.threshold * diagonal / REFERENCE_DIAGONAL


@dataclass(frozen=True)
class JvaFrameResult:
    frame_id: str
    distance: Optional[float]
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


def classify_frame(frame: FrameRecord, config: JvaConfig = JvaConfig()) -> JvaFrameResult:
    """Decide JVA for one frame; false by default.

    Frames without exactly two observations (or discarded frames) cannot
    be positive; whether they count in the denominator depends on the
    configured policy. Comparison against the threshold is strict: a
    distance exactly equal to the threshold is not JVA.
    """
    if frame.discarded or len(frame.observations) != 2:
        counted = (
            config.denominator_policy is DenominatorPolicy.ALL_CAPTURED_FRAMES
            and not frame.discarded
        )
        return JvaFrameResult(
            frame_id=frame.frame_id,
            distance=None,
            is_jva=False,
            counted_in_denominator=counted,
        )

    first, second = frame.observations
    distance = first.gaze.distance_to(second.gaze)
    threshold = config.effective_threshold(frame.image_width, frame.image_height)
    return JvaFrameResult(
        frame_id=frame.frame_id,
        distance=distance,
        is_jva=distance < threshold,
        counted_in_denominator=True,
    )


def session_jva(session: TeamSession, config: JvaConfig = JvaConfig()) -> JvaSessionResult:
    """Aggregate frame classifications into the team's JVA ratio.

    With a zero denominator the ratio is None ("no countable frames");
    callers decide whether that is an error.
    """
    jva_count = 0
    denominator = 0
    for frame in session.frames:
        result = classify_frame(frame, config)
        if result.counted_in_denominator:
            denominator += 1
        if result.is_jva:
            jva_count += 1
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
    pair when there are exactly two. Counts equal ``session_jva``'s: a
    distance near the threshold is re-decided with ``math.hypot``.
    """
    valid_pair = np.diff(row_offsets) == 2
    if config.denominator_policy is DenominatorPolicy.VALID_PAIR_FRAMES:
        counted = valid_pair & ~discarded
    else:
        counted = ~discarded
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
