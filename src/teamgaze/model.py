"""Domain types shared across the pipeline, and the one rule that turns an
input file's bytes into text (``input_text``).

Every type here is an immutable value object: frames, observations and
sessions are frozen after construction and safe to share between threads.
Validation is collected as data (lists of violation strings) rather than
raised, so callers can report every problem in a file at once.
"""

from __future__ import annotations

import codecs
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

__all__ = [
    "Point2D",
    "GazeObservation",
    "FrameRecord",
    "Condition",
    "Group",
    "GenderComposition",
    "TeamSession",
    "Heatmap",
    "group_for_condition",
    "team_post_test_score",
    "validate_session",
    "input_text",
]


@dataclass(frozen=True)
class Point2D:
    """A point in pixel coordinates."""

    x: float
    y: float

    def distance_to(self, other: "Point2D") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def is_finite(self) -> bool:
        return math.isfinite(self.x) and math.isfinite(self.y)


@dataclass(frozen=True)
class GazeObservation:
    """One person's predicted gaze point in one frame."""

    person_id: str
    gaze: Point2D


class Condition(Enum):
    TEXTBOOK = "textbook"
    TABLET = "tablet"
    AR = "ar"


class Group(Enum):
    CONTROL = "control"
    EXPERIMENT = "experiment"


class GenderComposition(Enum):
    FEMALES = "FF"
    MALES = "MM"
    MIXED = "MX"


def group_for_condition(condition: Condition) -> Group:
    """Textbook teams are the control group; tablet and AR are experimental."""
    if condition is Condition.TEXTBOOK:
        return Group.CONTROL
    return Group.EXPERIMENT


def team_post_test_score(score_a: float, score_b: float) -> float:
    """Team score is the mean of the two members' individual scores."""
    return (score_a + score_b) / 2.0


@dataclass(frozen=True)
class FrameRecord:
    """All gaze observations for one team at one timestamp.

    Discarded frames (camera difficulties, extra people in the scene) are
    kept with a flag instead of being dropped, so ratio denominators stay
    auditable.
    """

    frame_id: str
    timestamp: float
    image_width: int
    image_height: int
    observations: tuple[GazeObservation, ...] = ()
    discarded: bool = False
    discard_reason: str = ""

    def valid_observations(self) -> tuple[GazeObservation, ...]:
        """Observations whose gaze point is finite and inside the frame."""
        out = []
        for obs in self.observations:
            g = obs.gaze
            if not g.is_finite():
                continue
            if 0 <= g.x <= self.image_width and 0 <= g.y <= self.image_height:
                out.append(obs)
        return tuple(out)


@dataclass(frozen=True)
class TeamSession:
    """Ordered frames for one two-person team plus study metadata.

    The type of the per-frame reference path (``jva.session_jva``);
    ``io_report.build_sessions`` builds them from a team table.
    """

    team_id: str
    condition: Condition
    gender_composition: GenderComposition
    team_post_test: float
    frames: tuple[FrameRecord, ...] = ()

    @property
    def group(self) -> Group:
        return group_for_condition(self.condition)


@dataclass(frozen=True)
class Heatmap:
    """A grid of non-negative gaze-probability values.

    Canonical size is 56x56 but any positive size is accepted. ``values``
    is indexed [row, col].
    """

    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("heatmap must be a non-empty 2-D grid")
        if np.any(arr < 0) or not np.all(np.isfinite(arr)):
            raise ValueError("heatmap values must be finite and non-negative")
        object.__setattr__(self, "values", arr)

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


def validate_session(session: TeamSession) -> list[str]:
    """Check every session invariant; return one message per violation.

    An empty list means the session conforms. Violations are data, not
    faults: malformed input is expected and reported, never raised.
    """
    violations: list[str] = []

    if not (0.0 <= session.team_post_test <= 5.0):
        violations.append(
            f"team {session.team_id}: score out of [0,5]: {session.team_post_test}"
        )

    person_ids: set[str] = set()
    prev_ts: Optional[float] = None
    for frame in session.frames:
        where = f"team {session.team_id} frame {frame.frame_id}"
        if frame.image_width <= 0 or frame.image_height <= 0:
            violations.append(f"{where}: non-positive image dimensions")
            continue
        if prev_ts is not None and frame.timestamp < prev_ts:
            violations.append(f"{where}: timestamp decreases")
        prev_ts = frame.timestamp
        if frame.discarded and not frame.discard_reason:
            violations.append(f"{where}: discarded without a reason")
        for obs in frame.observations:
            if not obs.gaze.is_finite():
                violations.append(f"{where}: non-finite gaze for {obs.person_id}")
            elif not (
                0 <= obs.gaze.x <= frame.image_width
                and 0 <= obs.gaze.y <= frame.image_height
            ):
                violations.append(
                    f"{where}: gaze out of image bounds for {obs.person_id}"
                )
        if not frame.discarded:
            person_ids.update(o.person_id for o in frame.valid_observations())

    if session.frames and person_ids and len(person_ids) != 2:
        violations.append(
            f"team {session.team_id}: team size != 2 "
            f"({len(person_ids)} distinct persons in valid frames)"
        )

    return violations


def input_text(data: bytes, file_start: bool = True) -> tuple[str, Optional[tuple[int, str]]]:
    """The UTF-8 text of an input file's bytes, without the byte order mark
    that may open the file (if ``data`` is its start), and None; or, at a
    byte that is not UTF-8, the text with each such byte as a lone surrogate
    and ``(line, "byte 0x.. is not UTF-8 (reason)")``, the line counted in
    ``data`` as LF, CR LF and a lone CR end lines."""
    if file_start:
        data = data.removeprefix(codecs.BOM_UTF8)
    try:
        return data.decode("utf-8"), None
    except UnicodeDecodeError as exc:
        line = len(data[: exc.start + 1].splitlines())
        problem = f"byte 0x{data[exc.start]:02x} is not UTF-8 ({exc.reason})"
        return data.decode("utf-8", "surrogateescape"), (line, problem)
