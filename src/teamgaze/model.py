"""Domain types shared across the pipeline: the study's labels, each tuple
in the order of the codes a ``TeamTable`` holds, and the rule that makes a
condition control or experimental (``CONDITION_GROUP``); and the one rule
that turns an input file's bytes into text (``input_text``).

Every type here is an immutable value object. The gaze observation, frame
and session types, with ``validate_session``, belong to the per-frame
path, which only ``perfbench/traced.py`` runs (ROADMAP item 3): a reader
has checked their input, so they restate none of its rules. The team-size
check flags more than two persons only, as the readers do.
"""

from __future__ import annotations

import codecs
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = [
    "Point2D",
    "GazeObservation",
    "FrameRecord",
    "CONDITIONS",
    "GENDERS",
    "GROUPS",
    "CONDITION_GROUP",
    "TeamSession",
    "Heatmap",
    "team_post_test_score",
    "validate_session",
    "input_text",
]


@dataclass(frozen=True)
class Point2D:
    """A point in pixel coordinates."""

    x: float
    y: float


@dataclass(frozen=True)
class GazeObservation:
    """One person's predicted gaze point in one frame."""

    person_id: str
    gaze: Point2D


# The study's conditions, team gender compositions (female, male, mixed)
# and groups.
CONDITIONS = ("textbook", "tablet", "ar")
GENDERS = ("FF", "MM", "MX")
GROUPS = ("control", "experiment")

# Textbook teams are the control group; tablet and AR are experimental.
CONDITION_GROUP = {"textbook": "control", "tablet": "experiment", "ar": "experiment"}


def team_post_test_score(score_a: float, score_b: float) -> float:
    """Team score is the mean of the two members' individual scores."""
    return (score_a + score_b) / 2.0


@dataclass(frozen=True)
class FrameRecord:
    """The gaze observations a reader kept for one team at one timestamp.

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


@dataclass(frozen=True)
class TeamSession:
    """Ordered frames for one two-person team plus study metadata.

    The per-frame path's type, kept only for ``perfbench/traced.py`` until
    ROADMAP item 1; the tests' reference is ``tests/oracles.py``.
    """

    team_id: str
    condition: str  # a label of CONDITIONS
    gender_composition: str  # a label of GENDERS
    team_post_test: float
    frames: tuple[FrameRecord, ...] = ()

    @property
    def group(self) -> str:
        return CONDITION_GROUP[self.condition]


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
    """The team-size rule: the frames not discarded hold at most two
    distinct persons. A team of one person is no violation; the report
    notes it as without countable frames. Returns one message per
    violation, an empty list when the session conforms.
    """
    persons = {
        obs.person_id
        for frame in session.frames
        if not frame.discarded
        for obs in frame.observations
    }
    if len(persons) > 2:
        return [
            f"team {session.team_id}: team size != 2 "
            f"({len(persons)} distinct persons in valid frames)"
        ]
    return []


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
