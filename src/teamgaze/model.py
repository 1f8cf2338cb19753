"""Domain types shared across the pipeline: the study's labels, each tuple
in the order of the codes a ``TeamTable`` holds, and the rule that makes a
condition control or experimental (``CONDITION_GROUP``); the labels of the
JVA settings, as tuples with the default first, and ``JvaConfig``, which
holds them, rejects any other value and states what each one means; and
the one rule that turns an input file's bytes into text (``input_text``).
Nothing here needs numpy, so ``teamgaze stats`` runs without it.

Every type here is an immutable value object. The gaze observation, frame
and session types, with ``validate_session``, belong to the per-frame
path, which only ``perfbench/traced.py`` runs (ROADMAP item 3): a reader
has checked their input, so they restate none of its rules. The team-size
check flags more than two persons only, as the readers do.
"""

from __future__ import annotations

import codecs
import math
from collections import namedtuple
from typing import NamedTuple, Optional

__all__ = [
    "Point2D",
    "GazeObservation",
    "FrameRecord",
    "CONDITIONS",
    "GENDERS",
    "GROUPS",
    "CONDITION_GROUP",
    "TeamSession",
    "SCALE_MODES",
    "DENOMINATOR_POLICIES",
    "JvaConfig",
    "REFERENCE_DIAGONAL",
    "team_post_test_score",
    "validate_session",
    "input_text",
]


class Point2D(NamedTuple):
    """A point in pixel coordinates."""

    x: float
    y: float


class GazeObservation(NamedTuple):
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


# Diagonal of the reference 2560x1440 capture resolution, in pixels.
REFERENCE_DIAGONAL = math.hypot(2560.0, 1440.0)


# The threshold's scale modes, default first: "absolute" takes it in each
# frame's own pixels; under "diagonal-normalized" it holds at the reference
# resolution and scales with each frame's diagonal.
SCALE_MODES = ("absolute", "diagonal-normalized")

# The denominator policies, default first: "valid-pair-frames" counts the
# frames with exactly two valid observations (defective frames were removed
# upstream, so they cannot count against JVA); "all-captured-frames" counts
# every frame not discarded, for sensitivity analysis.
DENOMINATOR_POLICIES = ("valid-pair-frames", "all-captured-frames")


class JvaConfig(namedtuple("JvaConfig", "threshold scale_mode denominator_policy",
                           defaults=(100.0, SCALE_MODES[0], DENOMINATOR_POLICIES[0]))):
    """The JVA settings: a threshold in pixels (100 by default), a label of
    ``SCALE_MODES`` and one of ``DENOMINATOR_POLICIES``."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> JvaConfig:
        self = super().__new__(cls, *args, **kwargs)
        if not 0 < self.threshold < math.inf:
            raise ValueError("threshold must be positive and finite")
        for key, labels in [("scale_mode", SCALE_MODES),
                            ("denominator_policy", DENOMINATOR_POLICIES)]:
            if (value := getattr(self, key)) not in labels:
                raise ValueError(f"{key} must be {' | '.join(labels)}: {value!r}")
        return self

    def effective_threshold(self, image_width: int, image_height: int) -> float:
        """Threshold in this frame's pixels, rescaled when normalizing."""
        if self.scale_mode == "absolute":
            return self.threshold
        diagonal = math.hypot(image_width, image_height)
        return self.threshold * diagonal / REFERENCE_DIAGONAL

    @property
    def needs_valid_pair(self) -> bool:
        """Whether only the frames that hold a valid pair count in a ratio's denominator."""
        return self.denominator_policy == "valid-pair-frames"


def team_post_test_score(score_a: float, score_b: float) -> float:
    """Team score is the mean of the two members' individual scores."""
    return (score_a + score_b) / 2.0


class FrameRecord(NamedTuple):
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


class TeamSession(NamedTuple):
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
