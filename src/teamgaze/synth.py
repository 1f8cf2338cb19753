"""Synthetic-session generator with known ground truth.

Produces the frame and team CSV formats the loaders read (the columns
``io_report.FRAME_COLUMNS`` and ``io_report.TEAM_COLUMNS``), plus a
compact JSON sidecar recording each frame's intended JVA label and each
team's intended ratio. This is the end-to-end oracle for the pipeline: at
zero noise the analysis must recover the generated labels and ratios
exactly.

Randomness comes from numpy's Philox counter-based generator. Team k
draws the stream of ``Generator(Philox(SeedSequence(seed, spawn_key=(k,))))``,
so output is reproducible across platforms and teams are independent
streams: team k's rows are the same whatever the number of teams. The
keys of a block of teams are derived at once, by SeedSequence's hash in
array form (``_team_keys``), and one generator is re-keyed before each
team's draws. Each stream gives, in one draw into the team's row of a
block buffer, the team's two post-test uniforms, then one array of
uniforms for each frame quantity (JVA coin, target x, target y, partner
angle); when the noise sigma is positive, one more draw gives the
Gaussian offsets of each gaze coordinate. Frames are built with
whole-array operations and written a block of teams at a time.

Rows are built as bytes, a block at a time, with no per-row Python work.
Each row is a record of fixed-width byte fields (for a frame row: team
id, the frame/person cells, then each gaze coordinate's ``"%.4f"`` text
and its comma), shorter texts padded with NULs, and the block is written
with the NULs taken out (``_records``). A coordinate's text comes from
its 4-digit groups through small digit tables (``_value_text``). The
ground truth is written the same way from the label arrays, teams in
sorted id order (``_truth_json``); ``GroundTruth.to_json`` gives the same
bytes through ``json.dumps``.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence, Union

import numpy as np

from .io_report import FRAME_COLUMNS, TEAM_COLUMNS
from .jva import JvaConfig
from .model import Condition, GenderComposition

__all__ = ["SynthSpec", "GroundTruth", "generate", "moment_matched_groups"]

# Non-JVA gaze targets are separated by this multiple of the threshold, so
# Gaussian noise up to sigma = threshold/3 leaves roughly a 3-sigma margin
# on each side of the decision boundary.
SEPARATION_FACTOR = 3.0

# The JVA threshold the study is laid out for: the analysis's default.
_THRESHOLD = JvaConfig().threshold

# Seconds between two frames of a team; no result depends on timestamps.
_FRAME_INTERVAL_S = 10.0

# Frame rows formatted and written at once, in whole teams; bounds memory.
_BLOCK_ROWS = 1 << 16


def _group_text() -> np.ndarray:
    """The text of each 4-digit group 0..9999 as one uint32 of its four
    bytes, shape (2, 10000): row 0 without leading zeros, NUL-padded on the
    left ("\\0\\0\\00" for 0), row 1 zero-padded."""
    text = np.empty((2, 10, 10, 10, 10, 4), dtype=np.uint8)
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    for place in range(4):
        text[..., place] = digits.reshape((10,) + (1,) * (3 - place))
    text = text.reshape(2, 10000, 4)
    for place, below in enumerate((1000, 100, 10)):
        text[0, :below, place] = 0
    return text.view(np.uint32)[..., 0]


_GROUP_TEXT = _group_text()

# Team indices are one-word (uint32) spawn keys.
_MAX_TEAMS = 1 << 32

# The id of the team at index i, formatted with i + 1: "team01", ..., "team100".
_TEAM_ID = "team%02d"

_CONDITION_CYCLE = (Condition.TEXTBOOK, Condition.TABLET, Condition.AR)
_GENDER_CYCLE = (
    GenderComposition.FEMALES,
    GenderComposition.MALES,
    GenderComposition.MIXED,
)

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

JvaProbability = Union[float, Mapping[str, float]]


@dataclass(frozen=True)
class SynthSpec:
    """Parameters for one synthetic study.

    ``jva_probability`` is either a single probability, or a mapping whose
    keys are condition values ("textbook"/"tablet"/"ar") and team ids of
    this spec ("team01", ...); a team takes its own id's probability, else
    its condition's, and every team must be covered. Each image side must
    be at least ``2 * SEPARATION_FACTOR`` times the default JVA threshold
    in pixels, so that a non-JVA partner point fits inside the image. The
    seed is a non-negative integer. Every check runs here, before any file
    is written.
    """

    teams: int = 30
    frames_per_team: int = 155
    image_w: int = 2560
    image_h: int = 1440
    jva_probability: JvaProbability = 0.4
    gaze_noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer: {self.seed!r}")
        if self.teams <= 0 or self.frames_per_team <= 0:
            raise ValueError("counts must be positive")
        if self.teams > _MAX_TEAMS:
            raise ValueError(f"teams must be at most 2**32: {self.teams}")
        if self.image_w <= 0 or self.image_h <= 0:
            raise ValueError("image dimensions must be positive")
        if not math.isfinite(self.gaze_noise_sigma):
            raise ValueError(f"gaze_noise_sigma must be finite: {self.gaze_noise_sigma!r}")
        if self.gaze_noise_sigma < 0:
            raise ValueError("noise sigma must be non-negative")
        # Below this, a partner point can leave the image on both sides of
        # its target and clipping would pull it within the threshold.
        side = 2 * SEPARATION_FACTOR * _THRESHOLD
        if min(self.image_w, self.image_h) < side:
            raise ValueError(
                f"image {self.image_w}x{self.image_h} too small for threshold "
                f"{_THRESHOLD:g}: each side must be at least "
                f"2 * {SEPARATION_FACTOR:g} * threshold = {side:g} px"
            )
        _probability_keys(self)


@dataclass(frozen=True)
class GroundTruth:
    """Intended per-frame 0/1 labels and per-team ratios."""

    frame_labels: dict[str, list[int]]
    team_ratios: dict[str, float]

    def to_json(self) -> str:
        payload = {"team_ratios": self.team_ratios, "frame_labels": self.frame_labels}
        # Without indent json uses its C encoder.
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _team_ids(indices: range) -> list[str]:
    """The ids of the teams at ``indices``, built by one format call."""
    numbers = tuple(range(indices.start + 1, indices.stop + 1))
    return ((_TEAM_ID + " ") * len(numbers) % numbers).split()


def _checked_probability(name: str, value) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1]: {value:g}")
    return value


def _probability_keys(spec: SynthSpec) -> tuple[list[float], dict[int, float]]:
    """``spec.jva_probability`` by condition position (NaN where no key
    names the condition) and by team index.

    Raises ValueError on a value outside [0, 1], a key that is neither a
    condition value nor a team id of ``spec``, or a team no key covers.
    Its cost grows with the number of keys, not of teams.
    """
    conditions = [c.value for c in _CONDITION_CYCLE]
    p = spec.jva_probability
    if not isinstance(p, Mapping):
        return [_checked_probability("jva_probability", p)] * len(conditions), {}
    by_condition = [math.nan] * len(conditions)
    by_team = {}
    for key, value in p.items():
        value = _checked_probability(f"jva_probability[{key!r}]", value)
        number = re.fullmatch(r"team([0-9]+)", str(key))
        index = int(number[1]) - 1 if number else -1
        if key in conditions:
            by_condition[conditions.index(key)] = value
        elif 0 <= index < spec.teams and _TEAM_ID % (index + 1) == key:
            by_team[index] = value
        else:
            raise ValueError(
                f"jva_probability key {key!r} is neither a condition "
                f"({', '.join(conditions)}) nor a team id of this spec "
                f"({_TEAM_ID % 1}..{_TEAM_ID % spec.teams})"
            )
    # The first team of each unnamed condition that has no key of its own.
    uncovered = [
        next((i for i in range(c, spec.teams, len(conditions)) if i not in by_team), spec.teams)
        for c, value in enumerate(by_condition)
        if math.isnan(value)
    ]
    index = min(uncovered, default=spec.teams)
    if index < spec.teams:
        raise ValueError(
            f"no jva_probability for {_TEAM_ID % (index + 1)} or its condition "
            f"{conditions[index % len(conditions)]}"
        )
    return by_condition, by_team


def _team_probabilities(spec: SynthSpec) -> np.ndarray:
    """Each team's JVA probability, in team order."""
    by_condition, by_team = _probability_keys(spec)
    probability = np.array(by_condition)[np.arange(spec.teams) % len(by_condition)]
    probability[list(by_team)] = list(by_team.values())
    return probability


def _team_keys(seed: int, indices: Sequence[int]) -> np.ndarray:
    """Philox keys of every team index, shape (n, 2), dtype uint64.

    Row i is ``SeedSequence(seed, spawn_key=(indices[i],)).generate_state(2,
    np.uint64)``, the key ``Philox`` takes from that SeedSequence; indices
    must lie below 2**32. The run entropy (``seed``, zero-padded to four
    words) is mixed the same way for every team, into
    ``SeedSequence(seed).pool``: padding words hash like absent ones. Only
    the spawn word's mixing round and ``generate_state`` depend on the team,
    and both are done here on uint32 arrays.
    """
    pool = [int(word) for word in np.random.SeedSequence(seed).pool]
    run_words = max(1, -(-seed.bit_length() // 32))
    # The hash constant after the four pool words, the 12 all-pairs mixes
    # and four mixes for each run word past the fourth.
    mix_const = _INIT_A * pow(_MULT_A, 16 + 4 * max(0, run_words - 4), 1 << 32) & _MASK32
    state_const = _INIT_B
    spawn = np.asarray(indices, dtype=np.uint32)
    words = []
    for base in pool:
        # hashmix(spawn word), then mix it into this pool word.
        hashed = spawn ^ mix_const
        mix_const = mix_const * _MULT_A & _MASK32
        hashed *= mix_const
        hashed ^= hashed >> 16
        word = (_MIX_MULT_L * base & _MASK32) - _MIX_MULT_R * hashed
        word ^= word >> 16
        # generate_state's hash of this pool word.
        word ^= state_const
        state_const = state_const * _MULT_B & _MASK32
        word *= state_const
        word ^= word >> 16
        words.append(word.astype(np.uint64))
    return np.stack([words[0] | words[1] << 32, words[2] | words[3] << 32], axis=1)


def _gaze(spec: SynthSpec, uniform: np.ndarray, noise, probability: np.ndarray):
    """Gaze points of a block of teams and each frame's intended label.

    ``uniform`` holds per team the JVA coin, target x, target y and partner
    angle uniforms of every frame, shape (teams, 4, frames); ``noise`` the
    standard normal offsets of (p1 x, p1 y, p2 x, p2 y) in the same shape,
    or None. Returns the points in that (teams, 4, frames) layout and the
    labels, shape (teams, frames).
    """
    w, h = float(spec.image_w), float(spec.image_h)
    sep = SEPARATION_FACTOR * _THRESHOLD
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


def _value_text(values: np.ndarray) -> np.ndarray:
    """``"%.4f" % v`` of each value, as rows of bytes NUL-padded on the left.

    ``values`` is a 1-D array of finite floats without a sign bit (gaze
    points are clipped to [0, side], which gives +0.0, never -0.0). Returns
    a uint8 array of shape (n, width): each row holds the integer part in
    whole 4-digit groups, then "." and the four decimals.

    The digits are those of k, v * 10**4 rounded to the nearest integer.
    The product p = v * 1e4 in floating point is off the exact one by at
    most spacing(p) / 2, so ``rint(p)`` is k wherever p lies further than
    spacing(max p) from a half-integer. Elsewhere (near and exact ties, and
    every value once max p reaches 2**52) k is read from ``"%.4f" % v``,
    which also breaks exact ties as Python does.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        p = values * 1e4
        k = np.rint(p)
        bound = 0.5 - np.spacing(p.max(initial=0.0))
        near = np.flatnonzero(~(np.abs(p - k) < bound))
    fixed = [int(("%.4f" % v).replace(".", "")) for v in values[near].tolist()]
    k[near] = 0
    k = k.astype(np.int64)
    top = max([int(k.max(initial=0)), *fixed])
    # 4-digit groups of k, most significant first; the last is the fraction.
    n_groups = max(2, -(-len(str(top)) // 4))
    groups = np.empty((n_groups, len(values)), dtype=np.int64)
    for j in range(n_groups - 1, 0, -1):
        high = k // 10000
        groups[j] = k - 10000 * high
        k = high
    groups[0] = k
    if fixed:
        groups[:, near] = [
            [f // 10 ** (4 * j) % 10000 for f in fixed] for j in range(n_groups - 1, -1, -1)
        ]
    text = np.empty((len(values), 4 * n_groups + 1), dtype=np.uint8)
    # Leading groups of zeros are blank; the first other group drops its
    # leading zeros, the units group keeps at least one digit.
    above = np.zeros(len(values), dtype=bool)
    for j, group in enumerate(groups[:-1]):
        words = _GROUP_TEXT[above.view(np.uint8), group]
        if j < n_groups - 2:
            words *= above | (group != 0)
            above |= group != 0
        text[:, 4 * j:4 * j + 4].view(np.uint32)[:, 0] = words
    text[:, -5] = ord(".")
    text[:, -4:].view(np.uint32)[:, 0] = _GROUP_TEXT[1, groups[-1]]
    return text


def _records(shape: tuple, fields: Sequence) -> np.ndarray:
    """Records of byte fields side by side, a uint8 array of ``shape`` plus
    the record width; their text is its bytes with the NULs taken out.

    Each field is ``bytes`` or a uint8 array of NUL-padded texts that
    broadcasts to ``shape`` plus its own width.
    """
    fields = [np.frombuffer(f, dtype=np.uint8) if isinstance(f, bytes) else f for f in fields]
    rec = np.empty(shape + (sum(f.shape[-1] for f in fields),), dtype=np.uint8)
    at = 0
    for field in fields:
        rec[..., at:at + field.shape[-1]] = field
        at += field.shape[-1]
    return rec


def _texts(texts: Sequence) -> np.ndarray:
    """``texts`` as rows of NUL-padded ASCII bytes, shape (len, widest)."""
    array = np.array(texts, dtype=bytes)
    return array.view(np.uint8).reshape(len(texts), array.itemsize)


def _truth_json(names: Sequence[str], jva: np.ndarray) -> bytes:
    """``GroundTruth.to_json()`` of the teams ``names`` with frame labels
    ``jva`` (bool, shape (teams, frames)).

    Teams go in ``sorted(names)`` order. Each team's label list is laid out
    whole, "[" and ","-separated digits and "]"; each ratio's JSON text is
    formatted once per count of JVA frames.
    """
    ids = np.array(names, dtype=bytes)
    order = np.argsort(ids)
    ids, jva = _texts(ids[order]), jva[order]
    n_frames = jva.shape[1]
    labels = np.full((len(jva), 2 * n_frames + 1), ord(","), dtype=np.uint8)
    labels[:, 0], labels[:, -1] = ord("["), ord("]")
    labels[:, 1::2] = jva.view(np.uint8) + ord("0")
    counts, which = np.unique(jva.sum(axis=1), return_inverse=True)
    ratios = _texts([json.dumps(k / n_frames) for k in counts.tolist()])[which]
    members = [
        _records((len(jva),), [b'"', ids, b'":', values, b","]).tobytes().replace(b"\0", b"")
        for values in (labels, ratios)
    ]
    return b'{"frame_labels":{%s},"team_ratios":{%s}}' % (members[0][:-1], members[1][:-1])


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
    # The cells between the team id and the gaze points of each frame's
    # two rows, with both commas.
    cells = _texts([
        f",f{f:05d},{f * _FRAME_INTERVAL_S:.1f},{spec.image_w},{spec.image_h},{person},"
        for f in range(n_frames)
        for person in ("p1", "p2")
    ])
    suffixes = _texts([f",{c.value},{g.value}," for c, g in zip(_CONDITION_CYCLE, _GENDER_CYCLE)])
    probability = _team_probabilities(spec)
    block = max(1, _BLOCK_ROWS // (2 * n_frames))
    frame_labels: dict[str, list[int]] = {}
    team_ratios: dict[str, float] = {}
    block_jva = []
    # One generator, re-keyed before each team's draws with a zero counter
    # and an empty output buffer: the state a fresh Philox has. Lists set
    # the state about four times as fast as arrays.
    philox = np.random.Philox(0)
    rng = np.random.Generator(philox)
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0] * 4, "key": None},
        "buffer": [0] * 4,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }

    with open(frames_path, "wb") as ff, open(teams_path, "wb") as tf:
        ff.write((",".join(FRAME_COLUMNS) + "\n").encode())
        tf.write((",".join(TEAM_COLUMNS) + "\n").encode())
        for start in range(0, spec.teams, block):
            indices = range(start, min(start + block, spec.teams))
            # Per team, one draw: the two post-test uniforms, then the JVA
            # coin, target x, target y and partner angle uniforms of every
            # frame.
            draws = np.empty((len(indices), 2 + 4 * n_frames))
            noise = np.empty((len(indices), 4, n_frames)) if spec.gaze_noise_sigma > 0 else None
            for i, key in enumerate(_team_keys(spec.seed, indices).tolist()):
                state["state"]["key"] = key
                philox.state = state
                rng.random(out=draws[i])
                if noise is not None:
                    rng.standard_normal(out=noise[i])
            uniform = draws[:, 2:].reshape(len(indices), 4, n_frames)
            gaze, jva = _gaze(spec, uniform, noise, probability[start:indices.stop])
            names = _team_ids(indices)
            ids = _texts(names)
            # Each row's (x, y), in row order: (teams, frames, p1/p2, x/y).
            text = _value_text(gaze.transpose(0, 2, 1).ravel())
            text = text.reshape(len(names), 2 * n_frames, 2, text.shape[1])
            # rec lives until the next block's is built: freed here with the
            # two copies of its bytes, its pages would go back to the system
            # and fault in again on every block.
            rec = _records((len(names), 2 * n_frames), [
                ids[:, None], cells, text[:, :, 0], b",", text[:, :, 1], b",0\n",
            ])
            ff.write(rec.tobytes().replace(b"\0", b""))
            # Post-test scores 0..5, as floor(6 u): rng.integers costs
            # several times more per call.
            scores = (6 * draws[:, :2]).astype(np.uint8) + ord("0")
            tf.write(_records((len(names),), [
                ids, suffixes[np.arange(start, indices.stop) % len(suffixes)],
                scores[:, :1], b",", scores[:, 1:], b"\n",
            ]).tobytes().replace(b"\0", b""))
            frame_labels.update(zip(names, jva.view(np.uint8).tolist()))
            team_ratios.update(zip(names, (jva.sum(axis=1) / n_frames).tolist()))
            block_jva.append(jva)

    truth = GroundTruth(frame_labels=frame_labels, team_ratios=team_ratios)
    truth_path.write_bytes(_truth_json(list(frame_labels), np.concatenate(block_jva)))
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
