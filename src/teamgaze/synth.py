"""Synthetic-session generator with known ground truth.

Produces the frame and team CSV formats the loaders read (the columns
``io_report.FRAME_COLUMNS`` and ``io_report.TEAM_COLUMNS``), plus a
compact JSON sidecar recording each frame's intended JVA label and each
team's intended ratio. This is the end-to-end oracle for the pipeline: at
zero noise the analysis must recover the generated labels and ratios
exactly.

Randomness comes from two numpy Philox streams of the seed: the uniform
stream ``Generator(Philox(SeedSequence(seed, spawn_key=(0,))))`` and the
noise stream, the same with ``spawn_key=(1,)``. Both are read team after
team. Team k takes row k of ``random((teams, 2 + 4 * frames))`` from the
uniform stream: its two post-test uniforms, then one array of uniforms for
each frame quantity (JVA coin, target x, target y, partner angle). When
the noise sigma is positive, it also takes row k of
``standard_normal((teams, 4, frames))`` from the noise stream: the
Gaussian offsets of each gaze coordinate. A stream gives the same values
however its draws are split into calls, so output is reproducible across
platforms and team k's rows are the same whatever the number of teams or
the block size. Frames are built with whole-array operations, and the
draws are made and the rows written a block of teams at a time.

Rows are built as bytes, a block at a time, with no per-row Python work.
Each row is a record of fixed-width byte fields (for a frame row: team
id, the frame/person cells, then each gaze coordinate's ``"%.4f"`` text
and its comma), shorter texts padded with NULs, and the block is written
with the NULs taken out (``_records``). A coordinate's text comes from
its 4-digit groups through small digit tables (``_value_text``). The
ground truth is written the same way from the label arrays, teams in
sorted id order (``_truth_json``): the bytes ``json.dumps`` gives with
sorted keys and no spaces.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from pathlib import Path
from typing import Mapping, Sequence, Union

import numpy as np

from .io_report import FRAME_COLUMNS, TEAM_COLUMNS
from .model import CONDITIONS, GENDERS, JvaConfig

__all__ = ["SynthSpec", "generate"]

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

JvaProbability = Union[float, Mapping[str, float]]


class SynthSpec(namedtuple(
    "SynthSpec",
    "teams frames_per_team image_w image_h jva_probability gaze_noise_sigma seed",
    defaults=(30, 155, 2560, 1440, 0.4, 0.0, 0),
)):
    """Parameters for one synthetic study.

    Team i takes label i mod 3 of ``model.CONDITIONS`` and of
    ``model.GENDERS``. ``jva_probability`` is either a single probability,
    or a mapping from each condition label to its teams' probability, which
    may be text that ``float`` reads. Each image side must be at least
    ``2 * SEPARATION_FACTOR`` times the default JVA threshold in pixels, so
    that a non-JVA partner point fits inside the image. The counts and
    sides are positive ints, the seed a non-negative one, and a bool is no
    int here. Every check runs here, before any file is written. The
    defaults lay out the paper's study: 30 teams of 155 frames at 2560x1440,
    a JVA probability of 0.4, no gaze noise and seed 0.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> SynthSpec:
        self = super().__new__(cls, *args, **kwargs)
        if type(self.seed) is not int or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer: {self.seed!r}")
        for name in ("teams", "frames_per_team", "image_w", "image_h"):
            if type(value := getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an integer: {value!r}")
            if value <= 0:
                raise ValueError(f"{name} must be positive: {value!r}")
        if not math.isfinite(self.gaze_noise_sigma):
            raise ValueError(f"gaze_noise_sigma must be finite: {self.gaze_noise_sigma!r}")
        if self.gaze_noise_sigma < 0:
            raise ValueError(f"gaze_noise_sigma must be non-negative: {self.gaze_noise_sigma!r}")
        # Below this, a partner point can leave the image on both sides of
        # its target and clipping would pull it within the threshold.
        side = 2 * SEPARATION_FACTOR * _THRESHOLD
        if min(self.image_w, self.image_h) < side:
            raise ValueError(
                f"image {self.image_w}x{self.image_h} too small for threshold "
                f"{_THRESHOLD:g}: each side must be at least "
                f"2 * {SEPARATION_FACTOR:g} * threshold = {side:g} px"
            )
        _condition_probabilities(self.jva_probability)
        return self


def _team_ids(indices: range) -> list[str]:
    """The ids of the teams at ``indices`` ("team01" for index 0), by one format call."""
    numbers = tuple(range(indices.start + 1, indices.stop + 1))
    return ("team%02d " * len(numbers) % numbers).split()


def _checked_probability(name: str, value) -> float:
    try:
        value = float(value)
    except ValueError:
        raise ValueError(f"{name} is not a number: {value!r}") from None
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1]: {value:g}")
    return value


def _condition_probabilities(p: JvaProbability) -> list[float]:
    """The JVA probability of each condition, in ``CONDITIONS`` order.

    Raises ValueError on a value that is not a number in [0, 1] or a key
    that is not a condition, key by key and value first, then on the first
    condition that no key names.
    """
    if not isinstance(p, Mapping):
        return [_checked_probability("jva_probability", p)] * len(CONDITIONS)
    for key, value in p.items():
        _checked_probability(f"jva_probability[{key!r}]", value)
        if key not in CONDITIONS:
            raise ValueError(
                f"jva_probability key is not a condition ({', '.join(CONDITIONS)}): {key!r}"
            )
    missing = [condition for condition in CONDITIONS if condition not in p]
    if missing:
        raise ValueError(f"jva_probability is missing a condition: {missing[0]!r}")
    return [float(p[condition]) for condition in CONDITIONS]


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
        # A huge sigma overflows to +-inf, which the clip maps to the bounds.
        with np.errstate(over="ignore"):
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
    """The ground truth of the teams ``names`` with frame labels ``jva``
    (bool, shape (teams, frames)): ``json.dumps`` of ``{"frame_labels":
    {id: [0/1, ...]}, "team_ratios": {id: sum / len}}`` with sorted keys
    and no spaces.

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


def generate(spec: SynthSpec, out_dir: Union[str, Path]) -> tuple[Path, Path, Path]:
    """Write frames.csv, teams.csv and ground_truth.json under ``out_dir``.

    Files rather than in-memory records: the generator exercises the real
    ingestion path, and ground_truth.json is the only form of the truth.
    Returns the three paths.
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
    suffixes = _texts([f",{c},{g}," for c, g in zip(CONDITIONS, GENDERS)])
    probability = np.array(_condition_probabilities(spec.jva_probability))
    probability = probability[np.arange(spec.teams) % len(CONDITIONS)]
    block = max(1, _BLOCK_ROWS // (2 * n_frames))
    block_jva = []
    uniforms, normals = (
        np.random.Generator(np.random.Philox(np.random.SeedSequence(spec.seed, spawn_key=(k,))))
        for k in (0, 1)
    )

    with open(frames_path, "wb") as ff, open(teams_path, "wb") as tf:
        ff.write((",".join(FRAME_COLUMNS) + "\n").encode())
        tf.write((",".join(TEAM_COLUMNS) + "\n").encode())
        for start in range(0, spec.teams, block):
            indices = range(start, min(start + block, spec.teams))
            # Per team, a row of the two post-test uniforms, then the JVA coin,
            # target x, target y and partner angle uniforms of every frame.
            draws = uniforms.random((len(indices), 2 + 4 * n_frames))
            noise = None
            if spec.gaze_noise_sigma > 0:
                noise = normals.standard_normal((len(indices), 4, n_frames))
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
            block_jva.append(jva)

    truth_path.write_bytes(_truth_json(_team_ids(range(spec.teams)), np.concatenate(block_jva)))
    return frames_path, teams_path, truth_path
