"""The frame table as numpy columns: its reader and the one way from frames
and teams to a report.

``read_frame_table`` parses a frame table's ``io_report._read_csv`` chunks
into numpy columns (``FrameTable``), and ``analyze_table`` scores them with
``jva.team_jva_counts`` and hands the teams' JVA ratios to
``io_report.stats_report``. Only ``teamgaze analyze`` (and
``io_report.load_frames``) imports this module, so the commands that read
no frame table run without numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import repeat
from pathlib import Path
from typing import Iterable, Sequence, Union

import numpy as np

from .io_report import (
    FRAME_COLUMNS,
    Report,
    TeamTable,
    _ChunkParser,
    _check_known_teams,
    _codes,
    _constant,
    _float_list,
    _names_file,
    _read_csv,
    _str,
    stats_report,
)
from .jva import team_jva_counts
from .model import JvaConfig

__all__ = ["FrameTable", "read_frame_table", "analyze_table"]

_MANDATORY_FRAME_COLUMNS = FRAME_COLUMNS[:-1]


@dataclass
class FrameTable:
    """A frame table as columns: one entry per frame and one per kept row.

    Teams and frames are numbered in the order their first kept row appears
    in the file. The kept rows of frame ``f`` are rows
    ``row_offsets[f]:row_offsets[f + 1]``, in file order. Image sizes hold
    whole pixels (``int(float(cell))``) as floats. A row skipped for its
    gaze point appears only in ``row_errors``.
    """

    team_ids: list[str]
    frame_ids: list[str]
    frame_team: np.ndarray
    timestamp: np.ndarray
    width: np.ndarray
    height: np.ndarray
    discarded: np.ndarray
    row_offsets: np.ndarray
    person_ids: list[str]
    row_person: np.ndarray
    gaze_x: np.ndarray
    gaze_y: np.ndarray
    row_errors: list[str]


def _floats(cells: Sequence, column: str, lines: np.ndarray) -> np.ndarray:
    """A column's cells as floats, as ``io_report._float_list`` reads them;
    a constant column is parsed once."""
    try:
        if _constant(cells):
            return np.full(len(cells), float(cells[0]))
        return np.fromiter(map(float, cells), float, len(cells))
    except ValueError:
        return np.array(_float_list(cells, column, lines.tolist()))


def _first(bad: np.ndarray) -> int:
    """The index of the first true entry of ``bad``, else -1."""
    return int(bad.argmax()) if bad.any() else -1


@_names_file
def read_frame_table(path: Union[str, Path]) -> FrameTable:
    """Parse a frame table into columns; the one parser of frame CSVs.

    Rows for the same (team_id, frame_id) form one frame. Besides
    ``_read_csv``'s, errors name the first bad row in file order: a short
    row, an empty team, frame or person id, a cell that is not a number, an image
    size that is not finite or not positive, a ``discarded`` cell other
    than empty, 0, 1, true or false (any case), a person twice in one
    frame, rows of one frame that disagree on timestamp, image size or
    discarded flag, and a third person of a team in frames not flagged
    discarded. A row whose gaze point is outside the image or NaN is
    skipped and logged in ``row_errors``; it never creates a frame.
    """
    chunks = _read_csv(path, _MANDATORY_FRAME_COLUMNS, ("discarded",))
    next(chunks)
    rows = _FrameRows()
    try:
        for lines, cells, short in chunks:
            rows.add(cells, lines, short)
    except ValueError:
        rows.table()  # a frame error on an earlier line comes first
        raise
    return rows.table()


class _Ids:
    """Numbers ids (stripped text of cells) 0, 1, ... in the order they arrive."""

    def __init__(self):
        self.names: list[str] = []
        self.number: dict[str, int] = {}
        # Every raw cell (str or bytes) seen so far, so most cells cost one lookup.
        self._cell_number: dict = {}

    def codes(self, cells: Sequence) -> np.ndarray:
        if _constant(cells):
            self._add(cells[:1])
            return np.full(len(cells), self._cell_number[cells[0]], np.int64)
        try:
            return np.fromiter(map(self._cell_number.__getitem__, cells), np.int64, len(cells))
        except KeyError:
            self._add(dict.fromkeys(cells))  # the chunk's distinct cells, in order
        return np.fromiter(map(self._cell_number.__getitem__, cells), np.int64, len(cells))

    def _add(self, cells: Iterable) -> None:
        """Number each of ``cells`` not seen before."""
        for cell in cells:
            if cell not in self._cell_number:
                name = _str(cell).strip()
                if name not in self.number:
                    self.number[name] = len(self.names)
                    self.names.append(name)
                self._cell_number[cell] = self.number[name]


def _first_appearance(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct keys 0, 1, ... in the order they first appear.

    Returns each key's number and, per number, where that key first appears.
    Keys already in order (non-decreasing) are numbered where they change;
    any others are sorted.
    """
    if not (keys[1:] < keys[:-1]).any():
        new = np.empty(len(keys), bool)
        new[:1], new[1:] = True, keys[1:] != keys[:-1]
        return np.cumsum(new) - 1, np.flatnonzero(new)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    number = np.empty_like(order)
    number[order] = np.arange(len(order))
    return number[inverse.reshape(-1)], first[order]


class _FrameRows(_ChunkParser):
    """The kept rows of a frame table, parsed a chunk at a time into columns.

    ``_parse`` names a bad row itself (see ``_ChunkParser``), checking a
    row's cells in this order: a lacking cell, an empty team or frame id,
    an empty person id, the timestamp, each image size (a number, then finite), a size that is
    not positive, the gaze point and the ``discarded`` token. ``table()``
    then names the first frame error among the kept rows: a row that
    disagrees with its frame's first, a person twice in one frame, or, among
    the rows of frames not flagged discarded, a team's third person.

    Rows may come in any order. Two properties of real tables make their
    reading cheaper, each checked on the data and skipped where it fails:
    a chunk's column of one cell (``_constant``: image sizes and the
    discarded flag in every chunk of the benchmark's clean workloads) is
    parsed once, and ``table()`` sorts nothing for rows sorted by team
    then frame, with a frame's rows next to each other and its persons in
    the order the file first names them.
    """

    def __init__(self):
        self.teams, self.frames, self.persons = _Ids(), _Ids(), _Ids()
        self.row_errors: list[str] = []
        # The kept rows' team, frame, person, timestamp, width, height,
        # discarded, gaze x, gaze y and line, one array per chunk.
        self.columns: list[list[np.ndarray]] = [[] for _ in range(10)]
        # An empty first chunk gives each column its dtype, also for a file
        # without rows.
        self._parse(dict.fromkeys(FRAME_COLUMNS, ()), range(0), False)

    def _parse(self, cells: dict, lines: Sequence[int], short: bool) -> None:
        n = len(lines)
        if isinstance(lines, range):
            lines = np.arange(lines.start, lines.stop)
        else:
            lines = np.array(lines, np.int64)
        if short and any(None in cells[c] for c in _MANDATORY_FRAME_COLUMNS):
            rows = list(zip(*(cells[c] for c in _MANDATORY_FRAME_COLUMNS)))
            i = [None in row for row in rows].index(True)
            name = _MANDATORY_FRAME_COLUMNS[rows[i].index(None)]
            raise ValueError(f"line {lines[i]}: short row, no {name} cell")
        team = self.teams.codes(cells["team_id"])
        frame = self.frames.codes(cells["frame_id"])
        no_id = [ids.number.get("", -1) for ids in (self.teams, self.frames)]
        if (i := _first((team == no_id[0]) | (frame == no_id[1]))) >= 0:
            raise ValueError(f"line {lines[i]}: empty team_id or frame_id")
        person = self.persons.codes(cells["person_id"])
        if (i := _first(person == self.persons.number.get("", -1))) >= 0:
            raise ValueError(f"line {lines[i]}: empty person_id")
        ts = _floats(cells["timestamp_s"], "timestamp_s", lines)
        sizes = []
        for c in ("image_w", "image_h"):
            sizes.append(_floats(cells[c], c, lines))
            if (i := _first(~np.isfinite(sizes[-1]))) >= 0:
                raise ValueError(
                    f"line {lines[i]}: column {c!r} not finite: {_str(cells[c][i])!r}"
                )
        w, h = sizes
        if (i := _first((w < 1) | (h < 1))) >= 0:  # a whole pixel is at least 1
            raise ValueError(f"line {lines[i]}: non-positive image dimensions")
        w, h = np.trunc(w), np.trunc(h)
        gx, gy = (_floats(cells[c], c, lines) for c in ("gaze_x", "gaze_y"))
        discarded = np.zeros(n, bool)
        if "discarded" in cells:
            discarded[:] = _codes(cells, "discarded", lines)

        inside = (gx >= 0) & (gx <= w) & (gy >= 0) & (gy <= h)
        for i in np.flatnonzero(~inside).tolist():
            self.row_errors.append(
                f"line {lines[i]}: gaze ({float(gx[i])}, {float(gy[i])}) outside "
                f"{int(w[i])}x{int(h[i])} image, row skipped"
            )
        kept = (team, frame, person, ts, w, h, discarded, gx, gy, lines)
        every = inside.all()
        for chunks, values in zip(self.columns, kept):
            chunks.append(values if every else values[inside])

    def table(self) -> FrameTable:
        """The kept rows as a FrameTable; raises the first frame error."""
        for chunks in self.columns:  # one column at a time, to bound memory
            chunks[:] = [np.concatenate(chunks)]
        team, frame, person, ts, w, h, discarded, gx, gy, line = (
            chunks[0] for chunks in self.columns
        )
        frame_no, first = _first_appearance(team * len(self.frames.names) + frame)
        team_no, team_first = _first_appearance(team[first])
        team_names, frame_names = self.teams.names, self.frames.names

        def where(r: int) -> str:
            return f"team {team_names[team[r]]!r} frame {frame_names[frame[r]]!r}"

        # Each frame error as (row, message); the first row's is raised.
        problems = []
        ref = first[frame_no]  # the first kept row of each row's frame
        for name, values, shown in (
            ("timestamp_s", ts, float),
            ("image_w", w, int),
            ("image_h", h, int),
            ("discarded", discarded, bool),
        ):
            at_ref = values[ref]
            differ = np.flatnonzero(values != at_ref)
            # NaN timestamps agree with each other.
            v, v_ref = values[differ], at_ref[differ]
            if (differ := differ[(v == v) | (v_ref == v_ref)]).size:
                r = int(differ[0])
                problems.append((r, (
                    f"line {line[r]}: {name} {shown(values[r])} differs from "
                    f"{shown(at_ref[r])} on line {line[ref[r]]} for {where(r)}"
                )))
        pair_key = frame_no * len(self.persons.names) + person
        # Keys in strictly increasing order hold no repeat.
        repeat = ()
        if not (pair_key[1:] > pair_key[:-1]).all():
            order = np.argsort(pair_key, kind="stable")
            repeat = np.flatnonzero(pair_key[order[1:]] == pair_key[order[:-1]])
        if len(repeat):
            k = int(np.argmin(order[1:][repeat]))
            r, earlier = int(order[1:][repeat][k]), int(order[:-1][repeat][k])
            problems.append((r, (
                f"line {line[r]}: person_id {self.persons.names[person[r]]!r} "
                f"already on line {line[earlier]} for {where(r)}"
            )))
        if len(self.persons.names) > 2:  # a table of two person ids names no third
            counted = np.flatnonzero(~discarded)
            team_person = team[counted] * len(self.persons.names) + person[counted]
            pair_rows = counted[_first_appearance(team_person)[1]]  # each pair's first row
            order = np.argsort(team[pair_rows], kind="stable")
            by_team = team[pair_rows][order]
            rank = np.arange(len(order)) - np.searchsorted(by_team, by_team)  # in its team
            if (third := order[rank == 2]).size:
                r = int(pair_rows[third.min()])
                problems.append((r, (
                    f"line {line[r]}: person_id {self.persons.names[person[r]]!r} is a third "
                    f"person of team {team_names[team[r]]!r} (a team is two people)"
                )))
        if problems:
            raise ValueError(min(problems, key=lambda p: p[0])[1])

        by_frame = slice(None)  # rows already grouped by frame stay as they are
        if (frame_no[1:] < frame_no[:-1]).any():
            by_frame = np.argsort(frame_no, kind="stable")
        counts = np.bincount(frame_no, minlength=len(first))
        return FrameTable(
            team_ids=[team_names[c] for c in team[first][team_first].tolist()],
            frame_ids=[frame_names[c] for c in frame[first].tolist()],
            frame_team=team_no,
            timestamp=ts[first],
            width=w[first],
            height=h[first],
            discarded=discarded[first],
            row_offsets=np.concatenate(([0], np.cumsum(counts))),
            person_ids=self.persons.names,
            row_person=person[by_frame],
            gaze_x=gx[by_frame],
            gaze_y=gy[by_frame],
            row_errors=self.row_errors,
        )


def analyze_table(
    table: FrameTable, teams: TeamTable, config: JvaConfig = JvaConfig()
) -> Report:
    """Score each team of ``teams`` (as ``io_report.load_teams`` reads them)
    from a FrameTable and report on them with ``io_report.stats_report``.

    Frames of other teams are an error; a team without countable frames
    gets no ratio and a note.
    """
    _check_known_teams(table.team_ids, teams)
    jva_frames, denominator_frames = team_jva_counts(
        table.frame_team,
        len(table.team_ids),
        table.width,
        table.height,
        table.discarded,
        table.row_offsets,
        table.gaze_x,
        table.gaze_y,
        config,
    )
    teams = teams.by_team_id()
    # Each team's number in the frame table; -1, for a team without frames,
    # picks the appended count of 0.
    number = dict(zip(table.team_ids, range(len(table.team_ids))))
    at = np.fromiter(map(number.get, teams.team_ids, repeat(-1)), np.intp, len(teams))
    jva = np.append(jva_frames, 0)[at]
    denominator = np.append(denominator_frames, 0)[at]
    ratio = np.full(len(teams), np.nan)
    np.divide(jva, denominator, out=ratio, where=denominator > 0)
    ratios = (100.0 * ratio).tolist()
    report = stats_report(replace(teams, jva_ratio_pct=ratios))
    no_frames = [t for t, ratio in zip(teams.team_ids, ratios) if ratio != ratio]
    if no_frames:
        report.notes.append(f"no countable frames for teams: {no_frames}")
    return report
