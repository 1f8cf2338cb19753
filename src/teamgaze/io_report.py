"""CSV ingestion, report assembly and deterministic report emission.

Four input tables drive the pipeline: a frame table (one row per frame
and person), a team table (condition, gender and two post-test scores per
team), and for ``teamgaze stats`` a per-team results or summary table
(``stats_report_from_table`` tells them apart by the header it reads).
One reader, ``_read_csv``, tokenizes all four under one contract and
yields their rows a chunk at a time in column form. It reads each file
once as bytes, a block of lines at a time; a block ends at any line end
(LF, CR LF or a lone CR). A plain block is split as bytes at every comma
in one pass straight into columns of ``bytes`` cells. Every other block
(the header's, and any holding quotes, NUL, comment or blank lines,
over-long cells, rows of another width or bytes that are not UTF-8) is
decoded by ``model.input_text`` and goes through one csv.reader loop,
which reads on into the next blocks only while a quoted cell is open;
its cells are ``str``. The column parsers read either type by one rule
(see ``_read_csv``).
The tokenizer names the line of a fault in the text; the column parsers
(``_FrameRows``, ``_TeamColumns``) name the first bad cell's row
themselves. Each error of a table reader starts with the table's path
(``_names_file``).
``read_frame_table`` parses frame rows in chunks into numpy columns;
``analyze_table``, the one way from frames and teams to a report, scores
them with ``jva.team_jva_counts``. The team and per-team results tables
are parsed the same way (``_TeamColumns``) into a ``TeamTable`` of
per-team columns: ``load_teams`` fills it without JVA ratios,
``analyze_table`` adds them, ``load_team_rows`` reads them from the
file, and ``stats_report`` runs the statistics battery on it. No command
builds objects per frame: ``load_frames``, ``build_sessions`` and
``stats_report_from_team_rows`` serve only ``perfbench/traced.py``
(ROADMAP item 3), and the tests' reference is ``tests/oracles.py``.
Reports render the same content as machine-readable JSON, an aligned
plain-text table, or a CSV bundle. Every emitter writes the teams a
column at a time (``_team_cells``); every other section (group summaries
and totals, ANOVAs, pairwise comparisons, correlation, notes) is built
once by ``_sections`` as records, and each format only lays them out.
Every format rounds a field to the decimals ``_DECIMALS`` gives it (2 for
M/SD/F/d, 3 for p, 4 for r) and writes missing and non-finite values by
its own one rule, so output is byte-identical across runs.
"""

from __future__ import annotations

import csv
import json
import math
import operator
import os
from dataclasses import asdict, dataclass, field, replace
from functools import wraps
from io import StringIO
from itertools import chain, compress, islice, zip_longest
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .jva import DenominatorPolicy, JvaConfig, ScaleMode, team_jva_counts
from .model import (
    Condition,
    FrameRecord,
    GazeObservation,
    GenderComposition,
    Group,
    Point2D,
    TeamSession,
    group_for_condition,
    input_text,
    team_post_test_score,
)
from .stats import (
    AnovaResult,
    CorrelationResult,
    GroupSummary,
    anova_from_summary,
    pairwise_comparisons,
    pearson,
    summarize,
)

__all__ = [
    "FRAME_COLUMNS",
    "TEAM_COLUMNS",
    "FrameTable",
    "LoadResult",
    "Report",
    "TeamRow",
    "TeamTable",
    "read_frame_table",
    "load_frames",
    "load_teams",
    "build_sessions",
    "analyze_table",
    "stats_report",
    "stats_report_from_team_rows",
    "stats_report_from_summaries",
    "stats_report_from_table",
    "load_summary_fixture",
    "load_team_rows",
    "emit_report",
    "check_report_out",
    "load_config",
    "config_path_from_env",
    "paper_fixture_path",
    "CONFIG_ENV_VAR",
    "CONFIG_KEYS",
    "REPORT_FORMATS",
    "DEFAULT_REPORT_FORMAT",
]

CONFIG_ENV_VAR = "TEAMGAZE_CONFIG"

# The columns read from a frame table; ``discarded`` may be left out.
FRAME_COLUMNS = [
    "team_id",
    "frame_id",
    "timestamp_s",
    "image_w",
    "image_h",
    "person_id",
    "gaze_x",
    "gaze_y",
    "discarded",
]
_MANDATORY_FRAME_COLUMNS = FRAME_COLUMNS[:-1]
TEAM_COLUMNS = ["team_id", "condition", "gender", "post_test_1", "post_test_2"]

# Lines or rows read per step. Small enough for one step's cells to stay
# in the CPU cache: steps of 16k frame rows parsed slower than 1k.
_CHUNK_ROWS = 1024

_TEAM_ROW_COLUMNS = ("team_id", "condition", "gender", "team_post_test")
_SUMMARY_COLUMNS = ("grouping", "label", "measure", "n", "mean", "sd")


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


@dataclass
class LoadResult:
    frames_by_team: dict[str, list[FrameRecord]]
    row_errors: list[str] = field(default_factory=list)


def _str(cell):
    """A cell as text: a plain block's cells are bytes (see ``_read_csv``)."""
    return cell.decode() if isinstance(cell, bytes) else cell


def _text(cells: Sequence) -> Sequence:
    """A chunk's column as text; its cells are all bytes or all not."""
    return list(map(bytes.decode, cells)) if cells and isinstance(cells[0], bytes) else cells


def _parse_float(value: str, column: str, line: int, kind=float) -> float:
    try:
        return kind(value)
    except ValueError:
        raise ValueError(f"line {line}: column {column!r} not numeric: {value!r}")


def _parse_bounded(value: str, column: str, line: int, high: int) -> float:
    """A number in [0, high]; NaN and anything outside are errors."""
    number = _parse_float(value, column, line)
    if not 0 <= number <= high:
        raise ValueError(f"line {line}: {column} {value!r} out of [0,{high}]")
    return number


def _constant(cells: Sequence) -> bool:
    """Whether every cell of a chunk's column is one string, so that it is
    parsed once. Comparing the first and last cells turns most mixed
    columns away at once; ``count`` compares in C and hashes nothing."""
    return bool(cells) and cells[0] == cells[-1] and cells.count(cells[0]) == len(cells)


def _floats(cells: Sequence, column: str, lines: np.ndarray) -> np.ndarray:
    """A column's cells as floats; the first that is not a number is an error.

    ``float`` reads bytes as ASCII only, so a column it fails on is read
    again as text, where U+00A0 is a space and "١" a digit."""
    try:
        if _constant(cells):
            return np.full(len(cells), float(cells[0]))
        return np.fromiter(map(float, cells), float, len(cells))
    except ValueError:
        return np.array(
            [_parse_float(c, column, line) for c, line in zip(_text(cells), lines.tolist())]
        )


def _first(bad: np.ndarray) -> int:
    """The index of the first true entry of ``bad``, else -1."""
    return int(bad.argmax()) if bad.any() else -1


def _names_file(read):
    """Make each ValueError of a table reader start with the table's path."""

    @wraps(read)
    def reader(path: Union[str, Path]):
        try:
            return read(path)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

    return reader


def _check_header(header: list, reads: Sequence[str], line: int) -> None:
    """A column the table ``reads`` that ``header`` names twice, or a name
    that is none of them but one of them after ``casefold``, is an error at
    the header's ``line``; other names may repeat."""
    folded = {c.casefold(): c for c in reads}
    for name in header:
        if name in reads and header.count(name) > 1:
            raise ValueError(f"line {line}: header names column {name!r} more than once")
        if name not in reads and name.casefold() in folded:
            raise ValueError(
                f"line {line}: header column {name!r} is not {folded[name.casefold()]!r}: "
                "column names are case-sensitive"
            )


def _read_csv(
    path: Union[str, Path], columns: Sequence[str], optional: Sequence[str] = ()
) -> Iterator:
    """Read an input table: yield its header, then ``(lines, cells, short)``
    chunks of its rows in column form.

    A chunk holds up to ``_CHUNK_ROWS`` rows. ``cells`` maps each name of
    ``columns``, and of ``optional`` that the header has, to that column's
    cells, one per row. ``lines`` holds the physical line each row ends on.
    ``short`` says whether a row lacks a cell of one of those columns; the
    cells it lacks are None. Blank rows and comment rows (a first cell
    starting with ``#`` after leading spaces) are skipped; header names are
    stripped. ``columns`` may be a function of the header names that gives
    ``(columns, optional)``. The text is ``model.input_text``'s. A missing
    header or column, a header naming one of those columns twice or a name
    that is not one of them but equals one after ``casefold``
    (``_check_header``; other names may repeat), a csv error, a comment row
    holding a quoted line break and a byte that is not UTF-8 are errors
    naming the line, raised after the rows before them are yielded; a row
    ending on or past a bad byte's line stops the read, so a csv error in
    the row that holds the byte comes first. A bad cell is named by the
    table's parser.

    The file is read once as bytes, its first line alone and then
    ``_CHUNK_ROWS`` lines at a time, each ending at LF, CR LF or a lone CR.
    The cells are those ``csv.reader`` gives, as text or as that text's
    UTF-8 bytes. A plain block after the header's, one holding no ``"``,
    NUL, ``#``, line over the csv field limit or byte that is not UTF-8,
    whose rows all have the header's width, is split as bytes at every
    comma in one pass, so its cells are ``bytes``; its lines may end in a
    lone CR, where csv.reader ends an unquoted row too. A blank line, a
    row of one empty cell, fails the width check: each caller's header has
    at least four columns before its rows are read. A block that is not
    ASCII is decoded as it is read, to find a bad byte. Every other block
    is decoded by ``model.input_text`` and goes through one csv.reader loop
    that keeps each row with its line, the reader's own count; its cells
    are ``str``. A quoted cell may hold a line break, so the loop reads on
    into the next blocks while one is open, and hands back at the first
    row ending on a block's last line.

    A parser takes either cell type by one rule: ``float()`` and lookups
    of exact tokens read a cell as it is, and a cell is decoded (``_str``,
    or a column at a time by ``_text``) before any ``strip``, ``lower``,
    non-ASCII number or message, so bytes and text give the same values
    and errors.
    """
    limit = csv.field_size_limit()
    header, error = None, None
    done = read = 0  # the last line of a row, and the last line read
    undecoded = None  # the first line with a byte that is not UTF-8, and its problem

    def read_blocks(fh) -> Iterator[tuple]:
        """``fh``'s first line, then ``_CHUNK_ROWS`` lines at a time, each
        block as its bytes and, if they are not all ASCII, its text."""
        nonlocal read, undecoded
        size = 1  # a header on the first line leaves the rows after it a plain block
        pending = iter(())  # the lines of a read from ``fh`` past its block, split
        while True:
            if raw := list(islice(pending, size)):
                data = b"".join(raw)
            elif raw := list(islice(fh, size)):
                data = b"".join(raw)
                if b"\r" in data and len(split := data.splitlines(keepends=True)) > len(raw):
                    # Lone CRs in a read from ``fh``, which splits at LF only.
                    raw, pending = split[:size], iter(split[size:])
                    data = b"".join(raw)
            else:
                return
            text = None
            if not data.isascii():
                text, bad = input_text(data, file_start=not read)
                if undecoded is None and bad:
                    undecoded = read + bad[0], bad[1]
            read += len(raw)
            size = _CHUNK_ROWS
            yield data, text

    def column_chunk(lines: list, rows: list) -> tuple:
        # A short row stays apart from an empty cell: zip_longest fills None.
        by_column = list(zip_longest(*rows, fillvalue=None))
        missing_cells = (None,) * len(rows)
        cells = {
            c: by_column[i] if i < len(by_column) else missing_cells for c, i in used.items()
        }
        return np.array(lines), cells, min(map(len, rows)) <= max(used.values(), default=-1)

    with open(path, "rb") as fh:
        blocks = read_blocks(fh)
        for data, text in blocks:
            plain = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n") if b"\r" in data else data
            if header is not None and not (
                undecoded
                or any(mark in plain for mark in (b'"', b"\0", b"#"))
                or len(plain) > limit and max(map(len, plain.split(b"\n"))) > limit
            ):
                # A row of the header's width puts each LF cell at every
                # (width + 1)-th place. A blank line is a row of one cell, and
                # a table whose rows are read has at least four columns.
                n = read - done  # each block before it ended on a row's last line
                cells = plain.removesuffix(b"\n").replace(b"\n", b",\n,").split(b",")
                if len(cells) == n * (width + 1) - 1 and (
                    cells[width :: width + 1].count(b"\n") == n - 1
                ):
                    lines = np.arange(done + 1, done + n + 1)
                    yield lines, {c: cells[i :: width + 1] for c, i in used.items()}, False
                    done += n
                    continue
            base = done
            texts = (
                raw.decode() if decoded is None else decoded
                for raw, decoded in chain([(data, text)], blocks)
            )
            reader = csv.reader(chain.from_iterable(StringIO(t, newline="") for t in texts))
            lines, rows = [], []
            try:
                for row in reader:
                    line = base + reader.line_num  # the line the row ends on
                    if undecoded and undecoded[0] <= line:
                        error = ValueError(f"line {undecoded[0]}: {undecoded[1]}")
                        break
                    if row and "#" in row[0] and row[0].lstrip().startswith("#"):
                        if line != done + 1:
                            error = ValueError(
                                f"line {done + 1}: comment row holds a quoted line break"
                            )
                            break
                    elif row and header is None:  # csv.reader gives [] for a blank line
                        header = [name.strip() for name in row]
                        if callable(columns):
                            columns, optional = columns(header)
                        missing = [c for c in columns if c not in header]
                        if missing:
                            raise ValueError(f"missing mandatory columns {missing}")
                        _check_header(header, (*columns, *optional), line)
                        yield header
                        width = len(header)
                        index = {name: i for i, name in enumerate(header)}
                        used = {c: index[c] for c in (*columns, *optional) if c in index}
                    elif row:
                        lines.append(line)
                        rows.append(row)
                        if len(rows) == _CHUNK_ROWS:
                            yield column_chunk(lines, rows)
                            lines, rows = [], []
                    done = line
                    if line == read:  # no quoted cell open: back to the plain path
                        break
            except csv.Error as exc:
                error = ValueError(f"line {base + reader.line_num}: {exc}")
            if rows:
                yield column_chunk(lines, rows)
            if error is not None:
                raise error
    if header is None:
        raise ValueError("empty file, header row required")


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


class _ChunkParser:
    """Parses a table's ``_read_csv`` chunks into columns with ``_parse``.

    ``_parse`` checks a chunk with whole-column operations, in the order a
    row's cells are checked, and raises the first failing check's message
    for the first row that fails it. An earlier row may fail a later check,
    so a failing chunk is parsed again a row at a time: the first bad row in
    file order then raises its own first error, after the rows before it
    are parsed.
    """

    def add(self, cells: dict, lines: np.ndarray, short: bool) -> None:
        """Parse one ``_read_csv`` chunk."""
        try:
            self._parse(cells, lines, short)
        except ValueError:
            for i in range(len(lines)):
                row = {c: values[i : i + 1] for c, values in cells.items()}
                self._parse(row, lines[i : i + 1], short)
            raise


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
        self._parse(dict.fromkeys(FRAME_COLUMNS, ()), np.arange(0), False)

    def _parse(self, cells: dict, lines: np.ndarray, short: bool) -> None:
        n = len(lines)
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


def load_frames(path: Union[str, Path]) -> LoadResult:
    """Load a frame table as per-team FrameRecords.

    ``read_frame_table`` parses and checks the file; each team's frames
    and each frame's observations keep the order it gives them.
    """
    table = read_frame_table(path)
    persons = [table.person_ids[p] for p in table.row_person.tolist()]
    gaze = [Point2D(x, y) for x, y in zip(table.gaze_x.tolist(), table.gaze_y.tolist())]
    bounds = table.row_offsets.tolist()
    frames_by_team: dict[str, list[FrameRecord]] = {t: [] for t in table.team_ids}
    for f, (team, frame_id, timestamp, w, h, discarded) in enumerate(
        zip(
            table.frame_team.tolist(),
            table.frame_ids,
            table.timestamp.tolist(),
            table.width.tolist(),
            table.height.tolist(),
            table.discarded.tolist(),
        )
    ):
        frames_by_team[table.team_ids[team]].append(
            FrameRecord(
                frame_id=frame_id,
                timestamp=timestamp,
                image_width=int(w),
                image_height=int(h),
                observations=tuple(
                    GazeObservation(persons[r], gaze[r])
                    for r in range(bounds[f], bounds[f + 1])
                ),
                discarded=discarded,
            )
        )
    return LoadResult(frames_by_team=frames_by_team, row_errors=table.row_errors)


def _check_new_key(first_line: dict, key, line: int, name: str) -> None:
    """Record ``key``'s first line; a key seen on an earlier line is an error."""
    if (first := first_line.setdefault(key, line)) != line:
        raise ValueError(f"line {line}: duplicate {name} {key!r} (first on line {first})")


# Condition, gender and group members by the code a TeamTable holds.
_CONDITIONS = list(Condition)
_GENDERS = list(GenderComposition)
_GROUPS = list(Group)
_CONDITION_GROUP = np.array([_GROUPS.index(group_for_condition(c)) for c in _CONDITIONS])


def _token_codes(codes: dict) -> dict:
    """``codes`` by each token as written and lower-cased, as text and as bytes."""
    cased = {**codes, **{token.lower(): code for token, code in codes.items()}}
    return {**cased, **{token.encode(): code for token, code in cased.items()}}


# Each closed-token column's codes (see ``_token_codes``) and its error
# for a cell that is no token ({!r} is the cell).
_TOKEN_COLUMNS = {
    "condition": (_token_codes({m.value: i for i, m in enumerate(_CONDITIONS)}),
                  "unknown condition {!r}, expected " + " | ".join(m.value for m in _CONDITIONS)),
    "gender": (_token_codes({m.value: i for i, m in enumerate(_GENDERS)}),
               "unknown gender {!r}, expected " + " | ".join(m.value for m in _GENDERS)),
    "discarded": (_token_codes({"": 0, "0": 0, "false": 0, "1": 1, "true": 1}),
                  "discarded {!r} is not empty, 0, 1, true or false"),
}

# The numbers of each team-level table as (column, high, optional), in the
# order a row's cells are checked after team_id, condition and gender.
_TEAM_NUMBERS = (("post_test_1", 5, False), ("post_test_2", 5, False))
_TEAM_ROW_NUMBERS = (("jva_ratio_pct", 100, True), ("team_post_test", 5, False))


def _codes(cells: dict, column: str, lines: np.ndarray) -> np.ndarray:
    """Each cell's code in the ``_TOKEN_COLUMNS`` column: looked up as
    written (once for a constant column), else as text stripped and
    lower-cased, a lacking cell read as empty; the first cell of no token
    is an error."""
    codes, error = _TOKEN_COLUMNS[column]
    raw = cells[column]
    found = list(map(codes.get, raw[:1] if _constant(raw) else raw))
    if None in found:
        text = _text(raw)
        found = [codes.get((cell or "").strip().lower()) for cell in text]
        if None in found:
            i = found.index(None)
            raise ValueError(f"line {lines[i]}: " + error.format(text[i]))
    if len(found) < len(lines):  # one code fills a constant column
        return np.full(len(lines), found[0], np.int8)
    return np.array(found, np.int8)


class _TeamColumns(_ChunkParser):
    """The rows of a team-level table, parsed a chunk at a time into columns.

    Each row holds a team_id (stripped, not empty, unique), a condition, a
    gender and the ``numbers`` given as (column, high, optional): each lies
    in [0, high], and an empty (stripped) cell of an optional column, or an
    optional column the table lacks, reads as NaN. A short row's missing
    cells are empty. ``_parse`` names a bad row itself (see
    ``_ChunkParser``), checking a row's cells in this order: an empty
    team_id, a repeated one, the condition, the gender, then each number
    (not a number, then out of range).
    """

    def __init__(self, numbers):
        self.numbers = numbers
        self.first_line: dict[str, int] = {}
        self.team_ids: list[str] = []
        # Condition codes, gender codes, then one array per number, per chunk.
        self.columns: list[list[np.ndarray]] = [[] for _ in range(2 + len(numbers))]
        # An empty chunk gives each column its dtype.
        used = ["team_id", "condition", "gender"] + [name for name, _, _ in numbers]
        self._parse(dict.fromkeys(used, ()), np.arange(0), False)

    def _parse(self, cells: dict, lines: np.ndarray, short: bool) -> None:
        n = len(lines)
        if short:
            cells = {c: ["" if v is None else v for v in values] for c, values in cells.items()}
        team_ids = list(map(str.strip, _text(cells["team_id"])))
        # Each id's first line in the chunk: the last of the reversed pairs wins.
        first = dict(zip(reversed(team_ids), reversed(lines.tolist())))
        if "" in first:
            raise ValueError(f"line {first['']}: empty team_id")
        if len(first) < n or not self.first_line.keys().isdisjoint(first):
            seen = dict(self.first_line)
            for team_id, line in zip(team_ids, lines.tolist()):
                _check_new_key(seen, team_id, line, "team_id")
        values = [
            _codes(cells, "condition", lines),
            _codes(cells, "gender", lines),
        ]
        for name, high, optional in self.numbers:
            if name not in cells:
                values.append(np.full(n, np.nan))
                continue
            raw, empty = cells[name], False
            if optional:
                raw = list(map(str.strip, _text(raw)))
                empty = np.fromiter(map(operator.not_, raw), bool, n)
            text = list(map({"": "nan"}.get, raw, raw)) if optional else raw
            numbers = _floats(text, name, lines)
            if (i := _first(~((numbers >= 0) & (numbers <= high) | empty))) >= 0:
                raise ValueError(f"line {lines[i]}: {name} {_str(raw[i])!r} out of [0,{high}]")
            values.append(numbers)
        self.first_line.update(first)
        self.team_ids.extend(team_ids)
        for chunks, array in zip(self.columns, values):
            chunks.append(array)


def _team_columns(chunks: Iterator, numbers) -> tuple:
    """A team-level table's team ids, condition and gender codes and
    ``numbers`` columns, in file order (see ``_TeamColumns``), from its
    ``_read_csv`` chunks after the header."""
    rows = _TeamColumns(numbers)
    for lines, cells, short in chunks:
        rows.add(cells, lines, short)
    return (rows.team_ids, *(np.concatenate(arrays) for arrays in rows.columns))


@_names_file
def load_teams(path: Union[str, Path]) -> TeamTable:
    """Load the team table as a TeamTable in file order, without JVA ratios.

    A team's post-test is the mean of its two members' scores. Unknown
    condition/gender tokens, a post-test outside [0, 5] and a team_id that
    repeats are errors naming the line.
    """
    chunks = _read_csv(path, TEAM_COLUMNS)
    next(chunks)
    team_ids, condition, gender, score_1, score_2 = _team_columns(chunks, _TEAM_NUMBERS)
    no_ratio = np.full(len(team_ids), np.nan)
    return TeamTable(
        team_ids, condition, gender, no_ratio, team_post_test_score(score_1, score_2)
    )


def build_sessions(
    frames_by_team: dict[str, list[FrameRecord]], teams: TeamTable
) -> list[TeamSession]:
    """One TeamSession per team of ``teams``, sorted by id, with its frames;
    frames of other teams are an error. Only ``perfbench/traced.py`` calls
    it (ROADMAP item 3); the tests' reference is ``tests/oracles.py``."""
    missing_meta = sorted(set(frames_by_team) - set(teams.team_ids))
    if missing_meta:
        raise ValueError(f"frames reference unknown teams: {missing_meta}")
    teams = teams.by_team_id()
    return [
        TeamSession(
            team_id, _CONDITIONS[c], _GENDERS[g], post_test,
            tuple(frames_by_team.get(team_id, [])),
        )
        for team_id, c, g, post_test in zip(
            teams.team_ids, teams.condition.tolist(), teams.gender.tolist(),
            teams.post_test.tolist(),
        )
    ]


# --- report assembly -------------------------------------------------------


@dataclass
class TeamTable:
    """Per-team columns: what the stats battery and the emitters read.

    ``load_teams`` fills one from a team table (every ratio NaN),
    ``analyze_table`` adds the JVA ratios, and ``load_team_rows`` reads
    one from a per-team results table.

    ``condition`` and ``gender`` hold each team's index into ``Condition``
    and ``GenderComposition``; a team's group follows from its condition.
    A team without a JVA ratio has NaN in ``jva_ratio_pct``. The table has
    ``len()``.
    """

    team_ids: list[str]
    condition: np.ndarray
    gender: np.ndarray
    jva_ratio_pct: np.ndarray
    post_test: np.ndarray

    def __len__(self) -> int:
        return len(self.team_ids)

    @property
    def group(self) -> np.ndarray:
        """Each team's index into ``Group``."""
        return _CONDITION_GROUP[self.condition]

    @property
    def has_ratio(self) -> np.ndarray:
        """Whether each team has a JVA ratio."""
        return ~np.isnan(self.jva_ratio_pct)

    def by_team_id(self) -> TeamTable:
        """The table with its teams sorted by id, as Python sorts strings:
        the table itself when they already are."""
        if all(map(operator.le, self.team_ids, islice(self.team_ids, 1, None))):
            return self
        order = sorted(range(len(self)), key=self.team_ids.__getitem__)
        return TeamTable(
            team_ids=[self.team_ids[i] for i in order],
            condition=self.condition[order],
            gender=self.gender[order],
            jva_ratio_pct=self.jva_ratio_pct[order],
            post_test=self.post_test[order],
        )


@dataclass
class Report:
    """Everything the emitters render.

    ``teams`` holds the teams sorted by id. ``summaries`` maps grouping
    name -> measure -> list of GroupSummary; ``anovas`` maps
    "<grouping>_<measure>" -> AnovaResult. Two-group comparisons carry
    Cohen's d in ``effect_d`` (None when the pooled SD is zero but the
    means differ); three-group ANOVAs carry uncorrected pairwise
    comparisons in ``posthoc``.
    """

    teams: TeamTable = field(
        default_factory=lambda: TeamTable([], *np.zeros((2, 0), np.int8), *np.zeros((2, 0)))
    )
    summaries: dict[str, dict[str, list[GroupSummary]]] = field(default_factory=dict)
    totals: dict[str, GroupSummary] = field(default_factory=dict)
    anovas: dict[str, AnovaResult] = field(default_factory=dict)
    effect_d: dict[str, Optional[float]] = field(default_factory=dict)
    posthoc: dict[str, list[dict]] = field(default_factory=dict)
    correlation: Optional[CorrelationResult] = None
    notes: list[str] = field(default_factory=list)


_MEASURES = ("jva_ratio_pct", "post_test")

_MEASURE_HIGH = {"jva_ratio_pct": 100, "post_test": 5}

# The labels of each grouping, in the order of their codes.
_GROUPING_LABELS = {
    "condition": [c.value for c in Condition],
    "group": [g.value for g in Group],
    "gender": [g.value for g in GenderComposition],
}


def stats_report(teams: TeamTable) -> Report:
    """Full inferential report from per-team JVA ratios and post-tests.

    Each group summary sees its teams' values in table order; the report's
    teams and the correlation take the teams sorted by id.
    """
    report = Report(teams=teams.by_team_id())
    measures = {
        "jva_ratio_pct": (teams.jva_ratio_pct, teams.has_ratio),
        "post_test": (teams.post_test, np.ones(len(teams), bool)),
    }
    codes = {"condition": teams.condition, "group": teams.group, "gender": teams.gender}
    for grouping, labels in _GROUPING_LABELS.items():
        report.summaries[grouping] = {}
        for measure, (values, kept) in measures.items():
            groups = []
            for code, label in enumerate(labels):
                group_values = values[kept & (codes[grouping] == code)]
                if len(group_values) >= 2:
                    groups.append(summarize(group_values, label=label))
            report.summaries[grouping][measure] = groups
    for measure, (values, kept) in measures.items():
        if kept.sum() >= 2:
            report.totals[measure] = summarize(values[kept], label="total")
    _add_anovas(report)

    kept = report.teams.has_ratio
    if kept.sum() >= 3:
        try:
            report.correlation = pearson(
                report.teams.jva_ratio_pct[kept], report.teams.post_test[kept]
            )
        except ValueError as exc:
            report.notes.append(f"correlation skipped: {exc}")
    return report


@dataclass(frozen=True)
class TeamRow:
    """One team of the per-frame path, for ``stats_report_from_team_rows``."""

    team_id: str
    condition: Condition
    group: Group
    gender: GenderComposition
    jva_ratio_pct: Optional[float]
    team_post_test: float


def stats_report_from_team_rows(rows: Iterable[TeamRow]) -> Report:
    """``stats_report`` of TeamRow records, a None ratio a missing one."""
    rows = list(rows)
    return stats_report(TeamTable(
        [r.team_id for r in rows],
        np.array([_CONDITIONS.index(r.condition) for r in rows], np.int8),
        np.array([_GENDERS.index(r.gender) for r in rows], np.int8),
        np.array([np.nan if r.jva_ratio_pct is None else r.jva_ratio_pct for r in rows], float),
        np.array([r.team_post_test for r in rows], float),
    ))


def stats_report_from_summaries(
    summaries: dict[str, dict[str, list[GroupSummary]]],
    totals: Optional[dict[str, GroupSummary]] = None,
) -> Report:
    """Inferential report when only (n, M, SD) group summaries are known."""
    report = Report(summaries=summaries, totals=dict(totals or {}))
    _add_anovas(report)
    report.notes.append("built from summary statistics; no per-team rows")
    return report


def _add_anovas(report: Report) -> None:
    """``_add_anova`` of each grouping and measure with two or more groups."""
    for grouping, by_measure in report.summaries.items():
        for measure, groups in by_measure.items():
            if len(groups) >= 2:
                _add_anova(report, grouping, measure, groups)


def _add_anova(
    report: Report, grouping: str, measure: str, groups: list[GroupSummary]
) -> None:
    key = f"{grouping}_{measure}"
    try:
        report.anovas[key] = anova_from_summary(groups)
    except (ValueError, OverflowError) as exc:  # an n too large for a float
        report.notes.append(f"anova {key} skipped: {exc}")
        return
    comparisons = pairwise_comparisons(groups)
    for c in comparisons:
        if c["cohens_d"] is None:
            report.notes.append(
                f"cohen's d for {key} {c['a']} vs {c['b']} not reported: "
                "zero pooled standard deviation"
            )
    if len(groups) == 2:
        report.effect_d[key] = comparisons[0]["cohens_d"]
    else:
        report.posthoc[key] = comparisons


def analyze_table(
    table: FrameTable, teams: TeamTable, config: JvaConfig = JvaConfig()
) -> Report:
    """Score each team of ``teams`` (as ``load_teams`` reads them) from a
    FrameTable and report on them.

    Frames of other teams are an error; a team without countable frames
    gets no ratio and a note.
    """
    unknown = sorted(set(table.team_ids) - set(teams.team_ids))
    if unknown:
        raise ValueError(f"frames reference unknown teams: {unknown}")
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
    at = np.array([number.get(t, -1) for t in teams.team_ids], dtype=np.intp)
    jva = np.append(jva_frames, 0)[at]
    denominator = np.append(denominator_frames, 0)[at]
    ratio = np.full(len(teams), np.nan)
    np.divide(jva, denominator, out=ratio, where=denominator > 0)
    report = stats_report(replace(teams, jva_ratio_pct=100.0 * ratio))
    no_frames = [teams.team_ids[i] for i in np.flatnonzero(np.isnan(ratio)).tolist()]
    if no_frames:
        report.notes.append(f"no countable frames for teams: {no_frames}")
    return report


# --- fixture and team-row files -------------------------------------------


def paper_fixture_path() -> Path:
    """Bundled summary-statistics fixture (published condition/gender tables)."""
    return Path(__file__).parent / "fixtures" / "paper_fixture.csv"


@_names_file
def load_summary_fixture(
    path: Union[str, Path],
) -> tuple[dict[str, dict[str, list[GroupSummary]]], dict[str, GroupSummary]]:
    """Read a summary CSV with columns grouping,label,measure,n,mean,sd.

    A bad cell, a mean or SD outside its measure's range and a repeated
    (grouping, label, measure) are errors naming the line.
    """
    chunks = _read_csv(path, _SUMMARY_COLUMNS)
    next(chunks)
    return _summaries(chunks)


def _summaries(chunks: Iterator) -> tuple[dict, dict]:
    """A summary table's group summaries and totals, from its ``_read_csv``
    chunks after the header. A short row's missing cells are empty."""
    summaries: dict[str, dict[str, list[GroupSummary]]] = {}
    totals: dict[str, GroupSummary] = {}
    first_line: dict = {}
    for lines, cells, _ in chunks:
        for line, row in zip(lines.tolist(), zip(*(cells[c] for c in _SUMMARY_COLUMNS))):
            grouping, label, measure, n, mean, sd = ("" if v is None else _str(v) for v in row)
            key = (grouping.strip(), label.strip(), measure.strip())
            if not key[0] or not key[1]:
                raise ValueError(f"line {line}: empty grouping or label")
            _check_new_key(first_line, key, line, "summary")
            grouping, label, measure = key
            if measure not in _MEASURES:
                raise ValueError(f"line {line}: unknown measure {measure!r}")
            n = _parse_float(n, "n", line, int)
            mean = _parse_bounded(mean, "mean", line, _MEASURE_HIGH[measure])
            sd = _parse_bounded(sd, "sd", line, _MEASURE_HIGH[measure])
            try:
                summary = GroupSummary(label=label, n=n, mean=mean, sd=sd)
            except ValueError as exc:
                raise ValueError(f"line {line}: {exc}") from None
            if grouping == "total":
                totals[measure] = summary
            else:
                summaries.setdefault(grouping, {}).setdefault(measure, []).append(summary)
    return summaries, totals


@_names_file
def load_team_rows(path: Union[str, Path]) -> TeamTable:
    """Read a per-team results table (the analyze output's teams.csv).

    The teams keep the file's order; an empty or absent jva_ratio_pct is
    a missing ratio. Unknown condition/gender tokens, a post-test outside
    [0, 5], a JVA ratio outside [0, 100] and a team_id that repeats are
    errors naming the line.
    """
    chunks = _read_csv(path, _TEAM_ROW_COLUMNS, ("jva_ratio_pct",))
    next(chunks)
    return TeamTable(*_team_columns(chunks, _TEAM_ROW_NUMBERS))


@_names_file
def stats_report_from_table(path: Union[str, Path]) -> Report:
    """The inferential report of a summary table, as ``load_summary_fixture``
    reads it, or else of a per-team results table, as ``load_team_rows``
    reads it: the kind is the first whose columns the header has, its header
    rules apply (a header of neither kind is checked against both), and the
    file is read once."""
    kinds = [(_SUMMARY_COLUMNS, ()), (_TEAM_ROW_COLUMNS, ("jva_ratio_pct",)),
             ((), (*_SUMMARY_COLUMNS, *_TEAM_ROW_COLUMNS, "jva_ratio_pct"))]
    chunks = _read_csv(path, lambda names: next(k for k in kinds if set(names).issuperset(k[0])))
    header = set(next(chunks))
    if header.issuperset(_SUMMARY_COLUMNS):
        return stats_report_from_summaries(*_summaries(chunks))
    if header.issuperset(_TEAM_ROW_COLUMNS):
        return stats_report(TeamTable(*_team_columns(chunks, _TEAM_ROW_NUMBERS)))
    raise ValueError(f"unrecognized table header {sorted(header)}")


# --- emission --------------------------------------------------------------

# Decimals of each rounded field, the same in every format. Fields not
# listed (ids, labels, n, degrees of freedom) are written as they are.
_DECIMALS = {
    **dict.fromkeys(
        ("jva_ratio_pct", "team_post_test", "mean", "sd", "f", "cohens_d", "f_equivalent"),
        2,
    ),
    "p": 3,
    **dict.fromkeys(
        ("eta_squared", "omega_squared", "r", "r_squared", "slope", "intercept"), 4
    ),
}


def _json_value(value, decimals: int):
    """Missing is null, non-finite is the string "inf"/"nan"."""
    if value is None:
        return value
    return round(value, decimals) if math.isfinite(value) else str(value)


def _text_value(value, decimals: int) -> str:
    """Missing or NaN is NA, infinite is inf."""
    if value is None or value != value:
        return "NA"
    return f"{value:.{decimals}f}" if math.isfinite(value) else "inf"


def _csv_value(value, decimals: int) -> str:
    """Missing or NaN is an empty cell, infinite is inf."""
    return "" if value is None or value != value else _text_value(value, decimals)


def _json_text(value, decimals: int) -> str:
    """``_json_value`` as json.dumps writes it."""
    return json.dumps(_json_value(value, decimals))


def _sections(report: Report, value_rule) -> dict:
    """Every section of ``report`` but its teams, as records whose fields in
    ``_DECIMALS`` are written by ``value_rule``: ``summaries`` (grouping ->
    measure -> records with their label) and ``totals`` (measure -> record)
    in the report's order; ``anovas`` (``cohens_d`` only on two-group ones)
    and ``posthoc`` (key -> comparisons) sorted by key; ``correlation``
    (None when there is none); and ``notes``."""
    def record(values: dict) -> dict:
        return {
            k: value_rule(v, _DECIMALS[k]) if k in _DECIMALS else v for k, v in values.items()
        }

    def summary(g: GroupSummary, **labels) -> dict:
        return record({**labels, "n": g.n, "mean": g.mean, "sd": g.sd})

    def comparison(c: dict) -> dict:
        values = dict(c, df1=c["df"][0], df2=c["df"][1])
        return record({k: values[k] for k in _POSTHOC_FIELDS})

    anovas = {}
    for key in sorted(report.anovas):
        a = report.anovas[key]
        anovas[key] = record({
            "f": a.f, "df1": a.df_between, "df2": a.df_within, "p": a.p,
            "eta_squared": a.eta_squared, "omega_squared": a.omega_squared,
            **({"cohens_d": report.effect_d[key]} if key in report.effect_d else {}),
        })
    return {
        "summaries": {
            grouping: {m: [summary(g, label=g.label) for g in groups] for m, groups in by.items()}
            for grouping, by in report.summaries.items()
        },
        "totals": {m: summary(g) for m, g in report.totals.items()},
        "anovas": anovas,
        "posthoc": {
            key: list(map(comparison, report.posthoc[key])) for key in sorted(report.posthoc)
        },
        "correlation": None if report.correlation is None else record(asdict(report.correlation)),
        "notes": list(report.notes),
    }


# The team fields in the order every format writes them: the columns of
# teams.csv.
_TEAM_FIELDS = ["team_id", "condition", "group", "gender", "jva_ratio_pct", "team_post_test"]

# The fields of a pairwise comparison that every format writes, in
# posthoc.csv's order; JSON writes the degrees of freedom as "df": [df1, df2].
_POSTHOC_FIELDS = ("a", "b", "f", "df1", "df2", "p", "cohens_d", "correction")


def _distinct(values: np.ndarray, cell) -> tuple[list, np.ndarray]:
    """``cell`` of each distinct float64 bit pattern in ``values``, and each
    value's index into those cells.

    Keyed on the bits, not the values: np.unique and a float-keyed dict
    both merge -0.0 with 0.0, whose texts differ.
    """
    bits, index = np.unique(
        np.asarray(values, np.float64).view(np.uint64), return_inverse=True
    )
    return list(map(cell, bits.view(np.float64).tolist())), index


def _team_cells(teams: TeamTable, value_rule, text=str) -> tuple[list, list, list]:
    """Every team's cells, with each distinct label and number formatted once.

    Returns ``text`` of each team id; the distinct rows of the other team
    fields' cells, in ``_TEAM_FIELDS`` order (``text`` of each label,
    ``value_rule`` of each number, a missing ratio as None); and each
    team's index into those rows. A cell depends only on its value's float bits.
    """
    def labels(members: list) -> list:
        return [text(m.value) for m in members]

    def ratio(r: float):
        return value_rule(None if r != r else r, _DECIMALS["jva_ratio_pct"])

    def post_test(p: float):
        return value_rule(p, _DECIMALS["team_post_test"])

    columns = [
        (labels(_CONDITIONS), teams.condition),
        (labels(_GROUPS), teams.group),
        (labels(_GENDERS), teams.gender),
        _distinct(teams.jva_ratio_pct, ratio),
        _distinct(teams.post_test, post_test),
    ]
    shape = [len(cells) for cells, _ in columns]
    keys, inverse = np.unique(
        np.ravel_multi_index([codes for _, codes in columns], shape), return_inverse=True
    )
    rows = [
        [cells[i] for (cells, _), i in zip(columns, combination)]
        for combination in zip(*(c.tolist() for c in np.unravel_index(keys, shape)))
    ]
    return list(map(text, teams.team_ids)), rows, inverse.tolist()


# A team and a scatter point as json.dumps(indent=2, sort_keys=True) writes
# them in the report's top-level object; fields by _team_cells' rows. A
# team's text is its row's head, its id, then its row's tail.
_JSON_TEAM_HEAD = (
    '    {{\n      "condition": {0},\n      "gender": {2},\n      "group": {1},\n'
    '      "jva_ratio_pct": {3},\n      "team_id": '
)
_JSON_TEAM_TAIL = ',\n      "team_post_test": {4}\n    }}'
_JSON_POINT = "    [\n      {3},\n      {4}\n    ]"


def _json_list(items) -> str:
    """A list member of the top-level object from its items' text."""
    body = ",\n".join(items)
    return f"[\n{body}\n  ]" if body else "[]"


def _render_json(report: Report) -> str:
    """The report as ``json.dumps(..., indent=2, sort_keys=True)`` writes it.

    ``teams`` and ``scatter`` are written from templates filled once per
    distinct row of team cells; every other member goes through json.dumps
    and is indented one level.
    """
    members = {k: v for k, v in _sections(report, _json_value).items() if v is not None}
    posthoc = chain.from_iterable(members["posthoc"].values())
    for record in chain(members["anovas"].values(), posthoc):
        record["df"] = [record.pop("df1"), record.pop("df2")]
    text = {
        key: json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  ")
        for key, value in members.items()
    }
    ids, rows, inverse = _team_cells(report.teams, _json_text, encode_basestring_ascii)

    def per_team(template: str):
        return map([template.format(*row) for row in rows].__getitem__, inverse)

    text["teams"] = _json_list(
        map("".join, zip(per_team(_JSON_TEAM_HEAD), ids, per_team(_JSON_TEAM_TAIL)))
    )
    text["scatter"] = _json_list(
        compress(per_team(_JSON_POINT), report.teams.has_ratio.tolist())
    )
    body = ",\n".join(f'  "{key}": {text[key]}' for key in sorted(text))
    return "{\n" + body + "\n}\n"


_MEASURE_TITLES = {"jva_ratio_pct": "JVA ratio (%)", "post_test": "Post-test"}

# One line of the per-team text table: the team id, then the other fields
# in ``_TEAM_FIELDS`` order.
_TEXT_TEAM_LINE = "{:<10}{}"
_TEXT_TEAM_CELLS = "{:<12}{:<12}{:<8}{:>14}{:>11}"


def _render_text(report: Report) -> str:
    sections = _sections(report, _text_value)
    lines: list[str] = []

    if report.teams:
        lines.append("Per-team results")
        header = ("condition", "group", "gender", "JVA ratio (%)", "post-test")
        lines.append(_TEXT_TEAM_LINE.format("team", _TEXT_TEAM_CELLS.format(*header)))
        ids, rows, inverse = _team_cells(report.teams, _text_value)
        cells = [_TEXT_TEAM_CELLS.format(*row) for row in rows]
        lines.extend(map(_TEXT_TEAM_LINE.format, ids, map(cells.__getitem__, inverse)))
        lines.append("")

    for grouping in sorted(sections["summaries"]):
        by_measure = sections["summaries"][grouping]
        measures = [m for m in _MEASURES if m in by_measure]
        lines.append(f"Summary by {grouping}")
        titles = "".join(f"{'n':>4}{_MEASURE_TITLES[m]:>22}" for m in measures)
        lines.append(f"{'label':<14}{titles}")
        cells: dict[str, dict[str, dict]] = {}
        for m in measures:
            for t in by_measure[m]:
                cells.setdefault(t["label"], {})[m] = t
        for label, by_label in cells.items():
            line = f"{label:<14}"
            for m in measures:
                t = by_label.get(m)
                mean_sd = f"{t['mean']} ± {t['sd']}" if t else "NA"
                line += f"{t['n'] if t else 'NA':>4}{mean_sd:>22}"
            lines.append(line)
        lines.append("")

    totals = sections["totals"]
    if totals:
        lines.append("Total")
        for m in filter(totals.__contains__, _MEASURES):
            t = totals[m]
            lines.append(f"{_MEASURE_TITLES[m]:<16}n={t['n']:<4}{t['mean']} ± {t['sd']}")
        lines.append("")

    if sections["anovas"]:
        lines.append("One-way ANOVA")
        for key, t in sections["anovas"].items():
            line = (
                f"{key:<26}F({t['df1']},{t['df2']}) = {t['f']}, p = {t['p']}, "
                f"eta2 = {t['eta_squared']}, omega2 = {t['omega_squared']}"
            )
            if "cohens_d" in t:
                line += f", Cohen's d = {t['cohens_d']}"
            lines.append(line)
        lines.append("")

    for key, comparisons in sections["posthoc"].items():
        lines.append(f"Pairwise comparisons for {key} (uncorrected)")
        for t in comparisons:
            lines.append(
                f"  {t['a']} vs {t['b']}: F({t['df1']},{t['df2']}) = {t['f']}, "
                f"p = {t['p']}, d = {t['cohens_d']}"
            )
        lines.append("")

    c = sections["correlation"]
    if c is not None:
        lines.append("Correlation (JVA ratio vs post-test)")
        lines.append(
            f"r = {c['r']}, r2 = {c['r_squared']}, n = {c['n']}, "
            f"F(1,{c['n'] - 2}) = {c['f_equivalent']}, p = {c['p']}"
        )
        if c["slope"] not in ("NA", "inf"):  # a finite slope
            lines.append(f"fit: post_test = {c['slope']} * jva_pct + {c['intercept']}")
        lines.append("")

    for note in sections["notes"]:
        lines.append(f"note: {note}")
    return "\n".join(lines).rstrip() + "\n"


def _write_csv(path: Path, columns: Sequence[str], rows) -> None:
    """One CSV file: a header of ``columns``, then ``rows`` of cells."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


def _write_csv_bundle(report: Report, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    ids, rows, inverse = _team_cells(report.teams, _csv_value)
    _write_csv(
        out_dir / "teams.csv",
        _TEAM_FIELDS,
        ([team_id, *rows[k]] for team_id, k in zip(ids, inverse)),
    )
    sections = _sections(report, _csv_value)
    summaries, totals, correlation = (sections[k] for k in ("summaries", "totals", "correlation"))
    tables = {  # each file's columns and records; a field a record lacks is an empty cell
        "summaries.csv": (
            _SUMMARY_COLUMNS,  # the columns load_summary_fixture reads
            [
                {"grouping": grouping, "measure": m, **t}
                for grouping in sorted(summaries)
                for m in _MEASURES
                for t in summaries[grouping].get(m, [])
            ] + [
                {"grouping": "total", "label": "total", "measure": m, **totals[m]}
                for m in _MEASURES
                if m in totals
            ],
        ),
        "anovas.csv": (
            ("analysis", "f", "df1", "df2", "p", "eta_squared", "omega_squared", "cohens_d"),
            [{"analysis": key, **t} for key, t in sections["anovas"].items()],
        ),
        "posthoc.csv": (
            ("analysis", *_POSTHOC_FIELDS),
            [{"analysis": key, **t} for key, ts in sections["posthoc"].items() for t in ts],
        ),
        "notes.csv": (("note",), [{"note": note} for note in sections["notes"]]),
        # A correlation's columns are its record's fields, in CorrelationResult order.
        "correlation.csv": (list(correlation or ()), [correlation] if correlation else []),
    }
    for name, (columns, records) in tables.items():
        if records or name in ("summaries.csv", "anovas.csv"):  # the others when not empty
            _write_csv(out_dir / name, columns, ([r.get(c) for c in columns] for r in records))


REPORT_FORMATS = {  # in --format's order: emitter, and whether it writes a directory
    "json": (_render_json, False),
    "text": (_render_text, False),
    "csv-bundle": (_write_csv_bundle, True),
}
DEFAULT_REPORT_FORMAT = "text"


def check_report_out(fmt: str, out: Optional[Union[str, Path]]) -> None:
    """Raise ValueError for an unknown ``fmt``, or one that writes a
    directory when ``out`` names none (the CLI's check before any input)."""
    if fmt not in REPORT_FORMATS:
        raise ValueError(f"unknown report format {fmt!r}")
    if REPORT_FORMATS[fmt][1] and out is None:
        raise ValueError(f"--format {fmt} needs --out, the bundle's directory")


def emit_report(
    report: Report,
    fmt: str = DEFAULT_REPORT_FORMAT,
    out: Optional[Union[str, Path]] = None,
) -> str:
    """Render a report; write to ``out`` when given, return the text.

    ``csv-bundle`` needs ``out`` to be a directory; it returns the
    directory path and writes teams.csv, summaries.csv, anovas.csv and,
    when the report has them, posthoc.csv, notes.csv and correlation.csv.
    """
    check_report_out(fmt, out)
    emit, writes_directory = REPORT_FORMATS[fmt]
    if writes_directory:
        emit(report, Path(out))
        return str(out)
    text = emit(report)
    if out is not None:
        Path(out).write_text(text, encoding="utf-8")
    return text


# --- configuration ---------------------------------------------------------

# Parser of each config key's value: float or the enum of allowed tokens.
# The CLI's JVA flags are built from it.
CONFIG_KEYS = {
    "threshold": float,
    "scale_mode": ScaleMode,
    "denominator_policy": DenominatorPolicy,
}


def config_path_from_env() -> Optional[Path]:
    raw = os.environ.get(CONFIG_ENV_VAR)
    return Path(raw) if raw else None


def load_config(path: Optional[Union[str, Path]] = None, **overrides) -> JvaConfig:
    """Build a JvaConfig with standard precedence: defaults < file < overrides.

    The file is text as ``model.input_text`` reads it, key=value lines;
    '#' starts a comment. Keys: those of ``CONFIG_KEYS``. An override is
    a key's value as a flag gives it (a number, or an enum value's text) or
    an enum member; None leaves the key as the file or default has it.
    """
    values: dict = {}
    first_line: dict = {}
    if path is not None:
        text, bad = input_text(Path(path).read_bytes())
        if bad:
            raise ValueError(f"{path}:{bad[0]}: {bad[1]}")
        for line_no, raw in enumerate(StringIO(text, newline=""), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            parse = CONFIG_KEYS.get(key)
            if parse is None:
                raise ValueError(f"{path}:{line_no}: unknown key {key!r}")
            if key in first_line:
                raise ValueError(
                    f"{path}:{line_no}: duplicate key {key!r} (first on line {first_line[key]})"
                )
            first_line[key] = line_no
            try:
                values[key] = parse(value)
                JvaConfig(**{key: values[key]})  # range check of this one value
            except ValueError:
                allowed = (
                    "a positive finite number"
                    if parse is float
                    else " | ".join(m.value for m in parse)
                )
                raise ValueError(
                    f"{path}:{line_no}: bad {key} {value!r}, expected {allowed}"
                ) from None
    for key, value in overrides.items():
        if value is not None:
            values[key] = CONFIG_KEYS[key](value) if key in CONFIG_KEYS else value
    return JvaConfig(**values)
