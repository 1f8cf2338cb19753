"""CSV ingestion, report assembly and deterministic report emission, over
plain Python values: nothing here needs numpy, so ``teamgaze stats`` and
``teamgaze --help`` run without it.

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
(``frame_table._FrameRows``, ``_TeamColumns``) name the first bad cell's
row themselves. Each error of a table reader starts with the table's path
(``_names_file``).
The frame table's reader is ``frame_table.read_frame_table``, in its own
numpy module with ``frame_table.analyze_table``, the one way from frames
and teams to a report. The team and per-team results tables are parsed a
chunk at a time (``_TeamColumns``) into a ``TeamTable`` of per-team lists:
``load_teams`` fills it without JVA ratios, ``frame_table.analyze_table``
adds them, ``load_team_rows`` reads them from the file, and
``stats_report`` runs the statistics battery on it. No command builds
objects per frame: ``load_frames``, ``build_sessions`` and
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
from array import array
from functools import wraps
from io import StringIO
from itertools import chain, compress, count, islice, zip_longest
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from .model import (
    CONDITION_GROUP,
    CONDITIONS,
    DENOMINATOR_POLICIES,
    GENDERS,
    GROUPS,
    SCALE_MODES,
    FrameRecord,
    GazeObservation,
    JvaConfig,
    Point2D,
    TeamSession,
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
    "LoadResult",
    "Report",
    "TeamRow",
    "TeamTable",
    "load_frames",
    "load_teams",
    "build_sessions",
    "stats_report",
    "stats_report_from_team_rows",
    "stats_report_from_summaries",
    "stats_report_from_table",
    "load_team_rows",
    "emit_report",
    "check_report_out",
    "load_config",
    "paper_fixture_path",
    "CONFIG_ENV_VAR",
    "CONFIG_KEYS",
    "REPORT_FORMATS",
    "DEFAULT_REPORT_FORMAT",
]

CONFIG_ENV_VAR = "TEAMGAZE_CONFIG"

# The columns read from a frame table (``frame_table.read_frame_table``);
# ``discarded`` may be left out.
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
TEAM_COLUMNS = ["team_id", "condition", "gender", "post_test_1", "post_test_2"]

# Lines or rows read per step. Small enough for one step's cells to stay
# in the CPU cache: steps of 16k frame rows parsed slower than 1k.
_CHUNK_ROWS = 1024

_TEAM_ROW_COLUMNS = ("team_id", "condition", "gender", "team_post_test")
_SUMMARY_COLUMNS = ("grouping", "label", "measure", "n", "mean", "sd")


class LoadResult(NamedTuple):
    frames_by_team: dict[str, list[FrameRecord]]
    row_errors: list[str]


def _str(cell):
    """A cell as text: a plain block's cells are bytes (see ``_read_csv``)."""
    return cell.decode() if isinstance(cell, bytes) else cell


def _text(cells: Sequence) -> Sequence:
    """A chunk's column as text; its cells are all bytes or all not."""
    return list(map(bytes.decode, cells)) if cells and isinstance(cells[0], bytes) else cells


def _parse_float(value: str, column: str, line: int, kind=float) -> float:
    """``kind`` of a cell; a number that ``int`` does not take is not an
    integer, but digits past ``int``'s limit on their count are infinite."""
    try:
        return kind(value)
    except ValueError:
        if kind is int:
            if value.strip().isdecimal():
                return math.inf
            _parse_float(value, column, line)
            raise ValueError(f"line {line}: column {column!r} not an integer: {value!r}")
        raise ValueError(f"line {line}: column {column!r} not numeric: {value!r}")


# The error for a number outside [0, high]: line, column, cell and high.
_OUT_OF_RANGE = "line {}: {} {!r} out of [0,{}]"


def _parse_bounded(value: str, column: str, line: int, high: int) -> float:
    """A number in [0, high]; NaN and anything outside are errors."""
    number = _parse_float(value, column, line)
    if not 0 <= number <= high:
        raise ValueError(_OUT_OF_RANGE.format(line, column, value, high))
    return number


def _constant(cells: Sequence) -> bool:
    """Whether every cell of a chunk's column is one string, so that it is
    parsed once. Comparing the first and last cells turns most mixed
    columns away at once; ``count`` compares in C and hashes nothing."""
    return bool(cells) and cells[0] == cells[-1] and cells.count(cells[0]) == len(cells)


def _float_list(cells: Sequence, column: str, lines: Sequence[int]) -> list[float]:
    """A column's cells as floats; the first that is not a number is an error.

    ``float`` reads bytes as ASCII only, so a column it fails on is read
    again as text, where U+00A0 is a space and "١" a digit."""
    try:
        return list(map(float, cells))
    except ValueError:
        return [_parse_float(c, column, line) for c, line in zip(_text(cells), lines)]


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
    cells, one per row. ``lines`` holds the physical line each row ends on,
    as a ``range`` or a list of ints.
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
        return lines, cells, min(map(len, rows)) <= max(used.values(), default=-1)

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
                    lines = range(done + 1, done + n + 1)
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


class _ChunkParser:
    """Parses a table's ``_read_csv`` chunks into columns with ``_parse``.

    ``_parse`` checks a chunk with whole-column operations, in the order a
    row's cells are checked, and raises the first failing check's message
    for the first row that fails it. An earlier row may fail a later check,
    so a failing chunk is parsed again a row at a time: the first bad row in
    file order then raises its own first error, after the rows before it
    are parsed.
    """

    def add(self, cells: dict, lines: Sequence[int], short: bool) -> None:
        """Parse one ``_read_csv`` chunk."""
        try:
            self._parse(cells, lines, short)
        except ValueError:
            for i in range(len(lines)):
                row = {c: values[i : i + 1] for c, values in cells.items()}
                self._parse(row, lines[i : i + 1], short)
            raise


def load_frames(path: Union[str, Path]) -> LoadResult:
    """Load a frame table as per-team FrameRecords.

    ``frame_table.read_frame_table`` parses and checks the file; each team's
    frames and each frame's observations keep the order it gives them.
    """
    from .frame_table import read_frame_table

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


# Each condition code's group code.
_CONDITION_GROUP = tuple(GROUPS.index(CONDITION_GROUP[c]) for c in CONDITIONS)


def _token_codes(codes: dict) -> dict:
    """``codes`` by each token as written and lower-cased, as text and as bytes."""
    cased = {**codes, **{token.lower(): code for token, code in codes.items()}}
    return {**cased, **{token.encode(): code for token, code in cased.items()}}


# Each closed-token column's codes (see ``_token_codes``) and its error
# for a cell that is no token ({!r} is the cell).
_TOKEN_COLUMNS = {
    "condition": (_token_codes({c: i for i, c in enumerate(CONDITIONS)}),
                  "unknown condition {!r}, expected " + " | ".join(CONDITIONS)),
    "gender": (_token_codes({g: i for i, g in enumerate(GENDERS)}),
               "unknown gender {!r}, expected " + " | ".join(GENDERS)),
    "discarded": (_token_codes({"": 0, "0": 0, "false": 0, "1": 1, "true": 1}),
                  "discarded {!r} is not empty, 0, 1, true or false"),
}

# Each measure's range is [0, high].
_MEASURE_HIGH = {"jva_ratio_pct": 100, "post_test": 5}

# A summary group's largest n: past it, stats.f_tail_p's p drifts from the
# F tail (a relative 9e-6 at df (1, 10**9), 2e-3 at (1, 10**12)).
_MAX_N = 10**9

# The numbers of each team-level table as (column, measure, optional), in
# the order a row's cells are checked after team_id, condition and gender.
_TEAM_NUMBERS = (("post_test_1", "post_test", False), ("post_test_2", "post_test", False))
_TEAM_ROW_NUMBERS = (
    ("jva_ratio_pct", "jva_ratio_pct", True), ("team_post_test", "post_test", False)
)


def _codes(cells: dict, column: str, lines: Sequence[int]) -> list[int]:
    """Each cell's code in the ``_TOKEN_COLUMNS`` column: looked up as
    written, else as text stripped and lower-cased, a lacking cell read as
    empty; the first cell of no token is an error. A constant column is
    looked up once, and its one code stands for every cell."""
    codes, error = _TOKEN_COLUMNS[column]
    raw = cells[column]
    found = list(map(codes.get, raw[:1] if _constant(raw) else raw))
    if None in found:
        text = _text(raw)
        found = [codes.get((cell or "").strip().lower()) for cell in text]
        if None in found:
            i = found.index(None)
            raise ValueError(f"line {lines[i]}: " + error.format(text[i]))
    return found


def _first_out_of_range(numbers: list, high: int, cells: Sequence) -> int:
    """The index of the first of ``numbers`` outside [0, high], NaN
    included, whose cell is not empty (an optional column's empty cell reads
    as NaN); else -1. ``min`` and ``max`` skip a NaN that is not first, but
    it makes the sum NaN."""
    if numbers and 0 <= min(numbers) and max(numbers) <= high and not math.isnan(sum(numbers)):
        return -1
    return next((i for i, x in enumerate(numbers) if not 0 <= x <= high and cells[i]), -1)


class _TeamColumns(_ChunkParser):
    """The rows of a team-level table, parsed a chunk at a time into lists.

    Each row holds a team_id (stripped, not empty, unique), a condition, a
    gender and the ``numbers`` given as (column, measure, optional): each
    lies in [0, ``_MEASURE_HIGH[measure]``], and an empty (stripped) cell of
    an optional column, or an optional column the table lacks, reads as
    NaN. A short row's missing cells are empty. ``_parse`` names a bad row
    itself (see ``_ChunkParser``), checking a row's cells in this order: an
    empty team_id, a repeated one, the condition, the gender, then each
    number (not a number, then out of range).
    """

    def __init__(self, numbers):
        self.numbers = numbers
        self.first_line: dict[str, int] = {}
        self.team_ids: list[str] = []
        # The condition codes, the gender codes, then one list per number.
        self.columns: list[list] = [[] for _ in range(2 + len(numbers))]

    def _parse(self, cells: dict, lines: Sequence[int], short: bool) -> None:
        n = len(lines)
        if short:
            cells = {c: ["" if v is None else v for v in values] for c, values in cells.items()}
        team_ids = list(map(str.strip, _text(cells["team_id"])))
        # Each id's first line in the chunk: the last of the reversed pairs wins.
        first = dict(zip(reversed(team_ids), reversed(lines)))
        if "" in first:
            raise ValueError(f"line {first['']}: empty team_id")
        if len(first) < n or not self.first_line.keys().isdisjoint(first):
            seen = dict(self.first_line)
            for team_id, line in zip(team_ids, lines):
                _check_new_key(seen, team_id, line, "team_id")
        values = []
        for column in ("condition", "gender"):
            codes = _codes(cells, column, lines)
            values.append(codes if len(codes) == n else codes * n)
        for name, measure, optional in self.numbers:
            if name not in cells:
                values.append([math.nan] * n)
                continue
            raw = cells[name]
            if optional:
                raw = list(map(str.strip, _text(raw)))
            text = list(map({"": "nan"}.get, raw, raw)) if optional else raw
            numbers = _float_list(text, name, lines)
            high = _MEASURE_HIGH[measure]
            if (i := _first_out_of_range(numbers, high, raw)) >= 0:
                raise ValueError(_OUT_OF_RANGE.format(lines[i], name, _str(raw[i]), high))
            values.append(numbers)
        self.first_line.update(first)
        self.team_ids.extend(team_ids)
        for column, chunk in zip(self.columns, values):
            column.extend(chunk)


def _team_columns(chunks: Iterator, numbers) -> tuple:
    """A team-level table's team ids, condition and gender codes and
    ``numbers`` columns, in file order (see ``_TeamColumns``), from its
    ``_read_csv`` chunks after the header."""
    rows = _TeamColumns(numbers)
    for lines, cells, short in chunks:
        rows.add(cells, lines, short)
    return (rows.team_ids, *rows.columns)


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
    no_ratio = [math.nan] * len(team_ids)
    return TeamTable(
        team_ids, condition, gender, no_ratio, list(map(team_post_test_score, score_1, score_2))
    )


def _check_known_teams(frame_teams: Iterable[str], teams: TeamTable) -> None:
    """Frames of a team that ``teams`` lacks are an error."""
    unknown = sorted(set(frame_teams) - set(teams.team_ids))
    if unknown:
        raise ValueError(f"frames reference unknown teams: {unknown}")


def build_sessions(
    frames_by_team: dict[str, list[FrameRecord]], teams: TeamTable
) -> list[TeamSession]:
    """One TeamSession per team of ``teams``, sorted by id, with its frames;
    frames of other teams are an error. Only ``perfbench/traced.py`` calls
    it (ROADMAP item 3); the tests' reference is ``tests/oracles.py``."""
    _check_known_teams(frames_by_team, teams)
    teams = teams.by_team_id()
    return [
        TeamSession(
            team_id, CONDITIONS[c], GENDERS[g], post_test,
            tuple(frames_by_team.get(team_id, [])),
        )
        for team_id, c, g, post_test in zip(
            teams.team_ids, teams.condition, teams.gender, teams.post_test
        )
    ]


# --- report assembly -------------------------------------------------------


class _Record:
    """A mutable record whose fields are the attributes its ``__init__``
    sets: its repr names them in that order, and it equals a record of its
    own class with equal fields."""

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other) -> bool:
        return vars(self) == vars(other) if type(other) is type(self) else NotImplemented


class TeamTable(_Record):
    """Per-team columns as lists: what the stats battery and the emitters read.

    ``load_teams`` fills one from a team table (every ratio NaN),
    ``frame_table.analyze_table`` adds the JVA ratios, and ``load_team_rows``
    reads one from a per-team results table.

    ``condition`` and ``gender`` hold each team's index into
    ``model.CONDITIONS`` and ``model.GENDERS``; a team's group follows from
    its condition.
    A team without a JVA ratio has NaN in ``jva_ratio_pct``. The table has
    ``len()``.
    """

    def __init__(self, team_ids: list[str], condition: list[int], gender: list[int],
                 jva_ratio_pct: list[float], post_test: list[float]) -> None:
        self.team_ids = team_ids
        self.condition = condition
        self.gender = gender
        self.jva_ratio_pct = jva_ratio_pct
        self.post_test = post_test

    def __len__(self) -> int:
        return len(self.team_ids)

    @property
    def group(self) -> list[int]:
        """Each team's index into ``model.GROUPS``."""
        return list(map(_CONDITION_GROUP.__getitem__, self.condition))

    @property
    def has_ratio(self) -> list[bool]:
        """Whether each team has a JVA ratio."""
        return [ratio == ratio for ratio in self.jva_ratio_pct]

    def by_team_id(self) -> TeamTable:
        """The table with its teams sorted by id, as Python sorts strings:
        the table itself when they already are."""
        if all(map(operator.le, self.team_ids, islice(self.team_ids, 1, None))):
            return self
        order = sorted(range(len(self)), key=self.team_ids.__getitem__)
        columns = (self.team_ids, self.condition, self.gender, self.jva_ratio_pct, self.post_test)
        return TeamTable(*(list(map(column.__getitem__, order)) for column in columns))


class Report(_Record):
    """Everything the emitters render.

    ``teams`` holds the teams sorted by id. ``summaries`` maps grouping
    name -> measure -> list of GroupSummary; ``anovas`` maps
    "<grouping>_<measure>" -> AnovaResult. Two-group comparisons carry
    Cohen's d in ``effect_d`` (None when the pooled SD is zero but the
    means differ); three-group ANOVAs carry uncorrected pairwise
    comparisons in ``posthoc``. A field not given starts empty, in a
    container of its own.
    """

    def __init__(
        self,
        teams: Optional[TeamTable] = None,
        summaries: Optional[dict[str, dict[str, list[GroupSummary]]]] = None,
        totals: Optional[dict[str, GroupSummary]] = None,
        anovas: Optional[dict[str, AnovaResult]] = None,
        effect_d: Optional[dict[str, Optional[float]]] = None,
        posthoc: Optional[dict[str, list[dict]]] = None,
        correlation: Optional[CorrelationResult] = None,
        notes: Optional[list[str]] = None,
    ) -> None:
        self.teams = TeamTable([], [], [], [], []) if teams is None else teams
        self.summaries = {} if summaries is None else summaries
        self.totals = {} if totals is None else totals
        self.anovas = {} if anovas is None else anovas
        self.effect_d = {} if effect_d is None else effect_d
        self.posthoc = {} if posthoc is None else posthoc
        self.correlation = correlation
        self.notes = [] if notes is None else notes


_MEASURES = tuple(_MEASURE_HIGH)

# The labels of each grouping, in the order of their codes.
_GROUPING_LABELS = {"condition": CONDITIONS, "group": GROUPS, "gender": GENDERS}


def stats_report(teams: TeamTable) -> Report:
    """Full inferential report from per-team JVA ratios and post-tests.

    Each group summary sees its teams' values in table order; the report's
    teams and the correlation take the teams sorted by id.
    """
    report = Report(teams=teams.by_team_id())
    # Each grouping's groups by code, each as its teams' JVA ratios (a
    # missing one left out) and post-tests in table order: one pass.
    groups = {
        grouping: [([], []) for _ in labels] for grouping, labels in _GROUPING_LABELS.items()
    }
    by_condition, by_group, by_gender = groups.values()
    for c, g, ratio, post_test in zip(
        teams.condition, teams.gender, teams.jva_ratio_pct, teams.post_test
    ):
        for ratios, post_tests in (by_condition[c], by_group[_CONDITION_GROUP[c]], by_gender[g]):
            if ratio == ratio:
                ratios.append(ratio)
            post_tests.append(post_test)
    for grouping, labels in _GROUPING_LABELS.items():
        report.summaries[grouping] = {
            measure: [
                summarize(values[m], label=label)
                for label, values in zip(labels, groups[grouping])
                if len(values[m]) >= 2
            ]
            for m, measure in enumerate(_MEASURES)
        }
    ratios = [ratio for ratio in teams.jva_ratio_pct if ratio == ratio]
    for measure, values in zip(_MEASURES, (ratios, teams.post_test)):
        if len(values) >= 2:
            report.totals[measure] = summarize(values, label="total")
    _add_anovas(report)

    kept = report.teams.has_ratio
    if sum(kept) >= 3:
        try:
            report.correlation = pearson(
                list(compress(report.teams.jva_ratio_pct, kept)),
                list(compress(report.teams.post_test, kept)),
            )
        except ValueError as exc:
            report.notes.append(f"correlation skipped: {exc}")
    return report


class TeamRow(NamedTuple):
    """One team of the per-frame path, for ``stats_report_from_team_rows``."""

    team_id: str
    condition: str
    group: str
    gender: str
    jva_ratio_pct: Optional[float]
    team_post_test: float


def stats_report_from_team_rows(rows: Iterable[TeamRow]) -> Report:
    """``stats_report`` of TeamRow records, a None ratio a missing one. A
    row whose group is not its condition's is an error naming the team."""
    rows = list(rows)
    for r in rows:
        if CONDITION_GROUP.get(r.condition) != r.group:
            raise ValueError(
                f"team {r.team_id!r}: group {r.group!r} is not the group of "
                f"condition {r.condition!r}"
            )
    return stats_report(TeamTable(
        [r.team_id for r in rows],
        [CONDITIONS.index(r.condition) for r in rows],
        [GENDERS.index(r.gender) for r in rows],
        [math.nan if r.jva_ratio_pct is None else r.jva_ratio_pct for r in rows],
        [r.team_post_test for r in rows],
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
    """Put the summaries in report order, and ``_add_anova`` each grouping and
    measure with two or more groups. Report order, which ``stats_report``
    builds, is ``_GROUPING_LABELS``' groupings and each one's labels, and
    ``_MEASURES``, in their order; then any other, in the order read."""
    def ordered(items, known, key=operator.itemgetter(0)) -> list:
        rank = dict(zip(known, count()))
        return sorted(items, key=lambda item: rank.get(key(item), len(rank)))

    summaries, report.summaries = report.summaries, {}
    for grouping, by_measure in ordered(summaries.items(), _GROUPING_LABELS):
        report.summaries[grouping] = {}
        for measure, groups in ordered(by_measure.items(), _MEASURES):
            groups = ordered(groups, _GROUPING_LABELS.get(grouping, ()), lambda g: g.label)
            report.summaries[grouping][measure] = groups
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


# --- fixture and team-row files -------------------------------------------


def paper_fixture_path() -> Path:
    """Bundled summary-statistics fixture (published condition/gender tables)."""
    return Path(__file__).parent / "fixtures" / "paper_fixture.csv"


def _summaries(chunks: Iterator) -> tuple[dict, dict]:
    """A summary table's group summaries and totals, from its ``_read_csv``
    chunks after the header. A short row's missing cells are empty; a bad
    cell, an n above _MAX_N, a mean or SD out of its measure's range, a total
    row labelled other than "total" and a repeated key are errors at its line."""
    summaries: dict[str, dict[str, list[GroupSummary]]] = {}
    totals: dict[str, GroupSummary] = {}
    first_line: dict = {}
    for lines, cells, _ in chunks:
        for line, row in zip(lines, zip(*(cells[c] for c in _SUMMARY_COLUMNS))):
            grouping, label, measure, n, mean, sd = ("" if v is None else _str(v) for v in row)
            key = (grouping.strip(), label.strip(), measure.strip())
            grouping, label, measure = key
            if not grouping or not label:
                raise ValueError(f"line {line}: empty grouping or label")
            if grouping == "total" and label != "total":
                raise ValueError(f"line {line}: total row label {label!r} is not 'total'")
            _check_new_key(first_line, key, line, "summary")
            if measure not in _MEASURES:
                raise ValueError(f"line {line}: unknown measure {measure!r}")
            count = _parse_float(n, "n", line, int)
            if count > _MAX_N:
                raise ValueError(f"line {line}: n {n!r} out of [2,{_MAX_N}]")
            mean = _parse_bounded(mean, "mean", line, _MEASURE_HIGH[measure])
            sd = _parse_bounded(sd, "sd", line, _MEASURE_HIGH[measure])
            try:
                summary = GroupSummary(label=label, n=count, mean=mean, sd=sd)
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
    """The inferential report of a summary table, with columns grouping,
    label, measure, n, mean and sd, or else of a per-team results table, as
    ``load_team_rows`` reads it: the kind is the first whose columns the
    header has, its header rules apply (a header of neither kind is checked
    against both), and the file is read once."""
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
        "correlation": (
            None if report.correlation is None else record(report.correlation._asdict())
        ),
        "notes": list(report.notes),
    }


# The team fields in the order every format writes them: the columns of
# teams.csv.
_TEAM_FIELDS = ["team_id", "condition", "group", "gender", "jva_ratio_pct", "team_post_test"]

# The fields of a pairwise comparison that every format writes, in
# posthoc.csv's order; JSON writes the degrees of freedom as "df": [df1, df2].
_POSTHOC_FIELDS = ("a", "b", "f", "df1", "df2", "p", "cohens_d", "correction")


def _bits(values: Sequence[float]) -> list[int]:
    """Each value's float64 bit pattern: unlike the value, it tells -0.0
    from 0.0, whose texts differ."""
    return array("Q", array("d", values).tobytes()).tolist()


def _cells_by_bits(bits: Iterable[int], cell) -> dict:
    """``cell`` of each distinct float of ``bits`` (see ``_bits``), by its bits."""
    distinct = list(dict.fromkeys(bits))
    return dict(zip(distinct, map(cell, array("d", array("Q", distinct).tobytes()).tolist())))


def _team_cells(teams: TeamTable, value_rule, text=str) -> tuple[list, list, list]:
    """Every team's cells, with each distinct label and number formatted once.

    Returns ``text`` of each team id; the distinct rows of the other team
    fields' cells, in ``_TEAM_FIELDS`` order (``text`` of each label,
    ``value_rule`` of each number, a missing ratio as None); and each
    team's index into those rows. Numbers are keyed on their float bits
    (``_bits``), so that a cell depends on those alone.
    """
    columns = (teams.condition, teams.gender, _bits(teams.jva_ratio_pct), _bits(teams.post_test))
    index = dict(zip(dict.fromkeys(zip(*columns)), count()))  # each distinct key's row
    ratios = _cells_by_bits(
        (key[2] for key in index),
        lambda r: value_rule(None if r != r else r, _DECIMALS["jva_ratio_pct"]),
    )
    post_tests = _cells_by_bits(
        (key[3] for key in index), lambda p: value_rule(p, _DECIMALS["team_post_test"])
    )
    conditions, groups, genders = (
        list(map(text, labels)) for labels in (CONDITIONS, GROUPS, GENDERS)
    )
    rows = [
        [conditions[c], groups[_CONDITION_GROUP[c]], genders[g], ratios[r], post_tests[p]]
        for c, g, r, p in index
    ]
    return list(map(text, teams.team_ids)), rows, list(map(index.__getitem__, zip(*columns)))


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
        compress(per_team(_JSON_POINT), report.teams.has_ratio)
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
            _SUMMARY_COLUMNS,  # a summary table, as stats_report_from_table reads it
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

# Each config key and its values: float, or the tuple of its labels. The
# CLI's JVA flags are built from it.
CONFIG_KEYS = {
    "threshold": float,
    "scale_mode": SCALE_MODES,
    "denominator_policy": DENOMINATOR_POLICIES,
}


def load_config(path: Optional[Union[str, Path]] = None, **overrides) -> JvaConfig:
    """Build a JvaConfig with standard precedence: defaults < file < overrides.

    The file is text as ``model.input_text`` reads it, key=value lines;
    '#' starts a comment. Keys: those of ``CONFIG_KEYS``. An override is
    a key's value as its flag gives it (a number or a label); None leaves
    the key as the file or default has it.
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
            allowed = CONFIG_KEYS.get(key)
            if allowed is None:
                raise ValueError(f"{path}:{line_no}: unknown key {key!r}")
            if key in first_line:
                raise ValueError(
                    f"{path}:{line_no}: duplicate key {key!r} (first on line {first_line[key]})"
                )
            first_line[key] = line_no
            try:
                values[key] = float(value) if allowed is float else value
                JvaConfig(**{key: values[key]})  # the check of this one value
            except ValueError:
                expected = "a positive finite number" if allowed is float else " | ".join(allowed)
                raise ValueError(
                    f"{path}:{line_no}: bad {key} {value!r}, expected {expected}"
                ) from None
    values.update((key, value) for key, value in overrides.items() if value is not None)
    return JvaConfig(**values)
