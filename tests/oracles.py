"""Independent numerical oracles shared by the test modules.

These deliberately avoid the library's own code paths: the F tail oracle
integrates the density with adaptive quadrature, the per-row stats report
groups ``Team`` records one row at a time, the per-value team cells format
every team's numbers one value at a time, the row-form table reader hands
every line to ``csv.reader``, and the reference frame table checks and
groups frame rows one row at a time in dicts. ``brute_force_jva_count``,
the per-frame JVA reference, scores that frame table with plain
arithmetic, and neither it nor ``reference_frame_table`` uses a
``teamgaze`` name. ``team_table`` and ``teams_of`` turn ``Team`` records
into a ``TeamTable``'s columns and back, and ``team_jva_counts_of`` feeds
the reference frame table to ``jva.team_jva_counts``, the scorer
``teamgaze analyze`` runs. ``reference_synth`` lays out synth's study one
team at a time from the two documented random streams, with no
``teamgaze`` name. ``moment_matched_groups`` builds raw samples with given
(n, mean, SD) summaries, and ``raw_sample_anova`` takes the one-way ANOVA
of raw samples from its definition: the references for the summary ANOVA,
with no ``teamgaze`` name either.
"""

import csv
import json
import math
from itertools import islice
from typing import NamedTuple, Optional

import numpy as np
from scipy import integrate

from teamgaze import io_report
from teamgaze.io_report import Report, TeamTable, _add_anova
from teamgaze.jva import team_jva_counts
from teamgaze.model import CONDITIONS, GENDERS, GROUPS, JvaConfig
from teamgaze.stats import pearson, summarize


def f_density(x: float, df1: int, df2: int) -> float:
    if x <= 0:
        return 0.0
    a, b = df1 / 2.0, df2 / 2.0
    log_pdf = (
        a * math.log(df1 / df2)
        + (a - 1.0) * math.log(x)
        - (a + b) * math.log1p(df1 * x / df2)
        - (math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
    )
    return math.exp(log_pdf)


def f_tail_by_quadrature(f: float, df1: int, df2: int) -> float:
    value, _ = integrate.quad(
        f_density, f, math.inf, args=(df1, df2), epsabs=1e-12, epsrel=1e-12, limit=400
    )
    return value


def moment_matched_groups(specs) -> list:
    """A sample for each ``(n, mean, sd)`` whose sample mean and SD are those,
    up to rounding: the pattern 0..n-1 moved to zero mean and unit sample SD,
    then scaled by sd and shifted by mean. With sd = 0 the sample is constant.
    """
    samples = []
    for n, mean, sd in specs:
        if sd == 0:
            samples.append([float(mean)] * n)
            continue
        centre = (n - 1) / 2
        unit = math.sqrt(math.fsum((i - centre) ** 2 for i in range(n)) / (n - 1))
        samples.append([mean + sd * ((i - centre) / unit) for i in range(n)])
    return samples


class RawAnova(NamedTuple):
    ss_between: float
    ss_within: float
    f: float  # inf when ss_within is 0


def raw_sample_anova(groups) -> RawAnova:
    """The one-way ANOVA of raw samples from its definition, summing with
    ``math.fsum`` over lists: ss_within over every value's squared
    difference from its group's mean, ss_between over each group's n times
    its mean's squared difference from the grand mean, and F the ratio of
    their mean squares, on k - 1 and N - k degrees of freedom."""
    values = [v for g in groups for v in g]
    k, n = len(groups), len(values)
    grand_mean = math.fsum(values) / n
    means = [math.fsum(g) / len(g) for g in groups]
    ss_within = math.fsum((v - m) ** 2 for g, m in zip(groups, means) for v in g)
    ss_between = math.fsum(len(g) * (m - grand_mean) ** 2 for g, m in zip(groups, means))
    f = math.inf if ss_within == 0 else (ss_between / (k - 1)) / (ss_within / (n - k))
    return RawAnova(ss_between, ss_within, f)


def brute_force_jva_count(
    table: dict, threshold: float, scale: str = "absolute", policy: str = "valid-pair-frames"
) -> tuple[dict, list]:
    """Recount each team's JVA and denominator frames with plain per-frame
    arithmetic, by the rules README states.

    ``table`` is ``reference_frame_table``'s dict; ``scale`` and ``policy``
    are ``--scale-mode`` and ``--denominator-policy`` values. A frame
    flagged discarded never counts. A frame of exactly two kept rows is a
    valid pair: its distance is ``math.hypot`` of the two gaze points'
    offset, and it is JVA when the distance is strictly below the
    threshold, which in diagonal mode is
    ``threshold * hypot(w, h) / hypot(2560, 1440)``. Every valid pair
    counts; under ``all-captured-frames`` every frame not discarded counts.

    Returns each team's ``(jva, denominator)`` by team id, and each frame's
    ``(distance, is_jva, counted)``, its distance None without a valid pair.
    """
    counts = {team: (0, 0) for team in table["team_ids"]}
    frames = []
    offsets, x, y = table["row_offsets"], table["gaze_x"], table["gaze_y"]
    for f, team in enumerate(table["frame_team"]):
        discarded = table["discarded"][f]
        distance, is_jva = None, False
        if offsets[f + 1] - offsets[f] == 2 and not discarded:
            a, b = offsets[f], offsets[f] + 1
            distance = math.hypot(x[a] - x[b], y[a] - y[b])
            limit = threshold
            if scale == "diagonal-normalized":
                diagonal = math.hypot(table["width"][f], table["height"][f])
                limit = threshold * diagonal / math.hypot(2560.0, 1440.0)
            is_jva = distance < limit
        counted = distance is not None or (policy == "all-captured-frames" and not discarded)
        jva, denominator = counts[table["team_ids"][team]]
        counts[table["team_ids"][team]] = (jva + is_jva, denominator + counted)
        frames.append((distance, is_jva, counted))
    return counts, frames


def team_jva_counts_of(
    table: dict, threshold: float, scale: str = "absolute", policy: str = "valid-pair-frames"
) -> dict:
    """``jva.team_jva_counts``'s ``(jva, denominator)`` by team id for the
    frames of ``reference_frame_table``'s dict, with
    ``brute_force_jva_count``'s arguments."""
    config = JvaConfig(threshold, scale, policy)
    jva, denominator = team_jva_counts(
        np.array(table["frame_team"], np.intp),
        len(table["team_ids"]),
        np.array(table["width"], float),
        np.array(table["height"], float),
        np.array(table["discarded"], bool),
        np.array(table["row_offsets"], np.intp),
        np.array(table["gaze_x"], float),
        np.array(table["gaze_y"], float),
        config,
    )
    return dict(zip(table["team_ids"], zip(jva.tolist(), denominator.tolist())))


class Team(NamedTuple):
    """One row of a per-team results table as plain values."""

    team_id: str
    condition: str  # textbook | tablet | ar
    gender: str  # FF | MM | MX
    jva_ratio_pct: Optional[float]  # None: no countable frames
    team_post_test: float

    @property
    def group(self) -> str:
        return "control" if self.condition == "textbook" else "experiment"


def team_table(teams) -> TeamTable:
    """The ``TeamTable`` of ``Team`` records, in their order: each condition
    and gender as its index into ``CONDITIONS`` and ``GENDERS``, a None
    ratio as NaN."""
    teams = list(teams)
    return TeamTable(
        team_ids=[t.team_id for t in teams],
        condition=[CONDITIONS.index(t.condition) for t in teams],
        gender=[GENDERS.index(t.gender) for t in teams],
        jva_ratio_pct=[math.nan if t.jva_ratio_pct is None else t.jva_ratio_pct for t in teams],
        post_test=[t.team_post_test for t in teams],
    )


def teams_of(table: TeamTable) -> list:
    """The ``Team`` records of a ``TeamTable``'s columns, a NaN ratio as None."""
    return [
        Team(team_id, CONDITIONS[c], GENDERS[g],
             None if ratio != ratio else ratio, post_test)
        for team_id, c, g, ratio, post_test in zip(
            table.team_ids, table.condition, table.gender, table.jva_ratio_pct, table.post_test
        )
    ]


# The labels of each grouping and the Team field holding each measure.
_GROUPINGS = {"condition": CONDITIONS, "group": GROUPS, "gender": GENDERS}
_MEASURE_FIELDS = {"jva_ratio_pct": "jva_ratio_pct", "post_test": "team_post_test"}


def per_row_stats_report(rows) -> Report:
    """The stats report of ``Team`` records, built a row at a time.

    Each (grouping, measure) collects its groups' values in one pass over
    the rows, keeping row order; the scatter and the correlation take the
    rows sorted by team_id. The columnar ``io_report.stats_report`` must
    render the same bytes.
    """
    report = Report(teams=team_table(sorted(rows, key=lambda r: r.team_id)))
    for grouping, labels in _GROUPINGS.items():
        report.summaries[grouping] = {}
        for measure, attr in _MEASURE_FIELDS.items():
            values_by_label = {label: [] for label in labels}
            for row in rows:
                if (v := getattr(row, attr)) is not None:
                    values_by_label[getattr(row, grouping)].append(v)
            groups = [
                summarize(values, label=label)
                for label, values in values_by_label.items()
                if len(values) >= 2
            ]
            report.summaries[grouping][measure] = groups
            if len(groups) >= 2:
                _add_anova(report, grouping, measure, groups)

    for measure, attr in _MEASURE_FIELDS.items():
        values = [v for row in rows if (v := getattr(row, attr)) is not None]
        if len(values) >= 2:
            report.totals[measure] = summarize(values, label="total")

    scatter = [
        (row.jva_ratio_pct, row.team_post_test)
        for row in sorted(rows, key=lambda r: r.team_id)
        if row.jva_ratio_pct is not None
    ]
    if len(scatter) >= 3:
        try:
            report.correlation = pearson(*zip(*scatter))
        except ValueError as exc:
            report.notes.append(f"correlation skipped: {exc}")
    return report


def per_value_team_columns(teams: TeamTable, value_rule, text=str) -> list[list]:
    """The cells of each team field, in teams.csv's column order: ``text``
    of each id and label, ``value_rule`` of each number (a missing ratio is
    None), one call per team."""
    ratios = [None if r != r else r for r in teams.jva_ratio_pct]

    def labels(codes: list, names: tuple) -> list:
        return [text(names[code]) for code in codes]

    decimals = io_report._DECIMALS
    return [
        list(map(text, teams.team_ids)),
        labels(teams.condition, CONDITIONS),
        labels(teams.group, GROUPS),
        labels(teams.gender, GENDERS),
        [value_rule(r, decimals["jva_ratio_pct"]) for r in ratios],
        [value_rule(p, decimals["team_post_test"]) for p in teams.post_test],
    ]


def per_value_team_cells(teams: TeamTable, value_rule, text=str) -> tuple:
    """``io_report._team_cells`` built from ``per_value_team_columns``: each
    team's cells are a row of their own. Patched in for ``_team_cells``,
    it makes every emitter format each team's numbers one at a time."""
    ids, *columns = per_value_team_columns(teams, value_rule, text)
    return ids, [list(row) for row in zip(*columns)], list(range(len(ids)))


def _undecodable(path) -> tuple:
    """The physical line of the first byte of a file that is not UTF-8, and
    the problem, counting LF, CR LF and a lone CR as line breaks."""
    line = 1
    with open(path, "rb") as fh:
        for raw in fh:  # no UTF-8 sequence holds an LF byte
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                line += raw.count(b"\r", 0, exc.start)
                return line, f"byte 0x{raw[exc.start]:02x} is not UTF-8 ({exc.reason})"
            line += raw.count(b"\n") + raw.count(b"\r") - raw.count(b"\r\n")
    return line, "not UTF-8"


def _rows_before_undecodable(path, done: int) -> tuple:
    """The rows after line ``done`` that end before the file's first byte
    that is not UTF-8, the line the last of them ends on, and the error to
    raise after them: the byte's, or a csv error on an earlier line."""
    bad_line, problem = _undecodable(path)
    rows: list = []
    end = done
    with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        try:
            for row in reader:
                if reader.line_num >= bad_line:
                    break
                if reader.line_num > done:
                    rows.append(row)
                    end = reader.line_num
        except csv.Error as exc:
            return rows, end, ValueError(f"line {reader.line_num}: {exc}")
    return rows, end, ValueError(f"line {bad_line}: {problem}")


def _row_lines(chunk: list, before: int, after: int) -> np.ndarray:
    """The physical line each row of ``chunk`` ends on (``reader.line_num``)."""
    if after - before == len(chunk):
        return np.arange(before + 1, after + 1)
    spans = [
        1 + sum(c.count("\n") + c.count("\r") - c.count("\r\n") for c in row)
        for row in chunk
    ]
    return np.minimum(before + np.cumsum(spans), after)


def read_csv_rows(path, columns, optional=()):
    """The row-form table reader ``io_report._read_csv`` replaced.

    One ``csv.reader`` reads every line. It yields the header (stripped
    names; one that repeats a name of ``columns`` or ``optional``, or is
    none of them but matches one after ``casefold``, is an error), then
    ``(lines, rows)`` chunks of up to ``io_report._CHUNK_ROWS`` rows (lists
    of cells) with the physical line each ends on. Blank and
    comment rows are skipped; its errors are raised after the rows before
    them are yielded. ``columns`` may be a function of the header that
    gives ``(columns, optional)``.
    """
    header, error = None, None
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        line = 0
        while error is None:
            chunk: list = []
            try:
                chunk.extend(islice(reader, io_report._CHUNK_ROWS))
                end = reader.line_num
            except csv.Error as exc:
                end, error = reader.line_num, ValueError(f"line {reader.line_num}: {exc}")
            except UnicodeDecodeError:
                chunk, end, error = _rows_before_undecodable(path, line)
            if not chunk:
                break
            lines = _row_lines(chunk, line, end)
            if not all(chunk) or "#" in "".join([row[0] for row in chunk]):
                kept = []
                for i, row in enumerate(chunk):
                    if row and row[0].lstrip().startswith("#"):
                        start = lines[i - 1] + 1 if i else line + 1
                        if lines[i] != start:
                            error = ValueError(
                                f"line {start}: comment row holds a quoted line break"
                            )
                            break
                    elif row:
                        kept.append(i)
                chunk, lines = [chunk[i] for i in kept], lines[kept]
            line = end
            if header is None and chunk:
                header = [name.strip() for name in chunk[0]]
                if callable(columns):
                    columns, optional = columns(header)
                missing = [c for c in columns if c not in header]
                if missing:
                    raise ValueError(f"missing mandatory columns {missing}")
                reads = [*columns, *optional]
                for name in header:
                    if name in reads and header.count(name) > 1:
                        raise ValueError(
                            f"line {lines[0]}: header names column {name!r} more than once"
                        )
                    same = [c for c in reads if c.casefold() == name.casefold() != c]
                    if same and name not in reads:
                        raise ValueError(
                            f"line {lines[0]}: header column {name!r} is not {same[0]!r}: "
                            "column names are case-sensitive"
                        )
                yield header
                chunk, lines = chunk[1:], lines[1:]
            if chunk:
                yield lines, chunk
    if error is not None:
        raise error
    if header is None:
        raise ValueError("empty file, header row required")


def read_csv_columns(path, columns, optional=()):
    """``read_csv_rows`` in ``io_report._read_csv``'s column form, one row at
    a time: a cell a row lacks is None."""
    chunks = read_csv_rows(path, columns, optional)
    header = next(chunks)
    yield header
    if callable(columns):
        columns, optional = columns(header)
    index = {name: i for i, name in enumerate(header)}
    used = {name: index[name] for name in (*columns, *optional) if name in index}
    for lines, rows in chunks:
        cells = {
            name: [row[i] if i < len(row) else None for row in rows]
            for name, i in used.items()
        }
        yield lines, cells, any(None in values for values in cells.values())


FRAME_TABLE_HEADER = (
    "team_id,frame_id,timestamp_s,image_w,image_h,person_id,"
    "gaze_x,gaze_y,head_x,head_y,confidence,discarded"
)
_DISCARDED = {"": False, "0": False, "false": False, "1": True, "true": True}


def _row_error(line: int, cell) -> str | None:
    """The first check a frame row fails, in the order a row is checked, or
    None; ``cell`` gives a column's cell, None if the row lacks it."""
    for name in FRAME_TABLE_HEADER.split(",")[:8]:
        if cell(name) is None:
            return f"line {line}: short row, no {name} cell"
    if not cell("team_id").strip() or not cell("frame_id").strip():
        return f"line {line}: empty team_id or frame_id"
    if not cell("person_id").strip():
        return f"line {line}: empty person_id"
    for name in ("timestamp_s", "image_w", "image_h"):
        try:
            number = float(cell(name))
        except ValueError:
            return f"line {line}: column {name!r} not numeric: {cell(name)!r}"
        if name != "timestamp_s" and not math.isfinite(number):
            return f"line {line}: column {name!r} not finite: {cell(name)!r}"
    if float(cell("image_w")) < 1 or float(cell("image_h")) < 1:
        return f"line {line}: non-positive image dimensions"
    for name in ("gaze_x", "gaze_y"):
        try:
            float(cell(name))
        except ValueError:
            return f"line {line}: column {name!r} not numeric: {cell(name)!r}"
    token = cell("discarded")
    if (token or "").strip().lower() not in _DISCARDED:
        return f"line {line}: discarded {token!r} is not empty, 0, 1, true or false"
    return None


def reference_frame_table(rows) -> dict:
    """What ``io_report.read_frame_table`` gives for a frame table whose
    header is ``FRAME_TABLE_HEADER`` and whose data ``rows`` (plain text:
    no quote, comment or blank line) follow it from line 2, field by field,
    as lists; or the ``line N`` ValueError it raises, without the path.

    One row at a time: a row failing a check, disagreeing with its frame's
    first kept row, repeating a person in its frame, or, in a frame not
    flagged discarded, naming a third person of its team, raises; a row
    whose gaze point is outside the image or NaN is logged and skipped.
    Teams, frames and persons are numbered in dicts in the order they first
    appear.
    """
    columns = FRAME_TABLE_HEADER.split(",")
    persons: dict = {}  # every row's person, kept or not
    frames: dict = {}  # (team, frame) -> [first kept row, {person: line}, gaze rows]
    team_persons: dict = {}  # team -> its persons in kept rows of frames not discarded
    row_errors = []
    for line, text in enumerate(rows, start=2):
        cells = text.split(",")

        def cell(name):
            i = columns.index(name)
            return cells[i] if i < len(cells) else None

        if error := _row_error(line, cell):
            raise ValueError(error)
        team, frame, person = (cell(c).strip() for c in ("team_id", "frame_id", "person_id"))
        persons.setdefault(person, len(persons))
        ts = float(cell("timestamp_s"))
        w, h = (float(math.trunc(float(cell(c)))) for c in ("image_w", "image_h"))
        x, y = float(cell("gaze_x")), float(cell("gaze_y"))
        discarded = _DISCARDED[(cell("discarded") or "").strip().lower()]
        if not (0 <= x <= w and 0 <= y <= h):
            row_errors.append(
                f"line {line}: gaze ({x}, {y}) outside {int(w)}x{int(h)} image, row skipped"
            )
            continue
        row = (line, ts, w, h, discarded)
        first, seen, gaze = frames.setdefault((team, frame), [row, {}, []])
        where = f"team {team!r} frame {frame!r}"
        for name, value, ref, shown in zip(
            ("timestamp_s", "image_w", "image_h", "discarded"),
            row[1:], first[1:], (float, int, int, bool),
        ):
            if value != ref and not (value != value and ref != ref):  # NaNs agree
                raise ValueError(
                    f"line {line}: {name} {shown(value)} differs from {shown(ref)} "
                    f"on line {first[0]} for {where}"
                )
        if person in seen:
            raise ValueError(
                f"line {line}: person_id {person!r} already on line {seen[person]} for {where}"
            )
        seen[person] = line
        if not discarded:
            pair = team_persons.setdefault(team, set())
            if person not in pair and len(pair) == 2:
                raise ValueError(
                    f"line {line}: person_id {person!r} is a third person of team {team!r} "
                    "(a team is two people)"
                )
            pair.add(person)
        gaze.append((persons[person], x, y))
    teams: dict = {}
    for team, _ in frames:
        teams.setdefault(team, len(teams))
    kept = [g for _, _, gaze in frames.values() for g in gaze]
    offsets = [0]
    for _, _, gaze in frames.values():
        offsets.append(offsets[-1] + len(gaze))
    return {
        "team_ids": list(teams),
        "frame_ids": [frame for _, frame in frames],
        "frame_team": [teams[team] for team, _ in frames],
        "timestamp": [first[1] for first, _, _ in frames.values()],
        "width": [first[2] for first, _, _ in frames.values()],
        "height": [first[3] for first, _, _ in frames.values()],
        "discarded": [first[4] for first, _, _ in frames.values()],
        "row_offsets": offsets,
        "person_ids": list(persons),
        "row_person": [p for p, _, _ in kept],
        "gaze_x": [x for _, x, _ in kept],
        "gaze_y": [y for _, _, y in kept],
        "row_errors": row_errors,
    }



_SYNTH_FRAME_HEADER = (
    "team_id,frame_id,timestamp_s,image_w,image_h,person_id,gaze_x,gaze_y,discarded"
)
_SYNTH_TEAM_HEADER = "team_id,condition,gender,post_test_1,post_test_2"
_SYNTH_CYCLE = [("textbook", "FF"), ("tablet", "MM"), ("ar", "MX")]


def reference_synth(spec) -> tuple[bytes, bytes, bytes]:
    """The bytes of frames.csv, teams.csv and ground_truth.json that
    ``teamgaze synth`` writes for ``spec`` (a ``SynthSpec``), by README's
    and ``synth``'s stated rules, one team at a time.

    Team k (id ``team%02d`` of k + 1) has condition and gender k mod 3 of
    ``_SYNTH_CYCLE``, and its condition's probability, else the plain one.
    It draws ``2 + 4 * frames`` uniforms from the stream of
    ``SeedSequence(seed, spawn_key=(0,))``: two post-test
    uniforms u (score ``int(6 * u)``), then per frame quantity (JVA coin,
    target x, target y, partner angle) one uniform per frame. With positive
    noise it draws ``(4, frames)`` standard normals, the offsets of (p1 x,
    p1 y, p2 x, p2 y), from the ``spawn_key=(1,)`` stream. The target lies
    in the image shrunk by ``min(300, side / 4)`` on each border. In a JVA
    frame (coin below the probability) both persons look at it; otherwise
    p2 looks 300 px away at the angle, reflected through the target where
    that leaves the image. Points are moved by the noise times sigma,
    clipped to the image and written with ``"%.4f" %``.
    """
    streams = [
        np.random.Generator(np.random.Philox(np.random.SeedSequence(spec.seed, spawn_key=(k,))))
        for k in (0, 1)
    ]
    n, w, h = spec.frames_per_team, float(spec.image_w), float(spec.image_h)
    sep = 300.0
    margin_x, margin_y = min(sep, w / 4), min(sep, h / 4)
    frame_lines, team_lines = [_SYNTH_FRAME_HEADER + "\n"], [_SYNTH_TEAM_HEADER + "\n"]
    labels = {}
    for k in range(spec.teams):
        team = "team%02d" % (k + 1)
        condition, gender = _SYNTH_CYCLE[k % 3]
        p = spec.jva_probability
        if isinstance(p, dict):
            p = p[condition]
        uniform = streams[0].random(2 + 4 * n)
        coin, ux, uy, turn = uniform[2:].reshape(4, n)
        scores = [int(6 * u) for u in uniform[:2]]
        team_lines.append(f"{team},{condition},{gender},{scores[0]},{scores[1]}\n")
        jva = coin < float(p)
        ax = margin_x + (w - 2 * margin_x) * ux
        ay = margin_y + (h - 2 * margin_y) * uy
        dx, dy = sep * np.cos(2.0 * math.pi * turn), sep * np.sin(2.0 * math.pi * turn)
        bx = np.where((ax + dx >= 0) & (ax + dx <= w), ax + dx, ax - dx)
        by = np.where((ay + dy >= 0) & (ay + dy <= h), ay + dy, ay - dy)
        gaze = np.array([ax, ay, np.where(jva, ax, bx), np.where(jva, ay, by)])
        if spec.gaze_noise_sigma > 0:
            with np.errstate(over="ignore"):  # +-inf clips to the bounds
                gaze = gaze + spec.gaze_noise_sigma * streams[1].standard_normal((4, n))
        gaze = np.clip(gaze, 0.0, np.array([w, h, w, h])[:, None])
        for f in range(n):
            for person, (x, y) in (("p1", gaze[:2, f]), ("p2", gaze[2:, f])):
                frame_lines.append(
                    f"{team},f{f:05d},{f * 10.0:.1f},{spec.image_w},{spec.image_h},{person},"
                    + "%.4f,%.4f,0\n" % (x, y)
                )
        labels[team] = [int(j) for j in jva]
    truth = {
        "frame_labels": labels,
        "team_ratios": {team: sum(v) / n for team, v in labels.items()},
    }
    return (
        "".join(frame_lines).encode(),
        "".join(team_lines).encode(),
        json.dumps(truth, sort_keys=True, separators=(",", ":")).encode(),
    )
