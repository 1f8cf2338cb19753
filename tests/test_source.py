"""Source checks a linter would make, with the standard library only.

Every module-level import in the package, the tests and the demos is
used in its module or named in its ``__all__``; every private module-level
name of the package is read in its module; the package reads no file in
text mode, so that ``model.input_text`` stays the one way from an input
file's bytes to text; the CLI names no report format itself, and synth
keeps its truth only in ``ground_truth.json``; and no line of the package
or the tests is longer than 98 characters.
"""

import ast
from pathlib import Path

import pytest

from teamgaze import io_report

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "teamgaze").glob("*.py"))
SOURCES = [*PACKAGE, *sorted(ROOT.glob("tests/*.py")), *sorted(ROOT.glob("demos/*.py"))]
LONGEST_LINE = 98


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name the module's top-level imports bind, and its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _exported(tree: ast.Module) -> set[str]:
    """The string items of the module's ``__all__`` list, if it has one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {
                item.value
                for item in ast.walk(node.value)
                if isinstance(item, ast.Constant) and isinstance(item.value, str)
            }
    return set()


def _unused_imports(tree: ast.Module) -> list[str]:
    """``line N: name`` of each imported name the module neither uses nor
    exports."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = _exported(tree)
    return sorted(
        f"line {line}: {name}"
        for name, line in _imported_names(tree).items()
        if name not in used and name not in exported
    )


def _unread_private_names(tree: ast.Module) -> list[str]:
    """``line N: name`` of each private name (one leading underscore) the
    module defines at its top level and never reads."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.setdefault(node.name, node.lineno)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for name in (n for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)):
                defined.setdefault(name.id, node.lineno)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(
        f"line {line}: {name}"
        for name, line in defined.items()
        if name.startswith("_") and not name.startswith("__") and name not in read
    )


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_module_import_is_used(path):
    unused = _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_the_import_check_names_an_unused_import():
    tree = ast.parse(
        "from __future__ import annotations\nimport os\nimport numpy as np\n"
        "from typing import Optional, Sequence\n__all__ = ['os']\n"
        "x: Optional[int] = np.zeros(1)\n"
    )
    assert _unused_imports(tree) == ["line 4: Sequence"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_every_private_name_is_read(path):
    unread = _unread_private_names(ast.parse(path.read_text(encoding="utf-8")))
    assert not unread, f"{path.name} defines private names it never reads: {unread}"


def test_the_private_name_check_names_an_unread_helper():
    tree = ast.parse(
        "__all__ = ['f']\n_LIMIT = 3\n_left, _over = 1, 2\n"
        "def _helper():\n    return _LIMIT\n"
        "def _leftover():\n    return _helper()\n"
        "class _Unused:\n    pass\n"
        "def f(_arg=_left):\n    _local = 1\n    return _arg\n"
    )
    assert _unread_private_names(tree) == [
        "line 3: _over", "line 6: _leftover", "line 8: _Unused"
    ]


def _text_reads(tree: ast.Module) -> list[str]:
    """``line N: call`` of each file read in text mode: ``read_text``, or
    ``open`` (the builtin, or a method such as ``Path.open``) in a mode that
    reads and has no ``b``. A mode that is not a string literal counts."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        if name == "open":
            at = 1 if isinstance(node.func, ast.Name) else 0  # open(file, mode), p.open(mode)
            mode = next((k.value for k in node.keywords if k.arg == "mode"), None)
            if mode is None and len(node.args) > at:
                mode = node.args[at]
            text = "r" if mode is None else getattr(mode, "value", None)
            if isinstance(text, str) and ("b" in text or not {"r", "+"} & set(text)):
                continue
        elif name != "read_text":
            continue
        found.append(f"line {node.lineno}: {name}")
    return found


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_file_is_read_as_text(path):
    reads = _text_reads(ast.parse(path.read_text(encoding="utf-8")))
    assert not reads, f"{path.name} reads files in text mode: {reads}"


# The per-frame object path's names, which no command runs (ROADMAP item 3).
# Only the files that pin that path while the benchmark runs it name them.
# Each is still defined in the package, so deleting a name takes it off here.
PER_FRAME_PATH = [
    "load_frames", "LoadResult", "build_sessions",
    "TeamRow", "stats_report_from_team_rows",
    "GazeObservation", "FrameRecord", "TeamSession", "validate_session",
    "classify_frame", "session_jva", "JvaFrameResult", "JvaSessionResult",
]
PER_FRAME_FILES = {"test_per_frame_path.py", "test_perfbench_smoke.py"}


def _per_frame_names(tree: ast.Module) -> list[str]:
    """``line N: name`` of each identifier the module binds, reads, imports or
    takes as an attribute, and each string, that is on ``PER_FRAME_PATH``;
    an assignment of ``PER_FRAME_PATH`` itself is not read."""
    skipped = {
        id(inner)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "PER_FRAME_PATH" for t in node.targets)
        for inner in ast.walk(node)
    }
    found = []
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        names = {
            ast.Name: lambda n: [n.id],
            ast.Attribute: lambda n: [n.attr],
            ast.alias: lambda n: [n.name, n.asname],
            ast.FunctionDef: lambda n: [n.name],
            ast.ClassDef: lambda n: [n.name],
            ast.arg: lambda n: [n.arg],
            ast.keyword: lambda n: [n.arg],
            ast.Constant: lambda n: [n.value] if isinstance(n.value, str) else [],
        }.get(type(node), lambda n: [])(node)
        found += [f"line {node.lineno}: {name}" for name in names if name in PER_FRAME_PATH]
    return sorted(set(found))


@pytest.mark.parametrize(
    "path",
    [p for p in SOURCES if p not in PACKAGE and p.name not in PER_FRAME_FILES],
    ids=lambda p: p.name,
)
def test_no_test_or_demo_names_the_per_frame_path(path):
    named = _per_frame_names(ast.parse(path.read_text(encoding="utf-8")))
    assert not named, f"{path.name} names the per-frame path: {named}"


def test_the_per_frame_check_names_each_kind_of_use():
    tree = ast.parse(
        "from teamgaze.jva import session_jva as score\nimport teamgaze\n"
        "PER_FRAME_PATH = ['TeamRow']\nteamgaze.io_report.load_frames(p)\n"
        "setattr(m, 'FrameRecord', f)\ndef build_sessions(TeamSession=1):\n    pass\n"
        "t.classify_frame(x, LoadResult=2)\n'a TeamRow in a sentence'\n"
    )
    assert _per_frame_names(tree) == [
        "line 1: session_jva", "line 4: load_frames", "line 5: FrameRecord",
        "line 6: TeamSession", "line 6: build_sessions", "line 8: LoadResult",
        "line 8: classify_frame",
    ]


def _defined_names(tree: ast.Module) -> set[str]:
    """Each function and class the module defines, at any depth, and each
    name it assigns at module or class level."""
    names, bodies = set(), [tree.body]
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        if isinstance(node, ast.ClassDef):
            bodies.append(node.body)
    for body in bodies:
        for node in body:
            targets = {ast.Assign: lambda n: n.targets, ast.AnnAssign: lambda n: [n.target]}
            for target in targets.get(type(node), lambda n: [])(node):
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


def test_each_per_frame_name_is_defined_in_the_package():
    defined = set().union(*(_defined_names(ast.parse(p.read_text(encoding="utf-8")))
                            for p in PACKAGE))
    assert [name for name in PER_FRAME_PATH if name not in defined] == []


def test_the_definition_check_names_each_kind_of_definition():
    tree = ast.parse(
        "import os\nfrom m import g\nX, (Y, Z) = 1, (2, 3)\nclass C:\n    field: int = 0\n"
        "    def method(self):\n        local = 3\n        return local\n"
        "async def f(a):\n    return g(a)\nos.path.join(a)\n"
    )
    assert _defined_names(tree) == {"X", "Y", "Z", "C", "field", "method", "f"}


# The plain references in tests/oracles.py: the per-frame scorer, the frame
# table it scores, and synth's study.
REFERENCES = ["brute_force_jva_count", "reference_frame_table", "reference_synth"]


def _package_names_reached(tree: ast.Module, functions) -> list[str]:
    """``line N: name`` of each name imported from ``teamgaze`` that one of
    ``functions`` reads, or a module-level definition they read, in turn."""
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and (getattr(node, "module", None) or node.names[0].name).split(".")[0] == "teamgaze"
        for alias in node.names
    }
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                defined.update((n.id, node) for n in ast.walk(target) if isinstance(n, ast.Name))
    todo, seen, found = list(functions), set(), set()
    while todo:
        if (name := todo.pop()) in seen:
            continue
        seen.add(name)
        for node in ast.walk(defined[name]):
            if isinstance(node, ast.Name) and node.id in imported:
                found.add(f"line {node.lineno}: {node.id}")
            elif isinstance(node, ast.Name) and node.id in defined:
                todo.append(node.id)
    return sorted(found)


def test_the_per_frame_reference_uses_no_package_name():
    oracles = ast.parse((ROOT / "tests" / "oracles.py").read_text(encoding="utf-8"))
    assert _package_names_reached(oracles, REFERENCES) == []


def test_the_package_name_check_follows_module_level_definitions():
    tree = ast.parse(
        "import math\nfrom teamgaze import jva\nfrom teamgaze.model import Group as G\n"
        "LIMIT = jva.REFERENCE_DIAGONAL\ndef helper():\n    return LIMIT + G\n"
        "def reference(x):\n    return math.hypot(x, helper())\n"
        "def other():\n    return jva\n"
    )
    assert _package_names_reached(tree, ["reference"]) == ["line 4: jva", "line 6: G"]


def test_report_formats_and_synth_truth_are_stated_once():
    """The CLI takes the report format names from ``io_report.REPORT_FORMATS``,
    and ``ground_truth.json`` is synth's only form of the truth."""
    cli = ast.parse((ROOT / "src" / "teamgaze" / "cli.py").read_text(encoding="utf-8"))
    literals = {
        node.value for node in ast.walk(cli)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    assert not literals & set(io_report.REPORT_FORMATS)
    named = [path.name for path in PACKAGE if "GroundTruth" in path.read_text(encoding="utf-8")]
    assert not named


def test_the_text_read_check_names_each_text_mode_read():
    tree = ast.parse(
        "open(p)\nopen(p, 'rb')\nopen(p, 'w')\nopen(p, mode='r+')\n"
        "Path(p).read_text()\nPath(p).read_bytes()\nPath(p).open()\n"
        "Path(p).open('rb')\nopen(p, m)\nopen(p, 'wb')\n"
    )
    assert _text_reads(tree) == [
        "line 1: open", "line 4: open", "line 5: read_text", "line 7: open", "line 9: open"
    ]


def test_no_line_is_longer_than_the_limit():
    files = [*PACKAGE, *sorted((ROOT / "tests").glob("*.py"))]
    long_lines = [
        f"{path.relative_to(ROOT)}:{number} ({len(line)} characters)"
        for path in files
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > LONGEST_LINE
    ]
    assert not long_lines, long_lines
