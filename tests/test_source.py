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
