"""Source checks a linter would make, with the standard library only.

Every module-level import in the package is used in its module or named
in its ``__all__``, and no line of the package or the tests is longer than
98 characters.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "teamgaze").glob("*.py"))
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


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
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


def test_no_line_is_longer_than_the_limit():
    files = [*PACKAGE, *sorted((ROOT / "tests").glob("*.py"))]
    long_lines = [
        f"{path.relative_to(ROOT)}:{number} ({len(line)} characters)"
        for path in files
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > LONGEST_LINE
    ]
    assert not long_lines, long_lines
