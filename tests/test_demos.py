"""Each demo script runs to completion against the source tree, README
lists each one, in order, and each package name README's code spans give
exists."""

import ast
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


def _readme_demos(readme: str) -> list[str]:
    """The file names of the ``python3 demos/...`` lines of the ``## Demos``
    section, in order."""
    block = readme.split("\n## Demos\n")[1]
    return re.findall(r"^python3 demos/(\S+)$", block.split("\n## ")[0], re.MULTILINE)


def test_readme_lists_each_demo_in_order():
    listed = _readme_demos((ROOT / "README.md").read_text(encoding="utf-8"))
    assert listed == [demo.name for demo in DEMOS]


def test_the_readme_demo_check_reads_only_the_demos_section():
    readme = (
        "# t\n\npython3 demos/00_before.py\n\n## Demos\n\n```sh\n"
        "python3 demos/02_deleted.py\npython3 demos/01_kept.py\n"
        "  python3 demos/03_indented.py\n```\n\n## Next\n\npython3 demos/04_after.py\n"
    )
    assert _readme_demos(readme) == ["02_deleted.py", "01_kept.py"]


MODULES = {p.stem for p in (ROOT / "src" / "teamgaze").glob("*.py")} - {"__init__"}


def _readme_code_names(readme: str) -> list[str]:
    """The dotted names of package code in README's inline code spans that
    parse as Python and hold no ``/`` (not fenced blocks, paths, file names
    with a line, or shell lines): each ``teamgaze.<...>`` and
    ``<module>.<...>`` of a package module, as written."""
    prose = re.sub(r"^```.*?^```", "", readme, flags=re.DOTALL | re.MULTILINE)
    names = set()
    for span in re.findall(r"`([^`]+)`", prose):
        if "/" in span:
            continue
        try:
            tree = ast.parse(span)
        except SyntaxError:
            continue
        for node in ast.walk(tree):
            parts = []
            while isinstance(node, ast.Attribute):
                parts.insert(0, node.attr)
                node = node.value
            if parts and isinstance(node, ast.Name) and node.id in {"teamgaze", *MODULES}:
                names.add(".".join([node.id, *parts]))
    return sorted(names)


def _missing_names(names: list[str]) -> list[str]:
    """Each of ``names`` that does not import or resolve with ``getattr``."""
    missing = []
    for name in names:
        try:
            pkgutil.resolve_name(name if name.startswith("teamgaze.") else "teamgaze." + name)
        except (ImportError, AttributeError):
            missing.append(name)
    return missing


def test_readme_names_only_code_that_exists():
    names = _readme_code_names((ROOT / "README.md").read_text(encoding="utf-8"))
    assert "teamgaze.model" in names
    assert _missing_names(names) == []


def test_the_readme_name_check_names_a_missing_function():
    readme = (
        "# t\n\n- `teamgaze.jva` scores with `jva.team_jva_counts` and\n"
        "  `jva.score_pair`; `teamgaze.synth.generate(spec, out_dir)`\n"
        "  writes files. `jva.conf:2: unknown key` and `src/teamgaze/jva.py`\n"
        "  name files, `Point2D.x` no module.\n\n```sh\npython3 -m teamgaze.nothing\n```\n"
        "\nThen `teamgaze.model`.\n"
    )
    names = _readme_code_names(readme)
    assert names == [
        "jva.score_pair", "jva.team_jva_counts", "teamgaze.jva", "teamgaze.model",
        "teamgaze.synth", "teamgaze.synth.generate",
    ]
    assert _missing_names(names) == ["jva.score_pair"]
