"""Each demo script runs to completion against the source tree, and
README lists each one, in order."""

import os
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
