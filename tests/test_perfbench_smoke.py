"""The benchmark's traced pass runs once on the paper workload.

The traced pass calls the per-frame path (``load_frames``,
``build_sessions``, ``session_jva``, ``validate_session``) and checks the
JSON report against ``perfbench/oracle.py``, so a change to ``src/`` that
breaks either shows up here rather than only in a benchmark run. The run
writes under ``.perfbench_work/`` only.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_paper_pass_is_correct():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper", "--seed", "19",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.splitlines()[-1])
    assert last["correct"] is True
    assert last["failed"] == 0
