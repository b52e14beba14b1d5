"""The benchmark's self-test: pinned work counts on a tenth of every workload.

It fails when a certified count (squares, checked, fillers, output cells)
moves, when the two traced runs disagree, or when a traced layer is no
longer reached.  A moved work count is only printed as a diff.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    done = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "selftest ok" in done.stdout
