"""The benchmark's self-test passes against this checkout.

perfbench reads the LP through ``col_names``, ``row_names``, ``rows``,
``senses``, ``rhs``, ``lo``, ``hi``, ``obj``, ``col()`` and ``stats()``;
its self-test builds, exports, imports and checks small LPs with them.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
