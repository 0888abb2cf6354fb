import subprocess
import sys
from pathlib import Path

import cmtrf

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    missing = [name for name in cmtrf.__all__ if not hasattr(cmtrf, name)]
    assert missing == []


def test_bench_selftest_passes():
    # The self-test fails when a layer the benchmark wraps is renamed away.
    proc = subprocess.run(
        [sys.executable, "bench/selftest.py"], cwd=ROOT,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
