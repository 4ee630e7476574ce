"""The benchmark harness still drives every workload through the package."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_self_check():
    # every workload at tiny size, untraced, traced and under tracemalloc;
    # fails when a workload check or a traced function name goes stale
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "run.py"), "--self-check"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
