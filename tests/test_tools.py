"""The mutation harness still finds a known mutant and leaves ``src/`` alone."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_mutation_harness_self_check():
    # one known mutant of the stencil, in a temporary copy of the package,
    # against a few ids: the original passes, the mutant fails, src/ is
    # byte for byte what it was
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "mutate.py"), "--self-check"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
