"""The benchmark's self-check: every workload at a tiny size, traced and
untraced, with each job's report digest compared to bench/golden.json.

This gates report drift in the ordinary test run: a kernel change that
alters any generator list, count, measure or report fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_self_check_matches_golden_digests():
    proc = subprocess.run([sys.executable, "bench/run.py", "--self-check"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "self-check ok" in proc.stdout
