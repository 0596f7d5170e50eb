"""The benchmark's own smoke test, run as part of the suite.

``bench/smoke_test.py`` runs every workload at tiny sizes, re-derives
d_k, boxes and ratio bounds without importing ``cantorforge``, and checks
that tampered reports are rejected.  It must exit 0.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_smoke_test_passes():
    run = subprocess.run(
        [sys.executable, "bench/smoke_test.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
