"""The benchmark's own smoke test, run as part of the suite.

``bench/smoke_test.py`` runs every workload at tiny sizes, re-derives
d_k, boxes and ratio bounds without importing ``cantorforge``, and checks
that tampered reports are rejected.  It must exit 0.  The tracer of
``bench/spans.py`` binds ``cantorforge`` names by attribute; a fast test
installs and uninstalls it, so a renamed name fails in a second, not
only inside the smoke run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _bound(owner, attr):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def test_every_name_the_tracer_binds_resolves():
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import spans
    finally:
        sys.path.remove(str(ROOT / "bench"))
    tracer = spans.Tracer()
    # install reads every name it wraps and raises on one that is gone
    tracer.install()
    try:
        patches = list(tracer._patches)
        assert patches
        for owner, attr, original in patches:
            assert _bound(owner, attr) is not original, attr
    finally:
        tracer.uninstall()
    for owner, attr, original in patches:
        assert _bound(owner, attr) is original, attr


def test_bench_smoke_test_passes():
    run = subprocess.run(
        [sys.executable, "bench/smoke_test.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
