"""Every script under ``demos/`` runs to completion, and every public
name a module lists exists.

The demos import the package's public names, so a rename or a deleted
name shows up here as a failed run rather than in a reader's terminal.
Each script runs in its own interpreter with ``src/`` on the path.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.stem)
def test_demo_script_exits_cleanly(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]


@pytest.mark.parametrize("module", ["cli", "containment_rd", "applications"])
def test_all_names_resolve(module):
    # a stale __all__ entry breaks ``from module import *``
    mod = importlib.import_module(f"cantorforge.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
