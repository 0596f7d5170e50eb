"""Every script under ``demos/`` runs to completion, the README's
library block prints what its comment says, and every public name a
module lists exists.

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


def run_python(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.stem)
def test_demo_script_exits_cleanly(script, tmp_path):
    run = run_python([str(script)], tmp_path)
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]


def test_readme_library_block_prints_its_comment(tmp_path):
    # the "Library in five lines" block states its output in a comment
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library in five lines", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    expected = [line.split("# ", 1)[1].strip() for line in code.splitlines() if "print(" in line]
    assert expected
    run = run_python(["-c", code], tmp_path)
    assert run.returncode == 0, run.stderr[-2000:]
    assert run.stdout.splitlines() == expected


@pytest.mark.parametrize("module", ["cli", "containment_rd", "applications"])
def test_all_names_resolve(module):
    # a stale __all__ entry breaks ``from module import *``
    mod = importlib.import_module(f"cantorforge.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
