"""Benchmark of cantor-forge's certificate pipelines, end to end.

Run from the root of a checkout:

    python3 bench/run.py --workload deep-square --seed 1 --seconds 20 --trace 0

The workload runs in a child process (child.py) that imports
``cantorforge`` from ``src/`` and runs its scenarios through
``cantorforge.cli.run_scenario``.  The last line of output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
with ``--trace 0`` the end-to-end metrics ``run_s``, ``peak_rss_mb`` and
``setup_s``, with ``--trace 1`` the per-layer metrics.  Every metric
carries its unit.  ``setup_s`` is the median, over several children, of
the time from starting a child until it is ready to run: interpreter
start, ``import cantorforge`` and writing the scenario configs.

The exit code is 0 only when a result was printed.  See README.md for the
workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 7  # setup_s is the median of this many children
DEADLINE_S = 170  # every run ends well inside three minutes


class ChildFailed(Exception):
    pass


def _start(cmd):
    """Start a child and wait for its ``ready`` line; returns it and the setup time."""
    started = time.perf_counter()
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    line = child.stdout.readline()
    setup = time.perf_counter() - started
    if line.strip() != "ready":
        _stop(child)
        raise ChildFailed(f"child did not get ready (exit code {child.returncode})")
    return child, setup


def _stop(child):
    if child.poll() is None:
        child.kill()
    child.wait()
    child.stdout.close()


def _finish(child, deadline) -> str:
    try:
        out, _ = child.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        _stop(child)
        raise ChildFailed("child ran past the deadline") from None
    if child.returncode != 0:
        raise ChildFailed(f"child exited with code {child.returncode}")
    return out


def run(args) -> dict:
    deadline = time.perf_counter() + DEADLINE_S
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            probe, setup = _start(cmd + ["--seconds", "0", "--setup-only"])
            _finish(probe, deadline)
            setups.append(setup)
    child, setup = _start(cmd + ["--seconds", str(args.seconds), "--trace", str(args.trace)])
    setups.append(setup)
    lines = _finish(child, deadline).strip().splitlines()
    if not lines:
        raise ChildFailed("child printed no result")
    result = json.loads(lines[-1])
    values = result["metrics"]
    if not args.trace:
        values["setup_s"] = statistics.median(setups)
    units = LAYER_METRICS if args.trace else END_TO_END
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except (ChildFailed, OSError, ValueError, KeyError) as exc:
        print(f"bench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
