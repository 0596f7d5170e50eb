"""One benchmark run of one workload, in a process of its own.

``run.py`` starts this script.  It imports ``cantorforge`` from the
checkout's ``src/``, writes the workload's scenario configs, prints
``ready`` and then runs passes over the configs until ``--seconds`` have
gone by.  Each pass calls ``cantorforge.cli.run_scenario`` once per
operation with ``threads=1``.  Only the passes are timed; the reports
are checked after each pass.  The first pass checks every report in
full (see checks.py), and later passes must write the same bytes again.

With ``--trace 0`` the last line of output holds ``run_s``, the median
pass time, and ``peak_rss_mb``.  With ``--trace 1`` untraced and traced
passes alternate; the line holds the per-layer figures of the traced
passes (median times, counts of the first traced pass) and the tracing
overhead, the traced median minus the untraced one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

from cantorforge import cli, nested_rd  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
from metrics import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS, make_ops  # noqa: E402


def _src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py")))


def _run_op(op) -> list[str]:
    """Run one operation; a non-empty result means the operation failed."""
    report_path = op["report_path"]
    if os.path.exists(report_path):
        os.remove(report_path)
    try:
        _, code = cli.run_scenario(op["config_path"], out_path=report_path, threads=1)
        failures = [] if code == 0 else [f"exit code {code}"]
        if op["verify"]:
            with open(report_path, encoding="utf-8") as fh:
                certificate = json.load(fh)["results"]["certificate"]
            _, problems = nested_rd.verify_certificate(certificate)
            failures += [f"verify_certificate: {p}" for p in problems]
    except Exception:  # a traceback from the program is a failed operation
        return [traceback.format_exc()]
    return failures


class Runner:
    """Runs passes over the operations and counts what was attempted and failed."""

    def __init__(self, ops):
        self.ops = ops
        self.digests: dict[str, str] = {}
        self.told: set[str] = set()  # operations whose failure is already printed
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def run_pass(self) -> float:
        """Time one pass, then check its reports; returns the pass time."""
        started = time.perf_counter()
        outcomes = [_run_op(op) for op in self.ops]
        elapsed = time.perf_counter() - started
        for op, failures in zip(self.ops, outcomes):
            self.attempted += 1
            problems = self._check(op) if os.path.exists(op["report_path"]) else []
            if problems:
                self.correct = False
            if failures or problems:
                self.failed += 1
                if op["name"] not in self.told:
                    self.told.add(op["name"])
                    for line in (failures + problems)[:5]:
                        print(f"{op['name']}: {line.rstrip()}", file=sys.stderr)
        return elapsed

    def _check(self, op) -> list[str]:
        data = Path(op["report_path"]).read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        first = self.digests.get(op["name"])
        if first is None:
            self.digests[op["name"]] = digest
            return checks.check_report(op, json.loads(data))
        return [] if first == digest else ["report differs from the one of the first pass"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    work = HERE / "out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        ops = make_ops(args.workload, args.seed, args.tiny)
        for i, op in enumerate(ops):
            op["config_path"] = str(work / f"op{i}.json")
            op["report_path"] = str(work / f"op{i}.report.json")
            with open(op["config_path"], "w", encoding="utf-8") as fh:
                json.dump(op["config"], fh)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        result = _measure(args, Runner(ops))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


def _measure(args, runner: Runner) -> dict:
    plain: list[float] = []
    traced: list[float] = []
    layers: list[dict] = []
    tracer = None
    started = time.perf_counter()
    while True:
        if args.trace and len(plain) > len(traced):
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced.append(runner.run_pass())
            finally:
                tracer.uninstall()
            layers.append(tracer.layer_metrics())
        else:
            plain.append(runner.run_pass())
        timed_out = time.perf_counter() - started >= args.seconds
        if timed_out and (not args.trace or len(traced) == len(plain)):
            break
    result = {"attempted": runner.attempted, "failed": runner.failed, "correct": runner.correct}
    if not args.trace:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["metrics"] = {"run_s": statistics.median(plain), "peak_rss_mb": peak_mb}
        return result
    metrics = {}
    for name, unit in LAYER_METRICS:
        values = [layer[name] for layer in layers if name in layer]
        if values and unit == "s":
            metrics[name] = statistics.median(values)
        elif values:
            metrics[name] = values[0]
            if any(v != values[0] for v in values):
                print(f"count {name} differs between traced passes: {values}", file=sys.stderr)
    metrics["src.lines"] = _src_lines()
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    result["metrics"] = metrics
    tracer.dump(HERE / "out" / f"trace-{args.workload}-{args.seed}.json",
                workload=args.workload, seed=args.seed)
    return result


if __name__ == "__main__":
    sys.exit(main())
