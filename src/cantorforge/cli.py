"""Batch front-end: scenario configs in, canonical JSON reports out.

Every pipeline is a thin wrapper over the library; the CLI adds no
mathematics.  Reports are canonical JSON (sorted keys, no whitespace,
rationals as [num, den] pairs, no floats) so that identical configs on
identical versions produce byte-identical files.  The timing field stays
null unless --timing is passed, precisely to keep that guarantee.

Exit codes: 0 clean run, 2 a certificate or verification failed (the
report is still written, with the failure inside), 1 usage or config
problems.  ``cantor-forge verify REPORT`` re-checks the certificate of a
saved report: 0 when it verifies, 2 with the problems on stderr when it
does not, 1 when the report holds no certificate or is not JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import __version__
from .cantor1d import (
    CantorForgeError,
    Interval,
    SymmetricGapTree,
    affine_image,
    build_binary_ifs,
    canonical_json,
    middle_thirds,
    rat_pair,
    tree_from_json_obj,
    write_intervals_csv,
)
from .containment1d import (
    PerturbationSpec,
    build_companion,
    certify_difference_interior,
    check_dominance,
    find_chain,
    grid_values,
    robustness_sweep,
)
from .nested_rd import (
    ProductGeometry,
    RotationMatrix,
    build_nested_rep,
    rotation_search,
    und_certificate,
    verify_certificate,
)
from .containment_rd import (
    build_product_companion,
    certify_sum_interior_rd,
    find_chain_rd,
    separation_sequence,
)
from .applications import erdos_obstruction, pinned_distance_demo
from .dyadic import precision_bits

__all__ = ["ConfigError", "KindMismatch", "run_scenario", "emit_geometry", "main"]

PIPELINES = (
    "companion-1d",
    "interior-1d",
    "sweep-1d",
    "nondegeneracy",
    "rotate-fix",
    "companion-rd",
    "interior-rd",
    "distance-demo",
    "erdos-demo",
)


class ConfigError(CantorForgeError):
    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"config field {field!r}: {message}")


class KindMismatch(CantorForgeError):
    pass


# --------------------------------------------------------------------------
# config parsing helpers

def _rat(obj, field) -> Fraction:
    try:
        if isinstance(obj, bool):
            raise TypeError("booleans are not numbers here")
        if isinstance(obj, int):
            return Fraction(obj)
        if isinstance(obj, str):
            return Fraction(obj)
        if isinstance(obj, (list, tuple)) and len(obj) == 2:
            return Fraction(int(obj[0]), int(obj[1]))
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ConfigError(field, f"bad rational {obj!r}: {exc}") from None
    raise ConfigError(field, f"expected int, 'p/q' string or [num, den], got {obj!r}")


def _interval(obj, field) -> Interval:
    if not isinstance(obj, (list, tuple)) or len(obj) != 2:
        raise ConfigError(field, f"expected [lo, hi], got {obj!r}")
    try:
        return Interval(_rat(obj[0], field), _rat(obj[1], field))
    except ValueError as exc:
        raise ConfigError(field, str(exc)) from None


def _build_set(spec, field):
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(field, "expected an object with a 'kind'")
    kind = spec["kind"]
    if kind == "middle-thirds":
        depth = int(spec.get("depth", 20))
        hull = _interval(spec["hull"], field + ".hull") if "hull" in spec else None
        return middle_thirds(depth, hull)
    if kind == "binary-ifs":
        return build_binary_ifs(
            _interval(spec["hull"], field + ".hull"),
            _rat(spec["ratio"], field + ".ratio"),
            int(spec["depth"]),
        )
    if kind == "symmetric":
        hull = _interval(spec["hull"], field + ".hull")
        gaps = tuple(_rat(g, field + ".gaps") for g in spec["gaps"])
        return SymmetricGapTree(hull, gaps)
    if kind == "explicit":
        return tree_from_json_obj(spec["tree"])
    raise ConfigError(field, f"unknown set kind {kind!r}")


def _build_matrix(spec, dim, seed, field, bits):
    if spec is None or spec == "identity":
        return None
    if spec == "axis-mixing":
        return RotationMatrix.axis_mixing(dim, bits)
    if isinstance(spec, dict) and spec.get("kind") == "quasi-random":
        return RotationMatrix.quasi_random(dim, int(spec.get("seed", seed)), bits)
    if isinstance(spec, list):
        rows = [[_rat(e, field) for e in row] for row in spec]
        return RotationMatrix("config", rows)
    raise ConfigError(field, f"unknown matrix spec {spec!r}")


def _build_geometry(spec, seed, bits, field="geometry") -> ProductGeometry:
    if not isinstance(spec, dict) or "factors" not in spec:
        raise ConfigError(field, "expected an object with 'factors'")
    factors = []
    for i, fs in enumerate(spec["factors"]):
        sub = f"{field}.factors[{i}]"
        if isinstance(fs, dict) and fs.get("kind") == "point":
            factors.append(_rat(fs["value"], sub))
        else:
            factors.append(_build_set(fs, sub))
    matrix = _build_matrix(spec.get("matrix"), len(factors), seed, field + ".matrix", bits)
    shift = None
    if spec.get("shift") is not None:
        shift = tuple(_rat(s, field + ".shift") for s in spec["shift"])
    return ProductGeometry(factors, matrix=matrix, shift=shift)


def _interval_pair(iv: Interval):
    return {"lo": rat_pair(iv.lo), "hi": rat_pair(iv.hi)}


def _family_from_config(spec, field):
    if isinstance(spec, list):
        return [(_rat(p[0], field), _rat(p[1], field)) for p in spec]
    if isinstance(spec, dict) and spec.get("kind") == "demo-grid":
        count = int(spec.get("count", 100))
        lam0 = _rat(spec.get("lambda_start", "99/100"), field)
        dlam = _rat(spec.get("lambda_step", "1/5000"), field)
        dt = _rat(spec.get("t_step", "1/20"), field)
        return [(lam0 + i * dlam, i * dt) for i in range(count)]
    raise ConfigError(field, "expected a map list or a demo-grid object")


# --------------------------------------------------------------------------
# pipelines

def _boxes_geometry(cert):
    boxes = []

    def walk(node):
        for comp in node.components:
            boxes.append(
                {
                    "path": comp.path,
                    "level": comp.level,
                    "box": [[rat_pair(iv.lo), rat_pair(iv.hi)] for iv in comp.bbox],
                }
            )
        for child in node.children:
            walk(child)

    walk(cert.root)
    return {"kind": "boxes", "boxes": boxes}


def _set_and_companion(params):
    """The set of a 1-D pipeline, its level count and its companion."""
    k = _build_set(params["set"], "params.set")
    levels = int(params.get("levels", 20))
    kt = build_companion(
        k,
        levels,
        _rat(params.get("margin", "1/10"), "params.margin"),
        _rat(params.get("factor", "1/2"), "params.factor"),
    )
    return k, levels, kt


def _pipe_companion_1d(params, ctx):
    k, levels, kt = _set_and_companion(params)
    dom = check_dominance(k, kt, levels)
    results = {"dominance": dom.to_json_obj()}
    ok = dom.overall
    if ok:
        chain = find_chain(k, kt, levels)
        results["chain"] = chain.to_json_obj()
        interior = certify_difference_interior(k, kt, levels)
        results["interior"] = _interval_pair(interior)
        results["slack_lambda"] = rat_pair(dom.slack)
    return results, kt.to_json_obj(), ok


def _pipe_interior_1d(params, ctx):
    k, levels, kt = _set_and_companion(params)
    interior = certify_difference_interior(k, kt, levels)
    count = int(params.get("grid", 101))
    points = []
    worst = Fraction(0)
    ok = True
    for t in grid_values(interior, count):
        moved = affine_image(kt, Fraction(1), t)
        try:
            chain = find_chain(k, moved, levels)
        except CantorForgeError as exc:
            points.append({"t": rat_pair(t), "ok": False, "reason": str(exc)})
            ok = False
            continue
        worst = max(worst, chain.bound)
        points.append({"t": rat_pair(t), "ok": True, "bound": rat_pair(chain.bound)})
    results = {
        "interior": _interval_pair(interior),
        "grid": count,
        "points": points,
        "max_bound": rat_pair(worst),
        "all_ok": ok,
    }
    return results, kt.to_json_obj(), ok


def _pipe_sweep_1d(params, ctx):
    k, levels, kt = _set_and_companion(params)
    pert = PerturbationSpec(
        _interval(params["lambda_range"], "params.lambda_range"),
        _interval(params["t_range"], "params.t_range"),
        int(params.get("lambda_count", 21)),
        int(params.get("t_count", 21)),
    )
    sweep = robustness_sweep(k, kt, pert, levels)
    return {"sweep": sweep.to_json_obj()}, kt.to_json_obj(), sweep.all_ok


def _cert_from_params(params, ctx, keep_cells):
    geom = _build_geometry(params["geometry"], ctx["seed"], ctx["bits"])
    rep = build_nested_rep(
        geom,
        int(params.get("m0", 2)),
        int(params["max_level"]),
        int(params.get("refine_step", 2)),
        bits=ctx["bits"],
    )
    kappa = params.get("kappa")
    cert = und_certificate(
        rep,
        kappa=None if kappa is None else _rat(kappa, "params.kappa"),
        max_k=int(params.get("max_k", 2)),
        depth=int(params.get("depth", 1)),
        keep_cells=keep_cells,
    )
    return rep, cert


def _cert_and_companion(params, ctx):
    """Certificate of an R^d pipeline, its floors d_k, the product
    companion built on them and the level count."""
    rep, cert = _cert_from_params(params, ctx, keep_cells=bool(params.get("keep_cells", False)))
    seps = separation_sequence(cert)
    companion = build_product_companion(
        rep.exact_hull,
        seps,
        _rat(params.get("shrink", "1/2"), "params.shrink"),
        _rat(params.get("companion_margin", "1/10"), "params.companion_margin"),
    )
    levels = int(params.get("levels", cert.depth))
    return cert, seps, companion, levels


def _pipe_nondegeneracy(params, ctx):
    rep, cert = _cert_from_params(params, ctx, keep_cells=True)
    seps = separation_sequence(cert)
    results = {
        "certificate": cert.to_json_obj(),
        "dk": seps.to_json_obj(),
    }
    return results, _boxes_geometry(cert), True


def _pipe_rotate_fix(params, ctx):
    geom = _build_geometry(params["geometry"], ctx["seed"], ctx["bits"])
    kappa = params.get("kappa")
    result = rotation_search(
        geom,
        kappa=None if kappa is None else _rat(kappa, "params.kappa"),
        max_k=int(params.get("max_k", 2)),
        depth=int(params.get("depth", 1)),
        m0=int(params.get("m0", 2)),
        max_level=int(params["max_level"]),
        refine_step=int(params.get("refine_step", 2)),
        bits=ctx["bits"],
        seed=ctx["seed"],
    )
    seps = separation_sequence(result.certificate)
    results = {
        "chosen": {"index": result.index, "name": result.matrix.name},
        "failures": [{"candidate": n, "reason": r} for n, r in result.failures],
        "certificate": result.certificate.to_json_obj(),
        "dk": seps.to_json_obj(),
    }
    return results, _boxes_geometry(result.certificate), True


def _pipe_companion_rd(params, ctx):
    cert, seps, companion, levels = _cert_and_companion(params, ctx)
    chain = find_chain_rd(cert, companion, levels, bits=ctx["bits"])
    box = certify_sum_interior_rd(cert, companion, levels)
    results = {
        "dk": seps.to_json_obj(),
        "companion": companion.to_json_obj(),
        "chain": chain.to_json_obj(),
        "interior_box": [_interval_pair(iv) for iv in box],
    }
    return results, _boxes_geometry(cert), True


def _pipe_interior_rd(params, ctx):
    cert, seps, companion, levels = _cert_and_companion(params, ctx)
    box = certify_sum_interior_rd(cert, companion, levels)
    count = int(params.get("grid", 5))
    axes = [grid_values(iv, count) for iv in box]
    points = []
    ok = True
    worst = Fraction(0)
    grid = [[]]
    for values in axes:
        grid = [g + [v] for g in grid for v in values]
    for t in grid:
        try:
            chain = find_chain_rd(cert, companion, levels, translate=t, bits=ctx["bits"])
        except CantorForgeError as exc:
            points.append({"t": [rat_pair(x) for x in t], "ok": False, "reason": str(exc)})
            ok = False
            continue
        worst = max(worst, chain.bound)
        points.append({"t": [rat_pair(x) for x in t], "ok": True, "bound": rat_pair(chain.bound)})
    results = {
        "dk": seps.to_json_obj(),
        "interior_box": [_interval_pair(iv) for iv in box],
        "grid": count,
        "points": points,
        "max_bound": rat_pair(worst),
        "all_ok": ok,
    }
    return results, _boxes_geometry(cert), ok


def _pipe_distance_demo(params, ctx):
    c_range = None
    if "c_range" in params:
        c_range = _interval(params["c_range"], "params.c_range")
    report = pinned_distance_demo(
        alpha=_rat(params.get("alpha", 2), "params.alpha"),
        dimension=int(params.get("dimension", 2)),
        depth=int(params.get("depth", 12)),
        c_range=c_range,
        grid=int(params.get("grid", 101)),
        tol=_rat(params.get("tol", "1/100000000"), "params.tol"),
        bits=ctx["bits"],
    )
    return {"distance": report.to_json_obj()}, None, report.interior.all_ok


def _pipe_erdos_demo(params, ctx):
    k = _build_set(params["set"], "params.set")
    levels = int(params.get("levels", 12))
    margin = _rat(params.get("margin", "1/10"), "params.margin")
    factor = _rat(params.get("factor", "1/2"), "params.factor")
    family = _family_from_config(params["family"], "params.family")
    report = erdos_obstruction(
        k,
        family,
        _interval(params["window"], "params.window"),
        levels,
        margin=margin,
        factor=factor,
    )
    return {"obstruction": report.to_json_obj()}, report.companion.to_json_obj(), report.all_ok


_HANDLERS = {
    "companion-1d": _pipe_companion_1d,
    "interior-1d": _pipe_interior_1d,
    "sweep-1d": _pipe_sweep_1d,
    "nondegeneracy": _pipe_nondegeneracy,
    "rotate-fix": _pipe_rotate_fix,
    "companion-rd": _pipe_companion_rd,
    "interior-rd": _pipe_interior_rd,
    "distance-demo": _pipe_distance_demo,
    "erdos-demo": _pipe_erdos_demo,
}


# --------------------------------------------------------------------------
# entry points

def run_scenario(config_path, out_path=None, seed=None, threads=1, timing=False, bits=None):
    """Execute one scenario; returns (report dict, exit code).

    ``threads`` is accepted and ignored; every map runs serially.  The
    precision is ``bits``, else the config's ``precision_bits``, else 64;
    the process environment is not read.
    """
    try:
        with open(config_path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ConfigError("<file>", str(exc)) from None
    except json.JSONDecodeError as exc:
        raise ConfigError("<json>", f"line {exc.lineno}: {exc.msg}") from None
    if not isinstance(config, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    pipeline = config.get("pipeline")
    if pipeline not in PIPELINES:
        raise ConfigError("pipeline", f"unknown pipeline {pipeline!r}")
    params = config.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("params", "must be an object")
    eff_seed = seed if seed is not None else int(config.get("seed", 0))
    # Checked before the pipeline, so a bad value is a ConfigError (exit 1).
    if bits is None:
        bits = config.get("precision_bits")
    try:
        eff_bits = precision_bits(bits)
    except (TypeError, ValueError) as exc:
        raise ConfigError("precision_bits", str(exc)) from None

    started = time.monotonic()
    ctx = {"seed": eff_seed, "bits": eff_bits}
    try:
        results, geometry, ok = _HANDLERS[pipeline](params, ctx)
    except ConfigError:
        raise
    except CantorForgeError as exc:
        results = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        geometry, ok = None, False
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError("params", f"{type(exc).__name__}: {exc}") from None
    elapsed = time.monotonic() - started

    report = {
        "tool": "cantor-forge",
        "version": __version__,
        "pipeline": pipeline,
        "seed": eff_seed,
        "precision_bits": eff_bits,
        "status": "ok" if ok else "failed",
        "timing_seconds": round(elapsed, 6) if timing else None,
        "config": config,
        "results": results,
        "geometry": geometry,
    }
    payload = canonical_json(report) + "\n"
    if out_path is None:
        sys.stdout.write(payload)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(payload)
    return report, (0 if ok else 2)


def emit_geometry(report_or_tree, fmt, fileobj, level=None) -> int:
    """Write plot-ready CSV for the geometry of a report (or a bare tree).

    csv-intervals wants gap-tree geometry, csv-boxes wants component boxes;
    anything else is a KindMismatch.  Returns the number of data rows.
    """
    obj = report_or_tree
    if isinstance(obj, dict) and "geometry" in obj and obj.get("kind") is None:
        obj = obj["geometry"]
    if not isinstance(obj, dict) or "kind" not in obj:
        raise KindMismatch("input carries no typed geometry")
    kind = obj["kind"]
    if fmt == "csv-intervals":
        if kind != "gap-tree":
            raise KindMismatch(f"csv-intervals needs gap-tree geometry, got {kind!r}")
        tree = tree_from_json_obj(obj)
        return write_intervals_csv(tree, tree.depth if level is None else level, fileobj)
    if fmt == "csv-boxes":
        if kind != "boxes":
            raise KindMismatch(f"csv-boxes needs component-box geometry, got {kind!r}")
        fileobj.write("path,level,axis,lo_num,lo_den,hi_num,hi_den\n")
        rows = 0
        for box in obj["boxes"]:
            if level is not None and box["level"] != level:
                continue
            for axis, (lo, hi) in enumerate(box["box"]):
                fileobj.write(
                    f"{box['path']},{box['level']},{axis},"
                    f"{lo[0]},{lo[1]},{hi[0]},{hi[1]}\n"
                )
                rows += 1
        return rows
    raise KindMismatch(f"unknown format {fmt!r}")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors, which would collide with the
    # "verification failed" code; remap to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def main(argv=None) -> int:
    parser = _Parser(prog="cantor-forge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="report path (default: stdout)")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--threads", type=int, default=1, help="accepted; maps run serially")
    p_run.add_argument("--timing", action="store_true", help="record wall time (breaks byte-identity)")
    p_run.add_argument("--precision-bits", type=int, default=None)

    p_verify = sub.add_parser("verify", help="re-check the certificate of a saved report")
    p_verify.add_argument("report")

    p_dump = sub.add_parser("dump", help="export report geometry as CSV")
    p_dump.add_argument("report")
    p_dump.add_argument("--format", required=True, choices=["csv-intervals", "csv-boxes"])
    p_dump.add_argument("--level", type=int, default=None)
    p_dump.add_argument("--out", default=None, help="CSV path (default: stdout)")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            _, code = run_scenario(
                args.config,
                out_path=args.out,
                seed=args.seed,
                threads=args.threads,
                timing=args.timing,
                bits=args.precision_bits,
            )
            return code
        with open(args.report, "r", encoding="utf-8") as fh:
            report = json.load(fh)
        if args.command == "verify":
            results = report.get("results") if isinstance(report, dict) else None
            certificate = results.get("certificate") if isinstance(results, dict) else None
            if certificate is None:
                raise KindMismatch("report carries no certificate")
            ok, problems = verify_certificate(certificate)
            for problem in problems:
                print(f"cantor-forge: {problem}", file=sys.stderr)
            return 0 if ok else 2
        if args.out is None:
            emit_geometry(report, args.format, sys.stdout, level=args.level)
        else:
            with open(args.out, "w", encoding="utf-8") as fh:
                emit_geometry(report, args.format, fh, level=args.level)
        return 0
    except (ConfigError, KindMismatch) as exc:
        print(f"cantor-forge: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cantor-forge: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"cantor-forge: bad JSON in input: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
