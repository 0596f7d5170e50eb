"""Checks on the scenario reports, made apart from the program.

Every check recomputes what it compares from the report's own geometry
and from the inputs the benchmark generated, with exact ``Fraction``
arithmetic and the integer square root of the standard library.  Nothing
here imports ``cantorforge``: a check that shared the program's code
would share its faults.  Each check returns a list of problems; an empty
list means the report passed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from workloads import MARGIN, SHRINK


def rat(pair) -> Fraction:
    return Fraction(int(pair[0]), int(pair[1]))


def _box(pairs):
    return [(rat(lo), rat(hi)) for lo, hi in pairs]


def _axis_gap(a, b) -> Fraction:
    """Least axis gap between two boxes (0 when they overlap on an axis)."""
    return min(max(bl - ah, al - bh, Fraction(0)) for (al, ah), (bl, bh) in zip(a, b))


def _inside(inner, outer) -> bool:
    return all(ol <= il and ih <= oh for (il, ih), (ol, oh) in zip(inner, outer))


def _grid(lo: Fraction, hi: Fraction, count: int) -> list[Fraction]:
    if count == 1:
        return [lo]
    return [lo + i * (hi - lo) / (count - 1) for i in range(count)]


def _companion_length(hull_len: Fraction, gaps, levels: int) -> Fraction:
    """Level length of a symmetric companion, telescoped gap by gap."""
    length = hull_len
    for gap in gaps[:levels]:
        length = (length - gap) / 2
    return length


def _thirds_companion_length(n: int) -> Fraction:
    # middle thirds on a unit hull, margin 1/10, gap factor 1/2:
    # L_n = 2^-n (|hull| - (1/2)(1 - (2/3)^n)) = 2^-n (7/10 + (1/2)(2/3)^n)
    return (Fraction(7, 10) + Fraction(1, 2) * Fraction(2, 3) ** n) / 2**n


def _tenth_ifs_companion_length(n: int) -> Fraction:
    # binary IFS of ratio 1/10 on [0, 1], margin 1/10, gap factor 1/2:
    # gaps (2/5) 10^-k, so L_n = 2^-n (7/10 + (1/2) 5^-n)
    return (Fraction(7, 10) + Fraction(1, 2) * Fraction(1, 5) ** n) / 2**n


def _encloses_sqrt2(bound: Fraction, side: Fraction, bits: int) -> bool:
    """bound is the least multiple of 2^-bits above sqrt(2) * side."""
    target = 2 * side * side
    ulp = Fraction(1, 1 << bits)
    return bound >= 0 and bound * bound >= target and (bound - ulp) ** 2 <= target


def _sqrt_enclosure(q: Fraction, bits: int = 160) -> tuple[Fraction, Fraction]:
    scale = 1 << bits
    r = math.isqrt(q.numerator * scale * scale // q.denominator)
    return Fraction(r, scale), Fraction(r + 1, scale)


def _floor_dyadic(x: Fraction, bits: int) -> Fraction:
    return Fraction(math.floor(x * (1 << bits)), 1 << bits)


def _ceil_dyadic(x: Fraction, bits: int) -> Fraction:
    return Fraction(math.ceil(x * (1 << bits)), 1 << bits)


# ---------------------------------------------------------------------------
# certificate trees


def _tree_from_boxes(boxes, need: int, depth: int):
    """Rebuild the certificate tree from the depth-first box list that
    interior-rd exports: a node's components, then each child subtree."""
    pos = 0

    def node(level):
        nonlocal pos
        comps = boxes[pos:pos + need]
        pos += need
        if len(comps) != need:
            raise ValueError("box list ends inside a node")
        children = [node(level + 1) for _ in range(need)] if level < depth else []
        return {"comps": [(c["path"], _box(c["box"])) for c in comps], "children": children}

    root = node(1)
    if pos != len(boxes):
        raise ValueError(f"{len(boxes) - pos} boxes left over after depth {depth}")
    return root


def _check_box_tree(root, dk, problems):
    """d_k as the least axis gap within each node, and nesting of children."""
    levels: dict[int, Fraction] = {}

    def walk(node, level):
        comps = node["comps"]
        gap = min(_axis_gap(a[1], b[1]) for a, b in combinations(comps, 2))
        levels[level] = gap if level not in levels else min(levels[level], gap)
        for (cpath, cbox), child in zip(comps, node["children"]):
            for gpath, gbox in child["comps"]:
                if not gpath.startswith(cpath + "."):
                    problems.append(f"component {gpath} is not below {cpath}")
                if not _inside(gbox, cbox):
                    problems.append(f"box of {gpath} leaves its parent {cpath}")
            walk(child, level + 1)

    walk(root, 1)
    recomputed = [levels[k] for k in sorted(levels)]
    if recomputed != dk:
        problems.append(f"reported d_k differ from the least node gaps at levels "
                        f"{[k + 1 for k, (a, b) in enumerate(zip(recomputed, dk)) if a != b]}")


def _interval_mul(a, b):
    products = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return min(products), max(products)


def _image_hull(cells, rows):
    """Outer box of the cells' images under interval matrix rows."""
    hull = None
    for cell in cells:
        src = _box(cell)
        if rows is None:
            box = src
        else:
            box = []
            for row in rows:
                lo = hi = Fraction(0)
                for entry, part in zip(row, src):
                    plo, phi = _interval_mul(entry, part)
                    lo, hi = lo + plo, hi + phi
                box.append((lo, hi))
        hull = box if hull is None else [
            (min(a[0], b[0]), max(a[1], b[1])) for a, b in zip(hull, box)
        ]
    return hull


def _check_certificate(cert, dk, problems, *, depth, exact_boxes):
    """Boxes from the source cells, separations, d_k and nesting.

    With ``exact_boxes`` the claimed boxes must equal the cells' hull; a
    mapped certificate snaps them outward to the next multiple of
    2^-bits, and the check rebuilds that snap from the recomputed hull.
    """
    if cert.get("kind") != "und-certificate" or cert["depth"] != depth:
        problems.append("certificate kind or depth differs from the config")
        return
    dim = cert["dimension"]
    bits = cert["bits"]
    rows = None
    if cert["matrix"] is not None:
        rows = [[(rat(e[0]), rat(e[1])) for e in row] for row in cert["matrix"]["rows"]]
    floors: dict[int, Fraction] = {}
    stack = [(1, cert["root"], None, "root")]
    while stack:
        level, node, parent_box, path = stack.pop()
        comps = node["components"]
        if len(comps) != dim + 1:
            problems.append(f"{path}: {len(comps)} components, expected {dim + 1}")
            continue
        claimed = []
        for idx, comp in enumerate(comps):
            hull = _image_hull(comp["source_cells"], rows)
            box = _box(comp["bbox"])
            if exact_boxes:
                want = hull
            else:
                want = [(_floor_dyadic(lo, bits), _ceil_dyadic(hi, bits)) for lo, hi in hull]
            if box != want:
                problems.append(f"{path}.c{idx}: box differs from the one rebuilt from its cells")
            if parent_box is not None and not _inside(hull, parent_box):
                problems.append(f"{path}.c{idx}: cells leave the parent component's box")
            claimed.append(box)
        for key, pair in node["dmin"].items():
            i, j = (int(x) for x in key.split(","))
            if rat(pair) != _axis_gap(claimed[i], claimed[j]):
                problems.append(f"{path}: separation {key} differs from the box gap")
        if len(node["dmin"]) != dim * (dim + 1) // 2:
            problems.append(f"{path}: {len(node['dmin'])} separations, expected every pair")
        low = min(rat(p) for p in node["dmin"].values())
        floors[level] = low if level not in floors else min(floors[level], low)
        children = node["children"]
        if children and len(children) != len(comps):
            problems.append(f"{path}: {len(children)} children for {len(comps)} components")
        for idx, child in enumerate(children):
            stack.append((level + 1, child, claimed[idx], f"{path}.{idx}"))
    if [floors[k] for k in sorted(floors)] != dk:
        problems.append("reported d_k differ from the least separation per level")


def _ratio_bounds(cert):
    stack = [cert["root"]]
    while stack:
        node = stack.pop()
        for lo, hi in (node["ratios"] or {}).values():
            yield rat(lo), rat(hi)
        stack.extend(node["children"])


# ---------------------------------------------------------------------------
# one check per operation kind


def check_interior_rd(expect, report):
    problems: list[str] = []
    res = report["results"]
    depth, grid = expect["depth"], expect["grid"]
    dk = [rat(p) for p in res["dk"]]
    if len(dk) != depth:
        return [f"{len(dk)} separation floors for depth {depth}"]
    try:
        root = _tree_from_boxes(report["geometry"]["boxes"], 3, depth)
    except ValueError as exc:
        return [f"component boxes do not form a depth-{depth} tree: {exc}"]
    _check_box_tree(root, dk, problems)

    lo, hi = (Fraction(x) for x in expect["hull"])
    cover = (lo - MARGIN, hi + MARGIN)  # companion interval on both axes
    want_box = [(hi - cover[1], lo - cover[0])] * 2
    box = [(rat(iv["lo"]), rat(iv["hi"])) for iv in res["interior_box"]]
    if box != want_box:
        problems.append(f"interior box {box} is not the hull-and-margin box {want_box}")

    side = _companion_length(cover[1] - cover[0], [SHRINK * d for d in dk], depth)
    axis = _grid(want_box[0][0], want_box[0][1], grid)
    translates = [(x, y) for x in axis for y in axis]
    points = res["points"]
    if len(points) != len(translates):
        problems.append(f"{len(points)} translates for a {grid}x{grid} grid")
    bits = report["precision_bits"]
    for point, t in zip(points, translates):
        if not point["ok"]:
            problems.append(f"translate {point['t']} failed: {point.get('reason')}")
            continue
        if tuple(rat(x) for x in point["t"]) != t:
            problems.append(f"translate {point['t']} is off the grid")
        if not _encloses_sqrt2(rat(point["bound"]), side, bits):
            problems.append(f"bound at {point['t']} is not the upper root of 2 L_{depth}^2")
    if not res["all_ok"]:
        problems.append("all_ok is false")
    return problems


def check_kappa_square(expect, report):
    problems: list[str] = []
    res = report["results"]
    depth = expect["depth"]
    dk = [rat(p) for p in res["dk"]]
    if dk != [Fraction(1, 9**k) for k in range(1, depth + 1)]:
        problems.append("d_k are not 9^-k")
    cert = res["certificate"]
    _check_certificate(cert, dk, problems, depth=depth, exact_boxes=True)
    ninth, nine = Fraction(1, 9), Fraction(9)
    bounds = list(_ratio_bounds(cert))
    if len(bounds) != 3 * sum(3**k for k in range(depth)):
        problems.append(f"{len(bounds)} ratio bounds, expected three per node")
    if any(not ninth <= lo <= hi <= nine for lo, hi in bounds):
        problems.append("a ratio bound leaves [1/9, 9]")
    return problems


def check_mapped_square(expect, report):
    problems: list[str] = []
    res = report["results"]
    dk = [rat(p) for p in res["dk"]]
    cert = res["certificate"]
    if cert["matrix"] is None or cert["matrix"]["name"] != "axis-mixing":
        return ["certificate does not carry the axis-mixing matrix"]
    _check_certificate(cert, dk, problems, depth=expect["depth"], exact_boxes=False)
    return problems


def check_rotate_fix(expect, report):
    problems: list[str] = []
    res = report["results"]
    if res["chosen"] != {"index": 1, "name": "axis-mixing"}:
        problems.append(f"rotate-fix chose {res['chosen']}, expected axis-mixing")
    if [f["candidate"] for f in res["failures"]] != ["identity"]:
        problems.append("identity is not the one failed candidate")
    cert = res["certificate"]
    dk = [rat(p) for p in res["dk"]]
    _check_certificate(cert, dk, problems, depth=expect["depth"], exact_boxes=False)
    eps = Fraction(1, 10**9)
    bounds = list(_ratio_bounds(cert))
    if not bounds or any(not 1 - eps <= lo <= hi <= 1 + eps for lo, hi in bounds):
        problems.append("a ratio bound leaves 1 +- 1e-9")
    return problems


def _check_companion(geometry, offset, problems):
    hull = geometry["hull"]
    got = (Fraction(hull[0], hull[1]), Fraction(hull[2], hull[3]))
    if got != (offset - MARGIN, offset + 1 + MARGIN):
        problems.append(f"companion hull {got} is not the set hull widened by the margin")


def check_sweep_1d(expect, report):
    problems: list[str] = []
    sweep = report["results"]["sweep"]
    levels, side = expect["levels"], expect["side"]
    if rat(sweep["slack_lambda"]) != 2:
        problems.append("slack_lambda is not 2")
    _check_companion(report["geometry"], expect["offset"], problems)
    length = _thirds_companion_length(levels)
    grid = [(lam, t) for lam in _grid(*expect["lam_range"], side) for t in _grid(*expect["t_range"], side)]
    points = sweep["points"]
    if len(points) != len(grid):
        problems.append(f"{len(points)} sweep points for a {side}x{side} grid")
    for point, (lam, t) in zip(points, grid):
        if (rat(point["lambda"]), rat(point["t"])) != (lam, t):
            problems.append(f"sweep point {point['lambda']}, {point['t']} is off the grid")
        elif not point["ok"]:
            problems.append(f"sweep point {lam}, {t} failed: {point['reason']}")
        elif rat(point["bound"]) != abs(lam) * length:
            problems.append(f"sweep bound at {lam}, {t} is not |lambda| L_{levels}")
    if not sweep["all_ok"]:
        problems.append("all_ok is false")
    return problems


def check_interior_1d(expect, report):
    problems: list[str] = []
    res = report["results"]
    levels = expect["levels"]
    interior = (rat(res["interior"]["lo"]), rat(res["interior"]["hi"]))
    if interior != (-MARGIN, MARGIN):
        problems.append(f"interior {interior} is not [-1/10, 1/10]")
    _check_companion(report["geometry"], expect["offset"], problems)
    length = _thirds_companion_length(levels)
    grid = _grid(-MARGIN, MARGIN, expect["grid"])
    if len(res["points"]) != len(grid):
        problems.append(f"{len(res['points'])} translates for a grid of {len(grid)}")
    for point, t in zip(res["points"], grid):
        if rat(point["t"]) != t:
            problems.append(f"translate {point['t']} is off the grid")
        elif not point["ok"]:
            problems.append(f"translate {t} failed: {point['reason']}")
        elif rat(point["bound"]) != length:
            problems.append(f"bound at {t} is not L_{levels}")
    if not res["all_ok"]:
        problems.append("all_ok is false")
    return problems


def check_erdos(expect, report):
    """Hits pin a point within their bound; misses have no covering translate.

    A miss is where the program fails on purpose of its own spacing: the
    check confirms by brute force over the window's translates that no
    translate of the companion holds the moved hull, so a miss is the
    obstruction set's fault, not a wrong claim.
    """
    problems: list[str] = []
    res = report["results"]
    if "obstruction" not in res:
        return [f"no obstruction report: {res.get('error')}"]
    obs = res["obstruction"]
    levels = expect["levels"]
    spacing = rat(obs["spacing"])
    if spacing != 2 * MARGIN or rat(obs["slack"]) != 2:
        problems.append("spacing is not 1/5 or slack is not 2")
    companion = (-MARGIN, 1 + MARGIN)
    length = _tenth_ifs_companion_length(levels)
    k_lo, k_hi = obs["k_range"]

    def covers(i, lam, t):
        lo, hi = sorted((t, lam + t))
        return companion[0] + i * spacing <= lo and hi <= companion[1] + i * spacing

    for rec in obs["records"]:
        lam, t = rat(rec["lam"]), rat(rec["t"])
        if rec["ok"]:
            bound = rat(rec["bound"])
            if abs(rat(rec["witness_map"]) - rat(rec["witness_set"])) > bound:
                problems.append(f"witnesses of ({lam}, {t}) lie further apart than the bound")
            if bound != length:
                problems.append(f"bound of ({lam}, {t}) is not L_{levels}")
            if not covers(rec["translate_index"], lam, t):
                problems.append(f"translate {rec['translate_index']} does not hold ({lam}, {t})")
        elif rec["reason"] != "no-translate-in-window" or abs(lam) <= 1:
            problems.append(f"({lam}, {t}) missed for {rec['reason']} at |lambda| <= 1")
        elif any(covers(i, lam, t) for i in range(k_lo, k_hi + 1)):
            problems.append(f"({lam}, {t}) missed although a translate holds it")
    return problems


def _pow_enclosure(x: Fraction, alpha: Fraction) -> tuple[Fraction, Fraction]:
    if alpha == 2:
        return x * x, x * x
    if alpha == Fraction(3, 2):
        return _sqrt_enclosure(x**3)
    raise ValueError(f"no enclosure written for alpha = {alpha}")


def check_distance(expect, report):
    problems: list[str] = []
    dist = report["results"]["distance"]
    alpha = expect["alpha"]
    if rat(dist["alpha"]) != alpha:
        problems.append(f"alpha {dist['alpha']} is not {alpha}")
    interior = dist["interior"]
    tol = rat(interior["tol"])
    if tol != Fraction(1, 10**8):
        problems.append(f"tolerance {tol} is not the configured 1e-8")
    grid = _grid(*expect["c_range"], expect["grid"])
    points = interior["points"]
    if len(points) != len(grid) or interior["ok_count"] != len(grid):
        problems.append(f"{interior['ok_count']} of {len(points)} points ok for a grid of {len(grid)}")
    for point, c in zip(points, grid):
        if rat(point["c"]) != c or not point["ok"]:
            problems.append(f"point c = {point['c']} failed or is off the grid")
            continue
        x, y = (rat(v) for v in point["witness"])
        x_lo, x_hi = _pow_enclosure(x, alpha)
        y_lo, y_hi = _pow_enclosure(y, alpha)
        lo, hi = x_lo + y_lo - c, x_hi + y_hi - c
        least = Fraction(0) if lo <= 0 <= hi else min(abs(lo), abs(hi))
        if max(abs(lo), abs(hi)) > tol:
            problems.append(f"residual at c = {c} exceeds the tolerance")
        if least > rat(point["residual"]):
            problems.append(f"reported residual at c = {c} is below the true one")
    if not interior["all_ok"]:
        problems.append("all_ok is false")
    return problems


CHECKS = {
    "interior_rd": check_interior_rd,
    "kappa_square": check_kappa_square,
    "mapped_square": check_mapped_square,
    "rotate_fix": check_rotate_fix,
    "sweep_1d": check_sweep_1d,
    "interior_1d": check_interior_1d,
    "erdos": check_erdos,
    "distance": check_distance,
}


def check_report(op: dict, report: dict) -> list[str]:
    """Problems found in the report of one operation."""
    if report.get("config") != op["config"]:
        return ["report does not echo the config it was run on"]
    return CHECKS[op["check"]](op["expect"], report)
