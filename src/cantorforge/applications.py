"""Slice curves H(x, y) = c, their certified companions, and two demos.

A relation H(x, y) = c with a sign-definite partial in y defines y as a
monotone function g of x on a box.  Once |g'| is pinned between certified
rationals eta and B, the image g(K1) of a gap tree is again a gap tree
whose stage gaps are at least eta times the originals, so the 1-D
containment machinery applies verbatim to the curved image.  That is the
whole trick behind the pinned-distance demo; the obstruction demo works in
the other direction, tiling a window with translated companions and
pinning every admissible affine copy of the base set to the tile grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cantor1d import (
    CantorForgeError,
    GapTree,
    Interval,
    LevelOutOfRange,
    SymmetricGapTree,
    affine_image,
    as_rat,
    build_binary_ifs,
    rat_pair,
)
from .containment1d import (
    ChainBroken,
    DominanceNotVerified,
    build_companion,
    capped_companion,
    certify_difference_interior,
    check_dominance,
    find_chain,
    grid_values,
)
from .dyadic import iv_pow, pow_bounds, precision_bits

__all__ = [
    "HSpec",
    "SliceDerivative",
    "MonotoneImageTree",
    "InteriorPoint",
    "InteriorReport",
    "DistanceDemoReport",
    "MapRecord",
    "ObstructionReport",
    "SignNotDefinite",
    "FamilyOutOfSlack",
    "derivative_bound",
    "nonlinear_companion",
    "verify_H_interior",
    "pinned_distance_demo",
    "erdos_obstruction",
]


class SignNotDefinite(CantorForgeError):
    pass


class FamilyOutOfSlack(CantorForgeError):
    def __init__(self, offenders, slack: Fraction):
        self.offenders = tuple(offenders)
        self.slack = slack
        shown = ", ".join(f"(lam={l}, t={t})" for l, t in self.offenders[:4])
        more = "" if len(self.offenders) <= 4 else f" and {len(self.offenders) - 4} more"
        super().__init__(
            f"maps outside the slack window (1/{slack}, {slack}): {shown}{more}"
        )


_FAMILIES = ("affine-sum", "alpha-norm")


@dataclass(frozen=True)
class HSpec:
    """A two-variable relation family plus the boxes it is studied on.

    lam_box is the parameter range (the slope for affine-sum, the exponent
    for alpha-norm), x_box the coordinate box.
    """

    family: str
    lam_box: Interval
    x_box: Interval

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}, expected one of {_FAMILIES}")
        if self.family == "alpha-norm":
            if self.lam_box.lo != self.lam_box.hi:
                raise ValueError("alpha-norm takes a single exponent, not a range")
            if self.lam_box.lo <= 1:
                raise ValueError("alpha-norm exponent must exceed 1")

    def slice_enclosure(self, lam_iv: Interval, c_iv: Interval, x_iv: Interval, bits: int) -> Interval:
        """Enclosure of g(x) = the y solving H = c, over boxes of inputs."""
        if self.family == "affine-sum":
            return c_iv - lam_iv * x_iv
        alpha = self.lam_box.lo
        inner = c_iv - iv_pow(x_iv, alpha, bits)
        if inner.lo <= 0:
            raise SignNotDefinite("c - x^alpha is not positive on the box")
        return iv_pow(inner, 1 / alpha, bits)

    def slice_point(self, lam: Fraction, c: Fraction, x: Fraction, bits: int) -> Interval:
        return self.slice_enclosure(Interval.point(lam), Interval.point(c), Interval.point(x), bits)

    def residual_enclosure(self, lam, c, x, y, bits: int) -> Interval:
        """Enclosure of H(lam, x, y) - c at rational arguments."""
        if self.family == "affine-sum":
            return Interval.point(lam * x + y - c)
        alpha = self.lam_box.lo
        xa = pow_bounds(x, alpha, bits)
        ya = pow_bounds(y, alpha, bits)
        return Interval(xa[0] + ya[0] - c, xa[1] + ya[1] - c)


@dataclass(frozen=True)
class SliceDerivative:
    """Certified facts about the slice x -> y on given boxes."""

    decreasing: bool
    lower: Fraction
    upper: Fraction
    y_range: Interval


def _slice_derivative_data(
    spec: HSpec, lam_box: Interval, c_box: Interval, x_box: Interval, bits: int
) -> SliceDerivative:
    if spec.family == "affine-sum":
        if lam_box.lo <= 0 <= lam_box.hi:
            raise SignNotDefinite("slope range contains zero")
        lower = min(abs(lam_box.lo), abs(lam_box.hi))
        upper = max(abs(lam_box.lo), abs(lam_box.hi))
        return SliceDerivative(lam_box.lo > 0, lower, upper, c_box - lam_box * x_box)
    alpha = spec.lam_box.lo
    if x_box.lo <= 0:
        raise SignNotDefinite("x box must be strictly positive for alpha-norm")
    x_hi_pow = pow_bounds(x_box.hi, alpha, bits)[1]
    x_lo_pow = pow_bounds(x_box.lo, alpha, bits)[0]
    if c_box.lo - x_hi_pow <= 0:
        raise SignNotDefinite("y^alpha = c - x^alpha can reach zero on the box")
    y_lo = pow_bounds(c_box.lo - x_hi_pow, 1 / alpha, bits)[0]
    y_hi = pow_bounds(c_box.hi - x_lo_pow, 1 / alpha, bits)[1]
    lower = pow_bounds(x_box.lo / y_hi, alpha - 1, bits)[0]
    upper = pow_bounds(x_box.hi / y_lo, alpha - 1, bits)[1]
    if lower <= 0:
        raise SignNotDefinite("derivative lower bound collapsed to zero")
    return SliceDerivative(True, lower, upper, Interval(y_lo, y_hi))


def derivative_bound(spec: HSpec, c_box: Interval, lam_box: Interval, x_box: Interval, bits=None) -> Fraction:
    """Certified positive lower bound on |dy/dx| along slices H = c.

    Exact when the arithmetic stays rational: squares, integer exponents
    and perfect powers come out on the nose, everything else is rounded
    outward at the working precision.
    """
    return _slice_derivative_data(spec, lam_box, c_box, x_box, precision_bits(bits)).lower


class MonotoneImageTree(GapTree):
    """Image of a gap tree under a certified monotone slice map.

    Intervals are mapped lazily and outward; for a decreasing slice the
    address bits flip so that lexicographic order still means left to
    right.  Per-level gap bounds come from the certified derivative range
    rather than from the (outward, hence overstated) mapped endpoints, so
    they are one-sided certified bounds, not exact values.

    ``split_interval`` splits the base node and maps its two children
    outward, so it returns exactly ``interval(addr + "0")`` and
    ``interval(addr + "1")``, not a cut at the inward gap.  The ``lo`` and
    ``hi`` it is given are ignored: the children follow from the base
    node, which it looks up.  It remembers the base node behind every
    child it returns and encloses each base endpoint once per tree.  A
    child shares one endpoint with its parent, so a step of a descent
    maps two new points and costs O(1).  Both memos live as long as the
    tree and grow with the number of distinct nodes split; only a single
    descent, as in ``find_chain``, keeps them at about 2 entries per level.
    """

    def __init__(self, base: GapTree, spec: HSpec, lam, c, data: SliceDerivative, bits=None):
        self.base = base
        self.spec = spec
        self.lam = as_rat(lam)
        self.c = as_rat(c)
        self.data = data
        self.bits = precision_bits(bits)
        self._slices: dict[Fraction, Interval] = {}
        self._base_nodes: dict[str, tuple[str, Fraction, Fraction]] = {}
        a = self._slice(base.hull.lo)
        b = self._slice(base.hull.hi)
        self.hull = Interval(min(a.lo, b.lo), max(a.hi, b.hi))
        self.depth = base.depth

    def _base_addr(self, addr: str) -> str:
        if not self.data.decreasing:
            return addr
        return "".join("1" if ch == "0" else "0" for ch in addr)

    def _slice(self, x: Fraction) -> Interval:
        iv = self._slices.get(x)
        if iv is None:
            iv = self._slices[x] = self.spec.slice_point(self.lam, self.c, x, self.bits)
        return iv

    def _map_outward(self, iv: Interval) -> Interval:
        a = self.spec.slice_point(self.lam, self.c, iv.lo, self.bits)
        b = self.spec.slice_point(self.lam, self.c, iv.hi, self.bits)
        return Interval(min(a.lo, b.lo), max(a.hi, b.hi))

    def interval(self, addr: str) -> Interval:
        if len(addr) > self.depth:
            raise LevelOutOfRange(len(addr), self.depth)
        return self._map_outward(self.base.interval(self._base_addr(addr)))

    def split_interval(self, addr: str, lo: Fraction, hi: Fraction):
        # lo and hi follow from the base node, which is looked up instead.
        node = self._base_nodes.get(addr)
        if node is None:
            base_addr = self._base_addr(addr)
            iv = self.base.interval(base_addr)
            node = (base_addr, iv.lo, iv.hi)
        children = self.base.split_interval(*node)
        if self.data.decreasing:
            children = children[::-1]
        out = []
        for bit, child in zip("01", children):
            self._base_nodes[addr + bit] = child
            a = self._slice(child[1])
            b = self._slice(child[2])
            out.append((addr + bit, min(a.lo, b.lo), max(a.hi, b.hi)))
        return tuple(out)

    def gap(self, addr: str) -> Interval:
        # Inward enclosure: a reported gap must sit inside the true one.
        g = self.base.gap(self._base_addr(addr))
        a = self.spec.slice_point(self.lam, self.c, g.lo, self.bits)
        b = self.spec.slice_point(self.lam, self.c, g.hi, self.bits)
        lo, hi = min(a.hi, b.hi), max(a.lo, b.lo)
        if lo > hi:
            mid = (lo + hi) / 2
            lo = hi = mid
        return Interval(lo, hi)

    def level_min_gap(self, n: int) -> Fraction:
        return self.data.lower * self.base.level_min_gap(n)

    def level_max_gap(self, n: int) -> Fraction:
        return self.data.upper * self.base.level_max_gap(n)


def nonlinear_companion(
    k1: GapTree,
    spec: HSpec,
    lam_box: Interval,
    c_box: Interval,
    depth: int | None = None,
    shrink=Fraction(1, 2),
    bits=None,
) -> SymmetricGapTree:
    """Symmetric companion sized for every slice image of k1 on the boxes.

    Stage-n gaps are shrink * eta * (stage-n min gap of k1), capped at
    feasibility, so any single slice image dominates the companion no
    matter which (lam, c) in the boxes produced it.  The hull is the
    certified image range padded on both sides by 1/64 of the range plus
    2**-40.
    """
    bits = precision_bits(bits)
    depth = k1.depth if depth is None else depth
    if depth < 1 or depth > k1.depth:
        raise LevelOutOfRange(depth, k1.depth)
    data = _slice_derivative_data(spec, lam_box, c_box, k1.hull, bits)
    image = spec.slice_enclosure(lam_box, c_box, k1.hull, bits)
    pad = image.length / 64 + Fraction(1, 1 << 40)
    hull = Interval(image.lo - pad, image.hi + pad)
    shrink = as_rat(shrink)
    if not Fraction(0) < shrink < 1:
        raise ValueError("shrink must lie strictly between 0 and 1")
    return capped_companion(hull, [shrink * data.lower * k1.level_min_gap(n) for n in range(depth)])


@dataclass(frozen=True)
class InteriorPoint:
    c: Fraction
    lam: Fraction
    ok: bool
    reason: str | None
    residual: Fraction | None
    witness_x: Fraction | None
    witness_y: Fraction | None
    bound: Fraction | None

    def to_json_obj(self):
        return {
            "c": rat_pair(self.c),
            "lam": rat_pair(self.lam),
            "ok": self.ok,
            "reason": self.reason,
            "residual": None if self.residual is None else rat_pair(self.residual),
            "witness": None
            if self.witness_x is None
            else [rat_pair(self.witness_x), rat_pair(self.witness_y)],
            "bound": None if self.bound is None else rat_pair(self.bound),
        }


@dataclass(frozen=True)
class InteriorReport:
    eta: Fraction
    upper: Fraction
    decreasing: bool
    levels: int
    tol: Fraction
    points: tuple[InteriorPoint, ...]
    all_ok: bool
    certified_c: Interval | None

    @property
    def ok_count(self) -> int:
        return sum(1 for p in self.points if p.ok)

    def to_json_obj(self):
        return {
            "eta": rat_pair(self.eta),
            "derivative_upper": rat_pair(self.upper),
            "decreasing": self.decreasing,
            "levels": self.levels,
            "tol": rat_pair(self.tol),
            "ok_count": self.ok_count,
            "total": len(self.points),
            "all_ok": self.all_ok,
            "certified_c": None
            if self.certified_c is None
            else [rat_pair(self.certified_c.lo), rat_pair(self.certified_c.hi)],
            "points": [p.to_json_obj() for p in self.points],
        }


def verify_H_interior(
    spec: HSpec,
    k1: GapTree,
    k2: GapTree,
    c_values,
    lam_values,
    levels: int,
    tol,
    bits=None,
) -> InteriorReport:
    """Chain every (c, lam) grid point through the slice image of k1 into k2.

    One derivative certificate covers the whole grid (computed on the hulls
    of the value lists), then each point gets its own image tree, dominance
    check, chain, and an exact-rational residual at the pinned witness
    pair.  A point passes when the chain lands and the residual is at most
    tol.  certified_c is the longest contiguous run of c values whose every
    lam row passed, None if there is none.
    """
    bits = precision_bits(bits)
    tol = as_rat(tol)
    c_values = [as_rat(c) for c in c_values]
    lam_values = [as_rat(l) for l in lam_values]
    if not c_values or not lam_values:
        raise ValueError("need at least one c and one lam value")
    lam_box = Interval(min(lam_values), max(lam_values))
    c_box = Interval(min(c_values), max(c_values))
    data = _slice_derivative_data(spec, lam_box, c_box, k1.hull, bits)

    def run_point(pair):
        c, lam = pair
        image = MonotoneImageTree(k1, spec, lam, c, data, bits)
        try:
            chain = find_chain(image, k2, levels)
        except DominanceNotVerified as exc:
            bad = [r.level for r in exc.report.levels if not r.passed]
            why = f"dominance-{bad[0]}" if exc.report.hull_contained else "hull"
            return InteriorPoint(c, lam, False, why, None, None, None, None)
        except ChainBroken as exc:
            return InteriorPoint(c, lam, False, f"chain-broken-{exc.level}", None, None, None, None)
        addr_img, addr_k2 = chain.final_addresses
        x_pt = k1.interval(image._base_addr(addr_img)).midpoint()
        y_iv = spec.slice_point(lam, c, x_pt, bits)
        cell = k2.interval(addr_k2)
        lo = max(y_iv.lo, cell.lo)
        hi = min(y_iv.hi, cell.hi)
        if lo > hi:
            return InteriorPoint(c, lam, False, "witness-escaped-cell", None, None, None, None)
        y_pt = (lo + hi) / 2
        resid = spec.residual_enclosure(lam, c, x_pt, y_pt, bits).abs().hi
        ok = resid <= tol
        reason = None if ok else "residual"
        return InteriorPoint(c, lam, ok, reason, resid, x_pt, y_pt, chain.bound)

    grid = [(c, lam) for c in c_values for lam in lam_values]
    points = tuple(map(run_point, grid))

    per_c_ok = []
    m = len(lam_values)
    for i in range(len(c_values)):
        per_c_ok.append(all(p.ok for p in points[i * m : (i + 1) * m]))
    certified = _longest_true_run(c_values, per_c_ok)
    return InteriorReport(
        eta=data.lower,
        upper=data.upper,
        decreasing=data.decreasing,
        levels=levels,
        tol=tol,
        points=points,
        all_ok=all(p.ok for p in points),
        certified_c=certified,
    )


def _longest_true_run(values, flags) -> Interval | None:
    best = None
    start = None
    for i, ok in enumerate(flags + [False]):
        if ok and start is None:
            start = i
        elif not ok and start is not None:
            if best is None or (i - start) > (best[1] - best[0]):
                best = (start, i)
            start = None
    if best is None:
        return None
    return Interval(values[best[0]], values[best[1] - 1])


@dataclass(frozen=True)
class DistanceDemoReport:
    dimension: int
    alpha: Fraction
    depth: int
    base_hull: Interval
    companion_hull: Interval
    eta: Fraction
    interior: InteriorReport
    coverage: Interval | None

    def to_json_obj(self):
        return {
            "dimension": self.dimension,
            "alpha": rat_pair(self.alpha),
            "depth": self.depth,
            "base_hull": [rat_pair(self.base_hull.lo), rat_pair(self.base_hull.hi)],
            "companion_hull": [
                rat_pair(self.companion_hull.lo),
                rat_pair(self.companion_hull.hi),
            ],
            "eta": rat_pair(self.eta),
            "coverage": None
            if self.coverage is None
            else [rat_pair(self.coverage.lo), rat_pair(self.coverage.hi)],
            "interior": self.interior.to_json_obj(),
        }


def pinned_distance_demo(
    alpha=2,
    dimension: int = 2,
    depth: int = 12,
    c_range: Interval | None = None,
    grid: int = 101,
    tol=Fraction(1, 10**8),
    bits=None,
) -> DistanceDemoReport:
    """Certify an interval of distances pinned at the origin.

    The planar set is a product of a thin self-similar set with itself
    (higher even dimensions just carry passthrough coordinates pinned at
    the hull midpoint); distances from the origin are values of
    x^alpha + y^alpha up to the alpha-th root, so an interior interval of
    c values becomes an interval of achieved distances.  alpha must exceed
    1: at alpha = 1 the slice derivative degenerates to -1 everywhere and
    the distance reading breaks down at the axes, so it is rejected.
    """
    alpha = as_rat(alpha)
    if alpha <= 1:
        raise ValueError("alpha must exceed 1; the alpha = 1 slice degenerates")
    if dimension < 2 or dimension % 2 != 0:
        raise ValueError("dimension must be an even integer at least 2")
    if c_range is None:
        c_range = Interval(Fraction(19, 20), Fraction(21, 20))
    k1 = build_binary_ifs(Interval(Fraction(11, 20), Fraction(13, 20)), Fraction(1, 10), depth)
    spec = HSpec("alpha-norm", Interval(alpha, alpha), k1.hull)
    c_values = grid_values(c_range, grid)
    k2 = nonlinear_companion(k1, spec, spec.lam_box, c_range, depth=depth, bits=bits)
    interior = verify_H_interior(
        spec, k1, k2, c_values, [alpha], depth, tol, bits=bits
    )
    coverage = None
    if interior.certified_c is not None:
        b = precision_bits(bits)
        lo = pow_bounds(interior.certified_c.lo, 1 / alpha, b)[0]
        hi = pow_bounds(interior.certified_c.hi, 1 / alpha, b)[1]
        coverage = Interval(lo, hi)
    return DistanceDemoReport(
        dimension=dimension,
        alpha=alpha,
        depth=depth,
        base_hull=k1.hull,
        companion_hull=k2.hull,
        eta=interior.eta,
        interior=interior,
        coverage=coverage,
    )


@dataclass(frozen=True)
class MapRecord:
    lam: Fraction
    t: Fraction
    ok: bool
    translate_index: int | None
    reason: str | None
    bound: Fraction | None
    witness_map: Fraction | None
    witness_set: Fraction | None

    def to_json_obj(self):
        return {
            "lam": rat_pair(self.lam),
            "t": rat_pair(self.t),
            "ok": self.ok,
            "translate_index": self.translate_index,
            "reason": self.reason,
            "bound": None if self.bound is None else rat_pair(self.bound),
            "witness_map": None if self.witness_map is None else rat_pair(self.witness_map),
            "witness_set": None if self.witness_set is None else rat_pair(self.witness_set),
        }


@dataclass(frozen=True)
class ObstructionReport:
    """Outcome of ``erdos_obstruction``.  ``companion`` is the tree whose
    translates tile the window; the JSON form leaves it out."""

    window: Interval
    spacing: Fraction
    certified: Interval
    slack: Fraction
    k_range: tuple[int, int]
    records: tuple[MapRecord, ...]
    all_ok: bool
    companion: SymmetricGapTree

    def to_json_obj(self):
        return {
            "window": [rat_pair(self.window.lo), rat_pair(self.window.hi)],
            "spacing": rat_pair(self.spacing),
            "certified": [rat_pair(self.certified.lo), rat_pair(self.certified.hi)],
            "slack": rat_pair(self.slack),
            "k_range": list(self.k_range),
            "translate_count": self.k_range[1] - self.k_range[0] + 1,
            "all_ok": self.all_ok,
            "hits": sum(1 for r in self.records if r.ok),
            "total": len(self.records),
            "records": [r.to_json_obj() for r in self.records],
        }


def erdos_obstruction(
    k: GapTree,
    family,
    window: Interval,
    levels: int,
    margin=Fraction(1, 10),
    factor=Fraction(1, 2),
) -> ObstructionReport:
    """A bounded set meant to meet every in-slack affine copy of k in a window.

    The obstruction is a grid of translates of k's companion spaced by the
    certified difference-interval length, |khat.hull| - |k.hull|.  That
    spacing leaves no uncovered offsets only for maps x -> lam*x + t with
    1/slack < |lam| <= 1: for those, some translate admits a containment
    chain against the moved tree, pinning an intersection point.  For
    1 < |lam| < slack the moved hull is longer than k's, consecutive
    translates can leave holes, and such a map may end with the reason
    ``no-translate-in-window``.  Maps outside the slack bounds and maps
    whose image escapes the window are both rejected upfront with
    FamilyOutOfSlack.
    """
    family = [(as_rat(l), as_rat(t)) for l, t in family]
    khat = build_companion(k, levels, margin=margin, factor=factor)
    certified = certify_difference_interior(k, khat, levels)
    spacing = certified.length
    slack = check_dominance(k, khat, levels).slack

    def image_hull(lam: Fraction, t: Fraction) -> tuple[Fraction, Fraction]:
        a, b = lam * k.hull.lo + t, lam * k.hull.hi + t
        return (a, b) if a <= b else (b, a)

    offenders = []
    for l, t in family:
        if l == 0 or not (1 / slack < abs(l) < slack):
            offenders.append((l, t))
            continue
        mh_lo, mh_hi = image_hull(l, t)
        if mh_lo < window.lo or mh_hi > window.hi:
            offenders.append((l, t))
    if offenders:
        raise FamilyOutOfSlack(offenders, slack)
    # Every translate that meets the window; an in-window image hull then
    # always finds its covering translate inside this range.
    k_lo = -((khat.hull.hi - window.lo) // spacing)  # ceil((w.lo - hull.hi)/spacing)
    k_hi = (window.hi - khat.hull.lo) // spacing
    k_lo, k_hi = int(k_lo), int(k_hi)
    if k_lo > k_hi:
        raise ValueError("window cannot hold a single companion translate")

    def run_map(pair):
        lam, t = pair
        moved = affine_image(k, lam, t)
        i_hi = (moved.hull.lo - khat.hull.lo) // spacing
        i_lo = -((khat.hull.hi - moved.hull.hi) // spacing)
        i_lo, i_hi = int(i_lo), int(i_hi)
        i = max(i_lo, k_lo)
        if i > min(i_hi, k_hi):
            return MapRecord(lam, t, False, None, "no-translate-in-window", None, None, None)
        target = affine_image(khat, Fraction(1), i * spacing)
        try:
            chain = find_chain(moved, target, levels)
        except DominanceNotVerified:
            return MapRecord(lam, t, False, i, "dominance", None, None, None)
        except ChainBroken as exc:
            return MapRecord(lam, t, False, i, f"chain-broken-{exc.level}", None, None, None)
        return MapRecord(
            lam, t, True, i, None, chain.bound, chain.witness_k, chain.witness_kt
        )

    records = tuple(map(run_map, family))
    return ObstructionReport(
        window=window,
        spacing=spacing,
        certified=certified,
        slack=slack,
        k_range=(k_lo, k_hi),
        records=records,
        all_ok=all(r.ok for r in records),
        companion=khat,
    )
