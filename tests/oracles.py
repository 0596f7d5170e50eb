"""Independent cross-checks for the test suite.

Everything here recomputes answers from first principles and shares as
little machinery with the library as it can get away with.  Covers come
from digit expansions, intersection questions are settled by sweeps over
sorted endpoint lists or plain brute force, and floating recomputations
go through mpmath.  Agreement between a library result and one of these
oracles is the point of the exercise; neither side is trusted alone.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

import mpmath


@lru_cache(maxsize=None)
def thirds_cover(depth):
    """Level-``depth`` intervals of the middle-thirds set on [0, 1].

    Built straight from ternary digits: a surviving interval corresponds to
    a digit string over {0, 2}, its left endpoint is the digit sum.  No gap
    trees involved.  Cached, so treat the returned list as read-only.
    """
    third = Fraction(1, 3)
    out = []
    for bits in range(1 << depth):
        lo = Fraction(0)
        for i in range(depth):
            if (bits >> (depth - 1 - i)) & 1:
                lo += 2 * third ** (i + 1)
        out.append((lo, lo + third ** depth))
    out.sort()
    return out


def tree_cover(tree, level):
    """Sorted closed intervals covering the tree at one level."""
    return sorted((iv.lo, iv.hi) for iv in tree.level_intervals(level))


def covers_intersect(a, b, shift=Fraction(0)):
    """Does any interval of ``a`` meet any interval of ``b + shift``?

    Both inputs are sorted lists of (lo, hi) pairs, treated as closed, so
    touching endpoints count as a hit.  Two-pointer sweep, linear time.
    """
    i = j = 0
    while i < len(a) and j < len(b):
        alo, ahi = a[i]
        blo = b[j][0] + shift
        bhi = b[j][1] + shift
        if ahi < blo:
            i += 1
        elif bhi < alo:
            j += 1
        else:
            return True
    return False


def minkowski_difference_cover(a, b):
    """Merged interval list of {x - y : x in a-intervals, y in b-intervals}.

    Quadratic in the cover sizes, fine at the scales the tests use.  The
    result is sorted and overlap-free, so membership checks afterwards are
    a bisect away.
    """
    raw = sorted((xlo - yhi, xhi - ylo) for xlo, xhi in a for ylo, yhi in b)
    merged = []
    for lo, hi in raw:
        if merged and lo <= merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return merged


def point_covered(cover, x):
    from bisect import bisect_right

    idx = bisect_right(cover, (x, x))
    for k in (idx - 1, idx):
        if 0 <= k < len(cover) and cover[k][0] <= x <= cover[k][1]:
            return True
    return False


# ---------------------------------------------------------------------------
# boxes in d dimensions

def fraction_box(comp):
    """A component's integer ``box`` as ``Interval``s of ``Fraction``s,
    each axis over its ``cover.box_dens`` entry."""
    from cantorforge.cantor1d import Interval

    return tuple(Interval(Fraction(lo, den), Fraction(hi, den)) for (lo, hi), den in zip(comp.box, comp.cover.box_dens))


def fraction_cells(comp):
    """A component's integer ``cells`` as ``(addr, lo, hi)`` cells with
    ``Fraction`` ends, each axis over its ``cover.cell_dens`` entry."""
    dens = comp.cover.cell_dens
    return tuple(
        tuple((addr, Fraction(lo, den), Fraction(hi, den)) for (addr, lo, hi), den in zip(cell, dens))
        for cell in comp.cells
    )


def cert_component_boxes(cert, level):
    """Bounding boxes of every certificate component at one chain depth."""
    boxes = []
    for node in cert.nodes_at_level(level):
        for comp in node.components:
            boxes.append(tuple((iv.lo, iv.hi) for iv in fraction_box(comp)))
    return boxes


def companion_cell_boxes(companion, level):
    """All level-``level`` product cells of the companion cube tree."""
    axis = [(iv.lo, iv.hi) for iv in companion.base.level_intervals(level)]
    return [tuple(combo) for combo in product(axis, repeat=companion.dim)]


def boxes_intersect(boxes_a, boxes_b, shift):
    """Brute force: does any closed box of ``a`` meet any of ``b + shift``?"""
    d = len(shift)
    shifted = [
        tuple((lo + shift[ax], hi + shift[ax]) for ax, (lo, hi) in enumerate(box))
        for box in boxes_b
    ]
    for A in boxes_a:
        for B in shifted:
            for ax in range(d):
                if A[ax][1] < B[ax][0] or B[ax][1] < A[ax][0]:
                    break
            else:
                return True
    return False


def reference_find_chain_rd(cert, companion, levels, translate=None, bits=None):
    """The R^d chain walk in ``Fraction``s, on the components' ``fraction_box``.

    Each cell is a pair of ``Fraction`` ends per axis, its slit is centered
    at the cell's midpoint with half the stage gap on either side, and the
    first component inside the cell and clear of every slit is taken.
    ``containment_rd.find_chain_rd`` must return the same ``ChainRd`` or
    raise ``SlitBlocked`` at the same level.
    """
    from cantorforge.containment_rd import ChainRd, ChainStep, SlitBlocked
    from cantorforge.dyadic import precision_bits, sqrt_bounds

    d = cert.dimension
    t = tuple(Fraction(x) for x in translate) if translate is not None else (Fraction(0),) * d
    base = companion.base
    cell = tuple((base.hull.lo + ti, base.hull.hi + ti) for ti in t)
    addrs = ("",) * d
    node = cert.root
    steps = []
    for n in range(levels):
        gap_len = base.gap_lengths[n]
        child_len = base.level_lengths[n + 1]
        slits = [((lo + hi) / 2 - gap_len / 2, (lo + hi) / 2 + gap_len / 2) for lo, hi in cell]
        pick = None
        for idx, comp in enumerate(node.components):
            sides = []
            for (lo, hi), (s_lo, s_hi), box in zip(cell, slits, fraction_box(comp)):
                if box.lo < lo or box.hi > hi:
                    break
                if box.hi < s_lo:
                    sides.append("0")
                elif box.lo > s_hi:
                    sides.append("1")
                else:
                    break
            else:
                pick = (idx, comp, sides)
                break
        if pick is None:
            raise SlitBlocked(n + 1)
        idx, comp, sides = pick
        cell = tuple(
            (lo, lo + child_len) if side == "0" else (hi - child_len, hi)
            for (lo, hi), side in zip(cell, sides)
        )
        addrs = tuple(a + side for a, side in zip(addrs, sides))
        steps.append(ChainStep(comp.path, addrs))
        if n < levels - 1:
            node = node.children[idx]
    side = base.level_lengths[levels]
    bound_sq = d * side * side
    return ChainRd(
        steps=tuple(steps),
        witness_component=tuple(iv.midpoint() for iv in fraction_box(comp)),
        witness_cell=tuple((lo + hi) / 2 for lo, hi in cell),
        cell_side=side,
        bound_sq=bound_sq,
        bound=sqrt_bounds(bound_sq, precision_bits(bits))[1],
    )


# ---------------------------------------------------------------------------
# high-precision and exact recomputation for the slice solvers

def recheck_alpha_residual(alpha, c, x, y, dps=50):
    """|x**alpha + y**alpha - c| recomputed with mpmath at ``dps`` digits.

    Inputs are Fractions (alpha may be an int).  Independent of all the
    dyadic interval code in the package.
    """
    with mpmath.workdps(dps):
        def conv(r):
            r = Fraction(r)
            return mpmath.mpf(r.numerator) / mpmath.mpf(r.denominator)

        val = mpmath.power(conv(x), conv(alpha)) + mpmath.power(conv(y), conv(alpha)) - conv(c)
        return abs(val)


def sqrt_diff_at_least(s1, s2, m):
    """Exact test of sqrt(s1) - sqrt(s2) >= m for rationals s1 >= s2 >= 0, m >= 0.

    Squares twice instead of taking roots, so the answer never depends on
    rounding.  Used to check image-length lower bounds for y = sqrt(c - x^2).
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    if s1 < s2:
        return False
    # sqrt(s1) >= m + sqrt(s2); both sides nonnegative
    lhs = s1 - s2 - m * m
    if lhs < 0:
        return False
    return lhs * lhs >= 4 * m * m * s2


def circle_slope_at_least(eta, c, x):
    """Exact test of |g'(x)| >= eta for g(x) = sqrt(c - x^2).

    |g'| = x / sqrt(c - x^2); squaring clears the root.  Requires
    0 < x and x^2 < c.
    """
    if x <= 0 or x * x >= c:
        raise ValueError("need 0 < x with x^2 < c")
    return x * x >= eta * eta * (c - x * x)


# ---------------------------------------------------------------------------
# roots, slice points and dominance in Fractions

def reference_root_bounds(x, k, bits):
    """Enclosure of x ** (1/k) for a rational x >= 0, all in ``Fraction``s.

    Exact when x is (r/s) ** k in lowest terms; else the floor r of
    2**bits * x ** (1/k), from ``math.floor`` of the scaled ``Fraction``
    and a plain bisection for its k-th root, with hi = (r + 1) / 2**bits
    unless (r / 2**bits) ** k already reaches x.
    ``dyadic.root_bounds`` must return the same pair.
    """
    import math

    def floor_root(n):
        lo, hi = 0, 1
        while hi**k <= n:
            hi *= 2
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if mid**k <= n else (lo, mid)
        return lo

    x = Fraction(x)
    num, den = floor_root(x.numerator), floor_root(x.denominator)
    if num**k == x.numerator and den**k == x.denominator:
        return Fraction(num, den), Fraction(num, den)
    scale = Fraction(1 << bits)
    r = floor_root(math.floor(x * scale**k))
    lo = r / scale
    return lo, (lo if lo**k >= x else (r + 1) / scale)


def reference_slice_point(alpha, c, x, bits):
    """Enclosure of (c - x**alpha) ** (1/alpha) for alpha = a/b > 1, x > 0.

    Interval steps in ``Fraction``s, as the slice enclosure of a point
    box: x**a, its b-th root by ``reference_root_bounds``, c minus that,
    then the a-th root of each end raised to b (once when the ends agree).
    A non-positive c - x**alpha raises ``SignNotDefinite``.
    ``HSpec.slice_point`` must return the same interval.
    """
    from cantorforge.applications import SignNotDefinite
    from cantorforge.cantor1d import Interval

    a, b = alpha.numerator, alpha.denominator
    lo, hi = reference_root_bounds(x**a, b, bits)
    inner_lo, inner_hi = c - hi, c - lo
    if inner_lo <= 0:
        raise SignNotDefinite("c - x^alpha is not positive on the box")
    y_lo, y_hi = reference_root_bounds(inner_lo**b, a, bits)
    if inner_lo != inner_hi:
        y_hi = reference_root_bounds(inner_hi**b, a, bits)[1]
    return Interval(y_lo, y_hi)


def reference_check_dominance(k, kt, levels):
    """``check_dominance`` in ``Fraction``s from the trees' own gap lengths:
    hull containment, then per level the k gap against the kt gap, every
    ``LevelRecord`` built at once.  The integer gate on two symmetric trees
    must give an equal report, with equal ``slack`` and ``to_json_obj``."""
    from cantorforge.containment1d import DominanceReport, LevelRecord

    hull_ok = kt.hull.lo <= k.hull.lo and k.hull.hi <= kt.hull.hi
    records = tuple(
        LevelRecord(n, k.gap_lengths[n], kt.gap_lengths[n], kt.gap_lengths[n] < k.gap_lengths[n])
        for n in range(levels)
    )
    return DominanceReport(hull_ok, records, hull_ok and all(rec.passed for rec in records))


# ---------------------------------------------------------------------------
# containment chains

def reference_find_chain(k, kt, levels):
    """The chain walk that re-enters both trees from the root at every step.

    Four ``interval`` calls per level, each walking its address from the
    root: O(levels^2), and built only on ``interval``, not on
    ``split_interval``.  ``containment1d.find_chain`` must return the same
    ``WitnessChain`` or break at the same level.
    """
    from cantorforge.containment1d import (
        ChainBroken,
        DominanceNotVerified,
        WitnessChain,
        check_dominance,
    )

    report = check_dominance(k, kt, levels)
    if not report.overall:
        raise DominanceNotVerified(report)
    addr_k = ""
    addr_kt = ""
    pairs = []
    for n in range(levels):
        left_k = k.interval(addr_k + "0")
        right_k = k.interval(addr_k + "1")
        left_t = kt.interval(addr_kt + "0")
        right_t = kt.interval(addr_kt + "1")
        if left_k.hi < left_t.hi and left_t.lo <= left_k.lo:
            addr_k += "0"
            addr_kt += "0"
        elif right_t.lo < right_k.lo and right_k.hi <= right_t.hi:
            addr_k += "1"
            addr_kt += "1"
        else:
            raise ChainBroken(n + 1)
        pairs.append((addr_k, addr_kt))
    final_t = kt.interval(addr_kt)
    return WitnessChain(
        pairs=tuple(pairs),
        witness_k=k.interval(addr_k).midpoint(),
        witness_kt=final_t.midpoint(),
        bound=final_t.length,
    )


# ---------------------------------------------------------------------------
# mapped covers

def reference_refine_cells(geometry, cells, target):
    """``Fraction`` cells split factor after factor, one cell at a time.

    For each axis in turn every cell is replaced by the pieces of its part
    on that axis, left to right.  A tree part is split by ``interval`` on
    the two child addresses while it is wider than ``target`` and above
    the tree's depth; a point factor stays.  No splitter of the library,
    no integer pieces and no shared split per piece: at ``target`` 2**-m,
    ``ProductGeometry.refine_cells`` at m, its integer pieces read as
    ``Fraction``s, must return the same cells in the same order.
    """
    from cantorforge.cantor1d import GapTree

    cells = list(cells)
    for j, factor in enumerate(geometry.factors):
        if not isinstance(factor, GapTree):
            continue
        cells = [
            cell[:j] + (part,) + cell[j + 1:] for cell in cells for part in _reference_pieces(factor, cell[j], target)
        ]
    return cells


def _reference_pieces(tree, part, target):
    """The pieces of a tree part ``(addr, lo, hi)`` no wider than
    ``target``, left to right, from ``interval`` on the child addresses;
    a part at the tree's depth stays."""
    addr, lo, hi = part
    if hi - lo <= target or len(addr) >= tree.depth:
        return [part]
    out = []
    for child in (addr + "0", addr + "1"):
        iv = tree.interval(child)
        out.extend(_reference_pieces(tree, (child, iv.lo, iv.hi), target))
    return out


def reference_cover_components(geometry, cells, m, parent_path, bits):
    """The mapped cover one cell at a time, as (path, cells, rects, bbox).

    Cells are refined by ``reference_refine_cells``.  Every refined cell
    gets its own ``ProductGeometry.cell_image_box``, its cube range comes
    from ``math.ceil``/``math.floor`` on ``Fraction``s, and two cells are
    joined when their ranges come within one cube on every axis, tested
    over all pairs.  Components are ordered by their least cube index per
    axis, ties by their first cell, and their bounding boxes are snapped
    outward to ``2**-bits``.  ``NestedRep._cover_components`` must give
    the same paths, cells, rects and boxes.
    """
    import math

    refined = reference_refine_cells(geometry, cells, Fraction(1, 1 << m))
    scale = 1 << m
    unit = 1 << bits
    boxes = [tuple((v.lo, v.hi) for v in geometry.cell_image_box(cell)) for cell in refined]
    rects = [
        tuple((math.ceil(lo * scale - 1), math.floor(hi * scale)) for lo, hi in box) for box in boxes
    ]
    label = list(range(len(refined)))
    for i, j in combinations(range(len(refined)), 2):
        if label[i] != label[j] and all(
            b_lo <= a_hi + 1 and a_lo <= b_hi + 1 for (a_lo, a_hi), (b_lo, b_hi) in zip(rects[i], rects[j])
        ):
            old, new = label[j], label[i]
            label = [new if x == old else x for x in label]
    groups = {}
    for i, x in enumerate(label):
        groups.setdefault(x, []).append(i)
    comps = []
    for members in groups.values():
        corner = tuple(min(rects[i][axis][0] for i in members) for axis in range(geometry.dim))
        bbox = tuple(
            (
                Fraction(math.floor(min(boxes[i][axis][0] for i in members) * unit), unit),
                Fraction(math.ceil(max(boxes[i][axis][1] for i in members) * unit), unit),
            )
            for axis in range(geometry.dim)
        )
        members_rects = tuple(sorted({rects[i] for i in members}))
        comps.append((corner, tuple(refined[i] for i in members), members_rects, bbox))
    comps.sort(key=lambda item: item[0])
    return [(f"{parent_path}.{idx}", *comp[1:]) for idx, comp in enumerate(comps)]


# ---------------------------------------------------------------------------
# ratio scans

def reference_corner_ratio_scan(cells_a, cells_b, rows, d):
    """Min/max |delta_i|/|delta_j|, i != j, over the corners of every cell
    pair's difference box, in ``Fraction``s and ``Interval``s.

    Cells are per-axis ``(lo, hi)`` rationals and ``rows`` is None or a
    matrix of ``Interval`` entries.  A corner's image on axis i is the interval
    sum of the entries scaled by the corner.  A cell pair must keep one
    strict sign on every axis at all of its corners, else
    ``DegeneratePair``; then every ordered axis pair gives its own lower
    and upper bound at every corner, divided out in ``Fraction``s.  One
    axis has no ratio and raises ValueError.
    ``nested_rd._corner_ratio_scan`` over ``_read_cells`` must return
    the same pair, or raise on the same input.
    """
    from cantorforge.cantor1d import Interval
    from cantorforge.nested_rd import DegeneratePair

    if d < 2:
        raise ValueError("ratio bounds need at least two axes")
    lo_best = None
    hi_best = None
    for cell_a in cells_a:
        for cell_b in cells_b:
            diff = [Interval(a_lo - b_hi, a_hi - b_lo) for (a_lo, a_hi), (b_lo, b_hi) in zip(cell_a, cell_b)]
            images = []
            for corner in product(*((v.lo, v.hi) if v.lo != v.hi else (v.lo,) for v in diff)):
                if rows is None:
                    images.append([Interval.point(x) for x in corner])
                    continue
                image = []
                for i in range(d):
                    acc = Interval.point(0)
                    for j in range(d):
                        acc = acc + rows[i][j] * Interval.point(corner[j])
                    image.append(acc)
                images.append(image)
            for axis in range(d):
                if not (all(im[axis].lo > 0 for im in images) or all(im[axis].hi < 0 for im in images)):
                    raise DegeneratePair(axis)
            for image in images:
                mags = [v.abs() for v in image]
                for i in range(d):
                    for j in range(d):
                        if i == j:
                            continue
                        lo = mags[i].lo / mags[j].hi
                        hi = mags[i].hi / mags[j].lo
                        lo_best = lo if lo_best is None else min(lo_best, lo)
                        hi_best = hi if hi_best is None else max(hi_best, hi)
    return lo_best, hi_best


# ---------------------------------------------------------------------------
# product covers

def reference_product_components(geometry, axes, m, parent_path, bits):
    """The product cover below one component in ``Fraction``s, axis by axis.

    ``axes`` holds per axis the pieces ``((addr, lo, hi), key)`` of the
    component, left to right, with rational ends; a key is the piece's
    position within its parent piece at every level.  Each piece is split
    by ``_reference_pieces`` and the pieces of an axis are grouped left to
    right, a new group starting when a piece's cube range, from
    ``math.ceil``/``math.floor`` of the shifted ends, begins more than one
    cube past the previous piece's.  A group's box is its first piece's
    low end and its last piece's high end, shifted and snapped outward to
    ``2**-bits`` with ``math.floor``/``math.ceil`` when the geometry is
    shifted.  The components are the products of the groups, in
    ``itertools.product`` order.  Returns ``(path, axes, bbox)`` per
    component and the largest squared diameter among them.
    """
    import math

    from cantorforge.cantor1d import GapTree

    target = Fraction(1, 1 << m)
    scale = 1 << m
    unit = 1 << bits
    snap = any(s.lo != 0 or s.hi != 0 for s in geometry.shift)
    per_axis = []
    for factor, shift, pieces in zip(geometry.factors, geometry.shift, axes):
        groups = []
        reach = None
        for part, key in pieces:
            subs = _reference_pieces(factor, part, target) if isinstance(factor, GapTree) else [part]
            for pos, sub in enumerate(subs):
                lo = math.ceil((sub[1] + shift.lo) * scale - 1)
                if reach is None or lo > reach + 1:
                    groups.append([])
                groups[-1].append((sub, key + (pos,)))
                reach = math.floor((sub[2] + shift.hi) * scale)
        boxes = []
        for group in groups:
            lo, hi = group[0][0][1], group[-1][0][2]
            if snap:
                lo = Fraction(math.floor((lo + shift.lo) * unit), unit)
                hi = Fraction(math.ceil((hi + shift.hi) * unit), unit)
            boxes.append((tuple(group), (lo, hi)))
        per_axis.append(boxes)
    comps = [
        (f"{parent_path}.{idx}", tuple(pieces for pieces, _ in combo), tuple(box for _, box in combo))
        for idx, combo in enumerate(product(*per_axis))
    ]
    widest = sum(max(hi - lo for _, (lo, hi) in groups) ** 2 for groups in per_axis)
    return comps, widest


def reference_product_cells(axes):
    """The cells of a product component: every combination of its pieces,
    ordered by the interleaved keys (level by level, axis 0 first), which
    is the order of a cell-by-cell refinement."""
    combos = product(*axes)
    ordered = sorted(combos, key=lambda combo: tuple(k for level in zip(*(key for _, key in combo)) for k in level))
    return tuple(tuple(part for part, _ in combo) for combo in ordered)


def reference_product_rects(geometry, axes, m):
    """The cube ranges of a product component: per axis the sorted set of
    its pieces' shifted ranges, from ``math.ceil``/``math.floor``, and
    every combination of them."""
    import math

    scale = 1 << m
    per_axis = [
        sorted(
            {(math.ceil((lo + s.lo) * scale - 1), math.floor((hi + s.hi) * scale)) for (_, lo, hi), _ in pieces}
        )
        for pieces, s in zip(axes, geometry.shift)
    ]
    return tuple(product(*per_axis))


def rect_coords(rects):
    """The sorted index tuples of the cubes in ``rects``, each rect per
    axis a ``(lo, hi)`` range of cube indices: what ``cube_coords`` of a
    component with those cube ranges returns."""
    return sorted({coords for rect in rects for coords in product(*(range(lo, hi + 1) for lo, hi in rect))})


def reference_box_ratios(axes_a, axes_b):
    """Ratio bounds of two separated product components from their boxes
    of unshifted pieces: with gap_i and span_i the least and greatest
    axis-i distance between them, min gap_i/span_j and max span_i/gap_j
    over axes i != j, in ``Fraction``s."""
    gaps, spans = [], []
    for pieces_a, pieces_b in zip(axes_a, axes_b):
        a_lo, a_hi = pieces_a[0][0][1], pieces_a[-1][0][2]
        b_lo, b_hi = pieces_b[0][0][1], pieces_b[-1][0][2]
        gaps.append(max(b_lo - a_hi, a_lo - b_hi))
        spans.append(max(b_hi - a_lo, a_hi - b_lo))
    pairs = [(i, j) for i in range(len(gaps)) for j in range(len(gaps)) if i != j]
    return min(gaps[i] / spans[j] for i, j in pairs), max(spans[i] / gaps[j] for i, j in pairs)


# ---------------------------------------------------------------------------
# certificate search

def reference_und_certificate(rep, kappa=None, max_k=2, depth=1, keep_cells=True):
    """The certificate search with every candidate list built in full.

    At each node the candidates k refinement steps down are expanded level
    by level, all of them, before the search reads one; the first clique
    comes from a plain loop over ``range(n)``, and ``d_min`` is held to the
    margin as a ``Fraction`` comparison.  ``und_certificate`` builds its
    candidates only as far as its clique search reads them and must give
    the same certificate, or a ``CertificateNotFound`` with the same text.
    """
    from cantorforge.nested_rd import (
        DEFAULT_SEPARATION_MARGIN,
        CertificateNotFound,
        CertNode,
        DegeneratePair,
        UndCertificate,
        _confinement_explanation,
        d_min,
        kappa_ratios,
    )

    margin = DEFAULT_SEPARATION_MARGIN
    kappa = None if kappa is None else Fraction(kappa)
    need = rep.dim + 1

    def joins(a, b):
        sep = d_min(a, b)
        if sep < margin:
            return None
        if kappa is None:
            return sep, None
        try:
            lo, hi = kappa_ratios(a, b)
        except DegeneratePair:
            return None
        return (sep, (lo, hi)) if hi <= kappa else None

    def first_clique(n, pair, stack, start):
        if len(stack) == need:
            return stack
        for cand in range(start, n):
            if all(pair(i, cand) for i in stack):
                found = first_clique(n, pair, stack + (cand,), cand + 1)
                if found:
                    return found
        return None

    def node(level1, path, remaining):
        probe = []
        for k in range(1, max_k + 1):
            comps = level1
            for _ in range(k - 1):
                comps = [child for c in comps for child in c.children()]
            if not probe or len(comps) >= need:
                probe = comps
            if len(comps) < need:
                continue
            cache = {}

            def pair(i, j):
                if (i, j) not in cache:
                    cache[(i, j)] = joins(comps[i], comps[j])
                return cache[(i, j)]

            combo = first_clique(len(comps), pair, (), 0)
            if combo is None:
                continue
            selected = tuple(comps[i] for i in combo)
            dmins, ratios = {}, ({} if kappa is not None else None)
            for (a, i), (b, j) in combinations(enumerate(combo), 2):
                sep, rat = pair(i, j)
                dmins[(a, b)] = sep
                if rat is not None:
                    ratios[(a, b)] = rat
            children = tuple(
                node(c.children(), c.path, remaining - 1) for c in (selected if remaining > 1 else ())
            )
            for c in (*level1, *selected):
                c.prune(keep_cells)
            return CertNode(k, selected, dmins, ratios, children)
        raise CertificateNotFound(path, max_k, _confinement_explanation(need - 1, probe, margin))

    root = node(rep.root_components, "r", depth)
    return UndCertificate(rep.dim, kappa, depth, margin, rep.bits, root, rep.geometry.matrix, rep.geometry.shift)
