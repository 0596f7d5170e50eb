"""Nested cube representations and non-degeneracy certificates in R^d.

The geometry model is a product of one-dimensional pieces (gap trees or
single points), optionally pushed through an affine map whose entries are
tiny intervals.  At dyadic scale 2**-m the set is covered by the closed
cubes of that side meeting it; connected components of the cover (cubes
that share even a corner count as adjacent) are the nodes of the nested
representation.

A matrix-free geometry, shifted or not, is covered axis by axis.  Two
product cells touch exactly when their factor intervals touch on every
axis, so the cover graph is the strong product of the per-axis cover
graphs, and the connected components of a strong product are exactly the
products of the per-axis components.  Each axis refines and merges its
own 1-D pieces, and a node's children are the product of the per-axis
children.  A mapped geometry mixes the axes, so its cover is built from
the image boxes of the product cells with a union-find; each box is a sum
of per-axis image columns, one column per factor piece.

A non-degeneracy certificate picks, inside every node, d+1 descendant
components that are pairwise separated on every coordinate axis.  All
separations are reported as certified lower bounds computed from outward
boxes, so a certificate that exists is a proof.  Ratio bounds for the
kappa-comparability test are evaluated per cell pair at the corners of the
joint difference box, which is where a coordinate ratio of affine
functions attains its extremes once every coordinate keeps one strict sign
over the box; a pair whose corners do not pin every sign is degenerate.
The scan runs on integers: cell endpoints are numerators over one common
denominator and matrix entries over another, which a ratio of two image
coordinates cancels, and candidate ratios are compared by
cross-multiplying.  For a product the extremes reduce to the gaps and
spans of the two per-axis boxes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .cantor1d import (
    CantorForgeError,
    GapTree,
    Interval,
    SymmetricGapTree,
    as_rat,
    canonical_json,
    rat_pair,
    rat_from_pair,
)
from .dyadic import precision_bits, round_down, round_up, sqrt_bounds

DEFAULT_SEPARATION_MARGIN = Fraction(1, 1 << 40)

# A cell is a tuple over factors of (addr, lo, hi); addr is None for a point
# factor.  The endpoints ride along so refinement never re-walks a tree.


class EmptyGeometry(CantorForgeError):
    pass


class DegeneratePair(CantorForgeError):
    def __init__(self, axis: int, message: str | None = None):
        self.axis = axis
        super().__init__(message or f"component pair not separated along axis {axis}")


class CertificateNotFound(CantorForgeError):
    def __init__(self, node_path: str, max_k: int, explanation: str):
        self.node_path = node_path
        self.max_k = max_k
        self.explanation = explanation
        super().__init__(
            f"no separated selection at node {node_path!r} within {max_k} descent steps: {explanation}"
        )


class AllCandidatesFailed(CantorForgeError):
    def __init__(self, failures: list[tuple[str, str]]):
        self.failures = failures
        detail = "; ".join(f"{name}: {why}" for name, why in failures)
        super().__init__(f"every rotation candidate failed ({detail})")


class InvalidCertificate(CantorForgeError):
    pass


# ---------------------------------------------------------------------------
# rotation matrices


def _as_interval(e) -> Interval:
    """A matrix entry or shift given as an Interval or as one rational."""
    return e if isinstance(e, Interval) else Interval.point(e)


def _mat_mul(a, b):
    d = len(a)
    return [
        [sum((a[i][k] * b[k][j] for k in range(d)), Interval.point(0)) for j in range(d)]
        for i in range(d)
    ]


class RotationMatrix:
    """Near-orthogonal matrix with interval entries and a verified defect.

    The defect is an exact upper bound on max |(O^T O - I)_{ij}| over all
    real matrices inside the entry intervals.  Candidates are only usable
    below the caller's orthogonality tolerance.
    """

    def __init__(self, name: str, rows):
        self.name = name
        self.rows = tuple(tuple(_as_interval(e) for e in row) for row in rows)
        d = len(self.rows)
        if any(len(row) != d for row in self.rows):
            raise ValueError("rotation matrix must be square")
        self.dim = d
        defect = Fraction(0)
        for i in range(d):
            for j in range(d):
                acc = Interval.point(0)
                for k in range(d):
                    acc = acc + self.rows[k][i] * self.rows[k][j]
                if i == j:
                    acc = acc - Interval.point(1)
                defect = max(defect, acc.abs().hi)
        self.defect = defect

    @staticmethod
    def identity(d: int) -> "RotationMatrix":
        rows = [[Interval.point(1 if i == j else 0) for j in range(d)] for i in range(d)]
        return RotationMatrix("identity", rows)

    @staticmethod
    def axis_mixing(d: int, bits: int | None = None) -> "RotationMatrix":
        """Quarter-turn mix so no coordinate direction survives unmixed.

        For d = 2 this sends e1 to (-e1 + e2)/sqrt(2) and e2 to
        (e1 + e2)/sqrt(2); higher d chains the same turn through the
        coordinate planes (0,1), (1,2), ...
        """
        bits = precision_bits(bits)
        lo, hi = sqrt_bounds(Fraction(1, 2), bits + 16)
        s = Interval(lo, hi)
        result = [[Interval.point(1 if i == j else 0) for j in range(d)] for i in range(d)]
        for axis in range(d - 1):
            givens = [[Interval.point(1 if i == j else 0) for j in range(d)] for i in range(d)]
            givens[axis][axis] = -s
            givens[axis][axis + 1] = s
            givens[axis + 1][axis] = s
            givens[axis + 1][axis + 1] = s
            result = _mat_mul(givens, result)
        return RotationMatrix("axis-mixing", result)

    @staticmethod
    def quasi_random(d: int, seed: int, bits: int | None = None) -> "RotationMatrix":
        """Seeded near-rotation from exact Gram-Schmidt.

        Projections are exact rational arithmetic, so distinct columns come
        out exactly orthogonal; only the normalization is approximate,
        leaving a diagonal defect around 2**-(bits+14).
        """
        import random

        bits = precision_bits(bits)
        rng = random.Random(seed)
        while True:
            cols = [
                [Fraction(rng.getrandbits(48) - (1 << 47), 1 << 47) for _ in range(d)]
                for _ in range(d)
            ]
            ortho: list[list[Fraction]] = []
            ok = True
            for v in cols:
                u = list(v)
                for w in ortho:
                    ww = sum(x * x for x in w)
                    vw = sum(x * y for x, y in zip(u, w))
                    coef = vw / ww
                    u = [x - coef * y for x, y in zip(u, w)]
                if all(x == 0 for x in u):
                    ok = False
                    break
                ortho.append(u)
            if ok:
                break
        rows: list[list[Interval]] = [[Interval.point(0)] * d for _ in range(d)]
        for j, u in enumerate(ortho):
            norm_sq = sum(x * x for x in u)
            lo, hi = sqrt_bounds(norm_sq, bits + 16)
            mid = (lo + hi) / 2
            for i in range(d):
                rows[i][j] = Interval.point(u[i] / mid)
        return RotationMatrix(f"quasi-random-{seed}", rows)

    def to_json_obj(self):
        return {
            "name": self.name,
            "rows": [[[rat_pair(e.lo), rat_pair(e.hi)] for e in row] for row in self.rows],
            "defect": rat_pair(self.defect),
        }

    @staticmethod
    def from_json_obj(obj) -> "RotationMatrix":
        rows = [
            [Interval(rat_from_pair(e[0]), rat_from_pair(e[1])) for e in row] for row in obj["rows"]
        ]
        return RotationMatrix(obj["name"], rows)


# ---------------------------------------------------------------------------
# geometry


class ProductGeometry:
    """Product of 1-D factors (gap trees or fixed points), optionally mapped.

    The map, when present, applies to the whole product vector; entries may
    be exact rationals or thin intervals (irrational rotations).
    """

    def __init__(self, factors, matrix: RotationMatrix | None = None, shift=None):
        factors = tuple(factors)
        if not factors:
            raise EmptyGeometry("a product geometry needs at least one factor")
        self.factors = tuple(f if isinstance(f, GapTree) else as_rat(f) for f in factors)
        self.dim = len(self.factors)
        if matrix is not None and matrix.dim != self.dim:
            raise ValueError("matrix dimension does not match the factor count")
        self.matrix = matrix
        if shift is None:
            shift = (Fraction(0),) * self.dim
        self.shift = tuple(_as_interval(s) for s in shift)
        self._splitters: dict = {}

    def with_matrix(self, matrix: RotationMatrix) -> "ProductGeometry":
        if self.matrix is not None:
            composed = RotationMatrix(
                f"{matrix.name}*{self.matrix.name}", _mat_mul(matrix.rows, self.matrix.rows)
            )
        else:
            composed = matrix
        return ProductGeometry(self.factors, composed, self.shift)

    def top_cell(self) -> tuple:
        parts = []
        for f in self.factors:
            if isinstance(f, GapTree):
                parts.append(("", f.hull.lo, f.hull.hi))
            else:
                parts.append((None, f, f))
        return tuple(parts)

    def cell_image_box(self, cell) -> tuple[Interval, ...]:
        """Exact interval box of the cell's image, before any rounding."""
        if self.matrix is None:
            return tuple(
                Interval(lo, hi) + self.shift[i] for i, (_, lo, hi) in enumerate(cell)
            )
        out = []
        for i in range(self.dim):
            acc = self.shift[i]
            row = self.matrix.rows[i]
            for j, (_, lo, hi) in enumerate(cell):
                acc = acc + row[j] * Interval(lo, hi)
            out.append(acc)
        return tuple(out)

    def exact_hull_box(self) -> tuple[Interval, ...]:
        return self.cell_image_box(self.top_cell())

    def part_splitter(self, j: int, target: Fraction):
        """Function taking a factor-``j`` part ``(addr, lo, hi)`` to its
        pieces no wider than ``target``, left to right.

        A factor whose tree runs out of depth stays at its leaf interval;
        the cover just stays coarser there, which is sound.  Splitters are
        cached per factor and target, so a symmetric tree's stopping depth
        is found once per level, not once per part.
        """
        key = (j, target)
        splitter = self._splitters.get(key)
        if splitter is None:
            splitter = self._splitters[key] = self._make_splitter(self.factors[j], target)
        return splitter

    @staticmethod
    def _make_splitter(f, target: Fraction):
        if not isinstance(f, GapTree):
            return lambda part: (part,)
        split = f.split_interval
        depth = f.depth
        if isinstance(f, SymmetricGapTree):
            # One interval width per level: the stopping depth is a
            # function of the target alone, so no per-part width checks.
            stop = next((lvl for lvl, width in enumerate(f.level_lengths) if width <= target), depth)

            def split_symmetric(part):
                parts = [part]
                for _ in range(stop - len(part[0])):
                    parts = [half for p in parts for half in split(*p)]
                return parts

            return split_symmetric

        def split_explicit(part):
            stack = [part]
            parts = []
            while stack:
                part = stack.pop()
                addr, lo, hi = part
                if hi - lo <= target or len(addr) >= depth:
                    parts.append(part)
                else:
                    left, right = split(addr, lo, hi)
                    stack.append(right)
                    stack.append(left)
            return parts

        return split_explicit

    def refine_cells(self, cells, target: Fraction) -> list[tuple]:
        """Split cells until every tree factor's interval is <= target wide.

        The cells of a component share pieces, so each distinct piece is
        split once per axis, keyed by its address (a point factor has the
        single address None).  A cell's refinement is the product of its
        pieces' splits: cell by cell, then by position on axis 0, axis 1,
        and so on, the order a factor-after-factor split gives.
        """
        splitters = [self.part_splitter(j, target) for j in range(self.dim)]
        splits = [{} for _ in range(self.dim)]
        out = []
        for cell in cells:
            per_axis = []
            for split, seen, part in zip(splitters, splits, cell):
                pieces = seen.get(part[0])
                if pieces is None:
                    pieces = seen[part[0]] = split(part)
                per_axis.append(pieces)
            out.extend(itertools.product(*per_axis))
        return out


# ---------------------------------------------------------------------------
# cube covers and components

class Component:
    """One connected component of the cube cover at level ``m``.

    Keeps the source cells it came from (ratio bounds and export need
    them), the outward bounding box, and the cube index ranges for export.
    A component of a matrix-free geometry is a product and keeps only its
    per-axis pieces in ``axes``; its ``cells`` and ``rects`` are built from
    them on first use.  Children are the components of the refined cover
    one step deeper, computed on first use and cached.
    """

    __slots__ = ("rep", "level", "bbox", "path", "axes", "_cells", "_rects", "_children")

    def __init__(self, rep, level, bbox, path, *, cells=None, rects=None, axes=None):
        self.rep = rep
        self.level = level
        self.bbox = bbox
        self.path = path
        self.axes = axes
        self._cells = cells
        self._rects = rects
        self._children = None

    @property
    def cells(self) -> tuple:
        if self._cells is None:
            self._cells = _product_cells(self.axes)
        return self._cells

    @property
    def rects(self) -> tuple:
        if self._rects is None:
            scale = 1 << self.level
            shift = self.rep.geometry.shift
            self._rects = tuple(
                itertools.product(
                    *(
                        sorted({_cube_range(lo + s.lo, hi + s.hi, scale) for (_, lo, hi), _ in pieces})
                        for pieces, s in zip(self.axes, shift)
                    )
                )
            )
        return self._rects

    @property
    def stripped(self) -> bool:
        return self._cells == ()

    def diam_sq(self) -> Fraction:
        return sum((iv.hi - iv.lo) ** 2 for iv in self.bbox)

    def children(self) -> list["Component"]:
        if self._children is None:
            if self.stripped:
                raise EmptyGeometry(f"component {self.path} was stripped and cannot expand")
            level = self.level + self.rep.refine_step
            if level > self.rep.max_level:
                self._children = []
            else:
                self._children, widest_sq = self.rep._expand(self, level)
                if widest_sq >= self.diam_sq():
                    self.rep.not_shrinking.append(self.path)
        return self._children

    def descendants(self, k: int) -> list["Component"]:
        comps = [self]
        for _ in range(k):
            comps = [child for c in comps for child in c.children()]
        return comps

    def strip(self):
        """Drop cell-level data to keep deep certificate searches small.

        The bounding box and path survive, which is all that separation
        sequences and chains need."""
        self.axes = ()
        self._cells = ()
        self._rects = ()

    def cube_coords(self) -> list[tuple[int, ...]]:
        seen = set()
        for rect in self.rects:
            for coords in itertools.product(*(range(lo, hi + 1) for lo, hi in rect)):
                seen.add(coords)
        return sorted(seen)

    def to_json_obj(self, with_cubes: bool = True) -> dict:
        if self.stripped:
            raise InvalidCertificate("component was stripped; rebuild with keep_cells=True to export")
        obj = {
            "level": self.level,
            "bbox": [[rat_pair(iv.lo), rat_pair(iv.hi)] for iv in self.bbox],
            "source_cells": [
                [[rat_pair(lo), rat_pair(hi)] for (_, lo, hi) in cell] for cell in self.cells
            ],
        }
        if with_cubes:
            obj["cubes"] = [self.level, [list(c) for c in self.cube_coords()]]
        return obj


def _cube_range(lo: Fraction, hi: Fraction, scale: int) -> tuple[int, int]:
    """Index range of the closed cubes of side 1/scale meeting [lo, hi]:
    ceil(lo*scale - 1) and floor(hi*scale), in plain ints."""
    dn, dd = lo.numerator, lo.denominator
    return -((dd - dn * scale) // dd), (hi.numerator * scale) // hi.denominator


def _product_cells(axes) -> tuple:
    """The cells of a product component, in the order a cell-by-cell
    refinement produces them.

    ``refine_cells`` splits factor after factor, so at every level a cell
    follows its parent cell and then its position within the parent on
    axis 0, axis 1, and so on.  Each piece carries those positions, one per
    level, as its key; interleaving the keys of the axes gives that order.
    """
    combos = sorted(
        itertools.product(*axes),
        key=lambda combo: tuple(itertools.chain.from_iterable(zip(*(key for _, key in combo)))),
    )
    return tuple(tuple(part for part, _ in combo) for combo in combos)


class NestedRep:
    """Lazily expanded tree of cube-cover components.

    ``root_components`` are the components at level ``m0``; each component
    hands out its own children at ``m0 + refine_step`` and so on down to
    ``max_level``.  Nodes that fail to shrink are recorded on
    ``not_shrinking`` as they are discovered, never raised.
    """

    def __init__(self, geometry: ProductGeometry, m0: int, max_level: int, refine_step: int, bits: int):
        self.geometry = geometry
        self.m0 = m0
        self.max_level = max_level
        self.refine_step = refine_step
        self.bits = bits
        self.not_shrinking: list[str] = []
        self.exact_hull = geometry.exact_hull_box()
        # A shifted product snaps its boxes outward to the dyadic grid, as
        # the mapped cover does; an unshifted one keeps its exact endpoints.
        self._snap = any(s.lo != 0 or s.hi != 0 for s in geometry.shift)
        top = geometry.top_cell()
        if geometry.matrix is None:
            root, _ = self._product_components(tuple(((part, ()),) for part in top), m0, "r")
        else:
            root, _ = self._cover_components([top], m0, "r")
        self.root_components = root

    @property
    def dim(self) -> int:
        return self.geometry.dim

    def _expand(self, comp: Component, m: int) -> tuple[list[Component], Fraction]:
        """Children of ``comp`` at level ``m`` and the largest squared
        diameter among them."""
        if self.geometry.matrix is None:
            return self._product_components(comp.axes, m, comp.path)
        return self._cover_components(comp.cells, m, comp.path)

    def _product_components(self, axes, m: int, parent_path: str) -> tuple[list[Component], Fraction]:
        """Cover of a product component, axis by axis.

        ``axes`` holds per axis the pieces ``(part, key)`` of the component.
        Each axis refines its own pieces and merges them into 1-D components
        with one left-to-right sweep: pieces touch when their cube index
        ranges come within one cube of each other.  Two product cells touch
        exactly when their pieces touch on every axis, so the cover graph is
        the strong product of the per-axis graphs and its components are
        the products of the per-axis components.  The widest product is
        widest on every axis at once, which gives the largest squared
        diameter without a pass over the products.
        """
        target = Fraction(1, 1 << m)
        scale = 1 << m
        per_axis = []
        for j, pieces in enumerate(axes):
            split = self.geometry.part_splitter(j, target)
            shift = self.geometry.shift[j]
            groups: list[list] = []
            reach = None
            for part, key in pieces:
                for pos, sub in enumerate(split(part)):
                    _, lo, hi = sub
                    if self._snap:
                        lo, hi = lo + shift.lo, hi + shift.hi
                    lo, hi = _cube_range(lo, hi, scale)
                    if reach is None or lo > reach + 1:
                        groups.append([])
                    groups[-1].append((sub, key + (pos,)))
                    reach = hi
            # Pieces run left to right, so a group reaches as far as its
            # last piece, and its extremes are the low end of its first
            # piece and the high end of its last.
            per_axis.append(
                [(tuple(g), self._axis_box(g[0][0][1], g[-1][0][2], shift)) for g in groups]
            )
        children = [
            Component(
                self,
                m,
                tuple(box for _, box in combo),
                f"{parent_path}.{idx}",
                axes=tuple(pieces for pieces, _ in combo),
            )
            for idx, combo in enumerate(itertools.product(*per_axis))
        ]
        return children, sum(max(box.length for _, box in groups) ** 2 for groups in per_axis)

    def _axis_box(self, lo: Fraction, hi: Fraction, shift: Interval) -> Interval:
        if self._snap:
            return Interval(round_down(lo + shift.lo, self.bits), round_up(hi + shift.hi, self.bits))
        return Interval(lo, hi)

    def _cover_components(self, cells, m: int, parent_path: str) -> tuple[list[Component], Fraction]:
        """Cover of a mapped component, and the largest squared diameter
        among its components: cell image boxes and a union-find.

        A linear map sends a product cell P_0 x ... x P_{d-1} to
        shift + sum_j col_j(M) * P_j, and the interval column col_j(M) * P_j
        depends only on the axis j and the piece P_j.  So each column is
        computed once per piece, keyed by its address (a point factor has
        the single address None), and a cell's image box is a sum of
        columns.  All of it runs on ints: the pieces of axis j are numerators
        over a denominator of their own, the matrix entries over another
        (``_integer_rows``), so M_ij * P_j is the min and max of four int
        products, scaled with the shift to one common denominator D.  A
        cell's box is then a sum of ints, its cube range two floor
        divisions, and a component's bounding box is snapped outward to
        2**-bits by one floor division per end.  All of it is exact, so the
        boxes are those of ``ProductGeometry.cell_image_box``, snapped.
        """
        geometry = self.geometry
        refined = geometry.refine_cells(list(cells), Fraction(1, 1 << m))
        if not refined:
            raise EmptyGeometry("no cells to cover")
        d = geometry.dim
        # Per axis j: piece address -> (lo, hi) of the piece.
        pieces = [{} for _ in range(d)]
        for cell in refined:
            for table, (addr, lo, hi) in zip(pieces, cell):
                if addr not in table:
                    table[addr] = (lo, hi)
        row_den, rows = _integer_rows(geometry.matrix.rows)
        piece_dens = [math.lcm(*(end.denominator for ends in table.values() for end in ends)) for table in pieces]
        shift = [end for s in geometry.shift for end in (s.lo, s.hi)]
        den = math.lcm(*(row_den * piece_den for piece_den in piece_dens), *(end.denominator for end in shift))
        offset = tuple(_over(end, den) for end in shift)
        # Per axis j: piece address -> the flat numerators over den of the
        # products M_ij * P_j, (lo_0, hi_0, lo_1, hi_1, ...).
        columns = []
        for j, (table, piece_den) in enumerate(zip(pieces, piece_dens)):
            scale = den // (row_den * piece_den)
            column = {}
            for addr, (lo, hi) in table.items():
                x_lo, x_hi = _over(lo, piece_den), _over(hi, piece_den)
                ends = []
                for row in rows:
                    m_lo, m_hi = row[j]
                    products = (m_lo * x_lo, m_lo * x_hi, m_hi * x_lo, m_hi * x_hi)
                    ends += (min(products) * scale, max(products) * scale)
                column[addr] = tuple(ends)
            columns.append(column)
        boxes = [
            tuple(map(sum, zip(offset, *(column[part[0]] for column, part in zip(columns, cell)))))
            for cell in refined
        ]
        # Closed cubes of side 2**-m meeting [lo, hi]: ceil(lo*2**m - 1)
        # and floor(hi*2**m), as in _cube_range.
        rects = [
            tuple((-((den - (box[k] << m)) // den), (box[k + 1] << m) // den) for k in range(0, 2 * d, 2))
            for box in boxes
        ]

        # Union-find over cells.  Each cell's cubes form one block, and two
        # blocks touch (corners included) exactly when their cube index
        # ranges come within one cube of each other on every axis, so cube
        # enumeration is never needed.  A sweep along axis 0 keeps the pair
        # scan short.
        n = len(rects)
        parent = list(range(n))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        order = sorted(range(n), key=lambda i: rects[i][0][0])
        for pos, i in enumerate(order):
            ri = rects[i]
            reach = ri[0][1] + 1
            for j in order[pos + 1:]:
                rj = rects[j]
                if rj[0][0] > reach:
                    break
                for axis in range(1, d):
                    if rj[axis][0] > ri[axis][1] + 1 or ri[axis][0] > rj[axis][1] + 1:
                        break
                else:
                    root_i, root_j = find(i), find(j)
                    if root_i != root_j:
                        parent[root_j] = root_i

        groups: dict[int, list[int]] = {}
        for i in range(n):
            groups.setdefault(find(i), []).append(i)
        bits = self.bits
        unit = 1 << bits
        comps = []
        widest = 0
        for members in groups.values():
            # Outward snap: floor(lo * 2**bits) and ceil(hi * 2**bits) over den.
            ends = [
                (
                    (min(boxes[i][k] for i in members) << bits) // den,
                    -((-max(boxes[i][k + 1] for i in members) << bits) // den),
                )
                for k in range(0, 2 * d, 2)
            ]
            widest = max(widest, sum((hi - lo) ** 2 for lo, hi in ends))
            comps.append(
                (
                    tuple(min(rects[i][axis][0] for i in members) for axis in range(d)),
                    tuple(refined[i] for i in members),
                    tuple(sorted({rects[i] for i in members})),
                    tuple(Interval(Fraction(lo, unit), Fraction(hi, unit)) for lo, hi in ends),
                )
            )
        comps.sort(key=lambda item: item[0])
        children = [
            Component(self, m, bbox, f"{parent_path}.{idx}", cells=cells_, rects=rects_)
            for idx, (_, cells_, rects_, bbox) in enumerate(comps)
        ]
        return children, Fraction(widest, unit * unit)


def build_nested_rep(
    geometry: ProductGeometry,
    m0: int,
    max_level: int,
    refine_step: int = 2,
    bits: int | None = None,
) -> NestedRep:
    """Cover the geometry at dyadic levels m0, m0+step, ... up to max_level."""
    if m0 < 0:
        raise ValueError("m0 must be non-negative")
    if max_level <= m0:
        raise ValueError("max_level must exceed m0")
    if refine_step < 1:
        raise ValueError("refine_step must be at least 1")
    return NestedRep(geometry, m0, max_level, refine_step, precision_bits(bits))


def components_at(rep: NestedRep, level_index: int) -> list[Component]:
    """Components at the level_index-th cover level (0 = the m0 cover)."""
    comps = rep.root_components
    for _ in range(level_index):
        comps = [child for c in comps for child in c.children()]
    return comps


# ---------------------------------------------------------------------------
# separations and ratios


def d_min(a, b) -> Fraction:
    """Certified axis-wise separation lower bound for two components.

    Per axis this is the gap between the bounding-box projections (zero if
    they overlap or touch); the result is the minimum over axes.  Boxes are
    outward, so the true sets are at least this far apart on every axis.
    """
    box_a = a.bbox if isinstance(a, Component) else a
    box_b = b.bbox if isinstance(b, Component) else b
    best = None
    for ia, ib in zip(box_a, box_b):
        if ib.lo > ia.hi:
            gap = ib.lo - ia.hi
        elif ia.lo > ib.hi:
            gap = ia.lo - ib.hi
        else:
            return Fraction(0)
        if best is None or gap < best:
            best = gap
    return best


def _over(x, den: int) -> int:
    """Numerator of the rational ``x`` over ``den``, a multiple of its denominator."""
    return x.numerator * (den // x.denominator)


def _integer_cells(cell_lists) -> tuple[int, list[list[tuple]]]:
    """Cells of several lists, each a sequence of per-axis ``(lo, hi)``
    rationals, as ``(lo, hi)`` integer numerators over one common
    denominator; returns the denominator and the lists."""
    den = math.lcm(*(end.denominator for cells in cell_lists for cell in cells for pair in cell for end in pair))
    return den, [
        [tuple((_over(lo, den), _over(hi, den)) for lo, hi in cell) for cell in cells] for cells in cell_lists
    ]


def _integer_rows(rows) -> tuple[int, list[list[tuple[int, int]]]]:
    """Interval matrix entries as ``(lo, hi)`` integer numerators over one
    common denominator; returns the denominator and the rows."""
    den = math.lcm(*(end.denominator for row in rows for e in row for end in (e.lo, e.hi)))
    return den, [[(_over(e.lo, den), _over(e.hi, den)) for e in row] for row in rows]


def _corner_ratio_scan(cells_a, cells_b, rows, d):
    """Min/max |delta_i|/|delta_j| over the corners of the difference box
    of every cell pair, i != j.

    ``cells_a`` and ``cells_b`` are integer cells from ``_integer_cells``
    (one denominator for both lists); ``rows`` is None or the matrix from
    ``_integer_rows``.  Scaling both coordinates of a ratio by the same
    factor leaves it unchanged, so the numerators alone are enough.  The
    image of a corner x on axis i is the interval sum over j of
    min/max(m_lo*x_j, m_hi*x_j); without a matrix it is x_i.

    Signs are pinned per cell pair: on every axis either all corners are
    strictly positive or all are strictly negative, else DegeneratePair is
    raised.  Only then is a ratio of two coordinates monotone along every
    edge of the box, so that its extremes sit at corners.

    The pairs (i, j) and (j, i) give reciprocal bounds, so the greatest
    upper bound is the reciprocal of the least lower bound.  The least is
    kept as ``(n, q)`` and compared by cross-multiplying; the ``Fraction``s
    are built once, at the end.  Returns (None, None) when there are no
    cell pairs; raises ValueError when d < 2, where there is no ratio.
    """
    if d < 2:
        raise ValueError("ratio bounds need at least two axes")
    best_n, best_q = 1, 0  # n/q, starting at +infinity
    pairs = list(itertools.permutations(range(d), 2))
    for cell_a in cells_a:
        for cell_b in cells_b:
            diffs = [(a_lo - b_hi, a_hi - b_lo) for (a_lo, a_hi), (b_lo, b_hi) in zip(cell_a, cell_b)]
            if rows is None:
                mags = []
                for axis, (lo, hi) in enumerate(diffs):
                    if lo > 0:
                        mags.append((lo, hi) if lo != hi else (lo,))
                    elif hi < 0:
                        mags.append((-hi, -lo) if lo != hi else (-lo,))
                    else:
                        raise DegeneratePair(axis)
                # Without a matrix the least ratio at a corner is its least
                # magnitude over its greatest.
                for corner in itertools.product(*mags):
                    low, high = min(corner), max(corner)
                    if low * best_q < best_n * high:
                        best_n, best_q = low, high
                continue
            images = []
            for corner in itertools.product(*((lo, hi) if lo != hi else (lo,) for lo, hi in diffs)):
                image = []
                for row in rows:
                    s_lo = s_hi = 0
                    for (m_lo, m_hi), x in zip(row, corner):
                        p, q = m_lo * x, m_hi * x
                        if p <= q:
                            s_lo += p
                            s_hi += q
                        else:
                            s_lo += q
                            s_hi += p
                    image.append((s_lo, s_hi))
                images.append(image)
            for axis in range(d):
                if all(image[axis][0] > 0 for image in images):
                    continue
                if not all(image[axis][1] < 0 for image in images):
                    raise DegeneratePair(axis)
                for image in images:
                    s_lo, s_hi = image[axis]
                    image[axis] = (-s_hi, -s_lo)
            for image in images:
                for i, j in pairs:
                    low, high = image[i][0], image[j][1]
                    if low * best_q < best_n * high:
                        best_n, best_q = low, high
    if best_q == 0:
        return None, None
    return Fraction(best_n, best_q), Fraction(best_q, best_n)


def _cell_ratio_bounds(cells_a, cells_b, rows, d):
    """``_corner_ratio_scan`` over every cell pair of two lists of
    per-axis ``(lo, hi)`` rational cells (see ``_parse_cells``), through
    the interval matrix ``rows`` when it is not None; a shift cancels in
    the differences."""
    _, (ints_a, ints_b) = _integer_cells((cells_a, cells_b))
    return _corner_ratio_scan(ints_a, ints_b, None if rows is None else _integer_rows(rows)[1], d)


def kappa_ratios(a: Component, b: Component) -> tuple[Fraction, Fraction]:
    """Certified enclosure of the extreme coordinate ratios between two
    components: (lower bound of the min ratio, upper bound of the max).

    Mapped components work cell pair by cell pair.  Both coordinates of a
    difference vector are affine along each edge of the joint cell box, so
    their ratio is monotone edge by edge once signs are pinned, and corner
    evaluation is exhaustive.  An axis whose sign cannot be pinned makes the
    pair degenerate.

    Product components are separated on every axis once ``d_min`` is
    positive, and their cell pairs range over every combination of pieces,
    so the extremes are box arithmetic: with gap_i and span_i the least and
    greatest axis-i distance between the two boxes of unshifted pieces, the
    bounds are min gap_i/span_j and max span_i/gap_j over axes i != j.
    Raises ValueError on a one-axis geometry, where there is no ratio.
    """
    geometry = a.rep.geometry
    d = geometry.dim
    if d < 2:
        raise ValueError("ratio bounds need at least two axes")
    sep = d_min(a, b)
    if sep <= 0:
        for axis, (ia, ib) in enumerate(zip(a.bbox, b.bbox)):
            if max(ib.lo - ia.hi, ia.lo - ib.hi, Fraction(0)) <= 0:
                raise DegeneratePair(axis, f"components overlap along axis {axis}")
    if geometry.matrix is None:
        gaps, spans = [], []
        for pieces_a, pieces_b in zip(a.axes, b.axes):
            a_lo, a_hi = pieces_a[0][0][1], pieces_a[-1][0][2]
            b_lo, b_hi = pieces_b[0][0][1], pieces_b[-1][0][2]
            gaps.append(max(b_lo - a_hi, a_lo - b_hi))
            spans.append(max(b_hi - a_lo, a_hi - b_lo))
        pairs = list(itertools.permutations(range(d), 2))
        return (
            min(gaps[i] / spans[j] for i, j in pairs),
            max(spans[i] / gaps[j] for i, j in pairs),
        )
    return _cell_ratio_bounds(
        [[(lo, hi) for _, lo, hi in cell] for cell in a.cells],
        [[(lo, hi) for _, lo, hi in cell] for cell in b.cells],
        geometry.matrix.rows,
        d,
    )


# ---------------------------------------------------------------------------
# certificates


@dataclass
class CertNode:
    """Selection of dim+1 separated components below one parent node."""

    k_used: int
    components: tuple[Component, ...]
    dmins: dict
    ratios: dict | None
    children: tuple["CertNode", ...]

    def min_dmin(self) -> Fraction:
        return min(self.dmins.values())

    def to_json_obj(self, with_cubes: bool = True) -> dict:
        return {
            "k": self.k_used,
            "components": [c.to_json_obj(with_cubes) for c in self.components],
            "dmin": {f"{i},{j}": rat_pair(v) for (i, j), v in sorted(self.dmins.items())},
            "ratios": None
            if self.ratios is None
            else {
                f"{i},{j}": [rat_pair(lo), rat_pair(hi)]
                for (i, j), (lo, hi) in sorted(self.ratios.items())
            },
            "children": [child.to_json_obj(with_cubes) for child in self.children],
        }


@dataclass
class UndCertificate:
    """Arity-(dim+1) tree of separated selections, ``depth`` levels deep.

    Existence shows the covered set is spread out in every direction at
    every certified scale.  It says nothing beyond the certified depth and
    is not a non-degeneracy proof for the limit set.
    """

    dimension: int
    kappa: Fraction | None
    depth: int
    margin: Fraction
    bits: int
    root: CertNode
    matrix: RotationMatrix | None
    shift: tuple[Interval, ...]

    @cached_property
    def dk(self) -> tuple[Fraction, ...]:
        """``dk_sequence`` of this certificate, computed on first use."""
        return dk_sequence(self)

    def nodes_at_level(self, k: int) -> list[CertNode]:
        nodes = [self.root]
        for _ in range(k - 1):
            nodes = [child for node in nodes for child in node.children]
        return nodes

    def all_ratio_bounds(self) -> list[tuple[Fraction, Fraction]]:
        out = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.ratios:
                out.extend(node.ratios.values())
            stack.extend(node.children)
        return out

    def to_json_obj(self, with_cubes: bool = True) -> dict:
        obj = {
            "kind": "und-certificate",
            "dimension": self.dimension,
            "kappa": rat_pair(self.kappa) if self.kappa is not None else None,
            "depth": self.depth,
            "margin": rat_pair(self.margin),
            "bits": self.bits,
            "matrix": self.matrix.to_json_obj() if self.matrix is not None else None,
            "root": self.root.to_json_obj(with_cubes),
        }
        # Only a shifted geometry carries its shift, so unshifted
        # certificates keep the bytes they always had.
        if any(s.lo != 0 or s.hi != 0 for s in self.shift):
            obj["shift"] = [[rat_pair(s.lo), rat_pair(s.hi)] for s in self.shift]
        return obj

    def to_json(self) -> str:
        return canonical_json(self.to_json_obj())


def _confinement_explanation(dim: int, comps: list[Component], margin: Fraction) -> str:
    if len(comps) < dim + 1:
        return f"only {len(comps)} component(s) available"
    for axis in range(dim):
        # Max pairwise separation on this axis is max(lo) - min(hi) over
        # distinct components; track the two extremes of each to avoid the
        # quadratic pair scan.
        los = sorted(range(len(comps)), key=lambda i: comps[i].bbox[axis].lo, reverse=True)[:2]
        his = sorted(range(len(comps)), key=lambda i: comps[i].bbox[axis].hi)[:2]
        best = None
        for i in los:
            for j in his:
                if i != j:
                    sep = comps[i].bbox[axis].lo - comps[j].bbox[axis].hi
                    best = sep if best is None else max(best, sep)
        if best is not None and best < margin:
            return (
                f"components appear confined near a hyperplane orthogonal to axis {axis} "
                f"(no axis-{axis} separation above {margin})"
            )
    return "no separated selection among the available components"


def _find_selection(comps, need: int, margin: Fraction, kappa: Fraction | None):
    """First clique (in deterministic order) of ``need`` pairwise-separated
    components, honoring the ratio cap when one is demanded."""
    n = len(comps)
    pair_cache: dict[tuple[int, int], tuple | None] = {}

    def pair_data(i: int, j: int):
        key = (i, j)
        if key not in pair_cache:
            sep = d_min(comps[i], comps[j])
            if sep < margin:
                pair_cache[key] = None
            elif kappa is None:
                pair_cache[key] = (sep, None)
            else:
                try:
                    lo, hi = kappa_ratios(comps[i], comps[j])
                except DegeneratePair:
                    pair_cache[key] = None
                    return None
                pair_cache[key] = (sep, (lo, hi)) if hi <= kappa else None
        return pair_cache[key]

    # Depth-first clique growth with ascending indices finds the same
    # lexicographically-first clique a combinations scan would, but prunes
    # as soon as a pair fails; with no valid pairs at all (the degenerate
    # geometries) the cost stays quadratic instead of C(n, need).
    stack: list[int] = []

    def extend(start: int):
        if len(stack) == need:
            return tuple(stack)
        for cand in range(start, n):
            if all(pair_data(i, cand) is not None for i in stack):
                stack.append(cand)
                found = extend(cand + 1)
                if found:
                    return found
                stack.pop()
        return None

    combo = extend(0)
    if combo is None:
        return None
    remap = {orig: pos for pos, orig in enumerate(combo)}
    dmins = {}
    ratios = {} if kappa is not None else None
    for i, j in itertools.combinations(combo, 2):
        sep, rat = pair_data(i, j)
        dmins[(remap[i], remap[j])] = sep
        if rat is not None:
            ratios[(remap[i], remap[j])] = rat
    return tuple(comps[i] for i in combo), dmins, ratios


def und_certificate(
    rep: NestedRep,
    kappa=None,
    max_k: int = 2,
    depth: int = 1,
    keep_cells: bool = True,
) -> UndCertificate:
    """Search for a nested separated selection of arity dim+1.

    At each node the search looks among descendants 1, 2, ..., max_k
    refinement steps down for dim+1 components pairwise separated by at
    least ``DEFAULT_SEPARATION_MARGIN`` on every axis (kappa-comparable too
    when ``kappa`` is given), then recurses into each selected component.
    ``keep_cells=False`` releases cell-level data as the search retreats,
    which keeps deep certificates in tens of megabytes instead of gigabytes;
    stripped certificates still chain and report separations but cannot be
    exported with their cells.
    """
    if depth < 1:
        raise ValueError("certificate depth must be at least 1")
    kappa = as_rat(kappa) if kappa is not None else None
    if kappa is not None and rep.dim < 2:
        raise ValueError("kappa needs at least two axes")
    margin = DEFAULT_SEPARATION_MARGIN
    dim = rep.dim
    need = dim + 1

    def descend(candidates_of, path: str, remaining: int) -> CertNode:
        probe_comps: list[Component] = []
        for k in range(1, max_k + 1):
            comps = candidates_of(k)
            # Remember the deepest probe with enough components: if the
            # search fails, that level gives the most informative diagnosis
            # (confinement patterns only show once the cover has split).
            if not probe_comps or len(comps) >= need:
                probe_comps = comps
            if len(comps) < need:
                continue
            found = _find_selection(comps, need, margin, kappa)
            if found is not None:
                selected, dmins, ratios = found
                if remaining > 1:
                    children = tuple(
                        descend(comp.descendants, comp.path, remaining - 1) for comp in selected
                    )
                else:
                    children = ()
                if not keep_cells:
                    for comp in candidates_of(1):
                        _strip_subtree(comp)
                return CertNode(k, selected, dmins, ratios, children)
        raise CertificateNotFound(path, max_k, _confinement_explanation(dim, probe_comps, margin))

    root = descend(lambda k: components_at(rep, k - 1), "r", depth)
    if not keep_cells:
        for comp in rep.root_components:
            _strip_subtree(comp)
    return UndCertificate(
        dim, kappa, depth, margin, rep.bits, root, rep.geometry.matrix, rep.geometry.shift
    )


def _strip_subtree(comp: Component):
    if comp.stripped:
        return  # stripping runs bottom-up, so this subtree is already done
    comp.strip()
    if comp._children:
        for child in comp._children:
            _strip_subtree(child)


def dk_sequence(cert: UndCertificate) -> tuple[Fraction, ...]:
    """Per-level separation floors d_k = min over level-k nodes of the
    minimum pairwise separation in that node's selection."""
    out = []
    for k in range(1, cert.depth + 1):
        nodes = cert.nodes_at_level(k)
        value = min(node.min_dmin() for node in nodes)
        if value <= 0:
            raise InvalidCertificate(f"certificate has a non-positive separation at level {k}")
        out.append(value)
    return tuple(out)


# ---------------------------------------------------------------------------
# independent re-check of an exported certificate


def verify_certificate(obj: dict) -> tuple[bool, list[str]]:
    """Re-check an exported certificate from its own data alone.

    The shape is checked too: every node holds dim+1 components at one
    cover ``level``, above the level of its parent node, its ``dmin``
    (and its ``ratios`` when kappa is set) has one key ``"i,j"`` for each
    pair of components i < j and no other, and every node above the
    declared depth has dim+1 children while the leaves have none.
    Bounding boxes are recomputed from the embedded source cells (through
    the embedded matrix when one is present, then moved by the embedded
    shift), separations from those, and every claimed ratio interval is
    re-derived by a direct corner scan over the cell pairs, never by the
    box arithmetic of the product path.  Each node's cells become integer
    numerators over one denominator once, for both the boxes and the
    scan.  No geometry objects from this package are rebuilt, so agreement
    is a genuine second opinion on the arithmetic.  Data that does not
    parse is reported as a problem, not raised; so is a cell axis with
    lo > hi, and a cell, shift or matrix without ``dim`` axes.
    """
    if not isinstance(obj, dict) or obj.get("kind") != "und-certificate":
        return False, ["not a certificate object"]
    problems: list[str] = []
    try:
        _check_certificate(obj, problems)
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
        problems.append(f"malformed certificate: {type(exc).__name__}: {exc}")
    return (not problems), problems


def _check_certificate(obj: dict, problems: list[str]):
    dim = int(obj["dimension"])
    depth = int(obj["depth"])
    margin = rat_from_pair(obj["margin"])
    kappa = rat_from_pair(obj["kappa"]) if obj["kappa"] is not None else None
    if kappa is not None and dim < 2:
        problems.append("kappa needs at least two axes")
        kappa = None
    rows, row_den = None, 1
    if obj.get("matrix") is not None:
        matrix = obj["matrix"]["rows"]
        if len(matrix) != dim or any(len(row) != dim for row in matrix):
            raise ValueError(f"the matrix is not {dim} by {dim}")
        row_den, rows = _integer_rows(
            [[Interval(rat_from_pair(e[0]), rat_from_pair(e[1])) for e in row] for row in matrix]
        )
    if obj.get("shift") is not None:
        shift = [Interval(rat_from_pair(s[0]), rat_from_pair(s[1])) for s in obj["shift"]]
        if len(shift) != dim:
            raise ValueError(f"the shift has {len(shift)} axes, expected {dim}")
    else:
        shift = [Interval.point(0)] * dim
    pair_keys = {f"{i},{j}": (i, j) for i, j in itertools.combinations(range(dim + 1), 2)}

    def check_keys(path, name, claims):
        missing = [key for key in pair_keys if key not in claims]
        unexpected = sorted(key for key in claims if key not in pair_keys)
        if missing or unexpected:
            problems.append(
                f"{path}: {name} keys are not the component pairs (missing {missing}, unexpected {unexpected})"
            )

    def image_hull(cells, den):
        """Per-axis hull of the cells' images, moved by the shift."""
        if rows is None:
            ends = [(min(cell[i][0] for cell in cells), max(cell[i][1] for cell in cells)) for i in range(dim)]
        else:
            ends = None
            for cell in cells:
                box = []
                for row in rows:
                    s_lo = s_hi = 0
                    for (m_lo, m_hi), (x_lo, x_hi) in zip(row, cell):
                        products = (m_lo * x_lo, m_lo * x_hi, m_hi * x_lo, m_hi * x_hi)
                        s_lo += min(products)
                        s_hi += max(products)
                    box.append((s_lo, s_hi))
                ends = box if ends is None else [(min(a[0], b[0]), max(a[1], b[1])) for a, b in zip(ends, box)]
        den *= row_den
        return [Interval(Fraction(lo, den) + s.lo, Fraction(hi, den) + s.hi) for (lo, hi), s in zip(ends, shift)]

    def check_node(node, path, parent_box, parent_level, level):
        comps = node["components"]
        if len(comps) != dim + 1:
            problems.append(f"{path}: expected {dim + 1} components, found {len(comps)}")
            return
        cover_levels = sorted({int(comp["level"]) for comp in comps})
        if len(cover_levels) != 1:
            problems.append(f"{path}: components sit at levels {cover_levels}, not at one level")
        cover_level = cover_levels[-1]
        if parent_level is not None and cover_levels[0] <= parent_level:
            problems.append(f"{path}: level {cover_levels[0]} is not above the parent level {parent_level}")
        den, cells = _integer_cells([_parse_cells(comp["source_cells"], dim) for comp in comps])
        hulls = [image_hull(c, den) for c in cells]
        for idx, (comp, hull) in enumerate(zip(comps, hulls)):
            claimed = [(rat_from_pair(v[0]), rat_from_pair(v[1])) for v in comp["bbox"]]
            for axis in range(dim):
                if claimed[axis][0] > hull[axis].lo or claimed[axis][1] < hull[axis].hi:
                    problems.append(
                        f"{path}.c{idx}: claimed bbox does not enclose its cells on axis {axis}"
                    )
            if parent_box is not None:
                for axis in range(dim):
                    if hull[axis].lo < parent_box[axis].lo or hull[axis].hi > parent_box[axis].hi:
                        problems.append(
                            f"{path}.c{idx}: not nested inside its parent on axis {axis}"
                        )
        dmins = node["dmin"]
        check_keys(path, "dmin", dmins)
        for key, (i, j) in pair_keys.items():
            if key not in dmins:
                continue
            claimed = rat_from_pair(dmins[key])
            actual = None
            for axis in range(dim):
                gap = max(
                    hulls[j][axis].lo - hulls[i][axis].hi,
                    hulls[i][axis].lo - hulls[j][axis].hi,
                    Fraction(0),
                )
                actual = gap if actual is None else min(actual, gap)
            if claimed > actual:
                problems.append(f"{path}: claimed separation {key} exceeds recomputed value")
            if claimed < margin:
                problems.append(f"{path}: separation {key} below margin")
        if kappa is not None:
            ratios = node.get("ratios")
            if not ratios:
                problems.append(f"{path}: kappa given but no ratio bounds recorded")
            else:
                check_keys(path, "ratios", ratios)
                for key, (i, j) in pair_keys.items():
                    if key not in ratios:
                        continue
                    lo_pair, hi_pair = ratios[key]
                    lo_claim = rat_from_pair(lo_pair)
                    hi_claim = rat_from_pair(hi_pair)
                    if hi_claim > kappa:
                        problems.append(f"{path}: ratio bound {key} exceeds kappa")
                    try:
                        lo_new, hi_new = _corner_ratio_scan(cells[i], cells[j], rows, dim)
                    except DegeneratePair:
                        problems.append(f"{path}: ratio pair {key} degenerate on re-evaluation")
                        continue
                    if lo_claim > lo_new or hi_claim < hi_new:
                        problems.append(f"{path}: ratio claim {key} fails corner re-evaluation")
        children = node.get("children", ())
        expected = dim + 1 if level < depth else 0
        if len(children) != expected:
            problems.append(
                f"{path}: expected {expected} children at level {level} of depth {depth}, found {len(children)}"
            )
            return
        for idx, child in enumerate(children):
            check_node(child, f"{path}.{idx}", hulls[idx], cover_level, level + 1)

    check_node(obj["root"], "root", None, None, 1)


def _parse_cells(source_cells, dim: int | None = None) -> list[list[tuple[Fraction, Fraction]]]:
    """Exported ``source_cells`` as per-axis ``(lo, hi)`` rationals.

    Raises ValueError on an axis with lo > hi, or on a cell without
    ``dim`` axes when ``dim`` is given: the integer scans build no
    intervals that would refuse either."""
    cells = [[(rat_from_pair(lo), rat_from_pair(hi)) for lo, hi in cell] for cell in source_cells]
    for cell in cells:
        if dim is not None and len(cell) != dim:
            raise ValueError(f"a source cell has {len(cell)} axes, expected {dim}")
        if any(lo > hi for lo, hi in cell):
            raise ValueError("a source cell has lo > hi")
    return cells


# ---------------------------------------------------------------------------
# rotations as a repair step


@dataclass
class RotationResult:
    index: int
    matrix: RotationMatrix
    certificate: UndCertificate
    rep: NestedRep
    failures: list[tuple[str, str]]


def default_candidates(d: int, seed: int = 0, bits: int | None = None):
    cands = [RotationMatrix.identity(d), RotationMatrix.axis_mixing(d, bits)]
    for i in range(3):
        cands.append(RotationMatrix.quasi_random(d, seed + i, bits))
    return cands


def rotation_search(
    geometry: ProductGeometry,
    kappa=None,
    max_k: int = 2,
    depth: int = 1,
    *,
    m0: int,
    max_level: int,
    refine_step: int = 2,
    bits: int | None = None,
    seed: int = 0,
) -> RotationResult:
    """Try the ``default_candidates`` rotations in order until one admits a
    certificate.

    Candidates whose verified orthogonality defect exceeds
    ``DEFAULT_SEPARATION_MARGIN`` are rejected without being tried.  First
    success wins; if none works the per-candidate failure reasons travel
    with the exception.
    """
    failures: list[tuple[str, str]] = []
    for index, cand in enumerate(default_candidates(geometry.dim, seed=seed, bits=bits)):
        if cand.defect > DEFAULT_SEPARATION_MARGIN:
            failures.append(
                (cand.name, f"orthogonality defect {float(cand.defect):.3e} above tolerance")
            )
            continue
        rotated = geometry.with_matrix(cand)
        try:
            rep = build_nested_rep(rotated, m0, max_level, refine_step, bits)
            cert = und_certificate(rep, kappa, max_k, depth)
        except (CertificateNotFound, DegeneratePair, EmptyGeometry) as exc:
            failures.append((cand.name, str(exc)))
            continue
        return RotationResult(index, cand, cert, rep, failures)
    raise AllCandidatesFailed(failures)


# ---------------------------------------------------------------------------
# separations after a nearly-rigid map


def image_separations(cert: UndCertificate, rows, shift) -> tuple[Fraction, ...]:
    """Per-level separation floors after applying an affine map to the
    certified geometry.  Boxes are recomputed exactly from the source cells
    through the map, so the result is again a certified lower bound."""
    rows = tuple(tuple(_as_interval(e) for e in row) for row in rows)
    shift = tuple(_as_interval(s) for s in shift)
    d = cert.dimension

    def image_bbox(comp: Component):
        if comp.stripped:
            raise InvalidCertificate("certificate was stripped; rebuild with keep_cells=True")
        geometry = comp.rep.geometry
        per_axis = None
        for cell in comp.cells:
            src = geometry.cell_image_box(cell)
            box = []
            for i in range(d):
                acc = shift[i]
                for j in range(d):
                    acc = acc + rows[i][j] * src[j]
                box.append(acc)
            if per_axis is None:
                per_axis = box
            else:
                per_axis = [Interval(min(a.lo, b.lo), max(a.hi, b.hi)) for a, b in zip(per_axis, box)]
        return tuple(per_axis)

    out = []
    for k in range(1, cert.depth + 1):
        level_min = None
        for node in cert.nodes_at_level(k):
            boxes = [image_bbox(c) for c in node.components]
            for a, b in itertools.combinations(boxes, 2):
                sep = d_min(a, b)
                level_min = sep if level_min is None else min(level_min, sep)
        out.append(level_min)
    return tuple(out)
