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
products of the per-axis components.  A product component is therefore a
tuple of axis components, one per factor, each a component of that
factor's 1-D cover whose pieces and box are integers over one denominator
per factor.  An axis component refines and merges its pieces once, and
every product component that holds it shares the result: a node's
children are the products of its axis components' children.
A mapped geometry mixes the axes, so its cover joins the image boxes of
integer product cells with a union-find; each box is a sum of per-axis
image columns, one column per factor piece.
Both covers store boxes, cells and matrix entries as integers over
stated denominators.  Separations, diameters and ratio bounds build a
``Fraction`` only for the value they return, exports write lowest-terms
pairs from the integers, and ``image_separations`` builds the
``Fraction`` cells its map reads.

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
    addresses,
    as_rat,
    canonical_json,
    rat_pair,
    rat_from_pair,
)
from .dyadic import precision_bits, sqrt_bounds

DEFAULT_SEPARATION_MARGIN = Fraction(1, 1 << 40)
_ZERO = Fraction(0)

# A cell is a tuple over factors of (addr, lo, hi); addr is None for a point
# factor.  The endpoints ride along so refinement never re-walks a tree.  A
# cover's cells hold integers over ``_Cover.cell_dens``, ``top_cell`` Fractions.


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

    @cached_property
    def axes(self) -> tuple["_Axis", ...]:
        """One unshifted ``_Axis`` per factor: the integer pieces that a
        mapped cover refines and maps, built on first read."""
        return tuple(_Axis(f, Interval.point(0), None) for f in self.factors)

    def refine_cells(self, cells, m: int) -> list[tuple]:
        """Split integer cells, whose ends are numerators over the ``den``
        of each factor's entry in ``axes``, to pieces no wider than 2**-m.

        The cells of a component share pieces, so each distinct piece is
        split once per axis, keyed by its address.  A cell's refinement is
        the product of its pieces' splits: cell by cell, then by position
        on axis 0, axis 1, and so on, the order a factor-after-factor split
        gives.
        """
        splits = [{} for _ in range(self.dim)]
        out = []
        for cell in cells:
            per_axis = []
            for axis, seen, piece in zip(self.axes, splits, cell):
                pieces = seen.get(piece[0])
                if pieces is None:
                    pieces = seen[piece[0]] = axis.split(*piece, m)
                per_axis.append(pieces)
            out.extend(itertools.product(*per_axis))
        return out


# ---------------------------------------------------------------------------
# cube covers and components


class _Axis:
    """One factor of a product, in integers.

    Every endpoint of the factor is a numerator over the factor's own
    denominator ``den``: the lcm of the hull, ``integer_lengths`` and
    shift denominators for a symmetric tree, of the hull, gap-endpoint
    and shift denominators for any other tree, and of the value and shift
    denominators for a point.  A piece is ``(addr, lo, hi)`` in those
    numerators (addr is None for a point), and a piece is no wider than
    2**-m exactly when ``(hi - lo) << m <= den``.

    A matrix-free cover builds one per factor with the geometry's shift; a
    mapped cover splits the pieces of unshifted ones (``ProductGeometry.axes``).
    ``bits`` is None for an unshifted geometry, whose component boxes keep
    the exact piece ends over ``den``.  A shifted geometry snaps its boxes
    outward to 2**-bits, as the mapped cover does, and ``box_den`` is then
    2**bits.  ``sq_scale``, set by the ``_Cover``, brings a squared box
    length over ``box_den**2`` to the cover's common ``sq_den``.
    """

    __slots__ = (
        "den", "depth", "top", "shift_lo", "shift_hi", "bits", "box_den", "sq_scale", "_lengths", "_gaps", "_stops"
    )

    def __init__(self, factor, shift: Interval, bits: int | None):
        self._lengths = self._gaps = None
        self.depth = 0
        ends, len_den = (), 1
        if isinstance(factor, GapTree):
            self.depth = factor.depth
            top = ("", factor.hull.lo, factor.hull.hi)
            if isinstance(factor, SymmetricGapTree):
                nums, len_den = factor.integer_lengths
            else:
                gaps = {addr: factor.gap(addr) for n in range(factor.depth) for addr in addresses(n)}
                ends = [end for g in gaps.values() for end in (g.lo, g.hi)]
        else:
            top = (None, factor, factor)
        den = self.den = math.lcm(len_den, *(end.denominator for end in (*top[1:], *ends, shift.lo, shift.hi)))
        if isinstance(factor, SymmetricGapTree):
            self._lengths = tuple(num * (den // len_den) for num in nums)
            self._stops: dict[int, int] = {}
        elif self.depth:
            self._gaps = {addr: (_over(g.lo, den), _over(g.hi, den)) for addr, g in gaps.items()}
        # The whole factor as one piece.
        self.top = (top[0], _over(top[1], den), _over(top[2], den), ())
        self.shift_lo, self.shift_hi = _over(shift.lo, den), _over(shift.hi, den)
        self.bits = bits
        self.box_den = den if bits is None else 1 << bits

    def split(self, addr, lo: int, hi: int, m: int) -> list[tuple]:
        """The pieces of ``(addr, lo, hi)`` no wider than 2**-m, left to
        right.  A tree that runs out of depth stays at its leaf piece; the
        cover just stays coarser there, which is sound."""
        den = self.den
        lengths = self._lengths
        if lengths is not None:
            # One width per level: the stopping depth is a function of m
            # alone, so no per-piece width checks.
            stop = self._stops.get(m)
            if stop is None:
                stop = self._stops[m] = next(
                    (n for n, length in enumerate(lengths) if length << m <= den), self.depth
                )
            parts = [(addr, lo, hi)]
            for n in range(len(addr), stop):
                child = lengths[n + 1]
                parts = [half for a, l, h in parts for half in ((a + "0", l, l + child), (a + "1", h - child, h))]
            return parts
        gaps = self._gaps
        if gaps is None:
            return [(addr, lo, hi)]
        depth = self.depth
        stack = [(addr, lo, hi)]
        parts = []
        while stack:
            part = stack.pop()
            a, l, h = part
            if (h - l) << m <= den or len(a) >= depth:
                parts.append(part)
            else:
                g_lo, g_hi = gaps[a]
                stack.append((a + "1", g_hi, h))
                stack.append((a + "0", l, g_lo))
        return parts

    def cube_range(self, lo: int, hi: int, m: int) -> tuple[int, int]:
        """Index range of the closed cubes of side 2**-m meeting the shifted
        piece [lo, hi] + shift: ceil(x*2**m - 1) and floor(y*2**m)."""
        den = self.den
        return -((den - ((lo + self.shift_lo) << m)) // den), ((hi + self.shift_hi) << m) // den

    def components(self, pieces, m: int) -> tuple["AxisComponent", ...]:
        """The 1-D components of ``pieces`` at level m.

        Each piece is split to width 2**-m, and one left-to-right sweep
        merges the sub-pieces: two touch when their cube index ranges come
        within one cube of each other.  A sub-piece's key is its parent's
        key plus its position within the parent."""
        groups: list[list] = []
        reach = None
        for addr, lo, hi, key in pieces:
            for pos, (sub, sub_lo, sub_hi) in enumerate(self.split(addr, lo, hi, m)):
                first, last = self.cube_range(sub_lo, sub_hi, m)
                if reach is None or first > reach + 1:
                    groups.append([])
                groups[-1].append((sub, sub_lo, sub_hi, key + (pos,)))
                reach = last
        return tuple(AxisComponent(self, tuple(group)) for group in groups)


class AxisComponent:
    """One component of a factor's 1-D cube cover at one level.

    ``pieces`` are ``(addr, lo, hi, key)``, left to right, with lo and hi
    numerators over ``axis.den``; a key holds the piece's position within
    its parent piece at every level, which orders the product cells (see
    ``_product_cells``).  ``lo`` and ``hi`` are the exact ends of the
    pieces, ``box`` the pair of box ends over ``axis.box_den``.  The
    children one refinement step down are computed once, shared by every
    product component that holds this one, and kept until a certificate
    search prunes one of those components (``Component.prune``).
    """

    __slots__ = ("axis", "pieces", "lo", "hi", "box", "_children")

    def __init__(self, axis: _Axis, pieces: tuple):
        self.axis = axis
        self.pieces = pieces
        # Pieces run left to right, so the ends are those of the first
        # piece and the last.
        lo, hi = self.lo, self.hi = pieces[0][1], pieces[-1][2]
        if axis.bits is None:
            self.box = (lo, hi)
        else:
            # Outward snap: floor and ceil of (end + shift) * 2**bits over den.
            den, bits = axis.den, axis.bits
            self.box = (((lo + axis.shift_lo) << bits) // den, -((-(hi + axis.shift_hi) << bits) // den))
        self._children = None

    @property
    def width(self) -> int:
        return self.box[1] - self.box[0]

    def children(self, m: int) -> tuple["AxisComponent", ...]:
        """The axis components of these pieces at level m, the next level
        of every product component that holds this one."""
        if self._children is None:
            self._children = self.axis.components(self.pieces, m)
        return self._children


class Component:
    """One connected component of the cube cover at level ``m``.

    ``box`` holds per axis ``(lo, hi)`` numerators over the cover's
    ``box_dens``, and ``cells`` per axis ``(addr, lo, hi)`` numerators over
    its ``cell_dens``; ``box_pairs`` and ``to_json_obj`` write them in
    lowest terms without a ``Fraction``.

    A component of a matrix-free geometry is a product: ``axes`` holds one
    ``AxisComponent`` per factor, its children are the products of their
    cached children, its ``box`` is the product of theirs, and its
    ``cells`` and ``rects`` are built from their pieces on first read.  A
    component of a mapped geometry has ``axes`` None and keeps the integer
    cells it came from as ``pieces``, which are its ``cells``, with its
    outward box and its cube index ranges.  Children are the components
    of the refined cover one step deeper, computed on first use and
    cached.
    """

    __slots__ = (
        "cover", "level", "path", "box", "axes", "pieces", "_cells", "_rects", "_children", "__weakref__"
    )

    def __init__(self, cover, level, box, path, *, pieces=None, rects=None, axes=None):
        self.cover = cover
        self.level = level
        self.path = path
        # The outward bounding box: per axis (lo, hi), numerators over that
        # axis's ``cover.box_dens``.
        self.box = box
        self.axes = axes
        self.pieces = pieces
        self._cells = self._children = None
        self._rects = rects

    def box_pairs(self) -> list:
        """``box`` as JSON ``[[lo, hi], ...]`` of ``[num, den]`` pairs in
        lowest terms, without a ``Fraction``."""
        return [[_lowest(lo, den), _lowest(hi, den)] for (lo, hi), den in zip(self.box, self.cover.box_dens)]

    @property
    def cells(self) -> tuple:
        if self.pieces is not None:
            return self.pieces
        if self._cells is None:
            self._cells = _product_cells(self.axes)
        return self._cells

    @property
    def rects(self) -> tuple:
        if self._rects is None:
            m = self.level
            self._rects = tuple(
                itertools.product(
                    *(sorted({x.axis.cube_range(lo, hi, m) for _, lo, hi, _ in x.pieces}) for x in self.axes)
                )
            )
        return self._rects

    @property
    def stripped(self) -> bool:
        return self._cells == ()

    def diam_sq(self) -> Fraction:
        if self.axes is None:
            return Fraction(sum((hi - lo) ** 2 for lo, hi in self.box), self.cover.sq_den)
        return Fraction(sum(x.width ** 2 * x.axis.sq_scale for x in self.axes), self.cover.sq_den)

    def children(self) -> list["Component"]:
        if self._children is None:
            if self.stripped:
                raise EmptyGeometry(f"component {self.path} was stripped and cannot expand")
            level = self.level + self.cover.refine_step
            if level > self.cover.max_level:
                self._children = []
            else:
                self._children, shrinks = self.cover._expand(self, level)
                if not shrinks:
                    self.cover.not_shrinking.append(self.path)
        return self._children

    def prune(self, keep_cells: bool):
        """Drop the explored subtree: the children of this component and
        those cached on its axis components.  Unless ``keep_cells``, also
        drop cell-level data; the integer box and path survive, which is
        all that separation floors and chains need.

        The search prunes a node's candidates once it is done below them.
        A component that shares an axis component with one of them overlaps
        it on that axis, and the search only goes on into components
        separated from it on every axis, so it never expands a component
        whose axis components were pruned."""
        self._children = None
        for x in self.axes or ():
            x._children = None
            if not keep_cells:
                x.pieces = None
        if not keep_cells:
            self.pieces = None
            self._cells = ()
            self._rects = ()

    def cube_coords(self) -> list[tuple[int, ...]]:
        seen = set()
        for rect in self.rects:
            for coords in itertools.product(*(range(lo, hi + 1) for lo, hi in rect)):
                seen.add(coords)
        return sorted(seen)

    def to_json_obj(self) -> dict:
        if self.stripped:
            raise InvalidCertificate("component was stripped; rebuild with keep_cells=True to export")
        # One [lo, hi] list per distinct piece of an axis, shared by its cells: ints per piece, not per cell.
        ends = [
            {addr: [_lowest(lo, den), _lowest(hi, den)] for addr, lo, hi in set(pieces)}
            for pieces, den in zip(zip(*self.cells), self.cover.cell_dens)
        ]
        return {
            "level": self.level,
            "bbox": self.box_pairs(),
            "source_cells": [[axis[addr] for axis, (addr, _, _) in zip(ends, cell)] for cell in self.cells],
            "cubes": [self.level, [list(c) for c in self.cube_coords()]],
        }


def _product_cells(axes) -> tuple:
    """The cells of a product component, in the order a cell-by-cell
    refinement produces them.

    ``refine_cells`` splits factor after factor, so at every level a cell
    follows its parent cell and then its position within the parent on
    axis 0, axis 1, and so on.  Each piece carries those positions, one per
    level, as its key; interleaving the keys of the axes gives that order.
    """
    per_axis = [[(piece[:3], piece[3]) for piece in x.pieces] for x in axes]
    combos = sorted(
        itertools.product(*per_axis),
        key=lambda combo: tuple(itertools.chain.from_iterable(zip(*(key for _, key in combo)))),
    )
    return tuple(tuple(part for part, _ in combo) for combo in combos)


class NestedRep:
    """Lazily expanded tree of cube-cover components.

    ``root_components`` are the components at level ``m0``; each component
    hands out its own children at ``m0 + refine_step`` and so on down to
    ``max_level``.  Nodes that fail to shrink are listed, never raised, on
    ``not_shrinking`` as they expand: a search lists only those it expanded.
    A certificate search prunes the tree as it returns (see
    ``und_certificate``), so afterwards the root components hold no
    children and the only other components still reachable are those the
    certificate selected.

    The components refer to the rep's ``cover``, which holds everything
    but the components, so the tree holds no reference cycle: a rep that
    is no longer used is freed at once, not at the next full collection.
    """

    def __init__(self, geometry: ProductGeometry, m0: int, max_level: int, refine_step: int, bits: int):
        cover = self.cover = _Cover(geometry, m0, max_level, refine_step, bits)
        self.geometry, self.m0, self.max_level = geometry, m0, max_level
        self.refine_step, self.bits, self.dim = refine_step, bits, geometry.dim
        self.exact_hull = cover.exact_hull
        self.not_shrinking = cover.not_shrinking
        self.root_components = cover.roots()


class _Cover:
    """How the components of a ``NestedRep`` expand: the geometry, its
    levels, the list of nodes that did not shrink and, for a matrix-free
    geometry, one ``_Axis`` per factor (``axes``, else None).  A mapped
    cover keeps the matrix as integer ``rows``, and ``scales`` per factor
    and the shift ``offset`` that bring column sums to one ``den``.
    ``box_dens`` holds the denominator of each axis of the component boxes
    (``_Axis.box_den``, or 2**bits for a mapped cover), ``sq_den`` that
    of their squared diameters, and ``cell_dens`` that of each axis of the
    component cells (the ``den`` of ``axes``, or of the geometry's
    unshifted ``axes`` for a mapped cover)."""

    def __init__(self, geometry: ProductGeometry, m0: int, max_level: int, refine_step: int, bits: int):
        self.geometry = geometry
        self.m0 = m0
        self.max_level = max_level
        self.refine_step = refine_step
        self.bits = bits
        self.not_shrinking: list[str] = []
        self.exact_hull = geometry.exact_hull_box()
        self.axes = None
        if geometry.matrix is None:
            snap = bits if any(s.lo != 0 or s.hi != 0 for s in geometry.shift) else None
            self.axes = [_Axis(f, s, snap) for f, s in zip(geometry.factors, geometry.shift)]
            self.box_dens = tuple(axis.box_den for axis in self.axes)
            self.cell_dens = tuple(axis.den for axis in self.axes)
            self.sq_den = math.lcm(*(den ** 2 for den in self.box_dens))
            for axis in self.axes:
                axis.sq_scale = self.sq_den // axis.box_den ** 2
        else:
            self.box_dens, self.sq_den = (1 << bits,) * geometry.dim, 1 << 2 * bits
            self.cell_dens = tuple(axis.den for axis in geometry.axes)
            row_den, self.rows = _integer_rows(geometry.matrix.rows)
            dens = [row_den * axis.den for axis in geometry.axes]
            shift = [end for s in geometry.shift for end in (s.lo, s.hi)]
            den = self.den = math.lcm(*dens, *(end.denominator for end in shift))
            self.offset = tuple(_over(end, den) for end in shift)
            self.scales = tuple(den // x for x in dens)

    def roots(self) -> list[Component]:
        """The components at level ``m0``."""
        if self.axes is None:
            return self._cover_components([tuple(x.top[:3] for x in self.geometry.axes)], self.m0, "r")[0]
        tops = [AxisComponent(axis, (axis.top,)).children(self.m0) for axis in self.axes]
        return self._products(tops, self.m0, "r")

    def _expand(self, comp: Component, m: int) -> tuple[list[Component], bool]:
        """Children of ``comp`` at level ``m``, and whether the widest of
        them is narrower than ``comp``.

        A product's widest child is widest on every axis at once, so the
        test compares per-axis widths, in integers, without a pass over
        the children."""
        if comp.axes is None:
            children, widest_sq = self._cover_components(comp.pieces, m, comp.path)
            return children, widest_sq < comp.diam_sq()
        per_axis = [x.children(m) for x in comp.axes]
        growth = sum(
            (max(kid.width for kid in kids) ** 2 - x.width ** 2) * x.axis.sq_scale
            for x, kids in zip(comp.axes, per_axis)
        )
        return self._products(per_axis, m, comp.path), growth < 0

    def _products(self, per_axis, m: int, parent_path: str) -> list[Component]:
        """The product components of per-axis components.

        Two product cells touch exactly when their pieces touch on every
        axis, so the cover graph is the strong product of the per-axis
        graphs and its components are the products of the per-axis
        components."""
        boxes = itertools.product(*([x.box for x in comps] for comps in per_axis))
        return [
            Component(self, m, box, f"{parent_path}.{idx}", axes=combo)
            for idx, (combo, box) in enumerate(zip(itertools.product(*per_axis), boxes))
        ]

    def _cover_components(self, cells, m: int, parent_path: str) -> tuple[list[Component], Fraction]:
        """Cover of a mapped component's integer cells, and the largest
        squared diameter among its components: boxes and a union-find.

        A linear map sends a product cell P_0 x ... x P_{d-1} to
        shift + sum_j col_j(M) * P_j, and the interval column col_j(M) * P_j
        depends only on the axis j and the piece P_j.  So each column is
        computed once per piece, keyed by its address (a point factor has
        the single address None), and a cell's image box is a sum of
        columns.  All of it runs on ints: the pieces of axis j are numerators
        over that factor's ``den``, the matrix entries over another
        (``rows``), so M_ij * P_j is the min and max of four int products,
        brought with the shift to the cover's ``den`` by ``scales[j]``.  A
        cell's box is then a sum of ints, its cube range two floor
        divisions, and a component's bounding box is snapped outward to
        2**-bits by one floor division per end.  All of it is exact, so the
        boxes are those of ``ProductGeometry.cell_image_box``, snapped.
        """
        refined = self.geometry.refine_cells(cells, m)
        if not refined:
            raise EmptyGeometry("no cells to cover")
        d = self.geometry.dim
        den, offset = self.den, self.offset
        # Per axis j: piece address -> the flat numerators over den of the
        # products M_ij * P_j, (lo_0, hi_0, lo_1, hi_1, ...).
        columns = [{} for _ in range(d)]
        for cell in refined:
            for j, (column, (addr, lo, hi)) in enumerate(zip(columns, cell)):
                if addr not in column:
                    scale = self.scales[j]
                    ends = []
                    for row in self.rows:
                        m_lo, m_hi = row[j]
                        products = (m_lo * lo, m_lo * hi, m_hi * lo, m_hi * hi)
                        ends += (min(products) * scale, max(products) * scale)
                    column[addr] = tuple(ends)
        boxes = [
            tuple(map(sum, zip(offset, *(column[part[0]] for column, part in zip(columns, cell)))))
            for cell in refined
        ]
        # Closed cubes of side 2**-m meeting [lo, hi]: ceil(lo*2**m - 1)
        # and floor(hi*2**m), as in _Axis.cube_range.
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
        comps = []
        widest = 0
        for members in groups.values():
            # Outward snap: floor(lo * 2**bits) and ceil(hi * 2**bits) over den.
            ends = tuple(
                (
                    (min(boxes[i][k] for i in members) << bits) // den,
                    -((-max(boxes[i][k + 1] for i in members) << bits) // den),
                )
                for k in range(0, 2 * d, 2)
            )
            widest = max(widest, sum((hi - lo) ** 2 for lo, hi in ends))
            comps.append(
                (
                    tuple(min(rects[i][axis][0] for i in members) for axis in range(d)),
                    tuple(refined[i] for i in members),
                    tuple(sorted({rects[i] for i in members})),
                    ends,
                )
            )
        comps.sort(key=lambda item: item[0])
        children = [
            Component(self, m, box, f"{parent_path}.{idx}", pieces=pieces, rects=rects_)
            for idx, (_, pieces, rects_, box) in enumerate(comps)
        ]
        return children, Fraction(widest, self.sq_den)


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
    return [c for block in _walk(rep.root_components, level_index) for c in block]


def _walk(parents, k: int):
    """The components k refinement steps below ``parents``, in the order of a
    level-by-level expansion, as blocks: each parent's ``children()``, or
    ``parents`` itself when k = 0.  A parent expands when its block is read."""
    if k == 0:
        return iter((parents,))
    return itertools.chain.from_iterable(_walk(comp.children(), k - 1) for comp in parents)


class _Candidates(list):
    """The components of a ``_walk``, appended a block at a time when asked
    for.  The walk holds no reference to the list: a dropped list frees it."""

    __slots__ = ("_source",)

    def __init__(self, walk):
        super().__init__()
        self._source = walk

    def grow(self, n: int) -> bool:
        """Append blocks until more than n items exist; whether they do."""
        while len(self) <= n and (block := next(self._source, None)) is not None:
            self.extend(block)
        return len(self) > n


# ---------------------------------------------------------------------------
# separations and ratios


def d_min(a, b) -> Fraction:
    """Certified axis-wise separation lower bound for two components of
    one cover, or for two boxes given as tuples of ``Interval``s.

    Per axis this is the gap between the bounding-box projections (zero if
    they overlap or touch); the result is the minimum over axes, as a
    ``Fraction``.  Boxes are outward, so the true sets are at least this far
    apart on every axis.  Two components compare their integer ``box``es,
    whose per-axis denominators are the cover's ``box_dens``, by
    cross-multiplying, and build one ``Fraction``, the result.  The boxes
    of ``image_separations`` are ``Interval``s of ``Fraction``s.
    """
    if isinstance(a, Component):
        best_n, best_q = None, 1
        for (a_lo, a_hi), (b_lo, b_hi), den in zip(a.box, b.box, a.cover.box_dens):
            gap = b_lo - a_hi
            if gap <= 0:
                gap = a_lo - b_hi
                if gap <= 0:
                    return _ZERO
            if best_n is None or gap * best_q < best_n * den:
                best_n, best_q = gap, den
        return Fraction(best_n, best_q)
    best = None
    for ia, ib in zip(a, b):
        if ib.lo > ia.hi:
            gap = ib.lo - ia.hi
        elif ia.lo > ib.hi:
            gap = ia.lo - ib.hi
        else:
            return _ZERO
        if best is None or gap < best:
            best = gap
    return best


def _lowest(num: int, den: int) -> list[int]:
    """``rat_pair(Fraction(num, den))`` for den > 0, by one gcd."""
    g = math.gcd(num, den)
    return [num // g, den // g]


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
    bounds are min gap_i/span_j and max span_i/gap_j over axes i != j,
    compared as integers.  Raises ValueError on a one-axis geometry, where
    there is no ratio.
    """
    geometry = a.cover.geometry
    d = geometry.dim
    if d < 2:
        raise ValueError("ratio bounds need at least two axes")
    if d_min(a, b) <= 0:
        for axis, ((a_lo, a_hi), (b_lo, b_hi)) in enumerate(zip(a.box, b.box)):
            if max(b_lo - a_hi, a_lo - b_hi) <= 0:
                raise DegeneratePair(axis, f"components overlap along axis {axis}")
    if geometry.matrix is None:
        gaps, spans = [], []
        for xa, xb in zip(a.axes, b.axes):
            gaps.append(max(xb.lo - xa.hi, xa.lo - xb.hi))
            spans.append(max(xb.hi - xa.lo, xa.hi - xb.lo))
        dens = [x.axis.den for x in a.axes]
        # Over the numerators gap_i / span_j is (g_i * den_j) / (s_j * den_i);
        # the least is kept as (n, q) and compared by cross-multiplying.
        best_n, best_q = 1, 0  # n/q, starting at +infinity
        for i, j in itertools.permutations(range(d), 2):
            n, q = gaps[i] * dens[j], spans[j] * dens[i]
            if n * best_q < best_n * q:
                best_n, best_q = n, q
        # The pairs (i, j) and (j, i) give reciprocal bounds, so the
        # greatest span_i / gap_j is the reciprocal of the least gap/span.
        return Fraction(best_n, best_q), Fraction(best_q, best_n)
    # Piece ends times scales[j] share one denominator, which a ratio of
    # two coordinates cancels, so the scan runs on the cover's int rows.
    cover = a.cover
    cells_a = [[(lo * s, hi * s) for (_, lo, hi), s in zip(cell, cover.scales)] for cell in a.pieces]
    cells_b = [[(lo * s, hi * s) for (_, lo, hi), s in zip(cell, cover.scales)] for cell in b.pieces]
    return _corner_ratio_scan(cells_a, cells_b, cover.rows, d)


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

    def to_json_obj(self) -> dict:
        return {
            "k": self.k_used,
            "components": [c.to_json_obj() for c in self.components],
            "dmin": {f"{i},{j}": rat_pair(v) for (i, j), v in sorted(self.dmins.items())},
            "ratios": None
            if self.ratios is None
            else {
                f"{i},{j}": [rat_pair(lo), rat_pair(hi)]
                for (i, j), (lo, hi) in sorted(self.ratios.items())
            },
            "children": [child.to_json_obj() for child in self.children],
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
        """Per-level separation floors d_k = min over level-k nodes of the
        minimum pairwise separation in that node's selection, computed on
        first use."""
        out = []
        for k in range(1, self.depth + 1):
            value = min(node.min_dmin() for node in self.nodes_at_level(k))
            if value <= 0:
                raise InvalidCertificate(f"certificate has a non-positive separation at level {k}")
            out.append(value)
        return tuple(out)

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

    def to_json_obj(self) -> dict:
        obj = {
            "kind": "und-certificate",
            "dimension": self.dimension,
            "kappa": rat_pair(self.kappa) if self.kappa is not None else None,
            "depth": self.depth,
            "margin": rat_pair(self.margin),
            "bits": self.bits,
            "matrix": self.matrix.to_json_obj() if self.matrix is not None else None,
            "root": self.root.to_json_obj(),
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
    for axis, den in enumerate(comps[0].cover.box_dens):
        # Max pairwise separation on this axis is max(lo) - min(hi) over
        # distinct components; track the two extremes of each to avoid the
        # quadratic pair scan.  The ends are numerators over den, so the
        # margin test cross-multiplies.
        ends = [comp.box[axis] for comp in comps]
        los = sorted(range(len(comps)), key=lambda i: ends[i][0], reverse=True)[:2]
        his = sorted(range(len(comps)), key=lambda i: ends[i][1])[:2]
        best = max(ends[i][0] - ends[j][1] for i in los for j in his if i != j)
        if best * margin.denominator < margin.numerator * den:
            return (
                f"components appear confined near a hyperplane orthogonal to axis {axis} "
                f"(no axis-{axis} separation above {margin})"
            )
    return "no separated selection among the available components"


def _find_selection(comps: _Candidates, need: int, margin: Fraction, kappa: Fraction | None):
    """First clique (in deterministic order) of ``need`` pairwise-separated
    components, honoring the ratio cap when one is demanded.  Each pair's
    ``d_min`` is held to the margin by cross-multiplying numerators and
    denominators, not by a ``Fraction`` comparison."""
    pair_cache: dict[tuple[int, int], tuple | None] = {}
    margin_n, margin_q = margin.numerator, margin.denominator

    def pair_data(i: int, j: int):
        key = (i, j)
        if key not in pair_cache:
            sep = d_min(comps[i], comps[j])
            if sep.numerator * margin_q < margin_n * sep.denominator:
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

    # pair_data is None for a pair that does not join, a non-empty tuple else.
    combo = _first_clique(comps, need, pair_data)
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


def _first_clique(comps: _Candidates, need: int, joins, stack: tuple = (), start: int = 0):
    """The lexicographically first ``need`` indices into ``comps`` that
    pairwise ``joins``, extending ``stack`` with indices from ``start`` on.

    Depth-first growth with ascending indices finds the clique a
    combinations scan would, but prunes as soon as a pair fails; with no
    valid pairs at all (the degenerate geometries) the cost stays quadratic
    instead of C(n, need).  ``comps`` grows only when the loop passes its
    end, so a search that fails has read its whole walk.  It recurses at
    module level, as a nested function that calls itself is a reference
    cycle, which would keep the candidates it saw alive until the next
    full collection."""
    if len(stack) == need:
        return stack
    cand = start
    while cand < len(comps) or comps.grow(cand):
        for i in stack:
            if not joins(i, cand):
                break
        else:
            found = _first_clique(comps, need, joins, stack + (cand,), cand + 1)
            if found:
                return found
        cand += 1
    return None


def _descend(level1, path: str, remaining: int, need: int, max_k: int, margin, kappa, keep_cells) -> CertNode:
    """The certificate node of ``und_certificate`` at ``path``, whose
    candidates k refinement steps down are the ``_walk`` k - 1 steps below
    ``level1``, built only as far as the search reads them.  It recurses
    at module level: a nested function that calls itself is a reference
    cycle, which would keep what it holds until the next full collection."""
    probe_comps: list[Component] = []
    for k in range(1, max_k + 1):
        comps = _Candidates(_walk(level1, k - 1))
        enough = comps.grow(need - 1)
        # Remember the deepest probe with enough components: if the
        # search fails, that level gives the most informative diagnosis
        # (confinement patterns only show once the cover has split).
        if not probe_comps or enough:
            probe_comps = comps
        if not enough:
            continue
        found = _find_selection(comps, need, margin, kappa)
        if found is not None:
            selected, dmins, ratios = found
            children = tuple(
                _descend(comp.children(), comp.path, remaining - 1, need, max_k, margin, kappa, keep_cells)
                for comp in (selected if remaining > 1 else ())
            )
            for comp in (*level1, *selected):
                comp.prune(keep_cells)
            return CertNode(k, selected, dmins, ratios, children)
    raise CertificateNotFound(path, max_k, _confinement_explanation(need - 1, probe_comps, margin))


def und_certificate(
    rep: NestedRep,
    kappa=None,
    max_k: int = 2,
    depth: int = 1,
    keep_cells: bool = True,
) -> UndCertificate:
    """Search for a nested separated selection of arity dim+1.

    At each node the search looks among descendants 1, 2, ..., max_k
    refinement steps down, built in order and only as far as it reads
    them, for dim+1 components pairwise separated by at least
    ``DEFAULT_SEPARATION_MARGIN`` on every axis (kappa-comparable too when
    ``kappa`` is given), then recurses into each selected component.
    ``depth``, ``max_k`` and ``kappa`` are at least 1 (no ratio bound is
    below 1, as those of (i, j) and (j, i) are reciprocal).
    Once a node's search is done it prunes its level-1 candidates and its
    selected components (``Component.prune``), so the components it
    explored and rejected are freed as it returns.  ``keep_cells`` decides
    only whether the pruned components keep their cells: stripped
    certificates still chain and report separations but cannot be
    exported with their cells.
    """
    if depth < 1:
        raise ValueError("certificate depth must be at least 1")
    if max_k < 1:
        raise ValueError("max_k must be at least 1")
    kappa = as_rat(kappa) if kappa is not None else None
    if kappa is not None and rep.dim < 2:
        raise ValueError("kappa needs at least two axes")
    if kappa is not None and kappa < 1:
        raise ValueError(f"kappa must be at least 1, got {kappa}")
    margin = DEFAULT_SEPARATION_MARGIN
    root = _descend(rep.root_components, "r", depth, rep.dim + 1, max_k, margin, kappa, keep_cells)
    return UndCertificate(
        rep.dim, kappa, depth, margin, rep.bits, root, rep.geometry.matrix, rep.geometry.shift
    )


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
    dim, depth = obj["dimension"], obj["depth"]
    if type(dim) is not int or type(depth) is not int:
        raise TypeError("dimension and depth must be JSON integers")
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
        shift = itertools.repeat(Interval.point(0))
    # Built once the cells of dim+1 components, each with dim axes, have
    # parsed, so that a claimed dimension costs no more than the data that
    # backs it.
    pair_keys = {}

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

    # An explicit stack in pre-order: a nested function that called itself
    # would be a reference cycle, left for the cyclic collector.
    stack = [(obj["root"], "root", None, None, 1)]
    while stack:
        node, path, parent_box, parent_level, level = stack.pop()
        comps = node["components"]
        if len(comps) != dim + 1:
            problems.append(f"{path}: expected {dim + 1} components, found {len(comps)}")
            continue
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
        if not pair_keys:
            pair_keys.update((f"{i},{j}", (i, j)) for i, j in itertools.combinations(range(dim + 1), 2))
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
            continue
        stack.extend(
            (child, f"{path}.{idx}", hulls[idx], cover_level, level + 1)
            for idx, child in reversed(list(enumerate(children)))
        )


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
        return RotationResult(index, cand, cert, failures)
    raise AllCandidatesFailed(failures)


# ---------------------------------------------------------------------------
# separations after a nearly-rigid map


def image_separations(cert: UndCertificate, rows, shift) -> tuple[Fraction, ...]:
    """Per-level separation floors after applying an affine map to the
    certified geometry.  Boxes are recomputed exactly from the source cells
    through the map, so the result is again a certified lower bound.  The
    integer cells of each component become ``Fraction`` cells here, for
    ``ProductGeometry.cell_image_box``."""
    rows = tuple(tuple(_as_interval(e) for e in row) for row in rows)
    shift = tuple(_as_interval(s) for s in shift)
    d = cert.dimension

    def image_bbox(comp: Component):
        if comp.stripped:
            raise InvalidCertificate("certificate was stripped; rebuild with keep_cells=True")
        geometry, dens = comp.cover.geometry, comp.cover.cell_dens
        per_axis = None
        for cell in comp.cells:
            src = geometry.cell_image_box(
                tuple((addr, Fraction(lo, den), Fraction(hi, den)) for (addr, lo, hi), den in zip(cell, dens))
            )
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
