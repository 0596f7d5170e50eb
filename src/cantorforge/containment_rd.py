"""Product companions and containment chains in R^d.

The separation floors of a non-degeneracy certificate feed a companion
K0^d built from one symmetric 1-D tree: its stage-k gaps are a fixed
fraction of the floor d_k.  The chain argument is a pigeonhole: splitting
a cube cell of the companion leaves d axis slits thinner than d_{n+1}, and
d+1 certified components pairwise separated by d_{n+1} on every axis
cannot all touch them, so one component descends.  Each chain step is
checked on exact rationals; the final cell's diagonal bounds the distance
between the pinned points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cantor1d import (
    CantorForgeError,
    GapConstraintViolation,
    Interval,
    SymmetricGapTree,
    as_rat,
    rat_pair,
)
from .containment1d import NoMargin
from .dyadic import precision_bits, sqrt_bounds
from .nested_rd import UndCertificate

__all__ = [
    "ProductCompanion",
    "ChainRd",
    "ChainStep",
    "InfeasibleGaps",
    "SlitBlocked",
    "build_product_companion",
    "find_chain_rd",
    "certify_sum_interior_rd",
]


class InfeasibleGaps(CantorForgeError):
    pass


class SlitBlocked(CantorForgeError):
    def __init__(self, level: int, message: str | None = None):
        self.level = level
        super().__init__(
            message
            or f"no selected component clears the slits while refining to level {level}"
        )


@dataclass(frozen=True)
class ProductCompanion:
    """K0^d: the same symmetric base tree on every axis of the cube I^d."""

    base: SymmetricGapTree
    dim: int
    shrink: Fraction
    margin: Fraction

    @property
    def interval(self) -> Interval:
        return self.base.hull

    def to_json_obj(self) -> dict:
        return {
            "hull": [rat_pair(self.base.hull.lo), rat_pair(self.base.hull.hi)],
            "dim": self.dim,
            "gaps": [rat_pair(g) for g in self.base.gap_lengths],
            "shrink": rat_pair(self.shrink),
            "margin": rat_pair(self.margin),
        }


def build_product_companion(
    cert_hull,
    floors,
    shrink,
    margin=Fraction(0),
) -> ProductCompanion:
    """Companion cube tree whose stage-k gaps are shrink * d_k.

    ``cert_hull`` is the per-axis hull of the certified geometry, one
    ``Interval`` per axis (``NestedRep.exact_hull``); the base interval I
    spans the union [min lo, max hi] of the axis hulls, inflated by
    ``margin`` on both sides, and the same base tree is used on every axis,
    so axes shifted apart make I, every chain cell and the bound longer.
    ``floors`` are the separation floors d_k (``UndCertificate.dk``), a
    non-empty sequence of positive rationals; a float floor is a TypeError.
    shrink < 1 keeps every gap strictly below its floor, which the chain needs.
    """
    shrink = as_rat(shrink)
    margin = as_rat(margin)
    if not Fraction(0) < shrink < 1:
        raise ValueError("shrink must lie strictly between 0 and 1")
    if margin < 0:
        raise ValueError("margin cannot be negative")
    floors = tuple(as_rat(d) for d in floors)
    if not floors or any(d <= 0 for d in floors):
        raise ValueError("separation floors must be a non-empty sequence of positive rationals")
    lo = min(iv.lo for iv in cert_hull)
    hi = max(iv.hi for iv in cert_hull)
    interval = Interval(lo - margin, hi + margin)
    gaps = tuple(shrink * d for d in floors)
    try:
        base = SymmetricGapTree(interval, gaps)
    except GapConstraintViolation as exc:
        raise InfeasibleGaps(
            f"requested gaps do not fit inside the companion interval (level {exc.level})"
        ) from exc
    return ProductCompanion(base, len(cert_hull), shrink, margin)


@dataclass(frozen=True)
class ChainStep:
    component_path: str
    cell_addrs: tuple[str, ...]

    def to_json_obj(self):
        return {"component": self.component_path, "cell": list(self.cell_addrs)}


@dataclass(frozen=True)
class ChainRd:
    """Chain of nested (component, cube cell) pairs down to the final cell.

    ``bound_sq`` is the exact squared diagonal of the final cell; ``bound``
    is a certified dyadic upper bound on the diagonal itself.
    """

    steps: tuple[ChainStep, ...]
    witness_component: tuple[Fraction, ...]
    witness_cell: tuple[Fraction, ...]
    cell_side: Fraction
    bound_sq: Fraction
    bound: Fraction

    def to_json_obj(self):
        return {
            "steps": [s.to_json_obj() for s in self.steps],
            "witness_component": [rat_pair(x) for x in self.witness_component],
            "witness_cell": [rat_pair(x) for x in self.witness_cell],
            "cell_side": rat_pair(self.cell_side),
            "bound_sq": rat_pair(self.bound_sq),
            "bound": rat_pair(self.bound),
        }


def _require_gaps_below_floors(companion: ProductCompanion, dk, levels: int):
    """Raise InfeasibleGaps unless each of the first ``levels`` stage gaps
    lies strictly below its separation floor, which the chain needs."""
    for n in range(levels):
        if companion.base.gap_lengths[n] >= dk[n]:
            raise InfeasibleGaps(
                f"stage-{n + 1} gap is not below the certified separation floor"
            )


def find_chain_rd(
    cert: UndCertificate,
    companion: ProductCompanion,
    levels: int,
    translate=None,
    bits: int | None = None,
) -> ChainRd:
    """Descend ``levels`` cube cells keeping a certified component inside.

    At each cell one axis gap of the companion opens per coordinate; the
    certificate node offers dim+1 components pairwise separated by more
    than the gap width on every axis, so at least one of them misses every
    slit and fits in a corner cell.  Translating the companion by
    ``translate``, one rational per axis, runs the same argument anywhere
    inside the margins.

    The walk runs on integers: the cell ends, the companion's level lengths
    (``integer_lengths``) and the components' integer boxes are numerators
    over one denominator per call.  A symmetric tree's slit is the open gap
    between the two child cells, (lo + child, hi - child), so no midpoint
    is needed.
    """
    d = cert.dimension
    if companion.dim != d:
        raise ValueError("companion dimension does not match the certificate")
    if levels < 1 or levels > cert.depth or levels > companion.base.depth:
        raise ValueError(f"cannot chain {levels} levels with this certificate/companion")
    t = tuple(as_rat(x) for x in translate) if translate is not None else (Fraction(0),) * d
    if len(t) != d:
        raise ValueError(f"a translate needs {d} coordinates, got {len(t)}")
    _require_gaps_below_floors(companion, cert.dk, levels)
    base = companion.base
    box_dens = cert.root.components[0].cover.box_dens
    nums, len_den = base.integer_lengths
    corners = [base.hull.lo + ti for ti in t]
    den = math.lcm(len_den, *box_dens, *(x.denominator for x in corners))
    sides = [num * (den // len_den) for num in nums[: levels + 1]]
    scales = [den // q for q in box_dens]
    cell = [(lo, lo + sides[0]) for lo in (x.numerator * (den // x.denominator) for x in corners)]
    addrs = ("",) * d
    node = cert.root
    steps = []
    for n in range(levels):
        child = sides[n + 1]
        for idx, comp in enumerate(node.components):
            picked = []
            for (lo, hi), (box_lo, box_hi), scale in zip(cell, comp.box, scales):
                box_lo, box_hi = box_lo * scale, box_hi * scale
                if box_lo < lo or box_hi > hi:
                    break
                if box_hi < lo + child:
                    picked.append("0")
                elif box_lo > hi - child:
                    picked.append("1")
                else:
                    break
            else:
                break
        else:
            raise SlitBlocked(n + 1)
        cell = [(lo, lo + child) if side == "0" else (hi - child, hi) for (lo, hi), side in zip(cell, picked)]
        addrs = tuple(a + side for a, side in zip(addrs, picked))
        steps.append(ChainStep(comp.path, addrs))
        if n < levels - 1:
            node = node.children[idx]
    side = base.level_lengths[levels]
    bound_sq = d * side * side
    return ChainRd(
        steps=tuple(steps),
        witness_component=tuple(Fraction(lo + hi, 2 * q) for (lo, hi), q in zip(comp.box, box_dens)),
        witness_cell=tuple(Fraction(lo + hi, 2 * den) for lo, hi in cell),
        cell_side=side,
        bound_sq=bound_sq,
        bound=sqrt_bounds(bound_sq, precision_bits(bits))[1],
    )


def certify_sum_interior_rd(
    cert: UndCertificate,
    companion: ProductCompanion,
    levels: int,
) -> tuple[Interval, ...]:
    """Exact per-axis box of translates t with companion + t covering the
    certified geometry's hull, every one of which admits a chain.

    Soundness needs strictly positive hull margins on every axis and all
    stage gaps strictly below their separation floors; both are checked,
    and one chain is actually run at the box center as a self-test.
    """
    d = cert.dimension
    dk = cert.dk
    if levels < 1 or levels > len(dk) or levels > companion.base.depth:
        raise ValueError(f"cannot certify {levels} levels with this certificate/companion")
    _require_gaps_below_floors(companion, dk, levels)
    # Per-axis exact hull of the geometry the certificate talks about.
    hull = cert.root.components[0].cover.exact_hull
    interval = companion.interval
    box = []
    for axis in range(d):
        lo = hull[axis].lo - interval.lo
        hi_margin = interval.hi - hull[axis].hi
        if lo <= 0 or hi_margin <= 0:
            raise NoMargin(f"no hull margin on axis {axis}")
        box.append(Interval(hull[axis].hi - interval.hi, hull[axis].lo - interval.lo))
    center = tuple(iv.midpoint() for iv in box)
    find_chain_rd(cert, companion, levels, translate=center)
    return tuple(box)

