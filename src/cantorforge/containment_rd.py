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
from .nested_rd import UndCertificate, dk_sequence

__all__ = [
    "SeparationSequence",
    "ProductCompanion",
    "ChainRd",
    "ChainStep",
    "InfeasibleGaps",
    "SlitBlocked",
    "separation_sequence",
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
class SeparationSequence:
    """Floors d_k taken from a certificate, one per certified level."""

    values: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(as_rat(v) for v in self.values))
        if not self.values:
            raise ValueError("separation sequence cannot be empty")
        if any(v <= 0 for v in self.values):
            raise ValueError("separation floors must be positive")

    def __len__(self):
        return len(self.values)

    def to_json_obj(self):
        return [rat_pair(v) for v in self.values]


def separation_sequence(cert: UndCertificate) -> SeparationSequence:
    return SeparationSequence(dk_sequence(cert))


@dataclass(frozen=True)
class ProductCompanion:
    """K0^d: the same symmetric base tree on every axis of the cube I^d."""

    base: SymmetricGapTree
    dim: int
    seps: SeparationSequence
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
    seps: SeparationSequence,
    shrink,
    margin=Fraction(0),
) -> ProductCompanion:
    """Companion cube tree whose stage-k gaps are shrink * d_k.

    ``cert_hull`` is the per-axis hull of the certified geometry, one
    ``Interval`` per axis (``NestedRep.exact_hull``); the base interval I
    spans the widest axis extent, inflated by ``margin`` on both sides, and
    the same base tree is used on every axis.  shrink < 1 keeps every gap
    strictly below its floor, which the chain needs.
    """
    shrink = as_rat(shrink)
    margin = as_rat(margin)
    if not Fraction(0) < shrink < 1:
        raise ValueError("shrink must lie strictly between 0 and 1")
    if margin < 0:
        raise ValueError("margin cannot be negative")
    if not isinstance(seps, SeparationSequence):
        seps = SeparationSequence(tuple(seps))
    lo = min(iv.lo for iv in cert_hull)
    hi = max(iv.hi for iv in cert_hull)
    interval = Interval(lo - margin, hi + margin)
    gaps = tuple(shrink * d for d in seps.values)
    try:
        base = SymmetricGapTree(interval, gaps)
    except GapConstraintViolation as exc:
        raise InfeasibleGaps(
            f"requested gaps do not fit inside the companion interval (level {exc.level})"
        ) from exc
    return ProductCompanion(base, len(cert_hull), seps, shrink, margin)


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
    ``translate`` runs the same argument anywhere inside the margins.
    """
    d = cert.dimension
    if companion.dim != d:
        raise ValueError("companion dimension does not match the certificate")
    if levels < 1 or levels > cert.depth or levels > companion.base.depth:
        raise ValueError(f"cannot chain {levels} levels with this certificate/companion")
    _require_gaps_below_floors(companion, cert.dk, levels)
    t = tuple(as_rat(x) for x in translate) if translate is not None else (Fraction(0),) * d
    base = companion.base
    cell = tuple(
        (base.hull.lo + ti, base.hull.hi + ti) for ti in t
    )
    addrs = tuple("" for _ in range(d))
    node = cert.root
    steps = []
    chosen = None
    for n in range(levels):
        gap_len = base.gap_lengths[n]
        child_len = base.level_lengths[n + 1]
        slits = []
        for lo, hi in cell:
            mid = (lo + hi) / 2
            slits.append((mid - gap_len / 2, mid + gap_len / 2))
        pick = None
        for idx, comp in enumerate(node.components):
            sides = []
            usable = True
            for axis in range(d):
                lo, hi = cell[axis]
                box = comp.bbox[axis]
                if box.lo < lo or box.hi > hi:
                    usable = False
                    break
                s_lo, s_hi = slits[axis]
                if box.hi < s_lo:
                    sides.append("0")
                elif box.lo > s_hi:
                    sides.append("1")
                else:
                    usable = False
                    break
            if usable:
                pick = (idx, comp, tuple(sides))
                break
        if pick is None:
            raise SlitBlocked(n + 1)
        idx, comp, sides = pick
        new_cell = []
        for axis in range(d):
            lo, hi = cell[axis]
            if sides[axis] == "0":
                new_cell.append((lo, lo + child_len))
            else:
                new_cell.append((hi - child_len, hi))
        cell = tuple(new_cell)
        addrs = tuple(a + s for a, s in zip(addrs, sides))
        steps.append(ChainStep(comp.path, addrs))
        chosen = comp
        if n < levels - 1:
            node = node.children[idx]
    side = base.level_lengths[levels]
    bound_sq = d * side * side
    bound = sqrt_bounds(bound_sq, precision_bits(bits))[1]
    return ChainRd(
        steps=tuple(steps),
        witness_component=tuple(iv.midpoint() for iv in chosen.bbox),
        witness_cell=tuple(Fraction(lo + hi, 2) for lo, hi in cell),
        cell_side=side,
        bound_sq=bound_sq,
        bound=bound,
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
    hull = cert.root.components[0].rep.exact_hull
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

