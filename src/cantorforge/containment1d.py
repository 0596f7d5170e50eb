"""Containment chains between a Cantor tree and a coarser companion tree.

The driving fact is elementary: if an interval of K sits inside an interval
of the companion Kt whose gap is shorter than K's gap there, then at least
one child of K fits entirely inside a child of Kt, and we can descend one
level.  Iterating pins a point of K and a point of Kt inside a common
interval whose length bounds their distance.  Everything here runs on exact
rationals, or on integers over one common denominator, so a produced chain
is a proof, not an estimate.  Two symmetric trees, the pairs of every
trial of ``sweep-1d``, ``interior-1d`` and ``erdos-demo``, take the
integer route through both the dominance gate and the walk.

Companions built with a gap factor < 1 make the descent available from every
starting translate inside the hull margin, which is what turns the chain
into an interior statement for the difference set K - Kt.
"""

from __future__ import annotations

import math
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
    rat_pair,
)


class DominanceNotVerified(CantorForgeError):
    def __init__(self, report: "DominanceReport"):
        self.report = report
        bad = [rec.level for rec in report.levels if not rec.passed]
        detail = f"failing levels {bad}" if bad else "hull not contained"
        super().__init__(f"gap dominance does not hold: {detail}")


class ChainBroken(CantorForgeError):
    def __init__(self, level: int):
        self.level = level
        super().__init__(f"containment chain broke while descending to level {level}")


class NoMargin(CantorForgeError):
    pass


@dataclass(frozen=True)
class LevelRecord:
    level: int
    min_gap_k: Fraction
    max_gap_kt: Fraction
    passed: bool


class _BuiltOnRead:
    """Dataclass field that may be given a zero-argument builder in place
    of its value; the builder runs on the first read, once.  Class access
    raises AttributeError, so the field has no default."""

    def __set_name__(self, owner, name):
        self.slot = "_" + name

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError(self.slot)
        value = obj.__dict__[self.slot]
        if callable(value):
            value = obj.__dict__[self.slot] = value()
        return value

    def __set__(self, obj, value):
        obj.__dict__[self.slot] = value


@dataclass(frozen=True)
class DominanceReport:
    """Hull containment, one ``LevelRecord`` per level, and their verdict.

    ``levels`` may be handed over as a builder: ``check_dominance`` on two
    symmetric trees decides on integers and builds the records, with their
    ``Fraction`` gaps, only when ``slack``, a failure reason or
    ``to_json_obj`` reads them.  ``==`` and ``dataclasses.replace`` read
    them as well.
    """

    hull_contained: bool
    levels: tuple[LevelRecord, ...] = _BuiltOnRead()
    overall: bool

    @property
    def slack(self) -> Fraction:
        """Largest scale the companion tolerates before some gap draws level.

        Scaling kt by lambda scales all its gaps by |lambda|, so dominance at
        level n survives exactly while |lambda| < min_gap_k / max_gap_kt
        there.  This is the exact minimum of those ratios.
        """
        return min(rec.min_gap_k / rec.max_gap_kt for rec in self.levels)

    def to_json_obj(self) -> dict:
        return {
            "hull_contained": self.hull_contained,
            "overall": self.overall,
            "levels": [
                {
                    "level": rec.level,
                    "min_gap_k": rat_pair(rec.min_gap_k),
                    "max_gap_kt": rat_pair(rec.max_gap_kt),
                    "passed": rec.passed,
                }
                for rec in self.levels
            ],
        }


def check_dominance(k: GapTree, kt: GapTree, levels: int) -> DominanceReport:
    """Check hull containment and the strict per-level gap inequality.

    Level n passes when every companion gap at level n is strictly shorter
    than every gap of ``k`` there.  Failures are recorded, never raised; the
    chain builders are the ones that insist on a clean report.

    Two symmetric trees are compared on integers: over the common
    denominator of ``integer_lengths`` the level-n gap is L_n - 2 L_{n+1},
    and two gaps over different denominators are compared by
    cross-multiplying.  The ``LevelRecord``s are built on first read.
    """
    if levels < 1 or levels > min(k.depth, kt.depth):
        raise LevelOutOfRange(levels, min(k.depth, kt.depth))
    hull_ok = kt.hull.contains_interval(k.hull)
    if isinstance(k, SymmetricGapTree) and isinstance(kt, SymmetricGapTree):
        (nums_k, den_k), (nums_t, den_t) = k.integer_lengths, kt.integer_lengths
        gaps = [(nums_k[n] - 2 * nums_k[n + 1], nums_t[n] - 2 * nums_t[n + 1]) for n in range(levels)]
    else:
        den_k = den_t = 1
        gaps = [(k.level_min_gap(n), kt.level_max_gap(n)) for n in range(levels)]
    passed = [gap_t * den_k < gap_k * den_t for gap_k, gap_t in gaps]

    def records():
        return tuple(
            LevelRecord(n, Fraction(gap_k, den_k), Fraction(gap_t, den_t), ok)
            for n, ((gap_k, gap_t), ok) in enumerate(zip(gaps, passed))
        )

    return DominanceReport(hull_ok, records, hull_ok and all(passed))


@dataclass(frozen=True)
class WitnessChain:
    """Nested address pairs plus the pinned points and the distance bound."""

    pairs: tuple[tuple[str, str], ...]
    witness_k: Fraction
    witness_kt: Fraction
    bound: Fraction

    @property
    def final_addresses(self) -> tuple[str, str]:
        return self.pairs[-1]

    def to_json_obj(self) -> dict:
        return {
            "pairs": [list(p) for p in self.pairs],
            "witness_k": rat_pair(self.witness_k),
            "witness_kt": rat_pair(self.witness_kt),
            "bound": rat_pair(self.bound),
        }


def find_chain(k: GapTree, kt: GapTree, levels: int, report: DominanceReport | None = None) -> WitnessChain:
    """Descend ``levels`` steps keeping an interval of k inside one of kt.

    At each node the companion gap is shorter, so it pokes into at most one
    side; the other side's child of k clears it.  When both sides are clear
    we take the left branch.  The witnesses are the midpoints of the final
    intervals and the bound is the final companion interval length.
    This is the one dominance gate of a trial: a failed check raises
    DominanceNotVerified, whose ``report`` names what failed.  A caller
    that already holds ``check_dominance(k, kt, levels)`` passes it as
    ``report``, and the check is not made again.  On two symmetric trees
    the gate compares integer gaps and builds no ``LevelRecord`` unless a
    failure reason reads them.

    Two walks take the same steps and return the same chain, each in
    O(levels).  When both trees are symmetric, every level-n interval of a
    tree has one length, so a held node is its left end alone and the walk
    adds and compares integers over one denominator (``_symmetric_walk``);
    every chain of ``sweep-1d``, ``interior-1d``, ``erdos-demo`` and
    ``companion-1d`` runs there.  Any other pair, explicit trees and the
    slice images of the distance demos among them, carries ``(addr, lo,
    hi)`` of each held node and splits it with ``split_interval``
    (``_split_walk``), because only the tree knows its children.
    """
    if report is None:
        report = check_dominance(k, kt, levels)
    if not report.overall:
        raise DominanceNotVerified(report)
    if isinstance(k, SymmetricGapTree) and isinstance(kt, SymmetricGapTree):
        return _symmetric_walk(k, kt, levels)
    return _split_walk(k, kt, levels)


def _split_walk(k: GapTree, kt: GapTree, levels: int) -> WitnessChain:
    root_k = k.interval("")
    root_t = kt.interval("")
    node_k = ("", root_k.lo, root_k.hi)
    node_t = ("", root_t.lo, root_t.hi)
    pairs = []
    for n in range(levels):
        # nodes are (addr, lo, hi) triples
        left_k, right_k = k.split_interval(*node_k)
        left_t, right_t = kt.split_interval(*node_t)
        if left_k[2] < left_t[2] and left_t[1] <= left_k[1]:
            node_k, node_t = left_k, left_t
        elif right_t[1] < right_k[1] and right_k[2] <= right_t[2]:
            node_k, node_t = right_k, right_t
        else:
            raise ChainBroken(n + 1)
        pairs.append((node_k[0], node_t[0]))
    _, lo_k, hi_k = node_k
    _, lo_t, hi_t = node_t
    return WitnessChain(
        pairs=tuple(pairs),
        witness_k=(lo_k + hi_k) / 2,
        witness_kt=(lo_t + hi_t) / 2,
        bound=hi_t - lo_t,
    )


def _symmetric_walk(k: SymmetricGapTree, kt: SymmetricGapTree, levels: int) -> WitnessChain:
    """``_split_walk`` for two symmetric trees, on integers over D.

    D is the lcm of both trees' length denominators and both ``hull.lo``
    denominators, so every end below is an exact integer multiple of 1/D.
    The held nodes are [a, a + L_n] of k and [b, b + T_n] of kt, and
    c = T_{n+1} - L_{n+1}.  The left children nest when 0 <= a - b < c and
    the right ones when 0 <= (b + T_n) - (a + L_n) < c: the two tests of
    ``_split_walk`` with the child ends written out.  Both trees take the
    same bit at every level, so each pair holds one address twice.
    """
    nums_k, den_k = k.integer_lengths
    nums_t, den_t = kt.integer_lengths
    lo_k, lo_t = k.hull.lo, kt.hull.lo
    den = math.lcm(den_k, den_t, lo_k.denominator, lo_t.denominator)
    len_k = [num * (den // den_k) for num in nums_k[: levels + 1]]
    len_t = [num * (den // den_t) for num in nums_t[: levels + 1]]
    a = lo_k.numerator * (den // lo_k.denominator)
    b = lo_t.numerator * (den // lo_t.denominator)
    bits = []
    for n in range(levels):
        c = len_t[n + 1] - len_k[n + 1]
        if 0 <= a - b < c:
            bits.append("0")
        elif 0 <= (b + len_t[n]) - (a + len_k[n]) < c:
            a += len_k[n] - len_k[n + 1]
            b += len_t[n] - len_t[n + 1]
            bits.append("1")
        else:
            raise ChainBroken(n + 1)
    path = "".join(bits)
    return WitnessChain(
        pairs=tuple((path[:n], path[:n]) for n in range(1, levels + 1)),
        witness_k=Fraction(2 * a + len_k[levels], 2 * den),
        witness_kt=Fraction(2 * b + len_t[levels], 2 * den),
        bound=Fraction(len_t[levels], den),
    )


def build_companion(
    k: GapTree,
    depth: int,
    margin,
    factor,
) -> SymmetricGapTree:
    """Symmetric companion on an enlarged hull with uniformly shorter gaps.

    Level-n gaps are factor * (min gap of k at level n), capped at half the
    level length so the construction always stays feasible.
    """
    margin = as_rat(margin)
    factor = as_rat(factor)
    if margin <= 0:
        raise ValueError("margin must be positive")
    if not Fraction(0) < factor < 1:
        raise ValueError("gap factor must lie in (0, 1)")
    if depth < 1 or depth > k.depth:
        raise LevelOutOfRange(depth, k.depth)
    hull = Interval(k.hull.lo - margin, k.hull.hi + margin)
    return capped_companion(hull, [factor * k.level_min_gap(n) for n in range(depth)])


def capped_companion(hull: Interval, wants) -> SymmetricGapTree:
    """Symmetric tree on ``hull`` whose level-n gap is min(want_n, L_n / 2).

    L_n is the length of a level-n interval, so a capped gap always leaves
    two children of non-negative length.
    """
    level_len = hull.length
    gaps = []
    for want in wants:
        gap = min(want, level_len / 2)
        gaps.append(gap)
        level_len = (level_len - gap) / 2
    return SymmetricGapTree(hull, tuple(gaps))


def certify_difference_interior(
    k: GapTree, kt: GapTree, levels: int, report: DominanceReport | None = None
) -> Interval:
    """Certified interval of translates t with (kt + t) meeting k.

    Needs strict hull margins on both sides and a clean dominance report;
    the answer is exactly the set of t keeping k's hull inside kt's, and
    every t in it admits a chain, so the difference set contains it.  A
    ``report`` already held for (k, kt, levels) is used as it is, as in
    ``find_chain``.
    """
    if report is None:
        report = check_dominance(k, kt, levels)
    if not report.overall:
        raise DominanceNotVerified(report)
    left = k.hull.lo - kt.hull.lo
    right = kt.hull.hi - k.hull.hi
    if left <= 0 or right <= 0:
        raise NoMargin(
            f"hull margins must be strictly positive, got {left} and {right}"
        )
    return Interval(k.hull.hi - kt.hull.hi, k.hull.lo - kt.hull.lo)


@dataclass(frozen=True)
class PerturbationSpec:
    """Affine perturbation grid for the companion: scales and translates."""

    lambda_range: Interval
    t_range: Interval
    lambda_count: int = 5
    t_count: int = 5

    def __post_init__(self):
        if self.lambda_count < 1 or self.t_count < 1:
            raise ValueError("grid counts must be at least 1")


def grid_values(rng: Interval, count: int) -> list[Fraction]:
    """Evenly spaced rationals across the range, endpoints included.

    A count below 1 raises ValueError: a grid of no values would certify
    nothing and still report success.
    """
    if count < 1:
        raise ValueError(f"a grid needs at least 1 value, got {count}")
    if count == 1:
        return [rng.lo]
    step = rng.length / (count - 1)
    return [rng.lo + i * step for i in range(count)]


@dataclass(frozen=True)
class SweepPoint:
    lam: Fraction
    t: Fraction
    ok: bool
    bound: Fraction | None
    reason: str | None

    def to_json_obj(self) -> dict:
        return {
            "lambda": rat_pair(self.lam),
            "t": rat_pair(self.t),
            "ok": self.ok,
            "bound": rat_pair(self.bound) if self.bound is not None else None,
            "reason": self.reason,
        }


@dataclass(frozen=True)
class SweepReport:
    slack_lambda: Fraction
    points: tuple[SweepPoint, ...]
    all_ok: bool

    def to_json_obj(self) -> dict:
        return {
            "slack_lambda": rat_pair(self.slack_lambda),
            "all_ok": self.all_ok,
            "points": [p.to_json_obj() for p in self.points],
        }


def robustness_sweep(
    k: GapTree,
    kt: GapTree,
    pert: PerturbationSpec,
    levels: int,
) -> SweepReport:
    """Re-run the chain for every (lambda, t) on the perturbation grid.

    Points are visited lambda-major, t-minor, and results keep that order.
    Failures are recorded per point.
    """
    slack = check_dominance(k, kt, levels).slack
    lam_values = grid_values(pert.lambda_range, pert.lambda_count)
    t_values = grid_values(pert.t_range, pert.t_count)
    combos = [(lam, t) for lam in lam_values for t in t_values]

    def run_point(combo):
        lam, t = combo
        if lam == 0:
            return SweepPoint(lam, t, False, None, "zero-scale")
        moved = affine_image(kt, lam, t)
        try:
            chain = find_chain(k, moved, levels)
        except DominanceNotVerified as exc:
            reason = "dominance" if exc.report.hull_contained else "hull"
            return SweepPoint(lam, t, False, None, reason)
        except ChainBroken as exc:
            return SweepPoint(lam, t, False, None, f"chain-broken-{exc.level}")
        return SweepPoint(lam, t, True, chain.bound, None)

    points = tuple(map(run_point, combos))
    return SweepReport(slack, points, all(p.ok for p in points))
