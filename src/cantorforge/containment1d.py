"""Containment chains between a Cantor tree and a coarser companion tree.

The driving fact is elementary: if an interval of K sits inside an interval
of the companion Kt whose gap is shorter than K's gap there, then at least
one child of K fits entirely inside a child of Kt, and we can descend one
level.  Iterating pins a point of K and a point of Kt inside a common
interval whose length bounds their distance.  Everything here runs on exact
rationals, so a produced chain is a proof, not an estimate.

Companions built with a gap factor < 1 make the descent available from every
starting translate inside the hull margin, which is what turns the chain
into an interior statement for the difference set K - Kt.
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


@dataclass(frozen=True)
class DominanceReport:
    hull_contained: bool
    levels: tuple[LevelRecord, ...]
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
    """
    if levels < 1 or levels > min(k.depth, kt.depth):
        raise LevelOutOfRange(levels, min(k.depth, kt.depth))
    hull_ok = kt.hull.contains_interval(k.hull)
    records = []
    all_passed = True
    for n in range(levels):
        lo = k.level_min_gap(n)
        hi = kt.level_max_gap(n)
        ok = hi < lo
        all_passed = all_passed and ok
        records.append(LevelRecord(n, lo, hi, ok))
    return DominanceReport(hull_ok, tuple(records), hull_ok and all_passed)


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


def find_chain(k: GapTree, kt: GapTree, levels: int) -> WitnessChain:
    """Descend ``levels`` steps keeping an interval of k inside one of kt.

    At each node the companion gap is shorter, so it pokes into at most one
    side; the other side's child of k clears it.  When both sides are clear
    we take the left branch.  The witnesses are the midpoints of the final
    intervals and the bound is the final companion interval length.
    This is the one dominance gate of a trial: a failed check raises
    DominanceNotVerified, whose ``report`` names what failed.

    The walk carries ``(addr, lo, hi)`` of the held node of each tree from
    ``interval("")`` down and splits it with ``split_interval``, so a step
    costs O(1) and a chain O(levels); no address is re-walked from the root.
    """
    report = check_dominance(k, kt, levels)
    if not report.overall:
        raise DominanceNotVerified(report)
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


def certify_difference_interior(k: GapTree, kt: GapTree, levels: int) -> Interval:
    """Certified interval of translates t with (kt + t) meeting k.

    Needs strict hull margins on both sides and a clean dominance report;
    the answer is exactly the set of t keeping k's hull inside kt's, and
    every t in it admits a chain, so the difference set contains it.
    """
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
    """Evenly spaced rationals across the range, endpoints included."""
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
