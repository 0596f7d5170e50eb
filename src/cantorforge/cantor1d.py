"""Finite-depth Cantor constructions on the line, kept as binary gap trees.

A gap tree of depth N describes the first N splitting stages of a Cantor set:
every node address sigma (a string of 0s and 1s, |sigma| < N) owns a closed
interval I_sigma and the open gap U_sigma punched out of it; the two children
are the closed pieces left on either side.  Level n therefore has 2**n
intervals and 2**n gaps feeding level n+1.

Endpoints are exact rationals throughout.  Nothing in this module rounds,
and degenerate data (empty hulls, zero-length gaps, gaps that do not fit)
is rejected rather than clamped.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator


class CantorForgeError(Exception):
    """Base class for every error this package raises on purpose."""


class GapConstraintViolation(CantorForgeError):
    """A requested gap does not fit strictly inside its level interval."""

    def __init__(self, level: int, message: str | None = None):
        self.level = level
        super().__init__(message or f"gap at level {level} violates the feasibility bound")


class InvalidRatio(CantorForgeError):
    pass


class LevelOutOfRange(CantorForgeError):
    def __init__(self, level: int, depth: int):
        self.level = level
        self.depth = depth
        super().__init__(f"level {level} out of range for tree of depth {depth}")


class ZeroScale(CantorForgeError):
    pass


def as_rat(x) -> Fraction:
    """Coerce ints, strings like '1/3', and Fractions. Floats are refused:
    silently importing binary floats is how exactness bugs start."""
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise TypeError("refusing float input; pass a Fraction or a string like '1/3'")
    return Fraction(x)


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] with rational endpoints, lo <= hi.

    Arithmetic is exact interval arithmetic (no rounding per operation);
    callers round at the boundaries where dyadic endpoints are wanted.
    """

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        # Arithmetic results are already Fractions; only other inputs convert.
        lo, hi = self.lo, self.hi
        if type(lo) is not Fraction:
            lo = as_rat(lo)
            object.__setattr__(self, "lo", lo)
        if type(hi) is not Fraction:
            hi = as_rat(hi)
            object.__setattr__(self, "hi", hi)
        if lo > hi:
            raise ValueError(f"interval endpoints out of order: [{lo}, {hi}]")

    @staticmethod
    def point(x) -> "Interval":
        x = as_rat(x)
        return Interval(x, x)

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, x: Fraction) -> bool:
        return self.lo <= x <= self.hi

    def contains_interval(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "Interval") -> "Interval":
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __mul__(self, other: "Interval") -> "Interval":
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return Interval(min(products), max(products))

    def abs(self) -> "Interval":
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return Interval(Fraction(0), max(-self.lo, self.hi))


def _check_addr(addr: str, depth: int, *, gap: bool):
    # a gap lives at a node above the leaves, an interval at any node
    if len(addr) > depth - gap:
        raise LevelOutOfRange(len(addr), depth)
    if any(ch not in "01" for ch in addr):
        raise ValueError(f"bad node address {addr!r}")


def addresses(level: int) -> Iterator[str]:
    """All level-`level` addresses in left-to-right (lexicographic) order."""
    if level == 0:
        yield ""
        return
    for i in range(1 << level):
        yield format(i, f"0{level}b")


class GapTree:
    """Shared behaviour for the concrete tree representations.

    Subclasses provide ``interval(addr)`` and ``gap(addr)``; everything an
    outside caller needs (level scans, gap bounds, serialization, structural
    equality) is derived here.
    """

    hull: Interval
    depth: int

    def interval(self, addr: str) -> Interval:
        raise NotImplementedError

    def gap(self, addr: str) -> Interval:
        raise NotImplementedError

    def level_intervals(self, n: int) -> Iterator[Interval]:
        """Level-n intervals in address order, each node split once.

        A depth-first walk with ``split_interval`` costs O(2**n) splits
        where ``interval`` per address costs O(n * 2**n), and it holds only
        one pending sibling per level.
        """
        if not 0 <= n <= self.depth:
            raise LevelOutOfRange(n, self.depth)
        stack = [("", self.hull.lo, self.hull.hi)]
        while stack:
            addr, lo, hi = stack.pop()
            if len(addr) == n:
                yield Interval(lo, hi)
            else:
                stack.extend(reversed(self.split_interval(addr, lo, hi)))

    def level_gaps(self, n: int) -> Iterator[Interval]:
        if not 0 <= n < self.depth:
            raise LevelOutOfRange(n, self.depth)
        for addr in addresses(n):
            yield self.gap(addr)

    def level_min_gap(self, n: int) -> Fraction:
        return min(g.length for g in self.level_gaps(n))

    def level_max_gap(self, n: int) -> Fraction:
        return max(g.length for g in self.level_gaps(n))

    def split_interval(self, addr: str, lo: Fraction, hi: Fraction):
        """Children of the node interval [lo, hi], without re-walking the tree.

        Callers pass the interval they already hold for ``addr``; this costs
        O(1) instead of the O(|addr|) of two interval() calls, which matters
        when chain walks and level scans split every node they hold.
        """
        g = self.gap(addr)
        return (addr + "0", lo, g.lo), (addr + "1", g.hi, hi)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GapTree):
            return NotImplemented
        if self.hull != other.hull or self.depth != other.depth:
            return False
        if isinstance(self, SymmetricGapTree) and isinstance(other, SymmetricGapTree):
            return self.gap_lengths == other.gap_lengths
        for n in range(self.depth):
            for addr in addresses(n):
                if self.gap(addr) != other.gap(addr):
                    return False
        return True

    def __hash__(self):
        return hash((self.hull, self.depth))

    # -- serialization ----------------------------------------------------

    def to_json_obj(self) -> dict:
        gaps = []
        for n in range(self.depth):
            for addr in addresses(n):
                g = self.gap(addr)
                gaps.append({"addr": addr, "lo": rat_pair(g.lo), "hi": rat_pair(g.hi)})
        return {
            "kind": "gap-tree",
            "hull": [
                self.hull.lo.numerator,
                self.hull.lo.denominator,
                self.hull.hi.numerator,
                self.hull.hi.denominator,
            ],
            "depth": self.depth,
            "gaps": gaps,
        }

    def to_json(self) -> str:
        return canonical_json(self.to_json_obj())


def rat_pair(x: Fraction) -> list[int]:
    return [x.numerator, x.denominator]


def rat_from_pair(pair) -> Fraction:
    """The rational of a JSON ``[num, den]`` pair of integers.

    Float and bool entries and a zero denominator raise ValueError: a
    float would be truncated and a zero would divide."""
    num, den = pair
    if type(num) is not int or type(den) is not int:
        raise ValueError(f"a [num, den] pair needs two integers, got {pair!r}")
    if den == 0:
        raise ValueError(f"zero denominator in {pair!r}")
    return Fraction(num, den)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


class SymmetricGapTree(GapTree):
    """Tree whose level-n gaps all have one length, centered in their interval.

    Only the per-level data is stored, so depth-20 trees cost twenty numbers,
    not a million nodes.  Every level-n interval has the same length L_n with
    L_{n+1} = (L_n - gap_n) / 2.  The first level whose gap does not fit
    raises GapConstraintViolation; nothing is clamped.

    ``integer_lengths``, the L_n as integers over one denominator, is what
    the chain walk, dominance gate and R^d covers read.  A tree made by
    ``affine_image`` stores only it, hull and depth; its ``Fraction``
    ``level_lengths`` and ``gap_lengths`` (L_n - 2 L_{n+1}) are built on read.
    """

    def __init__(self, hull: Interval, gap_lengths: tuple[Fraction, ...]):
        if hull.length <= 0:
            raise ValueError("hull must have positive length")
        if not gap_lengths:
            raise ValueError("a gap tree needs at least one level")
        self.hull = hull
        self.gap_lengths = tuple(as_rat(g) for g in gap_lengths)
        self.depth = len(self.gap_lengths)
        lengths = [hull.length]
        for n, g in enumerate(self.gap_lengths):
            if g <= 0:
                raise GapConstraintViolation(n, f"gap length at level {n} must be positive")
            if g >= lengths[n]:
                raise GapConstraintViolation(n)
            lengths.append((lengths[n] - g) / 2)
        self.level_lengths = tuple(lengths)

    @cached_property
    def gap_lengths(self) -> tuple[Fraction, ...]:
        # set by __init__; built here only for a tree made by affine_image
        nums, den = self.integer_lengths
        return tuple(Fraction(nums[n] - 2 * nums[n + 1], den) for n in range(self.depth))

    @cached_property
    def level_lengths(self) -> tuple[Fraction, ...]:
        # lengths[n] is the common length of level-n intervals
        nums, den = self.integer_lengths
        return tuple(Fraction(num, den) for num in nums)

    @cached_property
    def integer_lengths(self) -> tuple[tuple[int, ...], int]:
        """``level_lengths`` as integer numerators over one denominator,
        built on first use; ``affine_image`` scales the pair into the
        trees it makes."""
        den = math.lcm(*(length.denominator for length in self.level_lengths))
        return tuple(length.numerator * (den // length.denominator) for length in self.level_lengths), den

    def interval(self, addr: str) -> Interval:
        _check_addr(addr, self.depth, gap=False)
        lo = self.hull.lo
        for n, bit in enumerate(addr):
            if bit == "1":
                lo += self.level_lengths[n + 1] + self.gap_lengths[n]
        return Interval(lo, lo + self.level_lengths[len(addr)])

    def gap(self, addr: str) -> Interval:
        _check_addr(addr, self.depth, gap=True)
        iv = self.interval(addr)
        mid = iv.midpoint()
        half = self.gap_lengths[len(addr)] / 2
        return Interval(mid - half, mid + half)

    def level_min_gap(self, n: int) -> Fraction:
        if not 0 <= n < self.depth:
            raise LevelOutOfRange(n, self.depth)
        return self.gap_lengths[n]

    level_max_gap = level_min_gap

    def split_interval(self, addr: str, lo: Fraction, hi: Fraction):
        n = len(addr)
        if n >= self.depth:
            raise LevelOutOfRange(n, self.depth)
        child = self.level_lengths[n + 1]
        return (addr + "0", lo, lo + child), (addr + "1", hi - child, hi)

    def to_json_obj(self) -> dict:
        # One length per level instead of 2**depth gap nodes; a depth-20
        # tree serializes in a few hundred bytes this way.
        return {
            "kind": "gap-tree",
            "hull": [
                self.hull.lo.numerator,
                self.hull.lo.denominator,
                self.hull.hi.numerator,
                self.hull.hi.denominator,
            ],
            "depth": self.depth,
            "levels": [rat_pair(g) for g in self.gap_lengths],
        }


class ExplicitGapTree(GapTree):
    """Tree with an explicit gap interval per node, e.g. one read from JSON.

    Construction validates the whole structure: every node needs one gap
    that sits strictly inside its interval, leaving two children of
    positive length, and a gap at an address that is no node is refused.
    """

    def __init__(self, hull: Interval, depth: int, gaps: dict[str, Interval]):
        if hull.length <= 0:
            raise ValueError("hull must have positive length")
        if depth < 1:
            raise ValueError("depth must be at least 1")
        self.hull = hull
        self.depth = depth
        self.gaps = dict(gaps)
        self._intervals: dict[str, Interval] = {"": hull}
        for n in range(depth):
            for addr in addresses(n):
                iv = self._intervals[addr]
                g = self.gaps.get(addr)
                if g is None:
                    raise ValueError(f"missing gap for node {addr!r}")
                if not (iv.lo < g.lo and g.hi < iv.hi):
                    raise GapConstraintViolation(
                        n, f"gap ({g.lo}, {g.hi}) not strictly inside [{iv.lo}, {iv.hi}] at node {addr!r}"
                    )
                if g.length <= 0:
                    raise GapConstraintViolation(n, f"gap at node {addr!r} has zero length")
                self._intervals[addr + "0"] = Interval(iv.lo, g.lo)
                self._intervals[addr + "1"] = Interval(g.hi, iv.hi)
        extra = [addr for addr in self.gaps if addr not in self._intervals or len(addr) == depth]
        if extra:
            raise ValueError(f"gap for {extra[0]!r}, which is not a node of a depth-{depth} tree")

    def interval(self, addr: str) -> Interval:
        _check_addr(addr, self.depth, gap=False)
        return self._intervals[addr]

    def gap(self, addr: str) -> Interval:
        _check_addr(addr, self.depth, gap=True)
        return self.gaps[addr]


def build_binary_ifs(hull: Interval, ratio, depth: int) -> SymmetricGapTree:
    """Attractor stages of the two-map IFS {a x, a x + (1 - a)} on the hull.

    Level-n intervals have length a**n |hull| and the level-n gap is the
    middle (1 - 2a) fraction, so the result is a symmetric tree.
    """
    a = as_rat(ratio)
    if not Fraction(0) < a < Fraction(1, 2):
        raise InvalidRatio(f"contraction ratio must lie in (0, 1/2), got {a}")
    if depth < 1:
        raise ValueError("depth must be at least 1")
    size = hull.length
    gaps = tuple((1 - 2 * a) * a ** n * size for n in range(depth))
    return SymmetricGapTree(hull, gaps)


def middle_thirds(depth: int, hull: Interval | None = None) -> SymmetricGapTree:
    """The standard middle-thirds construction, by default on [0, 1]."""
    if hull is None:
        hull = Interval(Fraction(0), Fraction(1))
    return build_binary_ifs(hull, Fraction(1, 3), depth)


def affine_image(tree: GapTree, lam, t) -> GapTree:
    """Exact image of the tree under x -> lam*x + t.

    Negative lam reverses orientation, so child labels flip; the result is
    again a valid gap tree on the image hull.  A symmetric image holds
    the mapped hull and ``integer_lengths`` times |lam|, and builds its
    ``Fraction`` lengths only when read; any other tree maps gap by gap.
    """
    lam = as_rat(lam)
    t = as_rat(t)
    if lam == 0:
        raise ZeroScale("affine scale must be nonzero")

    def map_iv(iv: Interval) -> Interval:
        a, b = lam * iv.lo + t, lam * iv.hi + t
        return Interval(min(a, b), max(a, b))

    if isinstance(tree, SymmetricGapTree):
        # A positive scale of a feasible tree is feasible, and exact
        # arithmetic gives |lam| (L - g) / 2 = (|lam| L - |lam| g) / 2, so
        # the scaled lengths are the ones SymmetricGapTree would derive.
        # Only the hull and integer_lengths are built here, which is all
        # the integer walk and the dominance gate read.
        scale = abs(lam)
        nums, den = tree.integer_lengths
        image = SymmetricGapTree.__new__(SymmetricGapTree)
        image.hull, image.depth = map_iv(tree.hull), tree.depth
        image.integer_lengths = tuple(scale.numerator * num for num in nums), den * scale.denominator
        return image
    flip = lam < 0
    gaps = {}
    for n in range(tree.depth):
        for addr in addresses(n):
            new_addr = "".join("1" if b == "0" else "0" for b in addr) if flip else addr
            gaps[new_addr] = map_iv(tree.gap(addr))
    return ExplicitGapTree(map_iv(tree.hull), tree.depth, gaps)


def tree_from_json_obj(obj: dict) -> GapTree:
    if obj.get("kind") != "gap-tree":
        raise ValueError(f"not a gap-tree object (kind={obj.get('kind')!r})")
    h = obj["hull"]
    hull = Interval(rat_from_pair(h[:2]), rat_from_pair(h[2:]))
    depth = obj["depth"]
    if type(depth) is not int:
        raise ValueError(f"tree depth must be an integer, got {depth!r}")
    if "levels" in obj:
        tree = SymmetricGapTree(hull, tuple(rat_from_pair(g) for g in obj["levels"]))
        if tree.depth != depth:
            raise ValueError(f"depth field says {depth}, levels list has {tree.depth}")
        return tree
    gaps = {}
    for entry in obj["gaps"]:
        if entry["addr"] in gaps:
            raise ValueError(f"two gaps for node {entry['addr']!r}")
        gaps[entry["addr"]] = Interval(rat_from_pair(entry["lo"]), rat_from_pair(entry["hi"]))
    return ExplicitGapTree(hull, depth, gaps)


def write_intervals_csv(tree: GapTree, level: int, fileobj) -> int:
    """Dump the level's intervals as addr,lo_num,lo_den,hi_num,hi_den rows.

    Rows come out in address-lexicographic order. Returns the row count.
    """
    if not 0 <= level <= tree.depth:
        raise LevelOutOfRange(level, tree.depth)
    fileobj.write("addr,lo_num,lo_den,hi_num,hi_den\n")
    count = 0
    for addr, iv in zip(addresses(level), tree.level_intervals(level)):
        fileobj.write(
            f"{addr},{iv.lo.numerator},{iv.lo.denominator},{iv.hi.numerator},{iv.hi.denominator}\n"
        )
        count += 1
    return count
