"""The O(levels) chain walks against the walk that re-enters the trees.

``find_chain`` walks two symmetric trees on integers and descends any other
pair with ``split_interval``, carrying the held node of each tree.  These
tests pin that every tree kind's ``split_interval`` returns exactly the
children ``interval`` gives, that the integer lengths a symmetric tree
hands on equal its ``level_lengths``, and that both walks return the same
chain as ``oracles.reference_find_chain``, or break at the same level.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from cantorforge.applications import (
    HSpec,
    MonotoneImageTree,
    _slice_derivative_data,
    nonlinear_companion,
)
from cantorforge.cantor1d import (
    ExplicitGapTree,
    Interval,
    SymmetricGapTree,
    addresses,
    affine_image,
    build_binary_ifs,
)
from cantorforge.containment1d import (
    ChainBroken,
    DominanceNotVerified,
    build_companion,
    find_chain,
)

SPLIT_DEPTH = 7  # every address of depth <= 6 has two children
ALPHA_HULL = Interval(Fraction(11, 20), Fraction(13, 20))


def random_hull(rng):
    lo = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
    return Interval(lo, lo + Fraction(rng.randint(1, 40), rng.randint(1, 20)))


def random_symmetric(rng, depth, hull=None):
    hull = random_hull(rng) if hull is None else hull
    gaps = []
    level = hull.length
    for _ in range(depth):
        g = level * Fraction(rng.randint(1, 98), 99)
        gaps.append(g)
        level = (level - g) / 2
    return SymmetricGapTree(hull, tuple(gaps))


def random_explicit(rng, depth, hull=None):
    hull = random_hull(rng) if hull is None else hull
    nodes = {"": hull}
    gaps = {}
    for n in range(depth):
        for addr in addresses(n):
            iv = nodes[addr]
            a = iv.lo + iv.length * Fraction(rng.randint(1, 97), 100)
            b = a + (iv.hi - a) * Fraction(rng.randint(1, 98), 100)
            gaps[addr] = Interval(a, b)
            nodes[addr + "0"] = Interval(iv.lo, a)
            nodes[addr + "1"] = Interval(b, iv.hi)
    return ExplicitGapTree(hull, depth, gaps)


def as_explicit(tree):
    gaps = {addr: tree.gap(addr) for n in range(tree.depth) for addr in addresses(n)}
    return ExplicitGapTree(tree.hull, tree.depth, gaps)


def slice_spec(family, lam, base):
    return HSpec(family, Interval(lam, lam), base.hull)


def image_tree(base, family, lam, c, bits):
    spec = slice_spec(family, lam, base)
    data = _slice_derivative_data(spec, spec.lam_box, Interval(c, c), base.hull, bits)
    return MonotoneImageTree(base, spec, lam, c, data, bits)


def random_image(rng, slope, base_kind):
    """Slice image of a random base; ``slope`` picks the slice family."""
    make = random_symmetric if base_kind == "symmetric" else random_explicit
    if slope == "alpha-decreasing":
        base = make(rng, SPLIT_DEPTH, ALPHA_HULL)
        c = Fraction(19, 20) + Fraction(rng.randint(0, 10), 100)
        return image_tree(base, "alpha-norm", Fraction(2), c, rng.choice((8, 16, 64)))
    base = make(rng, SPLIT_DEPTH)
    lam = Fraction(rng.randint(1, 30), rng.randint(1, 10))
    lam = -lam if slope == "affine-increasing" else lam
    return image_tree(base, "affine-sum", lam, Fraction(rng.randint(-9, 9), 7), 64)


def assert_splits_match(tree, order):
    for addr in order:
        iv = tree.interval(addr)
        children = tree.split_interval(addr, iv.lo, iv.hi)
        expected = []
        for bit in "01":
            child = tree.interval(addr + bit)
            expected.append((addr + bit, child.lo, child.hi))
        assert children == tuple(expected), addr


LEVEL_ORDER = [addr for n in range(SPLIT_DEPTH) for addr in addresses(n)]


@settings(max_examples=25)
@given(st.integers(0, 2**32), st.sampled_from(["symmetric", "explicit"]))
def test_split_matches_interval_on_plain_trees(seed, kind):
    rng = random.Random(seed)
    make = random_symmetric if kind == "symmetric" else random_explicit
    assert_splits_match(make(rng, SPLIT_DEPTH), LEVEL_ORDER)


@settings(max_examples=15)
@given(
    st.integers(0, 2**32),
    st.sampled_from(["affine-increasing", "affine-decreasing", "alpha-decreasing"]),
    st.sampled_from(["symmetric", "explicit"]),
)
def test_split_matches_interval_on_image_trees(seed, slope, base_kind):
    image = random_image(random.Random(seed), slope, base_kind)
    assert image.data.decreasing == (slope != "affine-increasing")
    # Level order descends through the remembered base nodes; a fresh tree
    # split deepest first looks every base node up from the root instead.
    assert_splits_match(image, LEVEL_ORDER)
    fresh = random_image(random.Random(seed), slope, base_kind)
    assert_splits_match(fresh, LEVEL_ORDER[::-1])


def chain_outcome(walk, k, kt, levels):
    try:
        return walk(k, kt, levels)
    except ChainBroken as exc:
        return ("chain-broken", exc.level)
    except DominanceNotVerified:
        return ("dominance",)


def assert_same_chain(make_pair, levels):
    """Each walk gets a pair of its own, so no memo is shared."""
    new = chain_outcome(find_chain, *make_pair(), levels)
    ref = chain_outcome(oracles.reference_find_chain, *make_pair(), levels)
    assert new == ref
    return new


@settings(max_examples=40)
@given(
    st.integers(0, 2**32),
    st.fractions(Fraction(9, 10), Fraction(11, 10), max_denominator=50),
    st.fractions(Fraction(-1, 5), Fraction(1, 5), max_denominator=50),
    st.sampled_from(["symmetric", "explicit-k", "explicit-kt"]),
)
def test_walk_matches_reference_on_moved_companions(seed, lam, t, kinds):
    levels = 9

    def make_pair():
        rng = random.Random(seed)
        k = random_symmetric(rng, levels)
        kt = affine_image(build_companion(k, levels, k.hull.length / 10, Fraction(1, 2)), lam, t)
        if kinds == "explicit-k":
            k = as_explicit(k)
        elif kinds == "explicit-kt":
            kt = as_explicit(kt)
        return k, kt

    assert_same_chain(make_pair, levels)


@settings(max_examples=20)
@given(
    st.integers(0, 2**32),
    st.fractions(Fraction(19, 20), Fraction(21, 20), max_denominator=40),
    st.sampled_from([4, 8, 12, 16, 64]),
)
def test_walk_matches_reference_through_slice_images(seed, c, bits):
    levels = 10
    k1 = random_symmetric(random.Random(seed), levels, ALPHA_HULL)
    spec = slice_spec("alpha-norm", Fraction(2), k1)
    k2 = nonlinear_companion(k1, spec, spec.lam_box, Interval(Fraction(19, 20), Fraction(21, 20)), bits=bits)

    def make_pair():
        return image_tree(k1, "alpha-norm", Fraction(2), c, bits), k2

    assert_same_chain(make_pair, levels)


def test_walks_break_at_the_same_level():
    # At 8 bits the outward slice enclosures outgrow the companion's
    # intervals, so dominance holds and the chain still breaks.
    k1 = build_binary_ifs(ALPHA_HULL, Fraction(1, 10), 12)
    spec = slice_spec("alpha-norm", Fraction(2), k1)
    k2 = nonlinear_companion(k1, spec, spec.lam_box, Interval(Fraction(19, 20), Fraction(21, 20)), bits=8)

    def make_pair():
        return image_tree(k1, "alpha-norm", Fraction(2), Fraction(19, 20), 8), k2

    outcome = assert_same_chain(make_pair, 12)
    assert outcome[0] == "chain-broken" and 1 < outcome[1] <= 12


def assert_integer_lengths(tree):
    nums, den = tree.integer_lengths
    assert tuple(Fraction(num, den) for num in nums) == tree.level_lengths


@pytest.mark.parametrize(
    "lam", [Fraction(1), Fraction(-1), Fraction(101, 100), Fraction(-3, 7), Fraction(22, 9)]
)
def test_affine_image_hands_on_integer_lengths(lam):
    base = build_binary_ifs(Interval(Fraction(-1, 3), Fraction(7, 5)), Fraction(2, 7), 16)
    img = affine_image(base, lam, Fraction(5, 11))
    assert_integer_lengths(img)
    again = affine_image(img, Fraction(-13, 12), Fraction(1, 17))
    assert_integer_lengths(again)
    if abs(lam) == 1:
        assert img.integer_lengths == base.integer_lengths


def erdos_like_pair(rng):
    """A symmetric pair as erdos-demo, sweep-1d or interior-1d builds it,
    with hull ends over denominators unrelated to the lengths.

    The map x -> lam (x - mid) + mid + t moves one tree about its own hull
    midpoint.  A thin margin lets the hull escape when |lam| < 1, so some
    trials fail their dominance gate; a symmetric pair that passes it
    always chains.
    """
    levels = rng.randint(16, 24)
    lo = Fraction(rng.randint(-40, 40), rng.choice((7, 11, 13, 17)))
    hull = Interval(lo, lo + Fraction(rng.randint(1, 5), rng.choice((1, 3, 19))))
    k = build_binary_ifs(hull, rng.choice((Fraction(1, 10), Fraction(2, 7), Fraction(1, 3))), levels)
    margin = hull.length / rng.choice((10, 1000))
    kt = build_companion(k, levels, margin, rng.choice((Fraction(1, 2), Fraction(99, 100))))
    lam = Fraction(rng.randint(90, 110), 100) * rng.choice((1, -1))
    t = Fraction(rng.randint(-20, 20), 23) * hull.length / 100
    mid = hull.midpoint()
    if rng.random() < 0.5:
        # the moved tree on the k side, against a translate of the companion
        nudge = Fraction(rng.randint(-5, 5), 29) * hull.length / 100
        return affine_image(k, lam, (1 - lam) * mid + t + nudge), affine_image(kt, Fraction(1), t), levels
    return k, affine_image(kt, lam, (1 - lam) * mid + t), levels


def test_symmetric_walk_matches_reference_without_splitting(monkeypatch):
    def no_split(self, addr, lo, hi):
        raise AssertionError("a symmetric pair must not split nodes")

    monkeypatch.setattr(SymmetricGapTree, "split_interval", no_split)
    rng = random.Random(20241019)
    outcomes = []
    for _ in range(40):
        k, kt, levels = erdos_like_pair(rng)
        assert_integer_lengths(k)
        assert_integer_lengths(kt)
        new = chain_outcome(find_chain, k, kt, levels)
        assert new == chain_outcome(oracles.reference_find_chain, k, kt, levels)
        outcomes.append(new[0] if isinstance(new, tuple) else "chain")
    # the cases reach both ends: chains that hold and trials that fail
    assert outcomes.count("chain") >= 10
    assert len(set(outcomes)) > 1
