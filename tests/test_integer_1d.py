"""The integer paths of the 1-D chains against their ``Fraction`` references.

Slice points of the alpha-norm family are enclosed from the integers of
x, c and alpha, two symmetric trees pass or fail the dominance gate on
integer gaps, and an affine image of a symmetric tree scales its
``Fraction`` lengths only when they are read.  Each must agree with a
reference in ``oracles`` that works in ``Fraction``s, as
``test_chain_walk.py`` checks the walks.
"""

import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from cantorforge.applications import HSpec, SignNotDefinite
from cantorforge.cantor1d import Interval, SymmetricGapTree, affine_image, build_binary_ifs
from cantorforge.containment1d import capped_companion, check_dominance
from cantorforge.dyadic import root_bounds

ALPHAS = [Fraction(2), Fraction(3, 2), Fraction(3), Fraction(5, 3), Fraction(4)]
BITS = [1, 4, 64, 200]
positive = st.fractions(min_value=Fraction(1, 100), max_value=2, max_denominator=1000)


def alpha_spec(alpha):
    return HSpec("alpha-norm", Interval(alpha, alpha), Interval(Fraction(1, 100), Fraction(2)))


def slice_outcome(enclose):
    try:
        return enclose()
    except SignNotDefinite:
        return "sign-not-definite"


@settings(max_examples=60)
@given(
    st.fractions(min_value=0, max_value=10**6, max_denominator=10**6),
    st.integers(1, 5),
    st.sampled_from(BITS),
)
def test_root_bounds_match_the_fraction_reference(x, k, bits):
    assert root_bounds(x, k, bits) == oracles.reference_root_bounds(x, k, bits)


@settings(max_examples=60)
@given(st.sampled_from(ALPHAS), positive, st.fractions(min_value=0, max_value=4, max_denominator=1000),
       st.sampled_from(BITS))
@example(alpha=Fraction(2), x=Fraction(3), c=Fraction(25), bits=64)
@example(alpha=Fraction(2), x=Fraction(1), c=Fraction(1), bits=64)
def test_slice_point_matches_the_point_enclosure(alpha, x, c, bits):
    spec = alpha_spec(alpha)
    lam = spec.lam_box.lo
    point = slice_outcome(lambda: spec.slice_point(lam, c, x, bits))
    boxed = slice_outcome(
        lambda: spec.slice_enclosure(Interval.point(lam), Interval.point(c), Interval.point(x), bits)
    )
    assert point == boxed
    assert point == slice_outcome(lambda: oracles.reference_slice_point(alpha, c, x, bits))


@settings(max_examples=40)
@given(st.sampled_from(ALPHAS), st.fractions(Fraction(1, 10), 3, max_denominator=20),
       st.fractions(Fraction(1, 10), 3, max_denominator=20), st.sampled_from(BITS))
def test_slice_point_is_exact_on_perfect_powers(alpha, u, v, bits):
    # x = u**b and y = v**b make x**alpha = u**a and y**alpha = v**a rational
    a, b = alpha.numerator, alpha.denominator
    x, y = u**b, v**b
    spec = alpha_spec(alpha)
    assert spec.slice_point(alpha, u**a + v**a, x, bits) == Interval.point(y)


def test_slice_point_pins_the_three_four_five_triangle():
    assert alpha_spec(Fraction(2)).slice_point(Fraction(2), Fraction(25), Fraction(3), 64) == Interval.point(4)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_slice_point_refuses_a_non_positive_inner_value(alpha):
    spec = alpha_spec(alpha)
    with pytest.raises(SignNotDefinite):
        spec.slice_point(alpha, Fraction(1), Fraction(1), 64)
    with pytest.raises(SignNotDefinite):
        spec.slice_point(alpha, Fraction(1, 2), Fraction(3, 2), 64)


def dominance_pair(rng, case):
    """A symmetric pair that passes the gate, or fails it at one level
    (the companion gap there equals k's), or whose companion hull does
    not hold k's.  A "passes" companion may also be scaled a little
    about 0, so some of those miss the hull as well."""
    levels = rng.randint(4, 14)
    lo = Fraction(rng.randint(-30, 30), rng.choice((1, 7, 11)))
    hull = Interval(lo, lo + Fraction(rng.randint(1, 9), rng.choice((1, 3, 13))))
    k = build_binary_ifs(hull, Fraction(rng.randint(1, 49), 100), levels)
    if rng.random() < 0.5:
        lam = Fraction(rng.randint(80, 120), 100) * rng.choice((1, -1))
        k = affine_image(k, lam, Fraction(rng.randint(-9, 9), 17))
    margin = k.hull.length / rng.choice((5, 10, 100))
    hull = Interval(k.hull.lo - margin, k.hull.hi + margin)
    kt = capped_companion(hull, [Fraction(rng.randint(1, 99), 100) * g for g in k.gap_lengths])
    if case == "fails-at-a-level":
        # A gap of k fits every level of kt: its lengths stay at least k's
        # as long as its gaps are at most k's.
        gaps = list(kt.gap_lengths)
        n = rng.randrange(levels)
        gaps[n] = k.gap_lengths[n]
        kt = SymmetricGapTree(kt.hull, tuple(gaps))
    elif case == "hull-not-contained":
        kt = affine_image(kt, Fraction(1), kt.hull.length * rng.choice((1, -1)))
    elif rng.random() < 0.5:
        kt = affine_image(kt, Fraction(rng.randint(95, 105), 100), Fraction(0))
    return k, kt, levels


@settings(max_examples=60)
@given(st.integers(0, 2**32), st.sampled_from(["passes", "fails-at-a-level", "hull-not-contained"]))
def test_symmetric_dominance_matches_the_eager_reference(seed, case):
    k, kt, levels = dominance_pair(random.Random(seed), case)
    report = check_dominance(k, kt, levels)
    want = oracles.reference_check_dominance(k, kt, levels)
    if case != "passes":
        assert not want.overall
    assert report.overall == want.overall
    assert report.hull_contained == want.hull_contained
    assert report.levels == want.levels
    assert report == want
    assert report.slack == want.slack
    assert report.to_json_obj() == want.to_json_obj()
    if case == "hull-not-contained":
        assert not report.hull_contained


def test_symmetric_dominance_builds_its_records_on_read():
    k, kt, levels = dominance_pair(random.Random(7), "fails-at-a-level")
    report = check_dominance(k, kt, levels)
    assert not report.overall
    assert callable(report.__dict__["_levels"])
    flipped = dataclasses.replace(report, hull_contained=not report.hull_contained)
    assert flipped.levels == report.levels == oracles.reference_check_dominance(k, kt, levels).levels
    assert flipped != report
    assert type(report.__dict__["_levels"]) is tuple


@settings(max_examples=40)
@given(
    st.integers(0, 2**32),
    st.lists(st.fractions(Fraction(-3), Fraction(3), max_denominator=12).filter(bool), min_size=1, max_size=3),
    st.booleans(),
)
def test_affine_images_scale_their_lengths_on_read(seed, lams, levels_first):
    rng = random.Random(seed)
    lo = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
    base = build_binary_ifs(Interval(lo, lo + Fraction(rng.randint(1, 20), rng.randint(1, 9))),
                            Fraction(rng.randint(1, 49), 100), rng.randint(1, 12))
    img, scale = base, Fraction(1)
    for lam in lams:
        img = affine_image(img, lam, Fraction(rng.randint(-9, 9), 5))
        scale *= abs(lam)
        assert "gap_lengths" not in vars(img) and "level_lengths" not in vars(img)
    rederived = SymmetricGapTree(img.hull, tuple(scale * g for g in base.gap_lengths))
    if levels_first:
        assert img.level_lengths == rederived.level_lengths
    assert img.gap_lengths == rederived.gap_lengths
    assert img.level_lengths == rederived.level_lengths
    nums, den = img.integer_lengths
    assert tuple(Fraction(num, den) for num in nums) == rederived.level_lengths
