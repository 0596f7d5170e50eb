"""The axis-by-axis product cover against the union-find cover.

Under ``RotationMatrix.identity(d)`` a product geometry goes through the
mapped cover: cell image boxes and a union-find over all product cells.
The identity leaves every cell box as it is, so both covers must find the
same components with the same paths, cells and cubes; only the
unshifted product keeps exact box endpoints where the mapped cover snaps
them outward.  The box-gap ratio bounds of the product path must equal the
verifier's scan over the exported source cells.

The product path works on integers: each factor's pieces and boxes are
numerators over one denominator.  ``oracles.reference_product_components``
is the same cover in ``Fraction``s, and every component, box, cell, cube,
diameter and ratio bound must agree with it at every level.
"""

import itertools
import json
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import oracles

from cantorforge.cantor1d import ExplicitGapTree, Interval, addresses, build_binary_ifs, middle_thirds
from cantorforge.nested_rd import (
    DegeneratePair,
    ProductGeometry,
    RotationMatrix,
    _corner_ratio_scan,
    _read_cells,
    build_nested_rep,
    components_at,
    d_min,
    kappa_ratios,
)


def explicit_tree(seed: int, depth: int) -> ExplicitGapTree:
    """Gap tree with a random gap inside every node interval."""
    rng = random.Random(seed)
    hull = Interval(Fraction(0), Fraction(1))
    intervals = {"": hull}
    gaps = {}
    for n in range(depth):
        for addr in addresses(n):
            iv = intervals[addr]
            a = Fraction(rng.randint(1, 6), 10)
            b = a + Fraction(rng.randint(1, 3), 10)
            gap = Interval(iv.lo + a * iv.length, iv.lo + b * iv.length)
            gaps[addr] = gap
            intervals[addr + "0"] = Interval(iv.lo, gap.lo)
            intervals[addr + "1"] = Interval(gap.hi, iv.hi)
    return ExplicitGapTree(hull, depth, gaps)


def factors(max_depth: int):
    depth = st.integers(min_value=1, max_value=max_depth)
    return st.one_of(
        depth.map(middle_thirds),
        st.tuples(st.integers(min_value=3, max_value=6), depth).map(
            lambda t: build_binary_ifs(Interval(Fraction(0), Fraction(1)), Fraction(1, t[0]), t[1])
        ),
        st.tuples(st.integers(min_value=0, max_value=10**6), depth).map(lambda t: explicit_tree(*t)),
        st.fractions(min_value=0, max_value=1, max_denominator=12),
    )


shifts = st.one_of(st.none(), st.fractions(min_value=-2, max_value=2, max_denominator=7))


@st.composite
def geometries(draw):
    d = draw(st.sampled_from([2, 3]))
    fs = draw(st.lists(factors(5 if d == 2 else 3), min_size=d, max_size=d))
    shift = draw(st.lists(shifts, min_size=d, max_size=d))
    shift = None if all(s is None for s in shift) else [s or 0 for s in shift]
    m0 = draw(st.integers(min_value=0, max_value=2))
    step = draw(st.integers(min_value=1, max_value=2))
    max_level = m0 + step * draw(st.integers(min_value=1, max_value=3 if d == 2 else 2))
    return ProductGeometry(fs, shift=shift), m0, max_level, step


def both_covers(geom, m0, max_level, step):
    product = build_nested_rep(geom, m0, max_level, step)
    mapped = build_nested_rep(geom.with_matrix(RotationMatrix.identity(geom.dim)), m0, max_level, step)
    level = 0
    while True:
        ours, theirs = components_at(product, level), components_at(mapped, level)
        yield ours, theirs
        if not ours and not theirs:
            return
        level += 1


@settings(max_examples=40)
@given(geometries())
def test_product_cover_matches_the_union_find(case):
    geom, m0, max_level, step = case
    shifted = any(s.lo != 0 for s in geom.shift)
    for ours, theirs in both_covers(geom, m0, max_level, step):
        assert [c.path for c in ours] == [c.path for c in theirs]
        for a, b in zip(ours, theirs):
            assert oracles.fraction_cells(a) == oracles.fraction_cells(b)
            assert a.cube_coords() == b.cube_coords()
            box_a, box_b = oracles.fraction_box(a), oracles.fraction_box(b)
            if shifted:
                assert box_a == box_b
            for ia, ib in zip(box_a, box_b):
                assert ib.lo <= ia.lo and ia.hi <= ib.hi


@settings(max_examples=40)
@given(geometries())
def test_box_gap_ratios_match_a_corner_scan(case):
    geom, m0, max_level, step = case
    rep = build_nested_rep(geom, m0, max_level, step)
    level = 0
    while comps := components_at(rep, level):
        level += 1
        if len(comps) > 12:
            continue
        for a, b in itertools.combinations(comps, 2):
            if d_min(a, b) <= 0:
                try:
                    kappa_ratios(a, b)
                except DegeneratePair:
                    continue
                raise AssertionError("an overlapping pair passed the ratio test")
            exported = [json.loads(json.dumps(c.to_json_obj()))["source_cells"] for c in (a, b)]
            _, (cells_a, cells_b) = _read_cells(exported, geom.dim)
            assert kappa_ratios(a, b) == _corner_ratio_scan(cells_a, cells_b, None, geom.dim)


@settings(max_examples=40)
@given(geometries())
def test_integer_product_cover_matches_the_fraction_reference(case):
    geom, m0, max_level, step = case
    rep = build_nested_rep(geom, m0, max_level, step)
    top = tuple(((part, ()),) for part in geom.top_cell())
    expected, _ = oracles.reference_product_components(geom, top, m0, "r", rep.bits)
    comps = rep.root_components
    while comps:
        assert [c.path for c in comps] == [path for path, _, _ in expected]
        deeper, deeper_expected = [], []
        for comp, (_, axes, bbox) in zip(comps, expected):
            assert [(iv.lo, iv.hi) for iv in oracles.fraction_box(comp)] == list(bbox)
            assert oracles.fraction_cells(comp) == oracles.reference_product_cells(axes)
            assert comp.cube_coords() == oracles.rect_coords(oracles.reference_product_rects(geom, axes, comp.level))
            children = comp.children()
            if not children:
                continue
            kids, widest = oracles.reference_product_components(geom, axes, comp.level + step, comp.path, rep.bits)
            assert max(child.diam_sq() for child in children) == widest
            diam_sq = sum((hi - lo) ** 2 for lo, hi in bbox)
            assert (comp.path in rep.not_shrinking) == (widest >= diam_sq)
            deeper += children
            deeper_expected += kids
        if len(comps) <= 12:
            for (a, (_, axes_a, _)), (b, (_, axes_b, _)) in itertools.combinations(zip(comps, expected), 2):
                if d_min(a, b) > 0:
                    assert kappa_ratios(a, b) == oracles.reference_box_ratios(axes_a, axes_b)
        comps, expected = deeper, deeper_expected


@settings(max_examples=40)
@given(geometries())
def test_integer_separations_and_diameters_match_the_boxes(case):
    geom, m0, max_level, step = case
    rep = build_nested_rep(geom, m0, max_level, step)
    level = 0
    while comps := components_at(rep, level):
        level += 1
        for comp in comps:
            assert comp.diam_sq() == sum((iv.hi - iv.lo) ** 2 for iv in oracles.fraction_box(comp))
        for a, b in itertools.combinations(comps[:12], 2):
            assert d_min(a, b) == d_min(oracles.fraction_box(a), oracles.fraction_box(b))
