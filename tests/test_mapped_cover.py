"""The mapped cover against a cell-by-cell reference.

``NestedRep._cover_components`` sums per-axis image columns as integers
over one common denominator.  ``oracles.reference_cover_components`` maps
every cell through ``ProductGeometry.cell_image_box`` on its own and joins
cells by an all-pairs test.  Both must give the same components, with the
same paths, cells, cube ranges and snapped bounding boxes, at every level
of the nested representation.  The reference refines its cells with
``oracles.reference_refine_cells``, which splits every cell on its own;
``ProductGeometry.refine_cells`` splits each shared piece once and must
give the same cells in the same order.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

import oracles
from cantorforge.cantor1d import Interval
from cantorforge.nested_rd import ProductGeometry, RotationMatrix, build_nested_rep
from test_product_cover import factors

small = st.fractions(min_value=-2, max_value=2, max_denominator=8)
entries = st.one_of(st.just(Fraction(0)), small)


def matrices(d: int):
    return st.one_of(
        st.lists(st.lists(entries, min_size=d, max_size=d), min_size=d, max_size=d).map(
            lambda rows: RotationMatrix("rational", rows)
        ),
        st.just(RotationMatrix.axis_mixing(d)),
        st.integers(min_value=0, max_value=50).map(lambda seed: RotationMatrix.quasi_random(d, seed)),
    )


shifts = st.one_of(
    st.just(Fraction(0)),
    small,
    st.tuples(small, st.fractions(min_value=0, max_value=1, max_denominator=5)).map(
        lambda t: Interval(t[0], t[0] + t[1])
    ),
)


@st.composite
def mapped_geometries(draw):
    d = draw(st.sampled_from([1, 2, 3]))
    fs = draw(st.lists(factors({1: 5, 2: 4, 3: 2}[d]), min_size=d, max_size=d))
    shift = draw(st.lists(shifts, min_size=d, max_size=d))
    geom = ProductGeometry(fs, matrix=draw(matrices(d)), shift=shift)
    m0 = draw(st.integers(min_value=0, max_value=2))
    step = draw(st.integers(min_value=1, max_value=2))
    max_level = m0 + step * draw(st.integers(min_value=1, max_value=4 if d < 3 else 2))
    bits = draw(st.sampled_from([1, 2, 6, 64]))
    return geom, m0, max_level, step, bits


def summary(comp):
    return comp.path, comp.cells, comp.rects, tuple((iv.lo, iv.hi) for iv in comp.bbox)


@settings(max_examples=60)
@given(mapped_geometries())
def test_mapped_cover_matches_the_cell_by_cell_reference(case):
    geom, m0, max_level, step, bits = case
    rep = build_nested_rep(geom, m0, max_level, step, bits)
    expected = oracles.reference_cover_components(geom, [geom.top_cell()], m0, "r", bits)
    assert [summary(c) for c in rep.root_components] == expected
    frontier = rep.root_components
    not_shrinking = []
    while frontier and frontier[0].level + step <= max_level:
        nxt = []
        for comp in frontier:
            expected = oracles.reference_cover_components(
                geom, comp.cells, comp.level + step, comp.path, bits
            )
            assert [summary(c) for c in comp.children()] == expected
            if max(c.diam_sq() for c in comp.children()) >= comp.diam_sq():
                not_shrinking.append(comp.path)
            nxt.extend(comp.children())
        frontier = nxt
    assert rep.not_shrinking == not_shrinking


targets = st.one_of(
    st.integers(min_value=0, max_value=8).map(lambda m: Fraction(1, 1 << m)),
    st.fractions(min_value=Fraction(1, 300), max_value=Fraction(3, 2), max_denominator=300),
)


@st.composite
def cell_lists(draw):
    d = draw(st.sampled_from([1, 2, 3]))
    geom = ProductGeometry(draw(st.lists(factors({1: 6, 2: 5, 3: 3}[d]), min_size=d, max_size=d)))
    # The cells of two coarse refinements share pieces within each and
    # across both; a drawn selection with repeats shares them out of order.
    coarse = [
        cell
        for target in (draw(targets), draw(targets))
        for cell in oracles.reference_refine_cells(geom, [geom.top_cell()], target)
    ]
    cells = draw(st.one_of(st.just(coarse), st.lists(st.sampled_from(coarse), min_size=1, max_size=12)))
    return geom, cells, draw(targets)


@settings(max_examples=150)
@given(cell_lists())
def test_refine_cells_matches_the_cell_by_cell_reference(case):
    geom, cells, target = case
    assert geom.refine_cells(cells, target) == oracles.reference_refine_cells(geom, cells, target)
