"""The mapped cover against a cell-by-cell reference.

``NestedRep._cover_components`` refines integer pieces and sums per-axis
image columns as integers over one common denominator.
``oracles.reference_cover_components`` maps every ``Fraction`` cell
through ``ProductGeometry.cell_image_box`` on its own and joins cells by
an all-pairs test.  Both must give the same components, with the same
paths, cells, cubes and snapped bounding boxes, at every level of
the nested representation.  The reference refines its cells with
``oracles.reference_refine_cells``, which splits every cell on its own;
``ProductGeometry.refine_cells`` splits each shared integer piece once
and, read as ``Fraction``s, must give the same cells in the same order.
``kappa_ratios`` scans the integer pieces of two mapped components and
must agree with the corner scan that ``verify_certificate`` runs on their
exported cells.
"""

import itertools
import json
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import oracles
from cantorforge.cantor1d import Interval, rat_pair
from cantorforge.nested_rd import (
    DegeneratePair,
    ProductGeometry,
    RotationMatrix,
    _corner_ratio_scan,
    _integer_rows,
    _over,
    _read_cells,
    build_nested_rep,
    components_at,
    d_min,
    kappa_ratios,
)
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
    box = tuple((iv.lo, iv.hi) for iv in oracles.fraction_box(comp))
    return comp.path, oracles.fraction_cells(comp), comp.cube_coords(), box


def reference_summaries(*args):
    """``oracles.reference_cover_components`` with each component's cube
    ranges expanded into the cubes ``summary`` reads."""
    return [
        (path, cells, oracles.rect_coords(rects), box)
        for path, cells, rects, box in oracles.reference_cover_components(*args)
    ]


@settings(max_examples=60)
@given(mapped_geometries())
def test_mapped_cover_matches_the_cell_by_cell_reference(case):
    geom, m0, max_level, step, bits = case
    rep = build_nested_rep(geom, m0, max_level, step, bits)
    expected = reference_summaries(geom, [geom.top_cell()], m0, "r", bits)
    assert [summary(c) for c in rep.root_components] == expected
    frontier = rep.root_components
    not_shrinking = []
    while frontier and frontier[0].level + step <= max_level:
        nxt = []
        for comp in frontier:
            expected = reference_summaries(geom, oracles.fraction_cells(comp), comp.level + step, comp.path, bits)
            assert [summary(c) for c in comp.children()] == expected
            if max(c.diam_sq() for c in comp.children()) >= comp.diam_sq():
                not_shrinking.append(comp.path)
            nxt.extend(comp.children())
        frontier = nxt
    assert rep.not_shrinking == not_shrinking


@st.composite
def cell_lists(draw):
    d = draw(st.sampled_from([1, 2, 3]))
    geom = ProductGeometry(draw(st.lists(factors({1: 6, 2: 5, 3: 3}[d]), min_size=d, max_size=d)))
    levels = st.integers(min_value=0, max_value=8)
    # The cells of two coarse refinements share pieces within each and
    # across both; a drawn selection with repeats shares them out of order.
    coarse = [
        cell
        for m in (draw(levels), draw(levels))
        for cell in oracles.reference_refine_cells(geom, [geom.top_cell()], Fraction(1, 1 << m))
    ]
    cells = draw(st.one_of(st.just(coarse), st.lists(st.sampled_from(coarse), min_size=1, max_size=12)))
    return geom, cells, draw(levels)


@settings(max_examples=150)
@given(cell_lists())
def test_refine_cells_matches_the_cell_by_cell_reference(case):
    geom, cells, m = case
    pieces = [
        tuple((addr, _over(lo, axis.den), _over(hi, axis.den)) for axis, (addr, lo, hi) in zip(geom.axes, cell))
        for cell in cells
    ]
    refined = [
        tuple((addr, Fraction(lo, axis.den), Fraction(hi, axis.den)) for axis, (addr, lo, hi) in zip(geom.axes, cell))
        for cell in geom.refine_cells(pieces, m)
    ]
    assert refined == oracles.reference_refine_cells(geom, cells, Fraction(1, 1 << m))


def exported_scan(a, b, rows, d):
    """The corner scan of ``verify_certificate`` on two exported components."""
    exported = [json.loads(json.dumps(c.to_json_obj()))["source_cells"] for c in (a, b)]
    _, (cells_a, cells_b) = _read_cells(exported, d)
    return _corner_ratio_scan(cells_a, cells_b, rows, d)


def outcome(scan, *args):
    try:
        return scan(*args)
    except DegeneratePair:
        return "degenerate"


@settings(max_examples=40)
@given(mapped_geometries().filter(lambda case: case[0].dim >= 2))
def test_mapped_kappa_ratios_match_the_exported_corner_scan(case):
    geom, m0, max_level, step, bits = case
    rep = build_nested_rep(geom, m0, max_level, step, bits)
    rows = _integer_rows(geom.matrix.rows)[1]
    level = 0
    while comps := components_at(rep, level):
        level += 1
        if len(comps) > 12:
            continue
        for a, b in itertools.combinations(comps, 2):
            if d_min(a, b) <= 0:
                assert outcome(kappa_ratios, a, b) == "degenerate"
                continue
            assert outcome(kappa_ratios, a, b) == outcome(exported_scan, a, b, rows, geom.dim)


@settings(max_examples=40)
@given(mapped_geometries())
def test_mapped_integer_boxes_match_the_fraction_view(case):
    geom, m0, max_level, step, bits = case
    rep = build_nested_rep(geom, m0, max_level, step, bits)
    level = 0
    while comps := components_at(rep, level):
        level += 1
        for comp in comps:
            box = oracles.fraction_box(comp)
            assert comp.diam_sq() == sum((iv.hi - iv.lo) ** 2 for iv in box)
            assert comp.box_pairs() == [[rat_pair(iv.lo), rat_pair(iv.hi)] for iv in box]
        for a, b in itertools.combinations(comps[:12], 2):
            assert d_min(a, b) == d_min(oracles.fraction_box(a), oracles.fraction_box(b))
