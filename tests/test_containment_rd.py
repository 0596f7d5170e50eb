from fractions import Fraction

import pytest

import oracles
from cantorforge.cantor1d import Interval
from cantorforge.containment1d import NoMargin, grid_values
from cantorforge.containment_rd import (
    InfeasibleGaps,
    SlitBlocked,
    build_product_companion,
    certify_sum_interior_rd,
    find_chain_rd,
)


@pytest.fixture()
def companion(square_cert):
    cert, rep = square_cert
    return build_product_companion(rep.exact_hull, cert.dk, Fraction(1, 2), Fraction(1, 10))


def test_companion_base_geometry(companion):
    assert companion.dim == 2
    assert companion.base.hull == Interval(Fraction(-1, 10), Fraction(11, 10))
    assert companion.base.gap_lengths == (Fraction(1, 18), Fraction(1, 162), Fraction(1, 1458))


def test_companion_rejects_out_of_range_shrink(square_cert):
    cert, rep = square_cert
    with pytest.raises(ValueError):
        build_product_companion(rep.exact_hull, cert.dk, Fraction(1), Fraction(1, 10))
    with pytest.raises(ValueError):
        build_product_companion(rep.exact_hull, cert.dk, Fraction(1, 2), Fraction(-1))


def test_companion_rejects_bad_floors(square_cert):
    _cert, rep = square_cert
    half, margin = Fraction(1, 2), Fraction(1, 10)
    for floors in ((), (Fraction(1, 9), Fraction(0)), (Fraction(-1, 9),)):
        with pytest.raises(ValueError, match="separation floors"):
            build_product_companion(rep.exact_hull, floors, half, margin)
    with pytest.raises(TypeError):
        build_product_companion(rep.exact_hull, (1 / 9, 1 / 81), half, margin)


def test_chain_descends_and_bounds(square_cert, companion):
    cert, _rep = square_cert
    chain = find_chain_rd(cert, companion, 3)
    assert len(chain.steps) == 3
    side = companion.base.level_lengths[3]
    assert chain.cell_side == side
    assert chain.bound_sq == 2 * side * side
    # the reported scalar bound is an outward square root of bound_sq
    assert chain.bound * chain.bound >= chain.bound_sq
    # witness points sit within the final cell diagonal of each other
    dist_sq = sum((a - b) ** 2 for a, b in zip(chain.witness_component, chain.witness_cell))
    assert dist_sq <= chain.bound_sq


def test_chain_witness_lies_in_a_certified_box(square_cert, companion):
    cert, _rep = square_cert
    chain = find_chain_rd(cert, companion, 3)
    last_path = chain.steps[-1].component_path
    node = cert.root
    for step in chain.steps:
        match = [c for c in node.components if c.path == step.component_path]
        assert len(match) == 1
        idx = node.components.index(match[0])
        if step is not chain.steps[-1]:
            node = node.children[idx]
    comp = match[0]
    assert comp.path == last_path
    for w, iv in zip(chain.witness_component, comp.bbox):
        assert iv.lo <= w <= iv.hi


def test_infeasible_gaps_detected(square_cert, companion):
    cert, rep = square_cert
    fat = tuple(3 * v for v in cert.dk)
    blocked = build_product_companion(rep.exact_hull, fat, Fraction(1, 2), Fraction(1, 10))
    with pytest.raises(InfeasibleGaps):
        find_chain_rd(cert, blocked, 3)


def test_interior_box_is_exact(square_cert, companion):
    cert, _rep = square_cert
    box = certify_sum_interior_rd(cert, companion, 3)
    assert box == (
        Interval(Fraction(-1, 10), Fraction(1, 10)),
        Interval(Fraction(-1, 10), Fraction(1, 10)),
    )


def test_interior_needs_margin(square_cert):
    cert, rep = square_cert
    snug = build_product_companion(rep.exact_hull, cert.dk, Fraction(1, 2), Fraction(0))
    with pytest.raises(NoMargin):
        certify_sum_interior_rd(cert, snug, 3)


def test_translated_chains_agree_with_box_oracle(square_cert, companion):
    cert, _rep = square_cert
    box = certify_sum_interior_rd(cert, companion, 3)
    cert_boxes = oracles.cert_component_boxes(cert, 2)
    cell_boxes = oracles.companion_cell_boxes(companion, 2)
    for tx in grid_values(box[0], 5):
        for ty in grid_values(box[1], 5):
            chain = find_chain_rd(cert, companion, 3, translate=(tx, ty))
            assert chain.bound_sq == 2 * companion.base.level_lengths[3] ** 2
            assert oracles.boxes_intersect(cert_boxes, cell_boxes, (tx, ty))


def test_far_translate_blocks(square_cert, companion):
    cert, _rep = square_cert
    with pytest.raises(SlitBlocked):
        find_chain_rd(cert, companion, 3, translate=(Fraction(1), Fraction(0)))


def test_level_budget_validated(square_cert, companion):
    cert, _rep = square_cert
    with pytest.raises(ValueError):
        find_chain_rd(cert, companion, 4)
    with pytest.raises(ValueError):
        certify_sum_interior_rd(cert, companion, 0)
