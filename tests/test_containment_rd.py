import functools
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from cantorforge.cantor1d import Interval, middle_thirds, rat_pair
from cantorforge.cli import _boxes_geometry
from cantorforge.containment1d import NoMargin, grid_values
from cantorforge.containment_rd import (
    InfeasibleGaps,
    SlitBlocked,
    build_product_companion,
    certify_sum_interior_rd,
    find_chain_rd,
)
from cantorforge.nested_rd import ProductGeometry, RotationMatrix, build_nested_rep, d_min, und_certificate


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
    for w, iv in zip(chain.witness_component, oracles.fraction_box(comp)):
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


def test_a_translate_needs_one_coordinate_per_axis(square_cert, companion):
    cert, _rep = square_cert
    for t in ((Fraction(0),), (Fraction(0),) * 3):
        with pytest.raises(ValueError, match="translate needs 2 coordinates, got"):
            find_chain_rd(cert, companion, 3, translate=t)


# ---------------------------------------------------------------------------
# the integer chain walk against the Fraction reference

CHAIN_CASES = ("unshifted", "shifted", "mapped")


@functools.lru_cache(maxsize=None)
def chain_case(kind):
    """A depth-2 certificate of a thirds square (plain product, shifted
    product, or axis-mixing map), its companion and its interior box."""
    matrix, shift = {
        "unshifted": (None, None),
        "shifted": (None, (Fraction(3), Fraction(-2))),
        "mapped": (RotationMatrix.axis_mixing(2), (Fraction(1, 3), Fraction(0))),
    }[kind]
    geom = ProductGeometry([middle_thirds(10), middle_thirds(10)], matrix=matrix, shift=shift)
    rep = build_nested_rep(geom, 2, 9, refine_step=3)
    cert = und_certificate(rep, max_k=2, depth=2)
    companion = build_product_companion(rep.exact_hull, cert.dk, Fraction(1, 2), Fraction(1, 10))
    return cert, companion, certify_sum_interior_rd(cert, companion, 2)


def chain_outcome(walk, cert, companion, levels, t):
    try:
        return walk(cert, companion, levels, translate=t)
    except SlitBlocked as exc:
        return "blocked", exc.level


@pytest.mark.parametrize("kind", CHAIN_CASES)
def test_integer_chain_walk_matches_the_reference_on_a_grid(kind):
    # A grid over the interior box widened by its own width on each side:
    # the points inside it chain, some outside it are blocked.
    cert, companion, box = chain_case(kind)
    wide = [grid_values(Interval(iv.lo - iv.length, iv.hi + iv.length), 9) for iv in box]
    seen = set()
    for t in itertools.product(*wide):
        got = chain_outcome(find_chain_rd, cert, companion, 2, t)
        assert got == chain_outcome(oracles.reference_find_chain_rd, cert, companion, 2, t)
        blocked = isinstance(got, tuple)
        assert not blocked or not all(iv.lo <= x <= iv.hi for iv, x in zip(box, t))
        seen.add(blocked)
    assert seen == {False, True}


@pytest.mark.parametrize("kind", CHAIN_CASES)
def test_integer_chain_walk_matches_the_reference_where_edges_meet(kind):
    # Translates that put a first-level cell end or slit edge exactly on an
    # end of a root component's box, where a strict comparison and a loose
    # one part ways.
    cert, companion, box = chain_case(kind)
    base = companion.base
    whole, child = base.level_lengths[0], base.level_lengths[1]
    center = [iv.midpoint() for iv in box]
    for comp in cert.root.components:
        for axis, iv in enumerate(oracles.fraction_box(comp)):
            for end, offset in itertools.product((iv.lo, iv.hi), (0, child, whole - child, whole)):
                t = center[:axis] + [end - base.hull.lo - offset] + center[axis + 1:]
                for levels in (1, 2):
                    got = chain_outcome(find_chain_rd, cert, companion, levels, t)
                    assert got == chain_outcome(oracles.reference_find_chain_rd, cert, companion, levels, t)


@st.composite
def chain_inputs(draw):
    kind = draw(st.sampled_from(CHAIN_CASES))
    cert, _companion, box = chain_case(kind)
    levels = draw(st.integers(min_value=1, max_value=cert.depth))
    # A position u along each axis of the box widened by its own width on
    # each side: u in [0, 1] lies inside the box, its ends included.
    u = st.one_of(
        st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1)]), st.fractions(-1, 2, max_denominator=1 << 20)
    )
    t = tuple(iv.lo + draw(u) * iv.length for iv in box)
    return kind, levels, t


@settings(max_examples=150)
@given(chain_inputs())
def test_integer_chain_walk_matches_the_fraction_reference(case):
    kind, levels, t = case
    cert, companion, _box = chain_case(kind)
    assert chain_outcome(find_chain_rd, cert, companion, levels, t) == chain_outcome(
        oracles.reference_find_chain_rd, cert, companion, levels, t
    )


@pytest.mark.parametrize("kind", CHAIN_CASES)
def test_integer_boxes_match_the_fraction_view(kind):
    cert, _companion, _box = chain_case(kind)
    comps = [comp for k in range(1, cert.depth + 1) for node in cert.nodes_at_level(k) for comp in node.components]
    fraction_boxes = {
        comp.path: [[rat_pair(iv.lo), rat_pair(iv.hi)] for iv in oracles.fraction_box(comp)] for comp in comps
    }
    exported = _boxes_geometry(cert)["boxes"]
    assert len(exported) == len(comps)
    for entry in exported:
        assert entry["box"] == fraction_boxes[entry["path"]]
    for comp in comps:
        assert comp.to_json_obj()["bbox"] == fraction_boxes[comp.path]
    for a, b in itertools.combinations(comps, 2):
        assert d_min(a, b) == d_min(oracles.fraction_box(a), oracles.fraction_box(b))
