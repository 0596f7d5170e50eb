import gc
import json
import time
import tracemalloc
import weakref
from fractions import Fraction

import pytest

import oracles
from cantorforge.cantor1d import Interval, canonical_json, middle_thirds, rat_from_pair
from cantorforge.nested_rd import (
    CertificateNotFound,
    CertNode,
    DegeneratePair,
    InvalidCertificate,
    ProductGeometry,
    RotationMatrix,
    UndCertificate,
    _confinement_explanation,
    _Cover,
    build_nested_rep,
    components_at,
    d_min,
    default_candidates,
    image_separations,
    kappa_ratios,
    rotation_search,
    und_certificate,
    verify_certificate,
)


def test_geometry_hull_and_dim():
    geom = ProductGeometry([middle_thirds(4), middle_thirds(4)])
    assert geom.dim == 2
    hull = geom.exact_hull_box()
    assert [(iv.lo, iv.hi) for iv in hull] == [(0, 1), (0, 1)]


def test_point_factor_flattens_an_axis():
    geom = ProductGeometry([middle_thirds(4), Fraction(1, 2)])
    hull = geom.exact_hull_box()
    assert (hull[1].lo, hull[1].hi) == (Fraction(1, 2), Fraction(1, 2))


def test_component_counts_on_the_square():
    geom = ProductGeometry([middle_thirds(6), middle_thirds(6)])
    rep = build_nested_rep(geom, 2, 4, refine_step=2)
    assert len(components_at(rep, 0)) == 1
    # at cube side 1/16 the four corner squares of each thirds-square split
    assert len(components_at(rep, 1)) == 16


def test_components_nest_inside_parents():
    geom = ProductGeometry([middle_thirds(6), middle_thirds(6)])
    rep = build_nested_rep(geom, 2, 4, refine_step=2)
    for parent in components_at(rep, 0):
        for child in parent.children():
            for (p_lo, p_hi), (c_lo, c_hi) in zip(parent.box, child.box):
                assert p_lo <= c_lo and c_hi <= p_hi


def test_certificate_shape_and_exact_separations(square_cert):
    cert, _rep = square_cert
    assert cert.dimension == 2
    assert cert.depth == 3
    assert cert.dk == (Fraction(1, 9), Fraction(1, 81), Fraction(1, 729))
    assert len(cert.nodes_at_level(1)) == 1
    assert len(cert.nodes_at_level(2)) == 3
    assert len(cert.nodes_at_level(3)) == 9
    for k in (1, 2, 3):
        for node in cert.nodes_at_level(k):
            assert len(node.components) == 3


def test_certificate_ratio_bounds_within_kappa(square_cert):
    cert, _rep = square_cert
    bounds = cert.all_ratio_bounds()
    assert bounds
    for lo, hi in bounds:
        assert Fraction(1, 9) <= lo <= hi <= 9


def test_min_dmin_matches_direct_recomputation(square_cert):
    cert, _rep = square_cert
    node = cert.root
    comps = node.components
    direct = min(
        d_min(comps[i], comps[j])
        for i in range(len(comps))
        for j in range(i + 1, len(comps))
    )
    assert node.min_dmin() == direct


def test_kappa_ratios_are_ordered_and_positive(square_cert):
    cert, _rep = square_cert
    a, b = cert.root.components[0], cert.root.components[1]
    lo, hi = kappa_ratios(a, b)
    assert 0 < lo <= hi


def test_kappa_ratios_reject_overlapping_pair(square_cert):
    cert, _rep = square_cert
    a = cert.root.components[0]
    with pytest.raises(DegeneratePair):
        kappa_ratios(a, a)


def test_exported_certificate_verifies(square_cert):
    cert, _rep = square_cert
    obj = json.loads(cert.to_json())
    ok, problems = verify_certificate(obj)
    assert ok, problems
    # serialize -> parse -> serialize is the identity on the wire form
    assert canonical_json(obj) == cert.to_json()


def test_tampered_certificate_is_rejected(square_cert):
    cert, _rep = square_cert
    obj = json.loads(cert.to_json())
    key, pair = next(iter(obj["root"]["dmin"].items()))
    obj["root"]["dmin"][key] = [pair[0] * 3, pair[1]]  # inflate a separation claim
    ok, problems = verify_certificate(obj)
    assert not ok
    assert any("exceeds recomputed" in p for p in problems)


def test_tampered_bbox_is_rejected(square_cert):
    cert, _rep = square_cert
    obj = json.loads(cert.to_json())
    box = obj["root"]["components"][0]["bbox"]
    box[0][1] = [box[0][1][0], box[0][1][1] * 2]  # shrink the upper endpoint
    ok, problems = verify_certificate(obj)
    assert not ok


def shifted_square_cert(matrix):
    geom = ProductGeometry(
        [middle_thirds(10), middle_thirds(10)], matrix=matrix, shift=(Fraction(3), Fraction(-2))
    )
    rep = build_nested_rep(geom, 2, 9, refine_step=3)
    return und_certificate(rep, max_k=2, depth=2)


@pytest.mark.parametrize("mixing", [False, True], ids=["unmapped", "axis-mixing"])
def test_shifted_certificate_verifies_and_carries_its_shift(mixing):
    cert = shifted_square_cert(RotationMatrix.axis_mixing(2) if mixing else None)
    obj = json.loads(cert.to_json())
    assert obj["shift"] == [[[3, 1], [3, 1]], [[-2, 1], [-2, 1]]]
    ok, problems = verify_certificate(obj)
    assert ok, problems
    # the boxes really sit at the shift: without it they fail to enclose
    del obj["shift"]
    ok, problems = verify_certificate(obj)
    assert not ok
    assert any("does not enclose" in p for p in problems)


@pytest.mark.parametrize("mixing", [False, True], ids=["unmapped", "axis-mixing"])
def test_tampered_shifted_bbox_is_rejected(mixing):
    cert = shifted_square_cert(RotationMatrix.axis_mixing(2) if mixing else None)
    obj = json.loads(cert.to_json())
    box = obj["root"]["components"][1]["bbox"]
    box[1][1] = box[1][0]  # collapse axis 1 onto its lower endpoint
    ok, problems = verify_certificate(obj)
    assert not ok
    assert "root.c1: claimed bbox does not enclose its cells on axis 1" in problems


def test_unshifted_certificate_exports_no_shift(square_cert):
    cert, _rep = square_cert
    assert "shift" not in cert.to_json_obj()


def test_flat_geometry_fails_with_axis_diagnosis():
    geom = ProductGeometry([middle_thirds(8), Fraction(0)])
    rep = build_nested_rep(geom, 2, 10, refine_step=2)
    with pytest.raises(CertificateNotFound) as exc:
        und_certificate(rep, max_k=8, depth=1)
    assert "axis 1" in str(exc.value)


@pytest.mark.parametrize("matrix", [None, RotationMatrix.identity(2)], ids=["product", "mapped"])
def test_a_flat_line_keeps_its_confinement_text(matrix):
    geom = ProductGeometry([middle_thirds(8), Fraction(0)], matrix=matrix)
    rep = build_nested_rep(geom, 2, 10, refine_step=2)
    with pytest.raises(CertificateNotFound) as exc:
        und_certificate(rep, max_k=8, depth=1)
    assert str(exc.value) == (
        "no separated selection at node 'r' within 8 descent steps: components appear confined "
        "near a hyperplane orthogonal to axis 1 (no axis-1 separation above 1/1099511627776)"
    )


@pytest.mark.parametrize("matrix", [None, RotationMatrix.axis_mixing(2)], ids=["product", "mapped"])
def test_confinement_compares_the_widest_separation_with_the_margin(matrix):
    # The widest separation between two components on each axis, from
    # their Fraction boxes: a margin equal to the least of them is met on
    # every axis, a larger one is not met on the axis it came from.
    geom = ProductGeometry([middle_thirds(6), middle_thirds(6)], matrix=matrix)
    comps = components_at(build_nested_rep(geom, 2, 4, refine_step=2), 1)
    boxes = [oracles.fraction_box(comp) for comp in comps]
    widest = [max(a[ax].lo - b[ax].hi for a in boxes for b in boxes if a is not b) for ax in range(2)]
    margin = min(widest)
    assert margin > 0
    assert _confinement_explanation(2, comps, margin) == "no separated selection among the available components"
    text = _confinement_explanation(2, comps, margin + Fraction(1, 10**30))
    assert f"orthogonal to axis {widest.index(margin)} " in text


def test_rotation_search_fixes_the_flat_line():
    geom = ProductGeometry([middle_thirds(8), Fraction(0)])
    result = rotation_search(
        geom,
        kappa=Fraction(11, 10),
        max_k=4,
        depth=2,
        m0=2,
        max_level=10,
        refine_step=2,
    )
    assert result.matrix.name == "axis-mixing"
    assert result.failures and result.failures[0][0] == "identity"
    eps = Fraction(1, 10**9)
    for lo, hi in result.certificate.all_ratio_bounds():
        assert 1 - eps <= lo <= hi <= 1 + eps


def test_default_candidates_start_with_identity_then_mixing():
    cands = default_candidates(2, seed=0)
    names = [c.name for c in cands]
    assert names[0] == "identity"
    assert names[1] == "axis-mixing"
    assert len(names) == 5


def test_rotation_matrix_round_trip():
    m = RotationMatrix.axis_mixing(3)
    obj = json.loads(canonical_json(m.to_json_obj()))
    rows = tuple(
        tuple(Interval(rat_from_pair(lo), rat_from_pair(hi)) for lo, hi in row) for row in obj["rows"]
    )
    assert rows == m.rows
    assert obj["name"] == m.name


def test_identity_map_reproduces_certified_separations(square_cert):
    cert, _rep = square_cert
    rows = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    shift = (Fraction(0), Fraction(0))
    assert image_separations(cert, rows, shift) == cert.dk


def test_near_identity_map_keeps_most_separation(square_cert):
    cert, _rep = square_cert
    eps = Fraction(1, 256)
    rows = ((1 + eps, eps), (-eps, 1 - eps))
    shift = (Fraction(3, 64), Fraction(-1, 32))
    base = cert.dk
    moved = image_separations(cert, rows, shift)
    for b, a in zip(moved, base):
        assert b >= Fraction(4, 5) * a


def test_dropping_cells_changes_no_separation(square_cert):
    full, _rep = square_cert
    # A rep of its own: the fixture's keeps the cells other tests map and
    # export.
    geom = ProductGeometry([middle_thirds(8), middle_thirds(8)])
    rep = build_nested_rep(geom, 2, 11, refine_step=3)
    lean = und_certificate(rep, kappa=Fraction(9), max_k=2, depth=3, keep_cells=False)
    assert lean.dk == full.dk
    with pytest.raises(InvalidCertificate):
        lean.to_json_obj()
    # Node by node, the stripped selection keeps the paths, the boxes and
    # the separations of the one a search that kept its cells made.
    for k in range(1, full.depth + 1):
        pairs = list(zip(lean.nodes_at_level(k), full.nodes_at_level(k), strict=True))
        assert len(pairs) == 3 ** (k - 1)
        for a, b in pairs:
            assert [c.path for c in a.components] == [c.path for c in b.components]
            assert all(c.stripped for c in a.components)
            assert not any(c.stripped for c in b.components)
            assert [c.box for c in a.components] == [c.box for c in b.components]
            assert a.dmins == b.dmins
            for (i, j), sep in a.dmins.items():
                assert d_min(a.components[i], a.components[j]) == d_min(b.components[i], b.components[j]) == sep


@pytest.mark.parametrize("keep_cells", [True, False])
@pytest.mark.parametrize("matrix", [None, RotationMatrix.axis_mixing(2)], ids=["product", "mapped"])
def test_the_search_frees_the_components_it_rejects(keep_cells, matrix):
    geom = ProductGeometry([middle_thirds(8), middle_thirds(8)])
    if matrix is not None:
        geom = geom.with_matrix(matrix)
    rep = build_nested_rep(geom, 2, 11, refine_step=3)
    # Expand two levels ahead of the search and watch every component.
    explored = [weakref.ref(c) for c in components_at(rep, 1) + components_at(rep, 2)]
    cert = und_certificate(rep, max_k=2, depth=2, keep_cells=keep_cells)
    kept = [c for k in (1, 2) for node in cert.nodes_at_level(k) for c in node.components]
    alive = [ref() for ref in explored if ref() is not None]
    assert len(explored) > len(kept)
    assert [c.path for c in alive if all(c is not s for s in kept)] == []
    # What stays, the selection and the roots the rep holds, is pruned, down
    # to the children cached on axis components.
    for c in kept + rep.root_components:
        assert c._children is None
        assert all(x._children is None for x in c.axes or ())


@pytest.mark.parametrize("matrix", [None, RotationMatrix.axis_mixing(2)], ids=["product", "mapped"])
def test_search_and_verify_leave_no_closure_cycles(matrix):
    # A nested function that calls itself is a reference cycle: it and its
    # cells would wait for the cyclic collector after every search and check.
    geom = ProductGeometry([middle_thirds(8), middle_thirds(8)], matrix=matrix)
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        cert = und_certificate(build_nested_rep(geom, 2, 11, refine_step=3), kappa=9, max_k=2, depth=2)
        assert verify_certificate(json.loads(cert.to_json())) == (True, [])
        del cert
        gc.collect()
        kinds = {type(o).__name__ for o in gc.garbage}
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert not kinds & {"function", "cell"}


SEARCH_CASES = {
    "square": ([middle_thirds(8), middle_thirds(8)], None, None, None),
    "shifted": ([middle_thirds(8), middle_thirds(8)], None, (Fraction(3), Fraction(-2)), None),
    "mixing": ([middle_thirds(8), middle_thirds(8)], RotationMatrix.axis_mixing(2), None, None),
    "kappa": ([middle_thirds(8), middle_thirds(8)], None, None, 9),
    "flat": ([middle_thirds(8), Fraction(0)], None, None, None),
}


def case_rep(case, levels):
    factors, matrix, shift, _ = SEARCH_CASES[case]
    return build_nested_rep(ProductGeometry(factors, matrix, shift), *levels)


def search_outcome(search, case, levels, max_k, depth):
    try:
        return search(case_rep(case, levels), kappa=SEARCH_CASES[case][3], max_k=max_k, depth=depth).to_json()
    except CertificateNotFound as exc:
        return f"CertificateNotFound: {exc}"


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("max_k", [1, 2, 3])
@pytest.mark.parametrize("levels", [(2, 11, 3), (3, 11, 2)], ids=["m0=2", "m0=3"])
@pytest.mark.parametrize("case", sorted(SEARCH_CASES))
def test_lazy_candidates_give_the_eager_search_result(case, levels, max_k, depth):
    # Candidates built only as far as the clique search reads them give the
    # certificate, or the failure text, of lists built in full.
    ours = search_outcome(und_certificate, case, levels, max_k, depth)
    assert ours == search_outcome(oracles.reference_und_certificate, case, levels, max_k, depth)


def expand_calls(monkeypatch, *args):
    """``_Cover._expand`` calls of the search and of the eager reference
    on one case of ``search_outcome``."""
    calls = []
    expand = _Cover._expand

    def counted(cover, comp, m):
        calls.append(comp.path)
        return expand(cover, comp, m)

    monkeypatch.setattr(_Cover, "_expand", counted)
    counts = []
    for search in (und_certificate, oracles.reference_und_certificate):
        calls.clear()
        search_outcome(search, *args)
        counts.append(len(calls))
    return counts


def test_a_node_that_falls_through_expands_fewer_parents(monkeypatch):
    # On the axis-mixing square the level-2 nodes need k = 2; the clique
    # search reads the candidates of only some of their children.
    cert = und_certificate(case_rep("mixing", (3, 11, 2)), max_k=2, depth=2)
    assert {node.k_used for node in cert.nodes_at_level(2)} == {2}
    ours, eager = expand_calls(monkeypatch, "mixing", (3, 11, 2), 2, 2)
    assert ours < eager


def test_a_search_that_reads_every_parent_expands_them_all(monkeypatch):
    # The geometry and search of the ``square_cert`` fixture.
    ours, eager = expand_calls(monkeypatch, "kappa", (2, 11, 3), 2, 3)
    assert ours == eager


def test_a_suspended_walk_holds_no_cycle():
    # This search leaves walks unfinished (the fall-through test above);
    # dropping one frees its generators and components at once.
    rep = case_rep("mixing", (3, 11, 2))
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        cert = und_certificate(rep, max_k=2, depth=2)
        del cert
        gc.collect()
        kinds = {type(o).__name__ for o in gc.garbage}
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert not kinds & {"generator", "frame", "_Candidates", "Component"}


def test_floors_refuse_a_non_positive_separation(square_cert):
    cert, _rep = square_cert
    root = CertNode(1, cert.root.components, {(0, 1): Fraction(0)}, None, ())
    flat = UndCertificate(2, None, 1, cert.margin, cert.bits, root, None, cert.shift)
    with pytest.raises(InvalidCertificate, match="non-positive separation at level 1"):
        flat.dk


def kappa_square_obj(depth):
    geom = ProductGeometry([middle_thirds(8), middle_thirds(8)])
    rep = build_nested_rep(geom, 2, 11, refine_step=3)
    return json.loads(und_certificate(rep, kappa=Fraction(9), max_k=2, depth=depth).to_json())


def test_a_duplicated_component_without_its_pair_claims_is_rejected():
    obj = kappa_square_obj(1)
    root = obj["root"]
    root["components"][1] = json.loads(json.dumps(root["components"][0]))
    for claims in (root["dmin"], root["ratios"]):
        for key in [k for k in claims if "1" in k.split(",")]:
            del claims[key]
    ok, problems = verify_certificate(obj)
    assert not ok
    assert problems == [
        "root: dmin keys are not the component pairs (missing ['0,1', '1,2'], unexpected [])",
        "root: ratios keys are not the component pairs (missing ['0,1', '1,2'], unexpected [])",
    ]


def test_a_pair_claim_for_a_missing_component_is_rejected():
    obj = kappa_square_obj(1)
    obj["root"]["dmin"]["2,3"] = obj["root"]["dmin"]["0,1"]
    ok, problems = verify_certificate(obj)
    assert not ok
    assert problems == ["root: dmin keys are not the component pairs (missing [], unexpected ['2,3'])"]


def test_children_must_reach_the_declared_depth_and_stop_there():
    obj = kappa_square_obj(2)
    assert verify_certificate(obj) == (True, [])
    pruned = json.loads(json.dumps(obj))
    pruned["root"]["children"] = []
    assert verify_certificate(pruned) == (False, ["root: expected 3 children at level 1 of depth 2, found 0"])
    obj["depth"] = 1
    assert verify_certificate(obj) == (False, ["root: expected 0 children at level 1 of depth 1, found 3"])


def test_malformed_certificate_is_a_problem_not_an_exception():
    obj = kappa_square_obj(1)
    del obj["root"]["components"][0]["source_cells"]
    ok, problems = verify_certificate(obj)
    assert not ok
    assert problems == ["malformed certificate: KeyError: 'source_cells'"]


@pytest.mark.parametrize("field, value", [("dimension", "2"), ("dimension", 2.0), ("depth", True)])
def test_dimension_and_depth_must_be_json_integers(field, value):
    obj = kappa_square_obj(1)
    obj[field] = value
    assert verify_certificate(obj) == (
        False,
        ["malformed certificate: TypeError: dimension and depth must be JSON integers"],
    )


def test_a_huge_claimed_dimension_is_refused_at_once():
    obj = kappa_square_obj(1)
    obj["dimension"] = 10**6
    started = time.perf_counter()
    ok, problems = verify_certificate(obj)
    assert time.perf_counter() - started < 0.5
    assert (ok, problems) == (False, ["root: expected 1000001 components, found 3"])


def test_components_without_cells_build_no_pair_table():
    # dim+1 hollow components pass the count; the pair keys wait for cells
    # with dim axes each, so their cost stays within that of the input.
    obj = kappa_square_obj(1)
    obj["dimension"] = 1000
    obj["root"]["components"] = [{"level": 4, "source_cells": [], "bbox": []}] * 1001
    tracemalloc.start()
    try:
        result = verify_certificate(obj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == (False, ["malformed certificate: ValueError: min() arg is an empty sequence"])
    assert peak < 2_000_000


def test_kappa_needs_two_axes():
    rep = build_nested_rep(ProductGeometry([middle_thirds(6)]), 2, 6, refine_step=2)
    with pytest.raises(ValueError, match="kappa needs at least two axes"):
        und_certificate(rep, kappa=Fraction(9))
    a, b = components_at(rep, 1)[:2]
    with pytest.raises(ValueError, match="ratio bounds need at least two axes"):
        kappa_ratios(a, b)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"max_k": 0}, "max_k must be at least 1"),
        ({"kappa": -1}, "kappa must be at least 1, got -1"),
        ({"kappa": Fraction(99, 100)}, "kappa must be at least 1, got 99/100"),
    ],
)
def test_search_bounds_below_one_are_refused(kwargs, message):
    # the bounds of (i, j) and (j, i) are reciprocal, so no hi is below 1
    rep = build_nested_rep(ProductGeometry([middle_thirds(6)] * 2), 2, 6, refine_step=2)
    with pytest.raises(ValueError, match=message):
        und_certificate(rep, **kwargs)


def test_an_inverted_source_cell_is_rejected():
    # An extra cell with lo > hi on axis 0 leaves component 0's hull as it
    # is, but its difference with a cell of component 1 or 2 runs from a
    # positive to a negative end.  A corner scan that took it would return
    # negative ratios, and ratio claims lowered below them would pass.
    obj = kappa_square_obj(1)
    root = obj["root"]
    root["components"][0]["source_cells"].append([[[1, 1], [0, 1]], [[0, 1], [1, 81]]])
    root["ratios"]["0,1"] = [[-2, 1], [1, 1]]
    root["ratios"]["0,2"] = [[-2, 1], [1, 1]]
    assert verify_certificate(obj) == (False, ["malformed certificate: ValueError: a source cell has lo > hi"])


def test_source_cells_matrix_and_shift_must_have_every_axis():
    obj = kappa_square_obj(1)
    root = obj["root"]
    root["components"][0]["source_cells"].append([[[0, 1], [1, 81]]])
    assert verify_certificate(obj) == (
        False,
        ["malformed certificate: ValueError: a source cell has 1 axes, expected 2"],
    )
    root["components"][0]["source_cells"].pop()
    obj["shift"] = [[[3, 1], [3, 1]]]
    assert verify_certificate(obj) == (False, ["malformed certificate: ValueError: the shift has 1 axes, expected 2"])
    del obj["shift"]
    obj["matrix"] = {"rows": [[[[1, 1], [1, 1]]], [[[0, 1], [0, 1]], [[1, 1], [1, 1]]]]}
    assert verify_certificate(obj) == (False, ["malformed certificate: ValueError: the matrix is not 2 by 2"])
