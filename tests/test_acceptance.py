"""Desk-scale end-to-end checks, one test per headline capability.

Run with ``pytest -v tests/test_acceptance.py`` to get a pass/fail line
per capability.  Expected values are frozen here as exact rationals,
derived independently of the library (closed forms, digit expansions,
brute-force sweeps), so a green run means the implementation and the
arithmetic agree, not that the implementation agrees with itself.
"""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
from cantorforge import (
    FamilyOutOfSlack,
    HSpec,
    Interval,
    PerturbationSpec,
    ProductGeometry,
    build_binary_ifs,
    build_companion,
    build_nested_rep,
    build_product_companion,
    certify_difference_interior,
    certify_sum_interior_rd,
    check_dominance,
    derivative_bound,
    erdos_obstruction,
    find_chain,
    find_chain_rd,
    middle_thirds,
    pinned_distance_demo,
    robustness_sweep,
    rotation_search,
    und_certificate,
)
from cantorforge.cantor1d import affine_image, canonical_json, tree_from_json_obj
from cantorforge.cli import main
from cantorforge.containment1d import grid_values
from cantorforge.nested_rd import CertificateNotFound, image_separations

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "demos" / "scenarios"


def test_companion_dominance_and_tight_chain_under_one_second():
    started = time.monotonic()
    k = middle_thirds(20)
    kt = build_companion(k, 20, Fraction(1, 10), Fraction(1, 2))
    report = check_dominance(k, kt, 20)
    assert report.overall and all(rec.passed for rec in report.levels)
    chain = find_chain(k, kt, 20)
    # closed form for the companion's level-20 length: the level recurrence
    # telescopes to 2^-n (|hull| - (1/2)(1 - (2/3)^n)) with |hull| = 1.2
    expected = (Fraction(7, 10) + Fraction(1, 2) * Fraction(2, 3) ** 20) / 2**20
    assert chain.bound == expected
    assert chain.bound < Fraction(1, 10**6)
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_difference_interior_thousand_translates_with_minkowski_oracle():
    started = time.monotonic()
    k = middle_thirds(20)
    kt = build_companion(k, 20, Fraction(1, 10), Fraction(1, 2))
    box = certify_difference_interior(k, kt, 20)
    assert box == Interval(Fraction(-1, 10), Fraction(1, 10))
    cover_k = oracles.thirds_cover(12)
    cover_kt = oracles.tree_cover(kt, 12)
    for t in grid_values(box, 1001):
        chain = find_chain(k, affine_image(kt, Fraction(1), t), 20)
        assert chain.bound < Fraction(1, 10**6)
        assert oracles.covers_intersect(cover_k, cover_kt, shift=t)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"took {elapsed:.3f}s"


def test_perturbation_sweep_full_grid_passes():
    k = middle_thirds(20)
    kt = build_companion(k, 20, Fraction(1, 10), Fraction(1, 2))
    assert check_dominance(k, kt, 20).slack == 2
    pert = PerturbationSpec(
        Interval(Fraction(19, 20), Fraction(21, 20)),
        Interval(Fraction(-1, 25), Fraction(1, 25)),
        21,
        21,
    )
    report = robustness_sweep(k, kt, pert, 20)
    assert len(report.points) == 441
    assert report.all_ok


def test_square_certificate_hits_exact_floors_and_rotation_recovers(square_cert):
    cert, _rep = square_cert
    dk = cert.dk
    window_slip = 1 - Fraction(1, 2**30)
    for i, d in enumerate(dk, start=1):
        want = Fraction(1, 9**i)
        assert d == want
        assert want * window_slip <= d <= want
    for lo, hi in cert.all_ratio_bounds():
        assert Fraction(1, 9) <= lo <= hi <= 9

    flat = ProductGeometry([middle_thirds(8), Fraction(0)])
    rep_flat = build_nested_rep(flat, 2, 10, refine_step=2)
    with pytest.raises(CertificateNotFound):
        und_certificate(rep_flat, max_k=8, depth=1)
    fixed = rotation_search(
        flat, kappa=Fraction(11, 10), max_k=4, depth=2, m0=2, max_level=10, refine_step=2
    )
    assert fixed.matrix.name == "axis-mixing"
    eps = Fraction(1, 10**9)
    bounds = fixed.certificate.all_ratio_bounds()
    assert bounds
    for lo, hi in bounds:
        assert 1 - eps <= lo <= hi <= 1 + eps


def test_deep_product_chain_and_translation_grid(deep_square_cert):
    cert, rep = deep_square_cert
    assert cert.depth == 10
    companion = build_product_companion(rep.exact_hull, cert.dk, Fraction(1, 2), Fraction(1, 10))

    chain = find_chain_rd(cert, companion, 10)  # raises SlitBlocked on failure
    assert len(chain.steps) == 10
    # level lengths telescope: L_10 * 2^10 = |I| - sum_{j<10} 2^j gap_j
    depth_len = (Fraction(6, 5) - sum(2**j * cert.dk[j] / 2 for j in range(10))) / 2**10
    assert companion.base.level_lengths[10] == depth_len
    assert chain.bound_sq == 2 * depth_len * depth_len

    box = certify_sum_interior_rd(cert, companion, 10)
    assert box == (
        Interval(Fraction(-1, 10), Fraction(1, 10)),
        Interval(Fraction(-1, 10), Fraction(1, 10)),
    )

    cert_boxes = oracles.cert_component_boxes(cert, 2)
    cell_boxes = oracles.companion_cell_boxes(companion, 2)
    for tx in grid_values(box[0], 21):
        for ty in grid_values(box[1], 21):
            t = (tx, ty)
            moved = find_chain_rd(cert, companion, 10, translate=t)
            assert moved.bound_sq == chain.bound_sq
            assert oracles.boxes_intersect(cert_boxes, cell_boxes, t)


def test_hundred_near_identity_images_keep_most_separation(square_cert):
    cert, _rep = square_cert
    base = cert.dk
    floor = Fraction(4, 5)  # 1 - 2 * (1 + 9) * 0.01
    rng = random.Random(20260814)

    def jitter():
        # dyadic entries up to 20/4096 < 1/200 keep the Frobenius norm of
        # the perturbation at or below 1/100
        return Fraction(rng.randrange(-20, 21), 4096)

    for _ in range(100):
        rows = (
            (1 + jitter(), jitter()),
            (jitter(), 1 + jitter()),
        )
        frob_sq = sum((rows[i][j] - (1 if i == j else 0)) ** 2 for i in range(2) for j in range(2))
        assert frob_sq <= Fraction(1, 10000)
        shift = (Fraction(rng.randrange(-64, 65), 1024), Fraction(rng.randrange(-64, 65), 1024))
        moved = image_separations(cert, rows, shift)
        for got, want in zip(moved, base):
            assert got >= floor * want


def test_pinned_distance_grid_with_high_precision_recheck():
    report = pinned_distance_demo(alpha=2, dimension=2, depth=12, grid=101)
    assert report.interior.all_ok
    assert len(report.interior.points) == 101
    tol = Fraction(1, 10**8)
    for p in report.interior.points:
        assert p.residual is not None and p.residual <= tol
        assert oracles.recheck_alpha_residual(2, p.c, p.witness_x, p.witness_y) < 1e-8

    spec = HSpec(
        "alpha-norm",
        lam_box=Interval(Fraction(2), Fraction(2)),
        x_box=Interval(Fraction(3, 5), Fraction(4, 5)),
    )
    eta = derivative_bound(
        spec,
        Interval(Fraction(1), Fraction(1)),
        Interval(Fraction(2), Fraction(2)),
        Interval(Fraction(3, 5), Fraction(4, 5)),
    )
    assert eta >= Fraction(3, 4)
    lo, span, n = Fraction(3, 5), Fraction(1, 5), 10**4
    for i in range(n):
        x = lo + span * Fraction(i, n - 1)
        assert oracles.circle_slope_at_least(eta, Fraction(1), x)


def test_translation_family_always_meets_the_obstruction_set():
    k = build_binary_ifs(Interval(Fraction(0), Fraction(1)), Fraction(1, 10), 12)
    window = Interval(Fraction(-1), Fraction(6))
    family = [
        (Fraction(99, 100) + i * Fraction(1, 5000), i * Fraction(1, 20)) for i in range(100)
    ]
    report = erdos_obstruction(k, family, window, 12)
    assert report.all_ok
    assert sum(1 for r in report.records if r.ok) == 100
    assert report.spacing == report.certified.length

    with pytest.raises(FamilyOutOfSlack) as exc:
        erdos_obstruction(k, family + [(Fraction(5, 2), Fraction(0))], window, 12)
    assert (Fraction(5, 2), Fraction(0)) in exc.value.offenders


def test_serialization_round_trips_and_byte_identical_reports(tmp_path, square_cert):
    k = middle_thirds(20)
    kt = build_companion(k, 20, Fraction(1, 10), Fraction(1, 2))
    for tree in (k, kt):
        text = tree.to_json()
        again = tree_from_json_obj(json.loads(text))
        assert again == tree
        assert again.to_json() == text

    cert, _rep = square_cert
    wire = cert.to_json()
    assert canonical_json(json.loads(wire)) == wire

    for config in sorted(SCENARIO_DIR.glob("*.json")):
        out_a = tmp_path / (config.stem + ".a.json")
        out_b = tmp_path / (config.stem + ".b.json")
        assert main(["run", str(config), "--out", str(out_a)]) == 0
        assert main(["run", str(config), "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes(), config.stem
