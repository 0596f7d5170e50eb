from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from cantorforge.applications import (
    FamilyOutOfSlack,
    HSpec,
    MonotoneImageTree,
    SignNotDefinite,
    _slice_derivative_data,
    derivative_bound,
    erdos_obstruction,
    nonlinear_companion,
    pinned_distance_demo,
    verify_H_interior,
)
from cantorforge.cantor1d import (
    Interval,
    LevelOutOfRange,
    build_binary_ifs,
    middle_thirds,
)
from cantorforge.containment1d import build_companion, grid_values


def alpha_spec(x_lo="11/20", x_hi="13/20"):
    return HSpec(
        "alpha-norm",
        lam_box=Interval(Fraction(2), Fraction(2)),
        x_box=Interval(Fraction(x_lo), Fraction(x_hi)),
    )


def affine_spec():
    return HSpec(
        "affine-sum",
        lam_box=Interval(Fraction(1), Fraction(1)),
        x_box=Interval(Fraction(0), Fraction(1)),
    )


def test_certified_enclosure_brackets_the_float_answer():
    spec = alpha_spec("3/5", "4/5")
    enc = spec.slice_point(Fraction(2), Fraction(1), Fraction(3, 5), 64)
    # true answer is exactly 4/5
    assert enc.lo <= Fraction(4, 5) <= enc.hi


def test_derivative_bound_exact_on_circle_box():
    spec = alpha_spec("3/5", "4/5")
    eta = derivative_bound(
        spec,
        Interval(Fraction(1), Fraction(1)),
        Interval(Fraction(2), Fraction(2)),
        Interval(Fraction(3, 5), Fraction(4, 5)),
    )
    assert eta == Fraction(3, 4)


def test_derivative_bound_affine_is_the_slope():
    spec = affine_spec()
    eta = derivative_bound(
        spec,
        Interval(Fraction(9, 10), Fraction(11, 10)),
        Interval(Fraction(1), Fraction(1)),
        Interval(Fraction(0), Fraction(1)),
    )
    assert eta == 1


def test_zero_straddling_slope_is_refused():
    spec = HSpec(
        "alpha-norm",
        lam_box=Interval(Fraction(2), Fraction(2)),
        x_box=Interval(Fraction(-1, 10), Fraction(1, 10)),
    )
    with pytest.raises(SignNotDefinite):
        derivative_bound(
            spec,
            Interval(Fraction(1), Fraction(1)),
            Interval(Fraction(2), Fraction(2)),
            Interval(Fraction(-1, 10), Fraction(1, 10)),
        )


@settings(max_examples=200)
@given(st.fractions(min_value=Fraction(3, 5), max_value=Fraction(4, 5), max_denominator=10**6))
def test_circle_slope_never_dips_below_eta(x):
    assert oracles.circle_slope_at_least(Fraction(3, 4), Fraction(1), x)


def test_image_tree_gap_lengths_affine():
    base = middle_thirds(8)
    spec = affine_spec()
    data = _slice_derivative_data(
        spec, Interval(Fraction(1), Fraction(1)), Interval(Fraction(1), Fraction(1)),
        base.hull, 64,
    )
    image = MonotoneImageTree(base, spec, Fraction(1), Fraction(1), data)
    for n in range(6):
        true_gap = Fraction(1, 3) ** (n + 1)
        assert image.level_min_gap(n) <= true_gap <= image.level_max_gap(n)


def test_image_tree_gaps_respect_slope_floor():
    base = build_binary_ifs(Interval(Fraction(11, 20), Fraction(13, 20)), Fraction(1, 3), 6)
    spec = alpha_spec()
    c = Fraction(1)
    data = _slice_derivative_data(
        spec, Interval(Fraction(2), Fraction(2)), Interval(c, c), base.hull, 64,
    )
    image = MonotoneImageTree(base, spec, Fraction(2), c, data)
    eta = data.lower
    assert eta > 0
    for addr in ("", "0", "1", "00", "11"):
        u = base.gap(addr)
        # exact check of g(u.lo) - g(u.hi) >= eta * |u| for g = sqrt(c - x^2)
        assert oracles.sqrt_diff_at_least(c - u.lo**2, c - u.hi**2, eta * u.length)
        certified = image.gap(addr)
        assert certified.length >= 0


def test_affine_companion_reflects_and_halves_gaps():
    spec = affine_spec()
    k2 = nonlinear_companion(
        middle_thirds(8), spec,
        Interval(Fraction(1), Fraction(1)),
        Interval(Fraction(9, 10), Fraction(11, 10)),
    )
    # y = c - x over c in [0.9, 1.1] and x in [0, 1] spans [-0.1, 1.1]
    assert k2.hull.lo <= Fraction(-1, 10) and k2.hull.hi >= Fraction(11, 10)
    for n in range(8):
        assert k2.gap_lengths[n] == Fraction(1, 3) ** (n + 1) / 2


def test_circle_companion_hull_stays_in_range():
    k1 = build_binary_ifs(Interval(Fraction(11, 20), Fraction(13, 20)), Fraction(1, 3), 6)
    spec = alpha_spec()
    k2 = nonlinear_companion(
        k1, spec,
        Interval(Fraction(2), Fraction(2)),
        Interval(Fraction(19, 20), Fraction(21, 20)),
    )
    # the image responds through y = sqrt(c - x^2); its extremes over the
    # boxes are sqrt(0.5275) and sqrt(0.7475), and the hull pads outward
    assert Fraction(72, 100) < k2.hull.lo
    assert k2.hull.lo**2 <= Fraction(5275, 10000)
    assert k2.hull.hi**2 >= Fraction(7475, 10000)
    assert k2.hull.hi < Fraction(87, 100)


def test_companion_depth_is_capped_by_base():
    spec = alpha_spec()
    with pytest.raises(LevelOutOfRange):
        nonlinear_companion(
            middle_thirds(3), spec,
            Interval(Fraction(2), Fraction(2)),
            Interval(Fraction(19, 20), Fraction(21, 20)),
            depth=5,
        )


def test_affine_interior_grid_has_zero_residuals():
    spec = affine_spec()
    k1 = middle_thirds(12)
    c_box = Interval(Fraction(9, 10), Fraction(11, 10))
    k2 = nonlinear_companion(k1, spec, Interval(Fraction(1), Fraction(1)), c_box)
    report = verify_H_interior(
        spec, k1, k2,
        grid_values(c_box, 101),
        [Fraction(1)],
        12,
        Fraction(1, 10**10),
    )
    assert report.all_ok
    assert len(report.points) == 101
    for p in report.points:
        assert p.residual == 0
    assert report.certified_c == c_box


def test_circle_interior_grid_verifies_and_rechecks():
    k1 = build_binary_ifs(Interval(Fraction(11, 20), Fraction(13, 20)), Fraction(1, 3), 8)
    spec = alpha_spec()
    c_box = Interval(Fraction(19, 20), Fraction(21, 20))
    k2 = nonlinear_companion(k1, spec, Interval(Fraction(2), Fraction(2)), c_box)
    tol = Fraction(1, 10**8)
    report = verify_H_interior(spec, k1, k2, grid_values(c_box, 11), [Fraction(2)], 8, tol)
    assert report.all_ok
    for p in report.points:
        assert p.residual is not None and p.residual <= tol
        # independent recomputation at 50 digits
        assert oracles.recheck_alpha_residual(2, p.c, p.witness_x, p.witness_y) < 1e-8


def test_distance_demo_small():
    report = pinned_distance_demo(alpha=2, dimension=2, depth=8, grid=11)
    assert report.interior.all_ok
    assert report.eta > 0
    assert report.coverage is not None
    assert report.coverage.length > 0
    for p in report.interior.points:
        assert oracles.recheck_alpha_residual(2, p.c, p.witness_x, p.witness_y) < 1e-8


def demo_family(count=100):
    return [(Fraction(99, 100) + i * Fraction(1, 5000), i * Fraction(1, 20)) for i in range(count)]


@pytest.fixture(scope="module")
def obstruction_report():
    k = build_binary_ifs(Interval(Fraction(0), Fraction(1)), Fraction(1, 10), 12)
    return erdos_obstruction(k, demo_family(), Interval(Fraction(-1), Fraction(6)), 12)


def test_obstruction_hits_every_map(obstruction_report):
    report = obstruction_report
    assert report.all_ok
    assert len(report.records) == 100
    k_lo, k_hi = report.k_range
    for rec in report.records:
        assert rec.ok
        assert k_lo <= rec.translate_index <= k_hi
        assert rec.bound is not None
        assert abs(rec.witness_map - rec.witness_set) <= rec.bound


def test_obstruction_spacing_identity(obstruction_report):
    assert obstruction_report.spacing == obstruction_report.certified.length


def test_out_of_slack_scale_is_rejected():
    k = build_binary_ifs(Interval(Fraction(0), Fraction(1)), Fraction(1, 10), 12)
    family = demo_family(10) + [(Fraction(5, 2), Fraction(0))]
    with pytest.raises(FamilyOutOfSlack) as exc:
        erdos_obstruction(k, family, Interval(Fraction(-1), Fraction(6)), 12)
    assert (Fraction(5, 2), Fraction(0)) in exc.value.offenders
    assert exc.value.slack == 2


def test_window_escape_is_rejected():
    k = build_binary_ifs(Interval(Fraction(0), Fraction(1)), Fraction(1, 10), 12)
    family = [(Fraction(1), Fraction(11, 2))]  # image hull [5.5, 6.5] leaves the window
    with pytest.raises(FamilyOutOfSlack) as exc:
        erdos_obstruction(k, family, Interval(Fraction(-1), Fraction(6)), 12)
    assert exc.value.offenders == ((Fraction(1), Fraction(11, 2)),)


@settings(max_examples=60)
@given(st.fractions(min_value=-1, max_value=6, max_denominator=9973))
def test_certified_translates_tile_the_window(obstruction_report, p):
    """Every point of the window lies in some translate's certified interval,
    and that translate's index is inside the reported range."""
    report = obstruction_report
    a = report.certified.lo
    delta = report.spacing
    k = int((p - a) // delta)
    assert report.certified.lo + k * delta <= p <= report.certified.hi + k * delta
    assert report.k_range[0] <= k <= report.k_range[1]
