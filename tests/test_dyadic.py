from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import cantorforge.dyadic
from cantorforge.applications import HSpec, nonlinear_companion
from cantorforge.cantor1d import Interval, build_binary_ifs, middle_thirds
from cantorforge.dyadic import (
    DEFAULT_PRECISION_BITS,
    iroot_floor,
    iv_pow,
    pow_bounds,
    precision_bits,
    root_bounds,
    sqrt_bounds,
)
from cantorforge.nested_rd import ProductGeometry, RotationMatrix, build_nested_rep, und_certificate

# Older versions read the precision from this variable; it must change nothing.
PRECISION_ENV = "CANTOR_FORGE_PRECISION_BITS"
rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6)
small_bits = st.integers(min_value=4, max_value=128)


@given(st.integers(min_value=0, max_value=10**30), st.integers(min_value=1, max_value=7))
def test_iroot_floor_brackets(n, k):
    r = iroot_floor(n, k)
    assert r**k <= n < (r + 1) ** k


@settings(max_examples=200)
@given(st.integers(min_value=0, max_value=2**4000 - 1), st.integers(min_value=2, max_value=7))
def test_iroot_floor_brackets_huge_radicands(n, k):
    r = iroot_floor(n, k)
    assert r**k <= n < (r + 1) ** k


def test_iroot_floor_exact_powers_and_neighbours():
    for k in range(2, 8):
        for r in (2, 3, 10**20 + 7, 3**400):
            assert iroot_floor(r**k, k) == r
            assert iroot_floor(r**k - 1, k) == r - 1
            assert iroot_floor(r**k + 1, k) == r


def test_pow_bounds_beyond_float_range():
    # 3**2 * 2**(3*400) is far above 2**1024, where a float seed overflows
    lo, hi = pow_bounds(Fraction(3, 5), Fraction(2, 3), bits=400)
    assert lo**3 <= Fraction(9, 25) <= hi**3
    assert hi - lo <= Fraction(1, 2**400)


def test_pow_bounds_high_bits_cube_roots_finish():
    # radicands whose float seeds used to start an upward walk of ~2**76 steps
    for n in range(1, 11):
        for q in (3, 4):
            lo, hi = pow_bounds(Fraction(n, 7), Fraction(1, q), 128)
            assert lo**q <= Fraction(n, 7) <= hi**q


def test_pow_bounds_negative_exponent_of_small_base():
    # 1/lo used to divide by a lower bound that rounds to 0
    lo, hi = pow_bounds(Fraction(1, 100), Fraction(-2, 3), 4)
    assert 0 < lo <= hi
    assert lo**3 <= Fraction(100) ** 2 <= hi**3


def test_iroot_floor_rejects_negative():
    with pytest.raises(ValueError):
        iroot_floor(-1, 2)


@given(st.fractions(min_value=0, max_value=10**6, max_denominator=10**6), small_bits)
def test_sqrt_bounds_bracket(x, bits):
    lo, hi = sqrt_bounds(x, bits)
    assert 0 <= lo <= hi
    assert lo * lo <= x <= hi * hi


def test_sqrt_bounds_exact_on_perfect_squares():
    assert sqrt_bounds(Fraction(9, 4), 64) == (Fraction(3, 2), Fraction(3, 2))
    assert sqrt_bounds(Fraction(0), 64) == (0, 0)
    assert root_bounds(Fraction(8, 27), 3, 64) == (Fraction(2, 3), Fraction(2, 3))


def test_sqrt_bounds_width_shrinks_with_bits():
    x = Fraction(2)
    w64 = sqrt_bounds(x, 64)
    w128 = sqrt_bounds(x, 128)
    assert w128[1] - w128[0] <= w64[1] - w64[0]
    # outward soundness: the tighter enclosure sits inside the looser one
    assert w64[0] <= w128[0] and w128[1] <= w64[1]


@settings(max_examples=40)
@given(
    st.fractions(min_value=Fraction(1, 100), max_value=100, max_denominator=100),
    st.fractions(min_value=Fraction(-3), max_value=3, max_denominator=4),
    small_bits,
)
def test_pow_bounds_bracket(x, e, bits):
    lo, hi = pow_bounds(x, e, bits)
    assert lo <= hi
    # compare via integer powers only: lo**q <= x**p <= hi**q clears roots
    p, q = e.numerator, e.denominator
    assert lo**q <= x**p <= hi**q


def test_pow_bounds_exact_cases():
    assert pow_bounds(Fraction(4), Fraction(1, 2), 64) == (2, 2)
    assert pow_bounds(Fraction(8), Fraction(2, 3), 64) == (4, 4)
    assert pow_bounds(Fraction(27), Fraction(-1, 3), 64) == (Fraction(1, 3), Fraction(1, 3))
    with pytest.raises(ValueError):
        pow_bounds(Fraction(0), Fraction(1, 2), 64)


# ---------------------------------------------------------------------------
# interval arithmetic

ivs = st.tuples(rationals, rationals).map(lambda p: Interval(min(p), max(p)))


def member(iv, data):
    """A point of the interval chosen by hypothesis."""
    f = data.draw(st.fractions(min_value=0, max_value=1, max_denominator=997))
    return iv.lo + f * (iv.hi - iv.lo)


@given(ivs, ivs, st.data())
def test_iv_add_sub_mul_contain(a, b, data):
    x = member(a, data)
    y = member(b, data)
    assert (a + b).contains(x + y)
    assert (a - b).contains(x - y)
    assert (a * b).contains(x * y)
    assert (-a).contains(-x)


def test_iv_validation_and_helpers():
    with pytest.raises(ValueError):
        Interval(Fraction(1), Fraction(0))
    v = Interval(Fraction(-2), Fraction(3))
    assert v.midpoint() == Fraction(1, 2)
    assert v.abs() == Interval(Fraction(0), Fraction(3))
    assert (-v).abs() == Interval(Fraction(0), Fraction(3))
    assert Interval(Fraction(-3), Fraction(-1)).abs() == Interval(Fraction(1), Fraction(3))
    assert Interval.point(Fraction(2, 7)).length == 0
    assert Interval.point("1/3") == Interval(Fraction(1, 3), Fraction(1, 3))
    assert type(Interval.point(2).lo) is Fraction
    with pytest.raises(TypeError, match="refusing float input"):
        Interval.point(0.1)
    with pytest.raises(TypeError, match="refusing float input"):
        Interval(Fraction(0), 0.5)


@settings(max_examples=40)
@given(
    st.fractions(min_value=Fraction(1, 10), max_value=10, max_denominator=100),
    st.fractions(min_value=Fraction(1, 10), max_value=10, max_denominator=100),
    st.fractions(min_value=Fraction(-5, 2), max_value=Fraction(5, 2), max_denominator=4),
)
def test_iv_pow_encloses_endpoint_powers(a, b, e):
    lo, hi = min(a, b), max(a, b)
    v = iv_pow(Interval(lo, hi), e, 64)
    # x**e lands in [v.lo, v.hi] iff x**p lands in [v.lo**q, v.hi**q]; the
    # interval is positive, so raising to q keeps the ordering exact
    p, q = e.numerator, e.denominator
    for x in (lo, hi):
        assert v.lo**q <= x**p <= v.hi**q


@pytest.mark.parametrize("e", [Fraction(3, 2), Fraction(2, 3), Fraction(2), Fraction(1, 2)])
@pytest.mark.parametrize("x", [Fraction(19, 20), Fraction(7, 3), Fraction(4)])
def test_iv_pow_encloses_a_point_once(x, e):
    # a degenerate box (a point interval) is enclosed like any other
    v = iv_pow(Interval.point(x), e, 64)
    p, q = e.numerator, e.denominator
    assert v.lo**q <= x**p <= v.hi**q


def test_precision_bits_resolution_order(monkeypatch):
    # the library default is 64 whatever the environment holds
    monkeypatch.delenv(PRECISION_ENV, raising=False)
    assert precision_bits() == DEFAULT_PRECISION_BITS == 64
    for env in ("96", "1"):
        monkeypatch.setenv(PRECISION_ENV, env)
        assert precision_bits() == 64
    assert precision_bits(32) == 32
    with pytest.raises(ValueError):
        precision_bits(0)


def test_library_calls_without_bits_ignore_the_environment(monkeypatch):
    monkeypatch.setenv(PRECISION_ENV, "1")
    assert RotationMatrix.axis_mixing(2).rows == RotationMatrix.axis_mixing(2, 64).rows
    k1 = build_binary_ifs(Interval(Fraction(11, 20), Fraction(13, 20)), Fraction(1, 10), 6)
    alpha = Interval(Fraction(3, 2), Fraction(3, 2))
    spec = HSpec("alpha-norm", alpha, k1.hull)
    c_box = Interval(Fraction(19, 20), Fraction(21, 20))
    implicit = nonlinear_companion(k1, spec, alpha, c_box)
    explicit = nonlinear_companion(k1, spec, alpha, c_box, bits=64)
    assert implicit.to_json_obj() == explicit.to_json_obj()


def test_every_closed_interval_is_an_interval():
    # dyadic keeps root and power enclosures only; the interval type is one
    assert not hasattr(cantorforge.dyadic, "IV")
    geom = ProductGeometry(
        [middle_thirds(10), middle_thirds(10)],
        matrix=RotationMatrix.axis_mixing(2),
        shift=(Fraction(3), Interval(Fraction(-2), Fraction(-2))),
    )
    rep = build_nested_rep(geom, 2, 9, refine_step=3)
    cert = und_certificate(rep, max_k=2, depth=2)
    spec = HSpec("alpha-norm", Interval(Fraction(2), Fraction(2)), Interval(Fraction(1, 2), Fraction(3, 4)))
    values = [
        *rep.exact_hull,
        *(e for row in geom.matrix.rows for e in row),
        *cert.shift,
        spec.slice_point(Fraction(2), Fraction(1), Fraction(3, 5), 64),
    ]
    assert all(type(v) is Interval for v in values)
