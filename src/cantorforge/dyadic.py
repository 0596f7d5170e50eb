"""Outward-rounded dyadic arithmetic.

Everything in the package that can stay an exact rational does.  This module
is the single entry point for the operations that cannot (square roots,
rational powers) and for snapping exact rationals onto a dyadic grid so that
box endpoints stay small.  All rounding here is outward: lower bounds round
down, upper bounds round up, so enclosures computed downstream are sound.

The grid resolution is ``2**-bits``.  Library calls take ``bits`` as an
argument and default to 64; no module of the package reads the process
environment.  ``cantor-forge run`` resolves ``bits`` once per scenario, in
this order: ``--precision-bits``, the config's ``precision_bits`` field,
then 64.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .cantor1d import Interval

DEFAULT_PRECISION_BITS = 64

Rat = Fraction


def precision_bits(override: int | None = None) -> int:
    """Resolve the working precision in fractional bits (default 64)."""
    bits = DEFAULT_PRECISION_BITS if override is None else int(override)
    if bits < 1:
        raise ValueError(f"precision must be at least 1 bit, got {bits}")
    return bits


def floor_div(x: Fraction) -> int:
    return x.numerator // x.denominator


def ceil_div(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def round_down(x: Fraction, bits: int) -> Fraction:
    """Largest multiple of 2**-bits that is <= x."""
    scale = 1 << bits
    return Fraction(floor_div(x * scale), scale)


def round_up(x: Fraction, bits: int) -> Fraction:
    scale = 1 << bits
    return Fraction(ceil_div(x * scale), scale)


def iroot_floor(n: int, k: int) -> int:
    """floor(n ** (1/k)) for non-negative integer n and k >= 1.

    Integer Newton iteration from above (Brent and Zimmermann, Modern
    Computer Arithmetic, section 1.5).  The seed 2**ceil(bits(n)/k) exceeds the
    root, every step stays at or above the floor of the root and strictly
    decreases until it reaches it, so no float and no upward walk is
    involved, whatever the size of n.
    """
    if n < 0:
        raise ValueError("negative radicand")
    if k == 1 or n in (0, 1):
        return n
    if k == 2:
        return math.isqrt(n)
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def root_bounds(x: Fraction, k: int, bits: int) -> tuple[Fraction, Fraction]:
    """Certified enclosure of x ** (1/k) for x >= 0, integer k >= 1.

    Returns an exact degenerate pair whenever x is a perfect k-th power of a
    rational (both numerator and denominator are k-th powers).  That exactness
    matters: several certified quantities (derivative floors among them) land
    on rational values that a one-ulp-outward answer would spoil.
    """
    if x < 0:
        raise ValueError("negative radicand")
    if k < 1:
        raise ValueError("root index must be positive")
    if k == 1 or x == 0:
        return (x, x)
    num_r = iroot_floor(x.numerator, k)
    den_r = iroot_floor(x.denominator, k)
    if num_r ** k == x.numerator and den_r ** k == x.denominator:
        exact = Fraction(num_r, den_r)
        return (exact, exact)
    scale = 1 << bits
    # (r / 2**bits) ** k <= x  <=>  r ** k <= x * 2**(k*bits)
    target = x * Fraction(scale) ** k
    r = iroot_floor(floor_div(target), k)
    lo = Fraction(r, scale)
    hi = Fraction(r + 1, scale)
    # Tighten hi when r+1 overshoots but r is already an upper bound
    # (can happen when target is just above an integer k-th power).
    if Fraction(r) ** k >= target:
        hi = lo
    return (lo, hi)


def sqrt_bounds(x: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    return root_bounds(x, 2, bits)


def pow_bounds(x: Fraction, e: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    """Certified enclosure of x ** e for x > 0 and rational e.

    Exact when the true value is rational (integer exponents, perfect
    roots).  A negative exponent encloses (1/x) ** -e, so no rounded bound
    is ever inverted.
    """
    if x <= 0:
        raise ValueError("pow_bounds requires a positive base")
    if e < 0:
        return pow_bounds(1 / x, -e, bits)
    p = e.numerator
    q = e.denominator
    powed = x ** p
    if q == 1:
        return (powed, powed)
    return root_bounds(powed, q, bits)


def iv_pow(v: Interval, e: Fraction, bits: int) -> Interval:
    """v ** e for v.lo > 0; monotone in the base for e of fixed sign."""
    if v.lo <= 0:
        raise ValueError("iv_pow requires a strictly positive interval")
    a_lo, a_hi = pow_bounds(v.lo, e, bits)
    b_lo, b_hi = pow_bounds(v.hi, e, bits)
    if e >= 0:
        return Interval(a_lo, b_hi)
    return Interval(b_lo, a_hi)
