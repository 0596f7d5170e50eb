"""Outward-rounded dyadic arithmetic.

Everything in the package that can stay an exact rational does.  This module
is the single entry point for the operations that cannot (square roots,
rational powers).  All rounding here is outward: lower bounds round down,
upper bounds round up, so enclosures computed downstream are sound.
Snapping box endpoints outward onto the same dyadic grid, so that they stay
small, is done in integers where the boxes are built, in ``nested_rd``.

The grid resolution is ``2**-bits``.  Library calls take ``bits`` as an
argument, from 1 to 4096, and default to 64; no module of the package
reads the process environment.  ``cantor-forge run`` resolves ``bits``
once per scenario, in this order: ``--precision-bits``, the config's
``precision_bits`` field, then 64.  Every root is taken on integers by
``iroot_bounds``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .cantor1d import Interval

DEFAULT_PRECISION_BITS = 64
# Reports write 2**-bits grid points as decimal integers, and Python refuses
# to convert one of more than 4300 digits; 4096 bits stays clear of that.
MAX_PRECISION_BITS = 4096


def precision_bits(override: int | None = None) -> int:
    """Resolve the working precision in fractional bits (default 64).

    A value outside 1 to ``MAX_PRECISION_BITS`` raises ValueError."""
    bits = DEFAULT_PRECISION_BITS if override is None else int(override)
    if not 1 <= bits <= MAX_PRECISION_BITS:
        raise ValueError(f"precision must be 1 to {MAX_PRECISION_BITS} bits, got {bits}")
    return bits


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


def iroot_bounds(n: int, d: int, k: int, bits: int) -> tuple[int, int, int]:
    """(lo, hi, den) with lo/den <= (n/d) ** (1/k) <= hi/den, on integers.

    For n >= 0, d > 0 and k >= 1.  When n/d in lowest terms is (r/s) ** k,
    the pair is exact, (r, r, s).  Otherwise den = 2**bits, lo is the floor
    of den * (n/d) ** (1/k) and hi = lo + 1, or hi = lo when lo/den already
    reaches the root.  ``root_bounds`` is this pair read as ``Fraction``s;
    the slice points of ``applications`` chain it on integers.
    """
    if k == 1 or n == 0:
        return n, n, d
    g = math.gcd(n, d)
    n, d = n // g, d // g
    num_r = iroot_floor(n, k)
    if num_r**k == n:
        den_r = iroot_floor(d, k)
        if den_r**k == d:
            return num_r, num_r, den_r
    # (r / 2**bits) ** k <= n/d  <=>  r ** k * d <= n * 2**(k*bits)
    target = n << (k * bits)
    r = iroot_floor(target // d, k)
    return r, r if r**k * d >= target else r + 1, 1 << bits


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
    lo, hi, den = iroot_bounds(x.numerator, x.denominator, k, bits)
    return Fraction(lo, den), Fraction(hi, den)


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
    """v ** e for v.lo > 0; monotone in the base for e of fixed sign.

    Used for box enclosures (``HSpec.slice_enclosure``); the slice points
    of a ``MonotoneImageTree`` chain ``iroot_bounds`` on integers instead.
    """
    if v.lo <= 0:
        raise ValueError("iv_pow requires a strictly positive interval")
    a_lo, a_hi = pow_bounds(v.lo, e, bits)
    b_lo, b_hi = pow_bounds(v.hi, e, bits)
    if e >= 0:
        return Interval(a_lo, b_hi)
    return Interval(b_lo, a_hi)
