"""Certify that a planar Cantor square stays spread out along both axes.

The product of two middle-thirds sets keeps points kappa-separated in
every coordinate at every certified scale; the certificate records exact
separation floors d_k and the ratio bounds between sibling selections.

A set living on a horizontal line has no vertical spread, so the same
search must fail on it.  Composing with a rotation that mixes the axes
restores the certificate, which the second half of the script shows.
"""

from fractions import Fraction

from cantorforge import (
    ProductGeometry,
    build_nested_rep,
    middle_thirds,
    rotation_search,
    und_certificate,
)
from cantorforge.nested_rd import CertificateNotFound

square = ProductGeometry([middle_thirds(8), middle_thirds(8)])
rep = build_nested_rep(square, 2, 11, refine_step=3)
cert = und_certificate(rep, kappa=9, max_k=2, depth=3)

print("square of middle-thirds sets:")
for level, d in enumerate(cert.dk, start=1):
    print(f"  level {level}: separation floor {d} (= 9^-{level}: {d == Fraction(1, 9**level)})")

line = ProductGeometry([middle_thirds(8), Fraction(0)])
line_rep = build_nested_rep(line, 2, 10, refine_step=2)
try:
    und_certificate(line_rep, max_k=8, depth=1)
    print("flat line: certified (unexpected!)")
except CertificateNotFound as err:
    print(f"flat line: no certificate, as it should be ({err})")

result = rotation_search(
    line, kappa=Fraction(11, 10), max_k=4, depth=2, m0=2, max_level=10, refine_step=2
)
print(f"after rotation search: '{result.matrix.name}' matrix works")
for name, why in result.failures:
    print(f"  rejected '{name}': {why}")
bounds = result.certificate.all_ratio_bounds()
spread = max(abs(b - 1) for pair in bounds for b in pair)
print(f"  {len(bounds)} ratio bounds, all within {float(spread):.2e} of 1")
