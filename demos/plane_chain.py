"""Pin points of a planar Cantor square against a fattened companion.

Given a separation certificate for the square, the companion is a
product of one-dimensional gap trees whose gaps are half the certified
floors.  A chain of nested cube pairs then traps a point of the square
within an explicit distance of a companion point, and running the chain
across a grid of translates certifies a full box inside the sum.
"""

from fractions import Fraction

from cantorforge import (
    ProductGeometry,
    build_nested_rep,
    build_product_companion,
    certify_sum_interior_rd,
    find_chain_rd,
    middle_thirds,
    und_certificate,
)

geom = ProductGeometry([middle_thirds(8), middle_thirds(8)])
rep = build_nested_rep(geom, 2, 11, refine_step=3)
cert = und_certificate(rep, kappa=9, max_k=2, depth=3)

companion = build_product_companion(rep.exact_hull, cert.dk, Fraction(1, 2), Fraction(1, 10))
hull = companion.base.hull
print(f"companion hull per axis: [{hull.lo}, {hull.hi}]")
print(f"companion gaps: {[str(g) for g in companion.base.gap_lengths]}")

chain = find_chain_rd(cert, companion, 3)
wc = tuple(float(x) for x in chain.witness_component)
wt = tuple(float(x) for x in chain.witness_cell)
print(f"chain of {len(chain.steps)} cube pairs")
print(f"  set witness       ({wc[0]:+.6f}, {wc[1]:+.6f})")
print(f"  companion witness ({wt[0]:+.6f}, {wt[1]:+.6f})")
print(f"  distance bound^2 = {chain.bound_sq} (~ {float(chain.bound):.4e} in distance)")

box = certify_sum_interior_rd(cert, companion, 3)
print("certified interior box of the sum:")
for axis, side in enumerate(box):
    print(f"  axis {axis}: [{side.lo}, {side.hi}]")

shift = (Fraction(1, 16), Fraction(-3, 32))
moved = find_chain_rd(cert, companion, 3, translate=shift)
print(f"translate {tuple(str(s) for s in shift)} still chains, "
      f"bound^2 = {moved.bound_sq}")
