"""The nine golden scenario reports, pinned byte for byte.

Each hash is the sha256 of the report ``cantor-forge run`` writes for the
scenario at default settings.  A change that moves any certified number,
or the layout of a report, shows here; the determinism tests elsewhere
only compare two runs of the same code.

The certificate exports below are pinned the same way, for geometries no
scenario reaches: a product shifted by non-integers, a product of
explicit gap trees, and the axis-mixing map, whose cells are written
from the mapped cover.
"""

import hashlib
from fractions import Fraction
from pathlib import Path

import pytest

from cantorforge.cantor1d import ExplicitGapTree, Interval, addresses, middle_thirds
from cantorforge.cli import main
from cantorforge.nested_rd import ProductGeometry, RotationMatrix, build_nested_rep, und_certificate

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "demos" / "scenarios"

GOLDEN = {
    "companion_square": "a2e2365a90c77a8d4cf72813f6519043517205e06069742f58516e999e48a6c5",
    "companion_thirds": "71e569610d0b209b7ac367858c220965b228e163acdfb243eb103f2e59ca2c71",
    "erdos_translates": "dc241d33dc363733dccea695b27e40d433aa04604382bf9ffad6bc1378b2a417",
    "interior_square": "3bf6e1fb9e144b0ece6aef1567b7a4943f324268934ac2dfe8b1e01904573dd0",
    "interior_translates": "44066f34a4d4f0034b99aeb51adbedef482fb7a8239b0e727a356cd4b0e287dd",
    "nondegeneracy_square": "8ac7209b5ac447e4c93a07da73a6a027fc509761b982c5f927e1db8c77002cad",
    "pinned_distance": "3a0cae0db832217e7b9e9d794f42432d9fd9c3279f08bff3f028c652c186d385",
    "robustness_sweep": "70ca6118e092b1c859aed814ad9e236d1dd5775d429b1ff98d373eb2a7010b3a",
    "rotate_fix_line": "85ef5005275f72a83c9c66ab33e63732ef641625910d6eff087e574e780edf65",
}


def test_every_scenario_is_pinned():
    assert sorted(p.stem for p in SCENARIO_DIR.glob("*.json")) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_bytes_match_the_pinned_hash(tmp_path, name):
    out = tmp_path / f"{name}.json"
    assert main(["run", str(SCENARIO_DIR / f"{name}.json"), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[name]


def lopsided_tree(depth):
    """Gap tree on [0, 1] whose every gap runs from a quarter to a half of
    its node, so the two children have different lengths."""
    hull = Interval(Fraction(0), Fraction(1))
    nodes, gaps = {"": hull}, {}
    for n in range(depth):
        for addr in addresses(n):
            iv = nodes[addr]
            gap = gaps[addr] = Interval(iv.lo + iv.length / 4, iv.lo + iv.length / 2)
            nodes[addr + "0"], nodes[addr + "1"] = Interval(iv.lo, gap.lo), Interval(gap.hi, iv.hi)
    return ExplicitGapTree(hull, depth, gaps)


EXPORTS = {
    "shifted": (
        lambda: ProductGeometry([middle_thirds(8), middle_thirds(8)], shift=(Fraction(1, 3), Fraction(-2, 5))),
        "6be763c7b15cc15813d537fb89189598bd01b14fdd8e210a5525eb29895a5983",
    ),
    "explicit": (
        lambda: ProductGeometry([lopsided_tree(7), lopsided_tree(7)]),
        "a82d5b78edd36a9291aee2c291dab869b82ce57a3cb01a7c949c2e86274b6d25",
    ),
    "axis-mixing": (
        lambda: ProductGeometry([middle_thirds(8), middle_thirds(8)], RotationMatrix.axis_mixing(2)),
        "cd6471f4bcaf24c611369346bc42075d16b9e7f7530d0e8fa2f9ea484d6f5746",
    ),
}


@pytest.mark.parametrize("name", sorted(EXPORTS))
def test_certificate_export_matches_the_pinned_hash(name):
    geometry, digest = EXPORTS[name]
    cert = und_certificate(build_nested_rep(geometry(), 2, 11, refine_step=3), max_k=2, depth=2)
    assert hashlib.sha256(cert.to_json().encode()).hexdigest() == digest
