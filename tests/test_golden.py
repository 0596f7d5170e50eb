"""The nine golden scenario reports, pinned byte for byte.

Each hash is the sha256 of the report ``cantor-forge run`` writes for the
scenario at default settings.  A change that moves any certified number,
or the layout of a report, shows here; the determinism tests elsewhere
only compare two runs of the same code.
"""

import hashlib
from pathlib import Path

import pytest

from cantorforge.cli import main

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
