"""The 1-D trial loops and their single dominance gate.

Each trial of ``robustness_sweep``, ``verify_H_interior`` and
``erdos_obstruction`` is decided by ``find_chain``: its failure reasons
come from the ``DominanceReport`` that ``find_chain`` raises with, and a
trial that reaches ``find_chain`` makes exactly one dominance check.
"""

import dataclasses
from collections import Counter
from fractions import Fraction

import pytest

import cantorforge
from cantorforge import applications, cantor1d, cli, containment1d, containment_rd, dyadic, nested_rd
from cantorforge.applications import HSpec, erdos_obstruction, nonlinear_companion, verify_H_interior
from cantorforge.cantor1d import Interval, SymmetricGapTree, build_binary_ifs, middle_thirds
from cantorforge.containment1d import PerturbationSpec, robustness_sweep

MODULES = (cantorforge, cantor1d, containment1d, nested_rd, containment_rd, applications, dyadic, cli)
WINDOW = Interval(Fraction(-1), Fraction(6))
AFFINE = HSpec("affine-sum", Interval(Fraction(1), Fraction(1)), Interval(Fraction(0), Fraction(1)))


def _rebind(monkeypatch, original, replacement):
    """Bind ``replacement`` wherever a module binds ``original``."""
    for module in MODULES:
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, replacement)


@pytest.fixture
def calls(monkeypatch):
    """Counts of ``check_dominance`` and ``find_chain`` calls."""
    counts = Counter()
    for name in ("check_dominance", "find_chain"):
        original = getattr(containment1d, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        _rebind(monkeypatch, original, counted)
    return counts


def _erdos_base():
    return build_binary_ifs(Interval(Fraction(0), Fraction(1)), Fraction(1, 10), 12)


def _erdos_family(count):
    return [(Fraction(99, 100) + i * Fraction(1, 5000), i * Fraction(1, 20)) for i in range(count)]


def _slice_companion_failing_at_level_2():
    """Companion of middle_thirds(8) whose level-2 gap is longer than the
    slice image's (1/27 at slope 1), while levels 0 and 1 dominate."""
    k1 = middle_thirds(8)
    k2 = nonlinear_companion(k1, AFFINE, AFFINE.lam_box, Interval(Fraction(9, 10), Fraction(11, 10)))
    gaps = list(k2.gap_lengths)
    gaps[2] = Fraction(1, 20)
    return k1, SymmetricGapTree(k2.hull, tuple(gaps))


def test_sweep_reasons_come_from_the_chain(thirds20, thirds_companion):
    pert = PerturbationSpec(
        Interval(Fraction(1), Fraction(5, 2)),  # 5/2 is beyond the slack of 2
        Interval(Fraction(0), Fraction(1, 2)),  # t = 1/2 moves the hull off [0, 1]
        2,
        2,
    )
    report = robustness_sweep(thirds20, thirds_companion, pert, 20)
    assert [(p.lam, p.t, p.reason) for p in report.points] == [
        (1, 0, None),
        (1, Fraction(1, 2), "hull"),
        (Fraction(5, 2), 0, "dominance"),
        (Fraction(5, 2), Fraction(1, 2), "hull"),
    ]


def test_slice_grid_reasons_name_the_first_failing_level():
    k1, k2 = _slice_companion_failing_at_level_2()
    # c = 3 maps k1 onto [2, 3], outside the companion hull
    report = verify_H_interior(AFFINE, k1, k2, [Fraction(1), Fraction(3)], [Fraction(1)], 8, 0)
    assert [p.reason for p in report.points] == ["dominance-2", "hull"]
    assert not any(p.ok for p in report.points)


def test_erdos_dominance_failure_is_recorded(monkeypatch):
    # In-slack maps always pass dominance against their translate, so the
    # failure is forged for every tree but k itself.
    k = _erdos_base()
    real = containment1d.check_dominance

    def forged(a, b, levels):
        report = real(a, b, levels)
        if a is k:
            return report
        failed = tuple(dataclasses.replace(rec, passed=False) for rec in report.levels)
        return dataclasses.replace(report, levels=failed, overall=False)

    _rebind(monkeypatch, real, forged)
    report = erdos_obstruction(k, _erdos_family(3), WINDOW, 12)
    assert [r.reason for r in report.records] == ["dominance"] * 3
    assert all(r.translate_index is not None for r in report.records)


def test_sweep_checks_once_per_chain(calls, thirds20, thirds_companion):
    pert = PerturbationSpec(
        Interval(Fraction(0), Fraction(5, 2)),
        Interval(Fraction(-1, 2), Fraction(1, 2)),
        6,
        5,
    )
    report = robustness_sweep(thirds20, thirds_companion, pert, 20)
    reasons = Counter(p.reason for p in report.points)
    assert reasons["zero-scale"] == 5 and reasons[None] and reasons["hull"] and reasons["dominance"]
    assert calls["find_chain"] == len(report.points) - reasons["zero-scale"]
    # one more check for the slack
    assert calls["check_dominance"] == calls["find_chain"] + 1


def test_slice_grid_checks_once_per_chain(calls):
    k1, k2 = _slice_companion_failing_at_level_2()
    c_values = [Fraction(1), Fraction(3)]
    report = verify_H_interior(AFFINE, k1, k2, c_values, [Fraction(1), Fraction(1, 2)], 8, 0)
    assert calls["find_chain"] == len(report.points) == 4
    assert calls["check_dominance"] == calls["find_chain"]


def test_erdos_checks_once_per_chain(calls):
    report = erdos_obstruction(_erdos_base(), _erdos_family(20), WINDOW, 12)
    assert report.all_ok
    assert calls["find_chain"] == len(report.records)
    # one check for the certified interval, one for the slack
    assert calls["check_dominance"] == calls["find_chain"] + 2
