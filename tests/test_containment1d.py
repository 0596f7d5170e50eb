from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from cantorforge.cantor1d import (
    Interval,
    SymmetricGapTree,
    affine_image,
    middle_thirds,
)
from cantorforge.containment1d import (
    ChainBroken,
    DominanceNotVerified,
    NoMargin,
    PerturbationSpec,
    build_companion,
    certify_difference_interior,
    check_dominance,
    dominance_slack,
    find_chain,
    grid_values,
    robustness_sweep,
)


def test_dominance_clean_for_half_gap_companion(thirds20, thirds_companion):
    report = check_dominance(thirds20, thirds_companion, 20)
    assert report.hull_contained
    assert report.overall
    for rec in report.levels:
        assert rec.passed
        assert rec.min_gap_k == Fraction(1, 3) ** (rec.level + 1)
        assert rec.max_gap_kt == rec.min_gap_k / 2


def test_dominance_fails_with_fat_gaps(thirds20):
    hull = Interval(Fraction(-1, 10), Fraction(11, 10))
    fat = SymmetricGapTree(hull, (Fraction(1, 2),) + tuple(Fraction(1, 3) ** (n + 1) / 2 for n in range(1, 5)))
    report = check_dominance(thirds20, fat, 5)
    assert not report.levels[0].passed
    assert report.levels[1].passed
    assert not report.overall


def test_dominance_fails_without_hull_containment(thirds20, thirds_companion):
    report = check_dominance(thirds_companion, thirds20, 10)
    assert not report.hull_contained
    assert not report.overall


def test_companion_geometry(thirds_companion):
    assert thirds_companion.hull == Interval(Fraction(-1, 10), Fraction(11, 10))
    for n in range(20):
        assert thirds_companion.gap_lengths[n] == Fraction(1, 3) ** (n + 1) / 2


def test_companion_rejects_bad_inputs(thirds20):
    with pytest.raises(ValueError):
        build_companion(thirds20, 20, Fraction(0), Fraction(1, 2))
    with pytest.raises(ValueError):
        build_companion(thirds20, 20, Fraction(1, 10), Fraction(1))
    from cantorforge.cantor1d import LevelOutOfRange

    with pytest.raises(LevelOutOfRange):
        build_companion(thirds20, 21, Fraction(1, 10), Fraction(1, 2))


def test_chain_nests_and_bounds(thirds20, thirds_companion):
    chain = find_chain(thirds20, thirds_companion, 20)
    assert len(chain.pairs) == 20
    for addr_k, addr_kt in chain.pairs:
        ik = thirds20.interval(addr_k)
        it = thirds_companion.interval(addr_kt)
        assert it.lo <= ik.lo and ik.hi <= it.hi
    final_k, final_kt = chain.final_addresses
    assert thirds20.interval(final_k).contains(chain.witness_k)
    assert thirds_companion.interval(final_kt).contains(chain.witness_kt)
    assert chain.bound == thirds_companion.level_lengths[20]
    assert abs(chain.witness_k - chain.witness_kt) <= chain.bound


def test_chain_demands_dominance(thirds20, thirds_companion):
    with pytest.raises(DominanceNotVerified):
        find_chain(thirds_companion, thirds20, 10)


def test_chain_breaks_when_companion_drifts(thirds20, thirds_companion):
    # shift the companion so far right that k's hull escapes
    moved = affine_image(thirds_companion, Fraction(1), Fraction(2))
    with pytest.raises(DominanceNotVerified):
        find_chain(thirds20, moved, 20)


def test_interior_is_exact(thirds20, thirds_companion):
    box = certify_difference_interior(thirds20, thirds_companion, 20)
    assert box == Interval(Fraction(-1, 10), Fraction(1, 10))


def test_interior_needs_margin(thirds20, thirds_companion):
    snug = affine_image(thirds_companion, Fraction(1), Fraction(1, 10))
    with pytest.raises(NoMargin):
        certify_difference_interior(thirds20, snug, 20)


def test_slack_is_two(thirds20, thirds_companion):
    assert dominance_slack(thirds20, thirds_companion, 20) == 2


@settings(max_examples=50)
@given(st.fractions(min_value=Fraction(-1, 10), max_value=Fraction(1, 10), max_denominator=9973))
def test_every_interior_translate_chains(thirds20, thirds_companion, t):
    moved = affine_image(thirds_companion, Fraction(1), t)
    chain = find_chain(thirds20, moved, 20)
    assert chain.bound < Fraction(1, 10**6)
    # cross-check with the cover-sweep oracle at level 12
    assert oracles.covers_intersect(
        oracles.thirds_cover(12),
        oracles.tree_cover(thirds_companion, 12),
        shift=t,
    )


def test_grid_values_spacing():
    vals = grid_values(Interval(Fraction(0), Fraction(1)), 5)
    assert vals == [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]
    assert grid_values(Interval(Fraction(2), Fraction(3)), 1) == [Fraction(2)]


def test_sweep_small_grid_all_ok(thirds20, thirds_companion):
    pert = PerturbationSpec(
        Interval(Fraction(19, 20), Fraction(21, 20)),
        Interval(Fraction(-1, 25), Fraction(1, 25)),
        5,
        5,
    )
    report = robustness_sweep(thirds20, thirds_companion, pert, 20)
    assert report.all_ok
    assert len(report.points) == 25
    assert report.slack_lambda == 2


def test_sweep_records_failures(thirds20, thirds_companion):
    pert = PerturbationSpec(
        Interval(Fraction(5, 2), Fraction(3)),  # scaled far beyond the slack
        Interval(Fraction(0), Fraction(0)),
        3,
        1,
    )
    report = robustness_sweep(thirds20, thirds_companion, pert, 20)
    assert not report.all_ok
    assert all(not p.ok and p.reason for p in report.points)


def test_perturbation_spec_validation():
    with pytest.raises(ValueError):
        PerturbationSpec(
            Interval(Fraction(1), Fraction(2)),
            Interval(Fraction(0), Fraction(1)),
            0,
            5,
        )
