"""The integer corner scan against the Fraction/Interval reference.

``integer_scan`` hands its cells to ``nested_rd._read_cells`` as the
``[num, den]`` pairs of an export and its matrix to ``_integer_rows``,
which put them over two common denominators, and ``_corner_ratio_scan``
scans their integer numerators, the steps that ``verify_certificate``
runs.  Without a matrix the scan takes each pair's difference box as its
one image.
``oracles.reference_corner_ratio_scan`` scans the same corners with
``Interval`` products and ``Fraction`` divisions.  Both must give the same
ratio bounds, or both must find a cell pair whose signs are not pinned, or
both must refuse a one-axis scan.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from cantorforge.cantor1d import Interval, rat_pair
from cantorforge.nested_rd import (
    DegeneratePair,
    RotationMatrix,
    _corner_ratio_scan,
    _integer_rows,
    _read_cells,
)

small = st.fractions(min_value=-2, max_value=2, max_denominator=6)
entries = st.one_of(st.just(Fraction(0)), small)
widths = st.sampled_from([Fraction(0), Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1)])
offsets = st.sampled_from([0, 1, -1, 2, -2, 3, -3, 5, -5])


def matrices(d: int):
    interval_entries = st.tuples(entries, st.sampled_from([Fraction(0), Fraction(1, 8), Fraction(1, 5)]))
    return st.one_of(
        st.none(),
        st.lists(st.lists(entries, min_size=d, max_size=d), min_size=d, max_size=d).map(
            lambda rows: RotationMatrix("rational", rows).rows
        ),
        st.lists(st.lists(interval_entries, min_size=d, max_size=d), min_size=d, max_size=d).map(
            lambda rows: tuple(tuple(Interval(a, a + w) for a, w in row) for row in rows)
        ),
        st.sampled_from([4, 64]).map(lambda bits: RotationMatrix.axis_mixing(d, bits).rows),
        st.tuples(st.integers(min_value=0, max_value=20), st.sampled_from([4, 64])).map(
            lambda t: RotationMatrix.quasi_random(d, *t).rows
        ),
    )


def cells(d: int):
    """Per-axis (lo, hi) rationals; a zero width is a point factor."""
    axis = st.tuples(small, widths).map(lambda t: (t[0], t[0] + t[1]))
    return st.lists(st.lists(axis, min_size=d, max_size=d), min_size=1, max_size=3)


@st.composite
def scans(draw):
    d = draw(st.sampled_from([1, 2, 3, 4]))
    cells_a = draw(cells(d))
    # Cells of b are drawn near a translate of a, so that some pairs keep
    # their signs and others touch or cross zero at a corner.
    shift = draw(st.lists(offsets, min_size=d, max_size=d))
    cells_b = [[(lo + s, hi + s) for (lo, hi), s in zip(cell, shift)] for cell in draw(cells(d))]
    return cells_a, cells_b, draw(matrices(d)), d


def integer_scan(cells_a, cells_b, rows, d):
    exported = [[[[rat_pair(lo), rat_pair(hi)] for lo, hi in cell] for cell in cells] for cells in (cells_a, cells_b)]
    _, (ints_a, ints_b) = _read_cells(exported, d)
    return _corner_ratio_scan(ints_a, ints_b, None if rows is None else _integer_rows(rows)[1], d)


def outcome(scan, *case):
    try:
        return scan(*case)
    except DegeneratePair:
        return "degenerate"
    except ValueError:
        return "one axis"


half = Fraction(1, 2)


@settings(max_examples=300)
@given(scans())
# the difference on axis 0 runs over [-1, 2]: its signs are not pinned
@example(([[(0, 2), (3, 3)]], [[(0, 1), (2, 2)]], None, 2))
# a corner of the difference sits at zero on axis 1, with and without a map
@example(([[(0, 1), (1, 2)]], [[(-3, -2), (0, 1)]], None, 2))
@example(([[(0, 1), (1, 2)]], [[(-3, -2), (0, 1)]], RotationMatrix.identity(2).rows, 2))
# a point factor and a map with negative and zero entries
@example(([[(half, half), (0, 1)]], [[(3, 3), (-4, -3)]], ((Interval.point(-1), Interval.point(0)), (Interval.point(2), Interval.point(1))), 2))
def test_integer_scan_matches_the_reference(case):
    assert outcome(integer_scan, *case) == outcome(oracles.reference_corner_ratio_scan, *case)


def test_a_difference_that_crosses_zero_is_degenerate():
    # |delta_1| / |delta_0| is unbounded once delta_0 runs over [-1, 2]
    with pytest.raises(DegeneratePair) as exc:
        integer_scan([[(0, 2), (3, 3)]], [[(0, 1), (2, 2)]], None, 2)
    assert exc.value.axis == 0
    # without a matrix, axes 0 and 2 keep their signs and axis 1 runs over [-1, 1]
    with pytest.raises(DegeneratePair) as exc:
        integer_scan([[(2, 3), (0, 1), (-4, -4)]], [[(0, 1), (0, 1), (1, 2)]], None, 3)
    assert exc.value.axis == 1
