import json
from fractions import Fraction
from io import StringIO

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from cantorforge.applications import HSpec, MonotoneImageTree, _slice_derivative_data
from cantorforge.cantor1d import (
    ExplicitGapTree,
    GapConstraintViolation,
    Interval,
    LevelOutOfRange,
    SymmetricGapTree,
    ZeroScale,
    addresses,
    affine_image,
    as_rat,
    build_binary_ifs,
    canonical_json,
    middle_thirds,
    rat_from_pair,
    rat_pair,
    tree_from_json_obj,
    write_intervals_csv,
)


def test_as_rat_accepts_exact_forms():
    assert as_rat(3) == 3
    assert as_rat("1/3") == Fraction(1, 3)
    assert as_rat(Fraction(7, 2)) == Fraction(7, 2)


def test_as_rat_refuses_floats():
    with pytest.raises(TypeError, match="refusing float input"):
        as_rat(0.1)


def test_interval_basics():
    iv = Interval(Fraction(-1, 2), Fraction(3, 2))
    assert iv.length == 2
    assert iv.midpoint() == Fraction(1, 2)
    assert iv.contains(Fraction(0))
    assert not iv.contains(Fraction(2))
    with pytest.raises(ValueError):
        Interval(Fraction(1), Fraction(0))


def test_addresses_are_binary_and_ordered():
    addrs = list(addresses(3))
    assert len(addrs) == 8
    assert addrs == sorted(addrs)
    assert addrs[0] == "000" and addrs[-1] == "111"
    assert list(addresses(0)) == [""]


def test_thirds_cover_matches_ternary_oracle():
    tree = middle_thirds(8)
    for level in (1, 2, 5, 8):
        got = oracles.tree_cover(tree, level)
        assert got == oracles.thirds_cover(level)


def test_thirds_gap_is_middle_third():
    tree = middle_thirds(4)
    g = tree.gap("")
    assert (g.lo, g.hi) == (Fraction(1, 3), Fraction(2, 3))
    g = tree.gap("10")
    iv = tree.interval("10")
    assert g.lo - iv.lo == iv.hi - g.hi == iv.length / 3


feasible_gap_lists = st.integers(min_value=1, max_value=8).flatmap(
    lambda depth: st.lists(
        st.fractions(min_value=Fraction(1, 50), max_value=Fraction(9, 10), max_denominator=50),
        min_size=depth,
        max_size=depth,
    )
)


@given(feasible_gap_lists)
def test_symmetric_recurrence(fractions_of_level):
    """Level lengths follow L_{n+1} = (L_n - g_n)/2 whenever construction
    succeeds; infeasible requests must raise instead of silently clamping."""
    hull = Interval(Fraction(0), Fraction(1))
    lengths = [Fraction(1)]
    gaps = []
    for f in fractions_of_level:
        gaps.append(f * lengths[-1])
        lengths.append((lengths[-1] - gaps[-1]) / 2)
    tree = SymmetricGapTree(hull, tuple(gaps))
    assert tree.level_lengths == tuple(lengths)
    for n in range(tree.depth):
        assert tree.level_min_gap(n) == tree.level_max_gap(n) == gaps[n]
        # every node interval at level n has the common length
        assert tree.interval("0" * n).length == lengths[n]
        assert tree.interval("1" * n).length == lengths[n]


def test_infeasible_gap_raises_with_level():
    with pytest.raises(GapConstraintViolation):
        SymmetricGapTree(Interval(Fraction(0), Fraction(1)), (Fraction(1, 3), Fraction(1, 2)))


def test_binary_ifs_third_equals_middle_thirds():
    assert build_binary_ifs(Interval(Fraction(0), Fraction(1)), Fraction(1, 3), 9) == middle_thirds(9)


def test_binary_ifs_rejects_bad_ratio():
    from cantorforge.cantor1d import InvalidRatio

    with pytest.raises(InvalidRatio):
        build_binary_ifs(Interval(Fraction(0), Fraction(1)), Fraction(1, 2), 3)


@settings(max_examples=60)
@given(
    st.fractions(min_value=Fraction(-4), max_value=4, max_denominator=40).filter(lambda l: l != 0),
    st.fractions(min_value=-3, max_value=3, max_denominator=40),
    st.integers(min_value=1, max_value=5),
)
def test_affine_image_moves_every_cover(lam, t, level):
    base = middle_thirds(5)
    img = affine_image(base, lam, t)
    want = sorted(
        (min(lam * lo + t, lam * hi + t), max(lam * lo + t, lam * hi + t))
        for lo, hi in oracles.tree_cover(base, level)
    )
    assert oracles.tree_cover(img, level) == want


@pytest.mark.parametrize("lam", [Fraction(1), Fraction(-1), Fraction(101, 100), Fraction(-3, 7)])
@pytest.mark.parametrize("t", [Fraction(0), Fraction(5, 3), Fraction(-2, 9)])
@settings(max_examples=15)
@given(st.text(alphabet="01", max_size=12))
def test_scaled_symmetric_image_equals_the_rederived_tree(lam, t, addr):
    base = build_binary_ifs(Interval(Fraction(-1, 3), Fraction(7, 5)), Fraction(2, 7), 12)
    img = affine_image(base, lam, t)
    rederived = SymmetricGapTree(img.hull, tuple(abs(lam) * g for g in base.gap_lengths))
    assert img.hull == Interval(min(lam * base.hull.lo, lam * base.hull.hi) + t,
                                max(lam * base.hull.lo, lam * base.hull.hi) + t)
    assert img.gap_lengths == rederived.gap_lengths
    assert img.level_lengths == rederived.level_lengths
    assert img == rederived
    assert img.interval(addr) == rederived.interval(addr)
    if abs(lam) == 1:
        assert img.gap_lengths == base.gap_lengths
        assert img.level_lengths == base.level_lengths


def test_affine_image_zero_scale():
    with pytest.raises(ZeroScale):
        affine_image(middle_thirds(3), Fraction(0), Fraction(1))


def test_reflection_is_an_involution():
    base = middle_thirds(6)
    back = affine_image(affine_image(base, Fraction(-1), Fraction(0)), Fraction(-1), Fraction(0))
    assert oracles.tree_cover(back, 6) == oracles.tree_cover(base, 6)


def test_split_interval_agrees_with_interval():
    tree = middle_thirds(6)
    for addr in ("", "0", "10", "011"):
        iv = tree.interval(addr)
        (a0, lo0, hi0), (a1, lo1, hi1) = tree.split_interval(addr, iv.lo, iv.hi)
        assert (lo0, hi0) == (tree.interval(a0).lo, tree.interval(a0).hi)
        assert (lo1, hi1) == (tree.interval(a1).lo, tree.interval(a1).hi)


@settings(max_examples=40)
@given(
    feasible_gap_lists,
    st.fractions(min_value=-3, max_value=3, max_denominator=9),
    st.fractions(min_value=Fraction(1, 7), max_value=5, max_denominator=9),
)
def test_symmetric_level_scan_matches_interval(fractions_of_level, lo, width):
    """The split-based level scan gives the per-address ``interval`` of
    every address, in address order, at every level: of a symmetric tree,
    of an explicit tree with off-center gaps, and of an increasing and a
    decreasing slice image, whose ``split_interval`` maps base nodes."""
    hull = Interval(lo, lo + width)
    gaps = []
    length = width
    for f in fractions_of_level:
        gaps.append(f * length)
        length = (length - gaps[-1]) / 2
    tree = SymmetricGapTree(hull, tuple(gaps))
    # Each node's gap starts a third of the way into what it leaves free.
    nodes, off_center = {"": hull}, {}
    for n, f in enumerate(fractions_of_level):
        for addr in addresses(n):
            iv = nodes[addr]
            start = iv.lo + iv.length * (1 - f) / 3
            off_center[addr] = Interval(start, start + f * iv.length)
            nodes[addr + "0"], nodes[addr + "1"] = Interval(iv.lo, start), Interval(start + f * iv.length, iv.hi)
    explicit = ExplicitGapTree(hull, tree.depth, off_center)
    trees = [tree, explicit]
    # An affine-sum slice y = c - lam x decreases for lam > 0.
    for base, lam in ((tree, Fraction(-2)), (explicit, Fraction(3, 2))):
        spec = HSpec("affine-sum", Interval.point(lam), hull)
        data = _slice_derivative_data(spec, spec.lam_box, Interval.point(Fraction(1)), hull, 64)
        assert data.decreasing == (lam > 0)
        trees.append(MonotoneImageTree(base, spec, lam, Fraction(1), data))
    for t in trees:
        for n in range(t.depth + 1):
            assert list(t.level_intervals(n)) == [t.interval(a) for a in addresses(n)]
        with pytest.raises(LevelOutOfRange):
            list(t.level_intervals(t.depth + 1))


def test_level_out_of_range():
    tree = middle_thirds(3)
    with pytest.raises(LevelOutOfRange):
        tree.interval("0000")
    with pytest.raises(LevelOutOfRange):
        tree.gap("000")
    with pytest.raises(LevelOutOfRange):
        tree.level_min_gap(3)


def test_symmetric_json_round_trip(thirds20):
    text = thirds20.to_json()
    again = tree_from_json_obj(json.loads(text))
    assert isinstance(again, SymmetricGapTree)
    assert again == thirds20
    assert again.to_json() == text


def test_explicit_json_round_trip():
    src = middle_thirds(3)
    explicit = ExplicitGapTree(src.hull, 3, {a: src.gap(a) for a in ("", "0", "1", "00", "01", "10", "11")})
    obj = json.loads(explicit.to_json())
    again = tree_from_json_obj(obj)
    assert isinstance(again, ExplicitGapTree)
    assert again == explicit
    assert again.to_json() == explicit.to_json()


def _explicit_depth1_obj():
    src = middle_thirds(1)
    return ExplicitGapTree(src.hull, 1, {"": src.gap("")}).to_json_obj()


def test_explicit_json_refuses_two_gaps_for_one_node():
    obj = _explicit_depth1_obj()
    obj["gaps"].append({"addr": "", "lo": [1, 4], "hi": [1, 2]})
    with pytest.raises(ValueError, match="two gaps for node ''"):
        tree_from_json_obj(obj)


def test_explicit_json_refuses_a_gap_at_no_node():
    # "0" is a leaf of a depth-1 tree and "0101" lies below it: neither has a gap
    for addr in ("0", "0101"):
        obj = _explicit_depth1_obj()
        obj["gaps"].append({"addr": addr, "lo": [1, 9], "hi": [2, 9]})
        with pytest.raises(ValueError, match=f"gap for '{addr}', which is not a node of a depth-1 tree"):
            tree_from_json_obj(obj)


def test_explicit_validation_catches_straddle():
    src = middle_thirds(2)
    gaps = {a: src.gap(a) for a in ("", "0", "1")}
    gaps["0"] = Interval(Fraction(1, 4), Fraction(1, 2))  # pokes past its node
    with pytest.raises(GapConstraintViolation):
        ExplicitGapTree(src.hull, 2, gaps)


def test_canonical_json_is_stable():
    s = canonical_json({"b": [1, 2], "a": {"y": None, "x": "s"}})
    assert s == '{"a":{"x":"s","y":null},"b":[1,2]}'
    assert " " not in s


@given(st.fractions(max_denominator=10**9))
def test_rat_pair_round_trip(x):
    assert rat_from_pair(rat_pair(x)) == x


@pytest.mark.parametrize("pair", [[1.9, 3], [1, 3.0], [True, 3], [1, 0], [1, 2, 3]])
def test_rat_from_pair_refuses_non_integer_pairs(pair):
    with pytest.raises(ValueError):
        rat_from_pair(pair)


def test_intervals_csv_shape():
    buf = StringIO()
    rows = write_intervals_csv(middle_thirds(4), 2, buf)
    lines = buf.getvalue().strip().splitlines()
    assert rows == 4
    assert lines[0] == "addr,lo_num,lo_den,hi_num,hi_den"
    assert lines[1] == "00,0,1,1,9"
    assert len(lines) == 5
