"""Scenario configs for the four benchmark workloads, made from a seed.

Each workload is a list of operations.  An operation is one scenario
config passed to ``cantorforge.cli.run_scenario``; some operations also
re-check the exported certificate with ``verify_certificate``.  Next to
each config the operation carries what its checks need to know about the
inputs (hull offsets, margins, grid ranges), so the checks never read
them back from the report they are checking.

The seed moves inputs without changing the amount of work:

* the plain squares and the interior-1d set sit on the hull [s, s + 1]
  for an integer offset s.  Integer offsets move every dyadic cube index
  by a whole number, so covers, components and chains keep their shape;
* the sweep's lambda range slides by a multiple of 1/400 that stays
  inside the dominance slack and the hull margin.  Its set stays on
  [0, 1], since the sweep scales the companion about 0;
* the alpha = 2 distance grid slides its c range by a multiple of 1/1000;
* the mapped geometry and rotate-fix take the seed as their config seed,
  which picks the quasi-random rotation candidates.

Two inputs never depend on the seed: the erdos-demo family, whose
in-slack |lambda| > 1 maps fail on every run (see README.md), and the
alpha = 3/2 distance grid, whose cost in ``iroot_floor`` depends on the
exact digits of its radicands.
"""

from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("deep-square", "kappa-square", "mapped-square", "chains-1d")

MARGIN = Fraction(1, 10)  # companion margin, the cli default
SHRINK = Fraction(1, 2)  # companion gap factor, the cli default


def _rat(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _thirds(depth: int, offset: int) -> dict:
    return {"kind": "middle-thirds", "depth": depth, "hull": [offset, offset + 1]}


def _op(name, config, check, verify=False, **expect):
    return {"name": name, "config": config, "check": check, "verify": verify, "expect": expect}


def _deep_square(rng, tiny):
    s = rng.randrange(-4, 5)
    tree, max_level, step, max_k, depth, grid = (8, 11, 3, 2, 3, 3) if tiny else (24, 30, 2, 3, 6, 9)
    params = {
        "geometry": {"factors": [_thirds(tree, s), _thirds(tree, s)]},
        "m0": 2,
        "max_level": max_level,
        "refine_step": step,
        "max_k": max_k,
        "depth": depth,
        "levels": depth,
        "grid": grid,
    }
    config = {"pipeline": "interior-rd", "params": params}
    return [_op("interior-rd", config, "interior_rd", hull=(s, s + 1), depth=depth, grid=grid)]


def _kappa_square(rng, tiny):
    s = rng.randrange(-4, 5)
    tree, max_level, depth = (8, 11, 3) if tiny else (14, 20, 5)
    params = {
        "geometry": {"factors": [_thirds(tree, s), _thirds(tree, s)]},
        "m0": 2,
        "max_level": max_level,
        "refine_step": 3,
        "kappa": 9,
        "max_k": 2,
        "depth": depth,
    }
    config = {"pipeline": "nondegeneracy", "params": params}
    return [_op("nondegeneracy", config, "kappa_square", verify=True, depth=depth)]


def _mapped_square(rng, tiny, seed):
    tree, max_level, step, max_k, depth = (8, 14, 2, 3, 2) if tiny else (16, 22, 3, 2, 4)
    mapped = {
        "pipeline": "nondegeneracy",
        "seed": seed,
        "params": {
            "geometry": {
                "factors": [_thirds(tree, 0), _thirds(tree, 0)],
                "matrix": "axis-mixing",
            },
            "m0": 2,
            "max_level": max_level,
            "refine_step": step,
            "max_k": max_k,
            "depth": depth,
        },
    }
    rot_tree, rot_level, rot_depth = (8, 10, 2) if tiny else (16, 20, 4)
    rotate = {
        "pipeline": "rotate-fix",
        "seed": seed,
        "params": {
            "geometry": {"factors": [_thirds(rot_tree, 0), {"kind": "point", "value": 0}]},
            "max_level": rot_level,
            "refine_step": 2,
            "kappa": "11/10",
            "max_k": 4,
            "depth": rot_depth,
        },
    }
    return [
        _op("nondegeneracy-mapped", mapped, "mapped_square", verify=True, depth=depth),
        _op("rotate-fix", rotate, "rotate_fix", depth=rot_depth),
    ]


def _chains_1d(rng, tiny):
    levels = 12 if tiny else 24
    s_interior = rng.randrange(-4, 5)
    lam_lo = Fraction(19, 20) + Fraction(rng.randrange(0, 9), 400)
    lam_range = (lam_lo, lam_lo + Fraction(1, 10))
    t_range = (Fraction(-1, 25), Fraction(1, 25))
    side = 3 if tiny else 11
    sweep = {
        "pipeline": "sweep-1d",
        "params": {
            "set": _thirds(levels, 0),
            "levels": levels,
            "lambda_range": [_rat(x) for x in lam_range],
            "t_range": [_rat(x) for x in t_range],
            "lambda_count": side,
            "t_count": side,
        },
    }
    translates = 11 if tiny else 201
    interior = {
        "pipeline": "interior-1d",
        "params": {"set": _thirds(levels, s_interior), "levels": levels, "grid": translates},
    }
    erdos_depth = 8 if tiny else 16
    erdos = {
        "pipeline": "erdos-demo",
        "params": {
            "set": {"kind": "binary-ifs", "hull": [0, 1], "ratio": "1/10", "depth": erdos_depth},
            "levels": erdos_depth,
            "family": {"kind": "demo-grid", "count": 400, "t_step": "1/80"},
            "window": [-1, 7],
        },
    }
    c_shift = Fraction(rng.randrange(-5, 6), 1000)
    c_range = (Fraction(19, 20) + c_shift, Fraction(21, 20) + c_shift)
    dist_depth, dist_grid = (8, 5) if tiny else (16, 51)
    square = {
        "pipeline": "distance-demo",
        "params": {
            "alpha": 2,
            "dimension": 2,
            "depth": dist_depth,
            "grid": dist_grid,
            "c_range": [_rat(x) for x in c_range],
            "tol": "1/100000000",
        },
    }
    cube = {
        "pipeline": "distance-demo",
        "params": {
            "alpha": "3/2",
            "dimension": 2,
            "depth": 6 if tiny else 12,
            "grid": 2,
            "tol": "1/100000000",
        },
    }
    return [
        _op("sweep-1d", sweep, "sweep_1d", levels=levels, offset=0,
            lam_range=lam_range, t_range=t_range, side=side),
        _op("interior-1d", interior, "interior_1d", levels=levels, offset=s_interior, grid=translates),
        _op("erdos-demo", erdos, "erdos", levels=erdos_depth),
        _op("distance-alpha-2", square, "distance", alpha=Fraction(2), grid=dist_grid,
            c_range=c_range),
        _op("distance-alpha-3/2", cube, "distance", alpha=Fraction(3, 2), grid=2,
            c_range=(Fraction(19, 20), Fraction(21, 20))),
    ]


def make_ops(workload: str, seed: int, tiny: bool = False) -> list[dict]:
    """The operations of one pass over ``workload``, from ``seed``."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "deep-square":
        return _deep_square(rng, tiny)
    if workload == "kappa-square":
        return _kappa_square(rng, tiny)
    if workload == "mapped-square":
        return _mapped_square(rng, tiny, seed)
    if workload == "chains-1d":
        return _chains_1d(rng, tiny)
    raise ValueError(f"unknown workload {workload!r}")
