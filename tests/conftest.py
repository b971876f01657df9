import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dipolespec import angular
from dipolespec.angular import AngularPotential, PolarGrid, count_at_most, full_spectrum
from dipolespec.radial import RadialGrid


def bound(matrix, count):
    """A point x with count_at_most(matrix, x) == count, by bisection on counts.

    Where no float64 x splits eigenvalues count and count + 1, the bisection
    ends on the first point found above both, whose count is larger.
    """
    lo, hi = -matrix.one_norm() - 1.0, matrix.one_norm() + 1.0  # counts 0 and M
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        n = count_at_most(matrix, mid)
        if n == count:
            return mid
        lo, hi = (mid, hi) if n < count else (lo, mid)
    return hi


@pytest.fixture(autouse=True)
def cold_axisymmetric_memo():
    """Every test starts without a remembered axisymmetric spectrum, whatever ran before."""
    angular._axisymmetric_memo.cache_clear()


@pytest.fixture(scope="session")
def dipole3_spectrum():
    """N=3 dipole at unit coupling, enough modes for field work."""
    grid = PolarGrid.build(3, 800)
    return full_spectrum(AngularPotential.dipole(1.0), 40, grid)


@pytest.fixture(scope="session")
def free3_spectrum():
    grid = PolarGrid.build(3, 600)
    return full_spectrum(AngularPotential.constant(0.0), 60, grid)


@pytest.fixture(scope="session")
def radial_grid():
    return RadialGrid.geometric(400, 1e-8, 1.0)
