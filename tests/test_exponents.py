import math

import pytest
from hypothesis import given, strategies as st

from dipolespec.errors import InputError
from dipolespec.exponents import classical_hardy_constant, sigma_pair


def test_mu_zero_roots():
    for N in (3, 4, 7, 10):
        e = sigma_pair(N, 0.0)
        assert e.sigma_plus == 0.0
        assert e.sigma_minus == -(N - 2)


def test_degenerate_double_root():
    e = sigma_pair(3, -0.25)
    assert e.sigma_plus == pytest.approx(-0.5, abs=1e-15)
    assert e.sigma_minus == pytest.approx(-0.5, abs=1e-15)
    assert e.degenerate


def test_classical_hardy_constant():
    for N in range(3, 344):
        assert classical_hardy_constant(N) == (N - 2) ** 2 / 4


def test_the_classical_constant_is_the_degenerate_threshold():
    for N in range(3, 344):
        e = sigma_pair(N, -classical_hardy_constant(N))
        assert e.degenerate
        assert e.sigma_plus == e.sigma_minus == -(N - 2) / 2


def test_quadratic_residual_n4_mu5():
    e = sigma_pair(4, 5.0)
    assert e.sigma_plus == pytest.approx(math.sqrt(6) - 1, abs=1e-12)
    residual = e.sigma_plus**2 + 2 * e.sigma_plus - 5.0
    assert abs(residual) < 1e-12


def test_negative_discriminant_rejected():
    with pytest.raises(InputError):
        sigma_pair(3, -0.26)


def test_low_dimension_rejected():
    with pytest.raises(InputError):
        sigma_pair(2, 0.0)


def test_spectrum_exponents_all_real(dipole3_spectrum):
    # subcritical coupling: the ground value sits above -((N-2)/2)^2, so
    # every mode of the spectrum has real exponents and sigma_1 > -(N-2)/2
    first = sigma_pair(3, dipole3_spectrum.mu_1)
    assert first.sigma_plus > -(3 - 2) / 2
    for mu in dipole3_spectrum.flattened():
        e = sigma_pair(3, float(mu))
        assert not e.degenerate
        assert e.discriminant > 0


@given(
    N=st.integers(min_value=3, max_value=12),
    mu=st.floats(min_value=-0.2, max_value=1e4, allow_nan=False),
)
def test_root_identities(N, mu):
    half2 = ((N - 2) / 2.0) ** 2
    if half2 + mu < 1e-10:
        return
    e = sigma_pair(N, mu)
    assert e.sigma_plus + e.sigma_minus == pytest.approx(-(N - 2), abs=1e-12)
    prod = e.sigma_plus * e.sigma_minus
    assert prod == pytest.approx(-mu, rel=1e-12, abs=1e-12)
    assert e.sigma_plus >= e.sigma_minus
    # the gap is the denominator of the representation formulas
    assert e.gap == pytest.approx(2 * e.sigma_plus + N - 2, rel=1e-13)
