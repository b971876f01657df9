import numpy as np
import pytest

from dipolespec.angular import AngularPotential, PolarGrid, full_spectrum
from dipolespec.asymptotics import (
    cauchy_coefficient_mode,
    cauchy_functional,
    manufactured_nonradial,
    measured_limit,
    parseval_residual,
    sandwich_check,
    synthesize_solution,
)
from dipolespec.errors import (
    DivergentIntegralError,
    InputError,
    NumericalError,
    ResolutionError,
)
from dipolespec.exponents import sigma_pair
from dipolespec.hardy import admissible_radius, lambda_n
from dipolespec.radial import (
    RadialGrid,
    RadialPerturbation,
    integrate_power_from_zero,
    solve_mode_picard,
)

R_GRID = (0.2, 0.35, 0.5, 0.7, 0.9)


def integrate_then_project(field, radii, k):
    """Reference Cauchy coefficient: the bracket on the whole (radius x polar
    node) field, both power-law integrals taken column by column, and the
    projection onto psi_k only at the end, row by row."""
    grid = field.spectrum.grid
    N = grid.dim
    sig = sigma_pair(N, field.spectrum.axisymmetric_mode(k).mu).sigma_plus
    gap = 2.0 * sig + N - 2.0
    rho = field.radial.points
    rows = [field.radial.nearest_index(r) for r in radii]
    data = field.source / rho[:, None] ** field.source_power

    def columnwise(alpha):
        return np.apply_along_axis(
            lambda col: integrate_power_from_zero(rho, alpha, col), 0, data)

    I1 = columnwise(1.0 - sig + field.source_power)[rows]
    I2 = columnwise(N - 1.0 + sig + field.source_power)[rows]
    psi = field.spectrum.axisymmetric_mode(k).psi(grid)
    values = []
    for j, i1, i2 in zip(rows, I1, I2):
        r = rho[j]
        bracket = r ** (-sig) * field.u[j] + i1 / gap - r ** (-gap) * i2 / gap
        values.append(float(grid.integrate(bracket * psi)))
    return values


@pytest.fixture(scope="module")
def nonradial_field(dipole3_spectrum, radial_grid):
    grid = dipole3_spectrum.grid
    g = 0.3 * dipole3_spectrum.axisymmetric_mode(2).psi(grid)
    return manufactured_nonradial(3, dipole3_spectrum, 1.0, g, radial_grid)


@pytest.fixture(scope="module")
def radial_field(dipole3_spectrum, radial_grid):
    mu1 = dipole3_spectrum.mu_1
    sig = sigma_pair(3, mu1).sigma_plus
    h = RadialPerturbation.manufactured(1.2, sig, 3)
    prof = solve_mode_picard(3, mu1, h, 1.0, radial_grid, tol=1e-13)
    return synthesize_solution([(1, prof)], dipole3_spectrum), h


@pytest.fixture(scope="module")
def mode2_field(dipole3_spectrum, radial_grid):
    mu2 = dipole3_spectrum.axisymmetric_mode(2).mu
    s2 = sigma_pair(3, mu2).sigma_plus
    h = RadialPerturbation.manufactured(1.0, s2, 3)
    prof = solve_mode_picard(3, mu2, h, 1.0, radial_grid, tol=1e-13)
    return synthesize_solution([(2, prof)], dipole3_spectrum), h


@pytest.fixture(scope="module")
def two_mode_field(dipole3_spectrum, radial_grid):
    """Modes 1 and 2 under one power perturbation, so the source is nonzero.

    eps = 1.5 exceeds the exponent gap of the two modes, so the mode-2
    bracket of the mode-1 source is integrable at zero.
    """
    h = RadialPerturbation.power(0.4, 1.5)
    profs = []
    for k in (1, 2):
        mu = dipole3_spectrum.axisymmetric_mode(k).mu
        profs.append((k, solve_mode_picard(3, mu, h, 1.0, radial_grid)))
    return synthesize_solution(profs, dipole3_spectrum)


class TestSynthesize:
    def test_single_mode_field(self, dipole3_spectrum, radial_grid):
        h = RadialPerturbation.zero()
        prof = solve_mode_picard(3, dipole3_spectrum.mu_1, h, 1.0, radial_grid)
        field = synthesize_solution([(1, prof)], dipole3_spectrum)
        psi1 = dipole3_spectrum.psi_1.psi(dipole3_spectrum.grid)
        expect = np.outer(radial_grid.points**field.sigma, psi1)
        assert np.allclose(field.u, expect, atol=1e-14)
        assert np.all(field.source == 0.0)

    def test_parseval_three_modes(self, dipole3_spectrum, radial_grid):
        h = RadialPerturbation.zero()
        profs = []
        for k in (1, 2, 3):
            mu = dipole3_spectrum.axisymmetric_mode(k).mu
            profs.append((k, solve_mode_picard(3, mu, h, 1.0, radial_grid)))
        field = synthesize_solution(profs, dipole3_spectrum)
        assert parseval_residual(field, profs) < 1e-6

    def test_mismatched_grids_rejected(self, dipole3_spectrum, radial_grid):
        h = RadialPerturbation.zero()
        p1 = solve_mode_picard(3, dipole3_spectrum.mu_1, h, 1.0, radial_grid)
        other = RadialGrid.geometric(200, 1e-6, 1.0)
        p2 = solve_mode_picard(3, dipole3_spectrum.axisymmetric_mode(2).mu, h, 1.0, other)
        with pytest.raises(InputError):
            synthesize_solution([(1, p1), (2, p2)], dipole3_spectrum)


class TestManufacturedNonradial:
    def test_zero_angular_part_gives_zero_source(self, dipole3_spectrum, radial_grid):
        field = manufactured_nonradial(
            3, dipole3_spectrum, 1.0, np.zeros(dipole3_spectrum.grid.size), radial_grid
        )
        assert np.all(field.source == 0.0)
        assert field.q_bound == 0.0

    def test_source_power_bounded(self, nonradial_field):
        # sup over samples of |q| rho^{2-eps} is finite and recorded
        assert 0 < nonradial_field.q_bound < 10.0

    def test_sign_violation_rejected(self, dipole3_spectrum, radial_grid):
        grid = dipole3_spectrum.grid
        g = -2.0 * np.ones(grid.size)
        with pytest.raises(InputError):
            manufactured_nonradial(3, dipole3_spectrum, 1.0, g, radial_grid)


class TestCauchyFunctional:
    def test_pure_ground_power(self, dipole3_spectrum, radial_grid):
        h = RadialPerturbation.zero()
        prof = solve_mode_picard(3, dipole3_spectrum.mu_1, h, 1.0, radial_grid)
        field = synthesize_solution([(1, prof)], dipole3_spectrum)
        for value in cauchy_functional(field, (0.2, 0.9)):
            assert value == pytest.approx(1.0, abs=1e-12)

    def test_radial_scenario_r_independent(self, radial_field):
        field, _ = radial_field
        vals = np.array(cauchy_functional(field, R_GRID))
        assert np.all(np.abs(vals - 1.0) < 1e-3)
        assert np.std(vals) <= 1e-3 * abs(np.mean(vals))

    def test_nonradial_scenario_r_independent(self, nonradial_field):
        vals = np.array(cauchy_functional(nonradial_field, R_GRID))
        assert np.all(np.abs(vals - 1.0) < 1e-3)
        assert np.std(vals) <= 1e-3 * abs(np.mean(vals))

    def test_matches_integrate_then_project(self, nonradial_field, radial_field,
                                            mode2_field, two_mode_field):
        # projecting the source first is the same bracket: the angular
        # quadrature commutes with the radial integrals
        radii = (0.05, 0.3, 0.55, 0.9)
        fields = (nonradial_field, radial_field[0], mode2_field[0], two_mode_field)
        compared = 0
        for field in fields:
            for k in (1, 2):
                try:
                    ref = integrate_then_project(field, radii, k)
                except DivergentIntegralError:
                    # the k = 2 bracket of a source decaying slower than the
                    # exponent gap: both routes refuse it
                    with pytest.raises(DivergentIntegralError):
                        cauchy_coefficient_mode(field, radii, k)
                    continue
                got = cauchy_coefficient_mode(field, radii, k)
                # atol: the leakage of a mode-2 field into k = 1 is rounding
                np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-14)
                compared += 1
        assert compared == 6

    def test_limit_consistency(self, nonradial_field):
        # the functional value agrees with the measured limit
        table = measured_limit(nonradial_field)
        (val,) = cauchy_functional(nonradial_field, [0.5])
        assert abs(val - table.estimate) < 1e-3 * abs(val)

    def test_first_coefficient_route(self, nonradial_field, dipole3_spectrum):
        # the scaled ground-mode projection rho^{-sigma} int u psi_1 dV
        # extrapolates to the same value as the functional
        grid = dipole3_spectrum.grid
        psi1 = nonradial_field.psi_1()
        rho = nonradial_field.radial.points
        proj = np.array([
            rho[j] ** (-nonradial_field.sigma) * grid.integrate(nonradial_field.u[j] * psi1)
            for j in range(3)
        ])
        d1, d2 = proj[1] - proj[0], proj[2] - proj[1]
        extrapolated = proj[0] - d1 * (d1 / d2) / (1 - d1 / d2) if d2 else proj[0]
        (val,) = cauchy_functional(nonradial_field, [0.5])
        assert abs(extrapolated - val) < 1e-3 * abs(val)




class TestModeCoefficient:
    def test_pure_power_mode(self, dipole3_spectrum, radial_grid):
        mu2 = dipole3_spectrum.axisymmetric_mode(2).mu
        h = RadialPerturbation.zero()
        prof = solve_mode_picard(3, mu2, h, 1.0, radial_grid)
        field = synthesize_solution([(2, prof)], dipole3_spectrum)
        assert cauchy_coefficient_mode(field, [0.5], 2) == pytest.approx([1.0], abs=1e-10)
        assert abs(cauchy_coefficient_mode(field, [0.5], 1)[0]) < 1e-8

    def test_manufactured_mode2_r_independent(self, mode2_field, dipole3_spectrum):
        field, _ = mode2_field
        vals = cauchy_coefficient_mode(field, (0.3, 0.6, 0.9), 2)
        assert max(vals) - min(vals) < 1e-4
        assert vals[0] == pytest.approx(1.0, abs=1e-6)

    def test_out_of_range_mode(self, mode2_field, dipole3_spectrum):
        field, _ = mode2_field
        with pytest.raises(InputError):
            cauchy_coefficient_mode(field, [0.5], 99)

    @pytest.mark.parametrize("name,k", [("mode2", 2), ("mode2", 1), ("nonradial", 1)])
    def test_radii_batch_matches_single_calls(self, mode2_field, nonradial_field, name, k):
        field = mode2_field[0] if name == "mode2" else nonradial_field
        radii = (0.9, 0.2, 0.55, 0.2)
        batch = cauchy_coefficient_mode(field, radii, k)
        assert batch == [cauchy_coefficient_mode(field, [r], k)[0] for r in radii]
        if k == 1:
            assert cauchy_functional(field, radii) == batch


class TestMeasuredLimit:
    def test_pure_ground_power(self, dipole3_spectrum, radial_grid):
        h = RadialPerturbation.zero()
        prof = solve_mode_picard(3, dipole3_spectrum.mu_1, h, 1.0, radial_grid)
        field = synthesize_solution([(1, prof)], dipole3_spectrum)
        table = measured_limit(field)
        assert table.estimate == pytest.approx(1.0, abs=1e-12)
        assert all(row[2] < 1e-12 for row in table.rows)

    def test_nonradial_defects_decay(self, nonradial_field):
        table = measured_limit(nonradial_field)
        assert table.estimate == pytest.approx(1.0, abs=1e-3)
        defects = [row[2] for row in table.rows]
        assert defects[0] <= defects[1] <= defects[2]

    def test_two_mode_leading_order(self, dipole3_spectrum, radial_grid):
        h = RadialPerturbation.zero()
        p1 = solve_mode_picard(3, dipole3_spectrum.mu_1, h, 1.0, radial_grid)
        mu2 = dipole3_spectrum.axisymmetric_mode(2).mu
        p2 = solve_mode_picard(3, mu2, h, 1.0, radial_grid)
        field = synthesize_solution([(1, p1), (2, p2)], dipole3_spectrum)
        table = measured_limit(field)
        # limit equals the ground-mode coefficient; subleading mode decays
        # with the exponent gap
        assert table.estimate == pytest.approx(1.0, abs=1e-6)
        gap = (sigma_pair(3, mu2).sigma_plus
               - sigma_pair(3, dipole3_spectrum.mu_1).sigma_plus)
        rows = table.rows
        ratio = rows[1][2] / rows[0][2]
        expect = (rows[1][0] / rows[0][0]) ** gap
        assert ratio == pytest.approx(expect, rel=0.05)

    def test_nonpositive_field_rejected(self, dipole3_spectrum, radial_grid):
        h = RadialPerturbation.zero()
        prof = solve_mode_picard(3, dipole3_spectrum.mu_1, h, -1.0, radial_grid)
        field = synthesize_solution([(1, prof)], dipole3_spectrum)
        with pytest.raises(NumericalError):
            measured_limit(field)


class TestSandwich:
    def test_ordering_at_half_admissible(self, nonradial_field, dipole3_spectrum):
        field = nonradial_field
        lam = lambda_n(3, dipole3_spectrum.potential, dipole3_spectrum.grid).lambda_n
        r_adm = admissible_radius(3, lam, field.q_bound, 1.0)
        rep = sandwich_check(field, 0.5)
        assert rep.admissible_radius == r_adm
        assert rep.radius == field.radial.points[
            field.radial.nearest_index(0.5 * min(r_adm, field.radial.r_out))]
        assert rep.ordered
        assert rep.max_lower_violation <= rep.slack
        assert rep.max_upper_violation <= rep.slack
        assert 0 < rep.power_lower <= rep.power_upper < np.inf

    def test_degenerate_collapse(self, dipole3_spectrum, radial_grid):
        field = manufactured_nonradial(
            3, dipole3_spectrum, 1.0, np.zeros(dipole3_spectrum.grid.size), radial_grid
        )
        rep = sandwich_check(field, 0.3)
        assert rep.radius == field.radial.points[field.radial.nearest_index(0.3)]
        assert rep.ordered
        assert rep.collapse_gap < 1e-10

    def test_mode_sum_rejected(self, radial_field):
        # a mode sum carries no perturbation bound to build the comparison from
        field, _ = radial_field
        assert field.q_bound is None
        with pytest.raises(InputError, match="manufactured nonradial"):
            sandwich_check(field, 0.5)

    def test_radius_gate(self, nonradial_field, dipole3_spectrum):
        field = nonradial_field
        for fraction in (1.5, 0.0, -0.5, float("nan")):
            with pytest.raises(InputError):
                sandwich_check(field, fraction)

    def test_coarse_trace_rejected(self, radial_grid):
        grid = PolarGrid.build(3, 400)
        spec = full_spectrum(3, AngularPotential.dipole(1.0), 24, grid)  # 4 modes
        g = 0.3 * spec.axisymmetric_mode(2).psi(grid)
        field = manufactured_nonradial(3, spec, 1.0, g, radial_grid)
        with pytest.raises(ResolutionError):
            sandwich_check(field, 0.5)
