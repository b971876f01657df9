import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dipolespec import radial
from dipolespec.asymptotics import cauchy_coefficient_mode, synthesize_solution
from dipolespec.errors import (
    DivergentIntegralError,
    InputError,
    NonContractionError,
    NumericalError,
)
from dipolespec.exponents import sigma_pair
from dipolespec.radial import (
    RadialGrid,
    RadialPerturbation,
    extrapolate_geometric,
    integrate_power_from_zero,
    limit_coefficient,
    solve_mode_bvp,
    solve_mode_picard,
)

N, MU = 3, 2.0
SIGMA = sigma_pair(N, MU).sigma_plus  # 1.0
GAP = sigma_pair(N, MU).gap           # 3.0


def manufactured_exact(rho, beta):
    return rho**SIGMA * (1 + rho**beta)


def ode_residual(profile, N: int, mu: float) -> np.ndarray:
    """Pointwise residual of phi'' + (N-1)/rho phi' - mu/rho^2 phi + h phi.

    Nonuniform three-point differences at the interior nodes; the residual
    decays at second order in the logarithmic step away from zero.
    """
    h = profile.perturbation
    rho, phi = profile.grid.points, profile.values
    hm = rho[1:-1] - rho[:-2]
    hp = rho[2:] - rho[1:-1]
    denom = hm * hp * (hm + hp)
    d2 = 2.0 * (hm * phi[2:] - (hm + hp) * phi[1:-1] + hp * phi[:-2]) / denom
    d1 = (hm**2 * phi[2:] + (hp**2 - hm**2) * phi[1:-1] - hp**2 * phi[:-2]) / denom
    mid = rho[1:-1]
    return (
        d2
        + (N - 1) / mid * d1
        - mu / mid**2 * phi[1:-1]
        + h.values(mid) * phi[1:-1]
    )


def reference_picard(exps, h, rho, tol=1e-12):
    """Unit-coefficient Picard solve that integrates from zero on every sweep."""
    sp, sm, D = exps.sigma_plus, exps.sigma_minus, exps.gap

    def integrals(phi):
        data = h.data(rho) * (phi / rho**sp)
        return [integrate_power_from_zero(rho, 1.0 - s + h.singular_power + sp, data)
                for s in (sp, sm)]

    phi, dist, it = rho**sp, 0.0, 1
    while not h.is_zero:
        Ip, Im = integrals(phi)
        new = rho**sp * (1.0 - Ip / D) + rho**sm * (Im / D)
        dist = float(np.max(np.abs(new - phi)))
        phi = new
        if dist <= tol:
            break
        it += 1
    Ip, Im = integrals(phi) if not h.is_zero else ([0.0], [0.0])
    return {"values": phi, "c1": 1.0 - float(Ip[-1]) / D, "c2": float(Im[-1]) / D,
            "residual": dist, "iterations": it}


class TestGridAndQuadrature:
    def test_geometric_grid_shape(self, radial_grid):
        assert radial_grid.size == 400
        assert radial_grid.points[0] == pytest.approx(1e-8)
        assert radial_grid.r_out == 1.0
        ratios = radial_grid.points[1:] / radial_grid.points[:-1]
        assert np.allclose(ratios, ratios[0], rtol=1e-12)

    def test_grid_validation(self):
        with pytest.raises(InputError):
            RadialGrid(np.array([0.0, 0.5, 1.0]))
        with pytest.raises(InputError):
            RadialGrid.geometric(400, 1.0, 0.5)

    def test_power_quadrature_exact_on_powers(self, radial_grid):
        # int_0^r s^alpha * s ds with linear data factor s: exact
        rho = radial_grid.points
        got = integrate_power_from_zero(rho, 0.5, rho)
        assert np.allclose(got, rho**2.5 / 2.5, rtol=1e-13)

    def test_divergent_power_rejected(self, radial_grid):
        with pytest.raises(DivergentIntegralError):
            integrate_power_from_zero(radial_grid.points, -1.0, np.ones(400))


class TestExtrapolation:
    @pytest.mark.parametrize("c,A,q", [(1.0, 0.3, 0.5), (-2.5, -4.0, 0.9), (0.7, 1e-3, 0.01)])
    def test_exact_on_geometric_defects(self, c, A, q):
        # defect shrinking by q per step toward the origin, samples ordered outward
        samples = [c + A * q**j for j in (2, 1, 0)]
        # rounding of the samples is amplified by the conditioning 1/(1-q)^2
        rounding = 8 * np.finfo(float).eps * (abs(c) + abs(A)) / (1 - q) ** 2
        assert abs(extrapolate_geometric(*samples) - c) <= rounding

    @pytest.mark.parametrize("samples", [(1.0, 2.0, 2.5), (1.0, 1.0, 1.0), (1.0, 0.5, 0.9)])
    def test_non_geometric_returns_first(self, samples):
        assert extrapolate_geometric(*samples) == samples[0]


class TestPerturbation:
    def test_power_values(self):
        h = RadialPerturbation.power(2.0, 0.5)
        s = np.array([0.25, 1.0])
        assert h.values(s) == pytest.approx(2.0 * s**-1.5)

    @pytest.mark.parametrize("make", [
        radial.check_eps,
        lambda x: RadialPerturbation.power(1.0, x),
        lambda x: RadialPerturbation.manufactured(x, SIGMA, N),
    ])
    def test_nan_is_not_positive(self, make):
        with pytest.raises(InputError, match="must be positive"):
            make(float("nan"))

    def test_manufactured_carries_pde_sign(self):
        h = RadialPerturbation.manufactured(1.0, SIGMA, N)
        # coefficient -beta(beta + 2 sigma + N - 2) = -(1 + 3) = -4
        assert h.coeff == pytest.approx(-4.0)


class TestPicard:
    def test_zero_perturbation_exact(self, radial_grid):
        prof = solve_mode_picard(N, MU, RadialPerturbation.zero(), 1.0, radial_grid)
        assert np.array_equal(prof.values, radial_grid.points**SIGMA)
        assert prof.residual == 0.0

    def test_manufactured_oracle(self, radial_grid):
        beta = 1.5
        h = RadialPerturbation.manufactured(beta, SIGMA, N)
        prof = solve_mode_picard(N, MU, h, 1.0, radial_grid, tol=1e-13)
        exact = manufactured_exact(radial_grid.points, beta)
        assert np.max(np.abs(prof.values - exact) / exact) < 10 * 1e-13

    def test_representation_constants(self, radial_grid):
        # phi(R) = c1 + c2 at the outer radius for the upper-limit form
        beta = 1.5
        h = RadialPerturbation.manufactured(beta, SIGMA, N)
        prof = solve_mode_picard(N, MU, h, 1.0, radial_grid)
        assert prof.c1 == pytest.approx(2.0 + beta / GAP, rel=1e-12)
        assert prof.c2 == pytest.approx(-beta / GAP, rel=1e-12)
        assert prof.boundary_value == pytest.approx(prof.c1 + prof.c2, rel=1e-12)

    def test_linearity_in_coefficient(self, radial_grid):
        h = RadialPerturbation.power(0.5, 1.0)
        base = solve_mode_picard(N, MU, h, 1.0, radial_grid)
        scaled = solve_mode_picard(N, MU, h, -2.5, radial_grid)
        assert np.allclose(scaled.values, -2.5 * base.values, atol=1e-12)

    def test_noncontraction_error(self, radial_grid):
        h = RadialPerturbation.power(500.0, 1.0)
        with pytest.raises(NonContractionError):
            solve_mode_picard(N, MU, h, 1.0, radial_grid)

    def test_degenerate_exponents_rejected(self, radial_grid):
        with pytest.raises(InputError):
            solve_mode_picard(3, -0.25, RadialPerturbation.zero(), 1.0, radial_grid)

    def test_nan_tol_rejected(self, radial_grid):
        h = RadialPerturbation.power(0.5, 1.0)
        with pytest.raises(InputError, match="tol must be positive"):
            solve_mode_picard(N, MU, h, 1.0, radial_grid, tol=float("nan"))

    @pytest.mark.parametrize("dim", [3, 5])
    @pytest.mark.parametrize("form", ["zero", "power", "manufactured"])
    def test_same_bits_as_quadrature_every_sweep(self, radial_grid, dim, form):
        # the solver builds the phi-independent quadrature once per solve; a
        # loop that integrates from scratch every sweep gives the same bits
        exps = sigma_pair(dim, MU)
        h = {"zero": RadialPerturbation.zero(),
             "power": RadialPerturbation.power(0.4, 1.0),
             "manufactured": RadialPerturbation.manufactured(1.5, exps.sigma_plus, dim)}[form]
        prof = solve_mode_picard(dim, MU, h, 0.7, radial_grid)
        want = reference_picard(exps, h, radial_grid.points)
        assert prof.iterations == want["iterations"]
        assert np.array_equal(prof.values, 0.7 * want["values"])
        for name in ("c1", "c2", "residual"):
            assert getattr(prof, name) == 0.7 * want[name]

    def test_nonfinite_sweep_raises_at_once(self):
        # rho^{sigma_minus} = rho^{-2} overflows at 1e-300, so the first
        # sweep is not finite; it raises without a numpy warning
        grid = RadialGrid.geometric(40, 1e-300, 1.0)
        with pytest.raises(NumericalError, match="sweep 1 is not finite"):
            solve_mode_picard(N, MU, RadialPerturbation.power(1.0, 1.0), 1.0, grid)


class TestBvp:
    def test_zero_perturbation(self, radial_grid):
        prof = solve_mode_bvp(N, MU, RadialPerturbation.zero(), 1.0, radial_grid)
        assert np.allclose(prof.values, radial_grid.points**SIGMA)
        assert prof.c1 == pytest.approx(1.0)

    def test_manufactured_boundary_two(self, radial_grid):
        beta = 1.5
        h = RadialPerturbation.manufactured(beta, SIGMA, N)
        prof = solve_mode_bvp(N, MU, h, 2.0, radial_grid, tol=1e-13)
        exact = manufactured_exact(radial_grid.points, beta)
        assert np.max(np.abs(prof.values - exact) / exact) < 1e-11
        assert prof.boundary_value == pytest.approx(2.0, abs=1e-12)

    def test_one_picard_solve(self, radial_grid, monkeypatch):
        calls = []
        picard = radial.solve_mode_picard

        def counted(*args, **kwargs):
            calls.append(args)
            return picard(*args, **kwargs)

        monkeypatch.setattr(radial, "solve_mode_picard", counted)
        gamma = -0.75
        h = RadialPerturbation.power(0.5, 1.0)
        sub = RadialGrid(radial_grid.points[:301])
        prof = solve_mode_bvp(N, MU, h, gamma, sub, tol=1e-12)
        assert len(calls) == 1
        assert prof.boundary_value == pytest.approx(gamma, abs=1e-12)
        # the rescaled constants still describe the rescaled profile
        assert prof.boundary_value == pytest.approx(prof.c1 * sub.r_out**SIGMA
                                                    + prof.c2 * sub.r_out**sigma_pair(N, MU).sigma_minus,
                                                    abs=1e-12)

    def test_zero_boundary_gives_zero(self, radial_grid):
        prof = solve_mode_bvp(N, MU, RadialPerturbation.power(0.3, 1.0), 0.0, radial_grid)
        assert np.all(prof.values == 0.0)


class TestLimitCoefficient:
    def test_zero_perturbation(self, radial_grid):
        prof = solve_mode_picard(N, MU, RadialPerturbation.zero(), 1.0, radial_grid)
        est = limit_coefficient(prof)
        assert est.value == pytest.approx(1.0)
        assert est.measured == pytest.approx(1.0, abs=1e-12)

    def test_manufactured(self, radial_grid):
        h = RadialPerturbation.manufactured(1.2, SIGMA, N)
        prof = solve_mode_picard(N, MU, h, 1.0, radial_grid)
        est = limit_coefficient(prof)
        assert est.value == pytest.approx(1.0, abs=1e-12)
        assert est.measured == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("picard", [True, False])
    @pytest.mark.parametrize("h", [RadialPerturbation.power(0.4, 1.0),
                                   RadialPerturbation.manufactured(1.2, SIGMA, N)])
    def test_value_is_the_solved_limit(self, radial_grid, h, picard):
        # the representation constant plus the full integral gives back the
        # limit coefficient the profile was solved for, up to rounding
        if picard:
            prof = solve_mode_picard(N, MU, h, 0.7, radial_grid)
        else:
            prof = solve_mode_bvp(N, MU, h, 2.0, radial_grid)
        est = limit_coefficient(prof)
        assert est.value == prof.c_limit
        rho, sp = radial_grid.points, prof.exponents.sigma_plus
        data = h.data(rho) * (prof.values / rho**sp)
        Ip = integrate_power_from_zero(rho, 1.0 - sp + h.singular_power + sp, data)
        assert prof.c1 + Ip[-1] / GAP == pytest.approx(est.value, rel=1e-14)

    def test_formula_matches_measured_for_power(self, radial_grid):
        h = RadialPerturbation.power(0.4, 1.0)
        prof = solve_mode_picard(N, MU, h, 1.0, radial_grid)
        est = limit_coefficient(prof)
        assert est.discrepancy < 1e-4 * abs(est.value)


class TestOdeResidual:
    def test_second_order_decay(self):
        h = RadialPerturbation.manufactured(1.5, SIGMA, N)
        maxres = {}
        for J in (200, 400, 800):
            grid = RadialGrid.geometric(J, 1e-8, 1.0)
            prof = solve_mode_picard(N, MU, h, 1.0, grid, tol=1e-13)
            res = ode_residual(prof, N, MU)
            mask = grid.points[1:-1] > 0.01
            maxres[J] = np.max(np.abs(res[mask]))
        assert maxres[200] / maxres[400] == pytest.approx(4.0, rel=0.3)
        assert maxres[400] / maxres[800] == pytest.approx(4.0, rel=0.3)


class TestCauchyCoefficientRadial:
    """The ground-mode Cauchy coefficient of a mode-sum field."""

    def test_pure_ground_mode_normalization(self, dipole3_spectrum, radial_grid):
        h = RadialPerturbation.zero()
        prof = solve_mode_picard(3, dipole3_spectrum.mu_1, h, 1.0, radial_grid)
        field = synthesize_solution([(1, prof)], dipole3_spectrum)
        (val,) = cauchy_coefficient_mode(field, [0.5], 1)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_r_independence_manufactured(self, dipole3_spectrum, radial_grid):
        mu1 = dipole3_spectrum.mu_1
        sig = sigma_pair(3, mu1).sigma_plus
        h = RadialPerturbation.manufactured(1.0, sig, 3)
        prof = solve_mode_picard(3, mu1, h, 1.0, radial_grid)
        field = synthesize_solution([(1, prof)], dipole3_spectrum)
        vals = cauchy_coefficient_mode(field, (0.3, 0.6, 0.9), 1)
        assert max(abs(v - 1.0) for v in vals) < 1e-4
        assert max(vals) - min(vals) < 1e-4

    def test_higher_mode_orthogonal(self, dipole3_spectrum, radial_grid):
        mu2 = dipole3_spectrum.axisymmetric_mode(2).mu
        h = RadialPerturbation.zero()
        prof = solve_mode_picard(3, mu2, h, 1.0, radial_grid)
        field = synthesize_solution([(2, prof)], dipole3_spectrum)
        (val,) = cauchy_coefficient_mode(field, [0.5], 1)
        assert abs(val) < 1e-12


@settings(max_examples=25, deadline=None)
@given(c=st.floats(min_value=-5, max_value=5, allow_nan=False),
       beta=st.floats(min_value=0.4, max_value=3.0))
def test_manufactured_family_property(c, beta):
    """The oracle holds across the (c, beta) family, scaled by linearity."""
    grid = RadialGrid.geometric(120, 1e-6, 1.0)
    h = RadialPerturbation.manufactured(beta, SIGMA, N)
    prof = solve_mode_picard(N, MU, h, c, grid, tol=1e-12)
    exact = c * manufactured_exact(grid.points, beta)
    assert np.max(np.abs(prof.values - exact)) < 1e-10 * max(1.0, abs(c))


@settings(max_examples=25, deadline=None)
@given(x=st.floats(min_value=-30, max_value=6))
def test_solves_run_at_unit_scale(x, radial_grid):
    """Any coefficient takes the unit solve's sweeps and is its exact multiple.

    The stop rule is relative to the unit-coefficient profile, so a tiny
    coefficient is not accepted after one sweep.
    """
    c = 10.0**x
    h = RadialPerturbation.manufactured(1.5, SIGMA, N)
    unit = solve_mode_picard(N, MU, h, 1.0, radial_grid)
    prof = solve_mode_picard(N, MU, h, c, radial_grid)
    assert prof.iterations == unit.iterations
    assert np.max(np.abs(prof.values / (c * unit.values) - 1.0)) < 1e-14
    assert prof.c_limit == c and prof.c1 == pytest.approx(c * unit.c1, rel=1e-14)
    # a boundary value of that size is hit by the same profile shape
    bvp = solve_mode_bvp(N, MU, h, c, radial_grid)
    assert bvp.boundary_value == pytest.approx(c, rel=1e-14)
    shape = unit.values / unit.boundary_value
    assert np.max(np.abs(bvp.values / (c * shape) - 1.0)) < 1e-14
