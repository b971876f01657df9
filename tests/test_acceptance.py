"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Tolerances are pinned here, not configurable.
"""

import time

import numpy as np
import pytest

from dipolespec.angular import AngularPotential, PolarGrid, full_spectrum, weyl_fit
from dipolespec.asymptotics import (
    cauchy_coefficient_mode,
    cauchy_functional,
    manufactured_nonradial,
    measured_limit,
    sandwich_check,
    synthesize_solution,
)
from dipolespec.brezis_kato import (
    BKParameters,
    asymptotic_cost_ratio,
    ell_q,
    iteration_constants,
)
from dipolespec.exponents import sigma_pair
from dipolespec.hardy import admissible_radius, critical_dipole_coupling, lambda_n
from dipolespec.radial import RadialGrid, RadialPerturbation, limit_coefficient, solve_mode_picard

# reference inverse best constants for the unit dipole, dimensions 3..10,
# computed by finite differences with 10000 steps (node-sampled convention)
REFERENCE_INVERSE_COUPLINGS = {
    3: 1.6398, 4: 3.7891, 5: 7.5831, 6: 12.6713,
    7: 19.0569, 8: 26.7407, 9: 35.7231, 10: 46.0044,
}

TABLE_GRID = 10000


def report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {status} - {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def table_couplings():
    """Pencil-route critical couplings at the reference resolution."""
    start = time.perf_counter()
    values = {}
    for N in sorted(REFERENCE_INVERSE_COUPLINGS):
        grid = PolarGrid.build(N, TABLE_GRID, "node")
        values[N] = critical_dipole_coupling(grid, "pencil")
    return values, time.perf_counter() - start


def test_criterion_01_reference_table(table_couplings):
    values, elapsed = table_couplings
    devs = {
        N: abs(values[N] - ref) / ref
        for N, ref in REFERENCE_INVERSE_COUPLINGS.items()
    }
    worst = max(devs.values())
    ok = worst < 5e-3 and elapsed <= 60.0
    report(
        1, ok,
        f"inverse couplings for N=3..10 at M={TABLE_GRID}: worst rel dev "
        f"{worst:.2e} (tol 5e-3), runtime {elapsed:.1f}s (limit 60s)",
    )


def test_criterion_02_route_agreement(table_couplings):
    values, _ = table_couplings
    worst = 0.0
    for N, pencil in values.items():
        grid = PolarGrid.build(N, TABLE_GRID, "node")
        bisect = critical_dipole_coupling(grid, "bisection")
        worst = max(worst, abs(pencil - bisect) / pencil)
    report(2, worst < 1e-5,
           f"pencil vs bisection over eight dimensions: worst rel {worst:.2e} (tol 1e-5)")


def test_criterion_03_constant_potential_spectra():
    M = 2000
    worst = 0.0
    ok = True
    for N in (3, 4):
        grid = PolarGrid.build(N, M)
        for kappa in (0.0, 1.0):
            spec = full_spectrum(AngularPotential.constant(kappa), 10, grid)
            flat = spec.flattened()[:10]
            expected = []
            l = 0
            while len(expected) < 10:
                mult = 2 * l + 1 if N == 3 else (l + 1) ** 2
                expected.extend([l * (l + N - 2.0) - kappa] * mult)
                l += 1
            expected = np.array(expected[:10])
            worst = max(worst, float(np.max(np.abs(flat - expected))))
            ok = ok and np.max(np.abs(flat - expected)) < 10 * grid.step**2
    report(3, ok,
           f"first 10 eigenvalues of constant potentials, N=3,4, kappa=0,1: "
           f"worst abs dev {worst:.2e} (tol 10 h^2 = {10*(np.pi/(M+1))**2:.2e})")


def test_criterion_04_ground_mode_checks():
    grid = PolarGrid.build(3, 2000)
    ok = True
    details = []
    for lam in (0.5, 1.0):
        spec = full_spectrum(AngularPotential.dipole(lam), 5, grid)
        flat = spec.flattened()
        gap = flat[1] - flat[0]
        positive = bool(np.all(spec.psi_1.psi > 0))
        strict = -lam < spec.mu_1 < 0.0
        ok = ok and gap > 0 and positive and strict
        details.append(f"lam={lam}: gap={gap:.3f}, mu_1={spec.mu_1:.5f}")
    report(4, ok, "simple ground value, positive profile, strict bounds; " + "; ".join(details))


def test_criterion_05_counting_exponent():
    ok = True
    details = []
    for N in (3, 4):
        grid = PolarGrid.build(N, 1200)
        spec = full_spectrum(AngularPotential.constant(0.0), 500, grid)
        fit = weyl_fit(spec)
        target = 2.0 / (N - 1)
        rel = abs(fit.exponent - target) / target
        ok = ok and rel < 0.15
        details.append(f"N={N}: exponent {fit.exponent:.4f} vs {target:.4f} ({rel:.1%})")
    report(5, ok, "counting exponent within 15%: " + "; ".join(details))


def test_criterion_06_radial_oracle():
    N, mu = 3, 2.0
    sig = sigma_pair(N, mu).sigma_plus
    grid = RadialGrid.geometric(400, 1e-8, 1.0)
    rho = grid.points
    window = rho >= 1e-6

    beta = 1.5
    h = RadialPerturbation.manufactured(beta, sig, N)
    prof = solve_mode_picard(N, mu, h, 1.0, grid, tol=1e-13)
    exact = rho**sig * (1 + rho**beta)
    manufactured_dev = float(np.max(np.abs(prof.values - exact)[window] / exact[window]))

    zero_prof = solve_mode_picard(N, mu, RadialPerturbation.zero(), 1.0, grid, tol=1e-10)
    zero_dev = float(np.max(np.abs(zero_prof.values - rho**sig)))

    power = RadialPerturbation.power(0.5, 1.0)
    pprof = solve_mode_picard(N, mu, power, 1.0, grid, tol=1e-13)
    est = limit_coefficient(pprof)
    limit_dev = est.discrepancy / abs(est.value)

    ok = manufactured_dev < 1e-5 and zero_dev <= 1e-10 and limit_dev < 1e-4
    report(6, ok,
           f"manufactured profile rel dev {manufactured_dev:.2e} (tol 1e-5), "
           f"zero-perturbation dev {zero_dev:.2e} (tol 1e-10), "
           f"limit formula vs measured {limit_dev:.2e} (tol 1e-4)")


@pytest.fixture(scope="module")
def acceptance_spectrum():
    grid = PolarGrid.build(3, 800)
    return full_spectrum(AngularPotential.dipole(1.0), 40, grid)


def test_criterion_07_radius_independence(acceptance_spectrum):
    spec = acceptance_spectrum
    rgrid = RadialGrid.geometric(400, 1e-8, 1.0)
    radii = (0.2, 0.35, 0.5, 0.7, 0.9)
    sig = sigma_pair(3, spec.mu_1).sigma_plus

    h = RadialPerturbation.manufactured(1.2, sig, 3)
    prof = solve_mode_picard(3, spec.mu_1, h, 1.0, rgrid, tol=1e-13)
    field_r = synthesize_solution([(1, prof)], spec)

    g = 0.3 * spec.axisymmetric_mode(2).psi
    field_n = manufactured_nonradial(spec, 1.0, g, rgrid)

    ok = True
    details = []
    for name, field in (("radial", field_r), ("nonradial", field_n)):
        vals = np.array(cauchy_functional(field, radii))
        spread = float((np.max(vals) - np.min(vals)) / abs(np.mean(vals)))
        limit = measured_limit(field).estimate
        limit_dev = float(abs(np.mean(vals) - limit) / abs(limit))
        value_dev = float(np.max(np.abs(vals - 1.0)))
        ok = ok and spread <= 1e-3 and limit_dev <= 1e-3 and value_dev <= 1e-3
        details.append(f"{name}: spread {spread:.1e}, vs limit {limit_dev:.1e}")
    report(7, ok, "functional radius-independence (tol 1e-3): " + "; ".join(details))


def test_criterion_08_sign_changing_mode(acceptance_spectrum):
    spec = acceptance_spectrum
    rgrid = RadialGrid.geometric(400, 1e-8, 1.0)
    mu2 = spec.axisymmetric_mode(2).mu
    s2 = sigma_pair(3, mu2).sigma_plus
    h = RadialPerturbation.manufactured(1.0, s2, 3)
    prof = solve_mode_picard(3, mu2, h, 1.0, rgrid, tol=1e-13)
    field = synthesize_solution([(2, prof)], spec)
    vals = cauchy_coefficient_mode(field, (0.3, 0.6, 0.9), 2)
    spread = max(vals) - min(vals)
    ground = max(abs(v) for v in cauchy_coefficient_mode(field, (0.3, 0.6, 0.9), 1))
    ok = spread <= 1e-4 and ground <= 1e-8
    report(8, ok,
           f"sign-changing mode: coefficient spread {spread:.2e} (tol 1e-4), "
           f"ground-mode leakage {ground:.2e} (tol 1e-8)")


def test_criterion_09_sandwich(acceptance_spectrum):
    spec = acceptance_spectrum
    rgrid = RadialGrid.geometric(400, 1e-8, 1.0)
    g = 0.3 * spec.axisymmetric_mode(2).psi
    field = manufactured_nonradial(spec, 1.0, g, rgrid)
    lam = lambda_n(spec.potential, spec.grid).lambda_n
    r_adm = admissible_radius(3, lam, field.q_bound, 1.0)
    rep = sandwich_check(field, 0.5)

    zero_field = manufactured_nonradial(spec, 1.0, np.zeros(spec.grid.size), rgrid)
    rep0 = sandwich_check(zero_field, 0.3)
    # at q = 0 sub- and supersolution are one reconstruction: ordered is the collapse
    ok = rep.ordered and rep0.ordered and rep.admissible_radius == r_adm
    report(9, ok,
           f"ordering at r = {rep.radius:.4f} (half of admissible {r_adm:.4f}): "
           f"violations {rep.max_lower_violation:.1e}/{rep.max_upper_violation:.1e} "
           f"within slack {rep.slack:.1e}; degenerate case ordered: {rep0.ordered}")


def test_criterion_10_bootstrap_constants():
    rng = np.random.RandomState(20240817)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.randint(3, 10))
        p = BKParameters(
            dim=dim,
            s=dim / 2 + rng.uniform(0.2, 5.0),
            v_norm=rng.uniform(1e-3, 20.0),
            ckn_constant=rng.uniform(0.05, 10.0),
            dist=1.0, diam=2.0, sigma=0.5,
        )
        q = rng.uniform(1.2, 150.0)
        res = ell_q(q, p)  # raises beyond 1e-12 relative identity drift
        lhs = p.v_norm**p.s * res.value ** (-p.s + dim / 2)
        rhs = min(1 / (8 * p.ckn_constant), 2 / ((q + 4) * p.ckn_constant)) ** (dim / 2)
        worst = max(worst, abs(lhs - rhs) / abs(rhs))

    ref = BKParameters(dim=4, s=3.0, v_norm=1.0, ckn_constant=1.0,
                       dist=1.0, diam=2.0, sigma=0.5)
    table = iteration_constants(ref, 400)
    cauchy_gap = abs(table.rows[399][4] - table.rows[199][4])

    ratios = [abs(asymptotic_cost_ratio(ref, n) - 1.0) for n in (10, 25, 50)]
    ratio_ok = ratios[0] > ratios[1] >= ratios[2] and ratios[2] < 1e-6

    ok = worst < 1e-12 and cauchy_gap <= 1e-6 and ratio_ok
    report(10, ok,
           f"truncation identity worst {worst:.1e} over 100 draws (tol 1e-12); "
           f"|S_400 - S_200| = {cauchy_gap:.1e} (tol 1e-6); "
           f"cost-ratio deviations {ratios[0]:.1e} -> {ratios[2]:.1e}")
