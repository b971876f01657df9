"""Axisymmetric solution fields on the punctured ball and their limit functionals.

Fields are sampled on the product of a polar grid (angular) and a geometric
radial grid.  Two constructions are provided: mode sums u = sum phi_k psi_k
with a common radial perturbation, and the manufactured nonradial family
u = rho^sigma psi_1 (1 + rho^eps g) whose compatible perturbation
q = -(Delta u + a rho^{-2} u)/u is assembled from the discrete angular
operator, with the radial powers handled analytically.  Everything the
limit functionals need about the source is a known power of rho times a
bounded factor.  The functionals project onto the angular mode first (the
angular quadrature commutes with the radial integrals), so the power-law
quadrature of the radial module runs on one radial vector and the discrete
identities (value 1, independence of the evaluation radius) hold to
rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import hardy
from .angular import AngularSpectrum, assemble_polar_operator
from .errors import InputError, NumericalError, ResolutionError
from .exponents import sigma_pair
from .radial import (
    RadialGrid,
    RadialPerturbation,
    extrapolate_geometric,
    integrate_power_from_zero,
    solve_mode_bvp,
)


@dataclass(frozen=True)
class SolutionField:
    """Samples u(rho_j, t_i) with the source F of -Delta u = a rho^{-2} u + F."""

    spectrum: AngularSpectrum
    radial: RadialGrid
    u: np.ndarray = field(repr=False)
    source: np.ndarray = field(repr=False)
    sigma: float = 0.0
    source_power: float = 0.0     # F / rho^{source_power} stays bounded at zero
    defect_power: float | None = None
    eps: float | None = None
    q_bound: float | None = None  # sup of |q| rho^{2-eps} for manufactured fields

    def psi_1(self) -> np.ndarray:
        return self.spectrum.psi_1.psi(self.spectrum.grid)


def synthesize_solution(modes, spectrum: AngularSpectrum) -> SolutionField:
    """Mode sum u = sum_k phi_k psi_k over the m = 0 tower.

    All profiles must share one radial grid and one perturbation; the source
    is then F = h u.  The Parseval identity between sum_k phi_k(rho)^2 and
    the angular quadrature of u(rho, .)^2 holds to rounding because the
    discrete modes are orthonormal in exactly that quadrature.
    """
    if not modes:
        raise InputError("need at least one mode")
    grid = spectrum.grid
    rgrid = modes[0][1].grid
    h = modes[0][1].perturbation
    u = np.zeros((rgrid.size, grid.size))
    lead = math.inf
    for k, prof in modes:
        if prof.grid is not rgrid and not np.array_equal(prof.grid.points, rgrid.points):
            raise InputError("all modes must share the radial grid")
        if prof.perturbation is not h and prof.perturbation != h:
            raise InputError("all modes must share the radial perturbation")
        psi_k = spectrum.axisymmetric_mode(k).psi(grid)
        u += np.outer(prof.values, psi_k)
        lead = min(lead, prof.exponents.sigma_plus)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite F fails downstream
        F = h.values(rgrid.points)[:, None] * u
    sig = sigma_pair(grid.dim, spectrum.mu_1).sigma_plus
    exps = sorted(sigma_pair(grid.dim, spectrum.axisymmetric_mode(k).mu).sigma_plus
                  for k, _ in modes)
    defect = exps[1] - exps[0] if len(exps) > 1 else None
    return SolutionField(
        spectrum=spectrum, radial=rgrid, u=u, source=F, sigma=sig,
        source_power=lead + h.singular_power, defect_power=defect,
    )


def parseval_residual(field: SolutionField, modes) -> float:
    """Max over radii of |sum_k phi_k^2 - angular quadrature of u^2|."""
    grid = field.spectrum.grid
    sq = sum(prof.values**2 for _, prof in modes)
    quad = np.array([grid.integrate(row**2) for row in field.u])
    return float(np.max(np.abs(sq - quad)))


def manufactured_nonradial(
    N: int,
    spectrum: AngularSpectrum,
    eps: float,
    g: np.ndarray,
    grid: RadialGrid,
) -> SolutionField:
    """u = rho^sigma psi_1(t) (1 + rho^eps g(t)) with its compatible source.

    The perturbation q = -(Delta u + a rho^{-2} u)/u is exactly
    -rho^{eps-2} W / (psi_1 (1 + rho^eps g)) with the angular vector
    W = (eps(eps + 2 sigma + N - 2) + mu_1) psi_1 g - L[psi_1 g], where L is
    the discrete angular operator of the spectrum.  The ground-mode part of
    u annihilates identically, so q = O(rho^{eps-2}) with the verified bound
    stored as q_bound; in particular g = 0 gives q = 0 exactly.
    """
    if eps <= 0:
        raise InputError(f"eps must be positive, got {eps}")
    pgrid = spectrum.grid
    if pgrid.dim != N:
        raise InputError("spectrum dimension mismatch")
    g = np.asarray(g, dtype=float)
    if g.shape != pgrid.nodes.shape:
        raise InputError("g must be sampled on the polar grid nodes")
    rho = grid.points
    mu1 = spectrum.mu_1
    sig = sigma_pair(N, mu1).sigma_plus
    gap = sigma_pair(N, mu1).gap
    psi1 = spectrum.psi_1.psi(pgrid)

    angular_factor = 1.0 + rho[:, None] ** eps * g[None, :]
    if np.min(angular_factor) <= 0.0:
        raise InputError(
            "1 + rho^eps g changes sign on the sampled set; scale g down"
        )
    u = rho[:, None] ** sig * psi1[None, :] * angular_factor

    # discrete angular operator applied to G = psi_1 g, in psi coordinates
    mat = assemble_polar_operator(N, spectrum.potential, 0, pgrid, spectrum.sampling)
    half_weight = np.sqrt(pgrid.weights)
    G = psi1 * g
    LG = mat.matvec(G * half_weight) / half_weight
    W = (eps * (eps + gap) + mu1) * G - LG

    with np.errstate(over="ignore", invalid="ignore"):  # non-finite F fails downstream
        F = -(rho[:, None] ** (sig + eps - 2.0)) * W[None, :]
    q_scaled = np.abs(W[None, :] / (psi1[None, :] * angular_factor))
    return SolutionField(
        spectrum=spectrum, radial=grid, u=u, source=F, sigma=sig,
        source_power=sig + eps - 2.0, defect_power=eps, eps=eps,
        q_bound=float(np.max(q_scaled)),
    )


def _weighted(grid, values: np.ndarray) -> np.ndarray:
    """values times the polar quadrature weights.

    v @ _weighted(grid, w) equals grid.integrate(v * w) up to rounding, for
    every row v of a matrix at once.
    """
    return grid.area_equator * grid.step * grid.weights * values


def cauchy_coefficient_mode(field: SolutionField, radii, k: int) -> list[float]:
    """Mode-k limit coefficient of the field, evaluated from data at each radius.

    Quadrature of the bracket built from the k-th axisymmetric mode's
    eigenfunction psi_k and exponent sigma = s_k^+, whose partner is
    s_k^- = -(N-2) - sigma:

      int_S [ r^{-sigma} u(r theta)
              + int_0^r s^{1-sigma} F /(2 sigma + N - 2) ds
              - r^{-2 sigma-N+2} int_0^r s^{N-1+sigma} F /(2 sigma + N - 2) ds
            ] psi_k dV,

    independent of r for solution/source pairs of the perturbed problem.
    The angular quadrature commutes with the radial integrals, so the source
    is projected onto psi_k first: the two cumulative integrals are 1-D,
    built once and read at every radius.  u is projected row by row at the
    requested radii only.
    """
    spectrum = field.spectrum
    grid = spectrum.grid
    N = grid.dim
    mode = spectrum.axisymmetric_mode(k)
    sig = sigma_pair(N, mode.mu).sigma_plus
    gap = 2.0 * sig + N - 2.0
    if gap <= 0:
        raise InputError("2 sigma + N - 2 must be positive")
    rho = field.radial.points
    rows = [field.radial.nearest_index(r) for r in radii]
    psi = mode.psi(grid)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values are returned
        data = field.source @ _weighted(grid, psi) / rho ** field.source_power
    I1 = integrate_power_from_zero(rho, 1.0 - sig + field.source_power, data)
    I2 = integrate_power_from_zero(rho, N - 1.0 + sig + field.source_power, data)
    values = []
    for j in rows:
        r = rho[j]
        u_k = grid.integrate(field.u[j] * psi)
        values.append(float(r ** (-sig) * u_k + I1[j] / gap - r ** (-gap) * I2[j] / gap))
    return values


def cauchy_functional(field: SolutionField, radii) -> list[float]:
    """Limit functional of u/(rho^sigma psi_1) evaluated from data at each radius.

    The ground case k = 1 of cauchy_coefficient_mode, with sigma the ground
    exponent and psi_1 the ground eigenfunction.
    """
    return cauchy_coefficient_mode(field, radii, 1)


@dataclass(frozen=True)
class LimitTable:
    estimate: float
    rows: tuple  # (rho, angular average, uniformity defect), smallest radius first


def measured_limit(field: SolutionField) -> LimitTable:
    """Limit of u/(rho^sigma psi_1) measured at the three smallest radii.

    Each row carries the spherical average of the ratio and the sup deviation
    from it; the averages are Richardson-extrapolated to rho = 0 with the
    field's known defect power when available.
    """
    grid = field.spectrum.grid
    psi1 = field.psi_1()
    rho = field.radial.points[:3]
    if np.any(psi1 <= 0):
        raise NumericalError("ground-mode samples must be positive")
    if np.any(field.u[:3] <= 0):
        raise NumericalError("field is not positive near the origin")
    rows = []
    cs = []
    for j in range(3):
        ratio = field.u[j] / (rho[j] ** field.sigma * psi1)
        c = grid.average(ratio)
        rows.append((float(rho[j]), float(c), float(np.max(np.abs(ratio - c)))))
        cs.append(c)
    if field.defect_power is not None:
        # q = inf leaves cs[0], the right limit; q = 1 (a defect power too
        # small for these radii) gives a non-finite estimate, which fails
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            q = (rho[1] / rho[0]) ** field.defect_power
            estimate = cs[0] - (cs[1] - cs[0]) / (q - 1.0)
    else:
        estimate = extrapolate_geometric(*cs)
    return LimitTable(estimate=float(estimate), rows=tuple(rows))


@dataclass(frozen=True)
class SandwichReport:
    ordered: bool
    max_lower_violation: float
    max_upper_violation: float
    slack: float
    collapse_gap: float | None     # sup |upper - lower| when the bound is zero
    power_lower: float             # min over samples of lower / rho^sigma
    power_upper: float             # max over samples of upper / rho^sigma
    trace_residual: float
    radius: float
    admissible_radius: float
    modes_used: int


def sandwich_check(field: SolutionField, fraction: float) -> SandwichReport:
    """Trap a manufactured field between radial sub/supersolutions.

    The comparison radius is `fraction` of the smaller of the admissible
    radius of the coercivity gate and the field's outer radius, so the
    fraction must lie in (0, 1].  The boundary trace at that radius is
    expanded over the m = 0 tower; each coefficient is propagated inward
    with perturbation -q s^{eps-2} (subsolution) and +q s^{eps-2}
    (supersolution), where q is the field's q_bound and eps its exponent.
    The field must sit between the two reconstructions at every common
    sample, up to 1e-6 absolute plus five times the worst per-mode solver
    residual.
    """
    if field.q_bound is None:
        raise InputError("sandwich check expects a manufactured nonradial field")
    if not 0.0 < fraction <= 1.0:
        raise InputError(f"radius fraction {fraction} must lie in (0, 1]")
    spectrum = field.spectrum
    c_bound, eps = field.q_bound, field.eps
    grid = spectrum.grid
    N = grid.dim
    lam = hardy.lambda_n(N, spectrum.potential, grid, spectrum.sampling).lambda_n
    r_adm = hardy.admissible_radius(N, lam, c_bound, eps)
    r = fraction * min(r_adm, field.radial.r_out)
    j = field.radial.nearest_index(r)
    r_snap = field.radial.points[j]
    sub_grid = field.radial.restricted(r_snap)
    trace = field.u[j]

    n_modes = min(16, len(spectrum.tower(0)))
    modes = [spectrum.axisymmetric_mode(k) for k in range(1, n_modes + 1)]
    basis = np.array([mode.psi(grid) for mode in modes])  # (n_modes, M)
    coeffs = basis @ _weighted(grid, trace)
    trace_residual = float(np.max(np.abs(trace - coeffs @ basis)))
    if trace_residual > 5e-7:
        raise ResolutionError(
            f"boundary trace truncation {trace_residual:.2e} is too coarse "
            "for the comparison; provide a spectrum with more axisymmetric "
            "modes"
        )

    h_lo = RadialPerturbation.power(-c_bound, eps) if c_bound else RadialPerturbation.zero()
    h_hi = RadialPerturbation.power(+c_bound, eps) if c_bound else RadialPerturbation.zero()
    lower_profiles, upper_profiles = [], []
    worst_residual = 0.0
    for mode, c_k in zip(modes, coeffs.tolist()):
        for h, profiles in ((h_lo, lower_profiles), (h_hi, upper_profiles)):
            prof = solve_mode_bvp(N, mode.mu, h, c_k, sub_grid, 1e-10)
            profiles.append(prof.values)
            worst_residual = max(worst_residual, prof.residual)
    # (radius x mode) profiles times (mode x polar node) eigenfunctions
    lower = np.column_stack(lower_profiles) @ basis
    upper = np.column_stack(upper_profiles) @ basis

    slack = 1e-6 + 5.0 * worst_residual
    u_cut = field.u[: sub_grid.size]
    low_viol = float(np.max(lower - u_cut))
    up_viol = float(np.max(u_cut - upper))
    rho_scale = sub_grid.points[:, None] ** field.sigma
    report = SandwichReport(
        ordered=(low_viol <= slack) and (up_viol <= slack),
        max_lower_violation=low_viol,
        max_upper_violation=up_viol,
        slack=slack,
        collapse_gap=float(np.max(np.abs(upper - lower))) if c_bound == 0 else None,
        power_lower=float(np.min(lower / rho_scale)),
        power_upper=float(np.max(upper / rho_scale)),
        trace_residual=trace_residual,
        radius=r_snap,
        admissible_radius=r_adm,
        modes_used=n_modes,
    )
    return report
