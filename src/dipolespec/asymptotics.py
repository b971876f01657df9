"""Axisymmetric solution fields on the punctured ball and their limit functionals.

Fields on a geometric radial grid times a polar grid are stored as radial x
angular factors (LowRank); no (radius x polar node) array is formed.  The
angular factors are the modes' psi, and sphere integrals are products with
the polar grid's `quadrature`.  Mode sums u = sum phi_k psi_k (rank = mode
count) share one radial perturbation; the manufactured nonradial
u = rho^sigma psi_1 (1 + rho^eps g) (rank 2, source rank 1) gets
q = -(Delta u + a rho^{-2} u)/u from the discrete angular operator, with the
radial powers handled analytically.  Everything the limit functionals need
about the source is a known power of rho times a bounded factor.  The
functionals project onto the angular mode first (the angular quadrature
commutes with the radial integrals), so the power-law quadrature of the
radial module runs on one radial vector and the discrete identities (value
1, independence of the evaluation radius) hold to rounding.  The sandwich
bounds are reduced in row blocks of about 1 MB.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import hardy
from .angular import AngularSpectrum
from .errors import InputError, NumericalError, ResolutionError
from .exponents import sigma_pair
from .radial import (
    RadialGrid,
    RadialPerturbation,
    check_eps,
    extrapolate_geometric,
    integrate_power_from_zero,
    solve_mode_bvp,
)


@dataclass(frozen=True)
class LowRank:
    """A (radius x polar node) array held as radial (R x r) @ angular (r x M)."""

    radial: np.ndarray
    angular: np.ndarray

    @property
    def nbytes(self) -> int:
        return self.radial.nbytes + self.angular.nbytes

    def rows(self, idx) -> np.ndarray:
        """The rows at radial index (int, slice or index list) idx only."""
        return self.radial[idx] @ self.angular

    def project(self, w: np.ndarray) -> np.ndarray:
        """The array times the polar vector w: one value per radius."""
        return self.radial @ (self.angular @ w)


@dataclass(frozen=True)
class SolutionField:
    """u(rho_j, t_i) and the source F of -Delta u = a rho^{-2} u + F, as LowRank."""

    spectrum: AngularSpectrum
    radial: RadialGrid
    u: LowRank = field(repr=False)
    source: LowRank = field(repr=False)
    sigma: float = 0.0
    source_power: float = 0.0     # F / rho^{source_power} stays bounded at zero
    defect_power: float | None = None  # defect decay power; eps for manufactured fields
    q_bound: float | None = None  # sup of |q| rho^{2-eps} for manufactured fields


def synthesize_solution(modes, spectrum: AngularSpectrum) -> SolutionField:
    """Mode sum u = sum_k phi_k psi_k over the m = 0 tower.

    All profiles must share one radial grid and one perturbation; the source
    is then F = h u, with factors phi_k x psi_k.  The Parseval identity
    between sum_k phi_k(rho)^2 and the angular quadrature of u(rho, .)^2
    holds to rounding: the discrete modes are orthonormal in that quadrature.
    """
    if not modes:
        raise InputError("need at least one mode")
    grid = spectrum.grid
    rgrid = modes[0][1].grid
    h = modes[0][1].perturbation
    for k, prof in modes:
        if prof.grid is not rgrid and not np.array_equal(prof.grid.points, rgrid.points):
            raise InputError("all modes must share the radial grid")
        if prof.perturbation is not h and prof.perturbation != h:
            raise InputError("all modes must share the radial perturbation")
    sigmas = sorted(prof.exponents.sigma_plus for _, prof in modes)
    phi = np.column_stack([prof.values for _, prof in modes])
    psi = np.array([spectrum.axisymmetric_mode(k).psi for k, _ in modes])
    u = LowRank(phi, psi)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite F fails downstream
        F = LowRank(h.values(rgrid.points)[:, None] * phi, psi)
    sig = sigma_pair(grid.dim, spectrum.mu_1).sigma_plus
    defect = sigmas[1] - sigmas[0] if len(sigmas) > 1 else None
    return SolutionField(
        spectrum=spectrum, radial=rgrid, u=u, source=F, sigma=sig,
        source_power=sigmas[0] + h.singular_power, defect_power=defect,
    )


def manufactured_nonradial(
    spectrum: AngularSpectrum,
    eps: float,
    g: np.ndarray,
    grid: RadialGrid,
) -> SolutionField:
    """u = rho^sigma psi_1(t) (1 + rho^eps g(t)) with its compatible source.

    The perturbation q = -(Delta u + a rho^{-2} u)/u is exactly
    -rho^{eps-2} W / (psi_1 (1 + rho^eps g)) with the angular vector
    W = (eps(eps + 2 sigma + N - 2) + mu_1) psi_1 g - L[psi_1 g], where L is
    the spectrum's m = 0 operator `axial`.  The ground-mode part of
    u annihilates identically, so q = O(rho^{eps-2}) with the verified bound
    stored as q_bound; in particular g = 0 gives q = 0 exactly.  u has the
    factors [rho^sigma, rho^{sigma+eps}] x [psi_1, psi_1 g].  1 + rho^eps g is
    monotone in rho, so the sign gate and q_bound read the extreme radii only.
    An eps for which eps(eps + 2 sigma + N - 2) overflows is an InputError.
    """
    check_eps(eps)
    pgrid = spectrum.grid
    g = np.asarray(g, dtype=float)
    if g.shape != pgrid.nodes.shape:
        raise InputError("g must be sampled on the polar grid nodes")
    rho = grid.points
    mu1 = spectrum.mu_1
    exps = sigma_pair(pgrid.dim, mu1)
    sig = exps.sigma_plus
    psi1 = spectrum.psi_1.psi
    lift = eps * (eps + exps.gap)
    if not np.isfinite(lift):
        raise InputError(f"eps = {eps!r} is too large: eps (eps + 2 sigma + N - 2) overflows")

    angular_factor = 1.0 + rho[[0, -1], None] ** eps * g[None, :]
    if np.min(angular_factor) <= 0.0:
        raise InputError(
            "1 + rho^eps g changes sign on the sampled set; scale g down"
        )
    u = LowRank(np.column_stack([rho**sig, rho ** (sig + eps)]), np.array([psi1, psi1 * g]))

    # discrete angular operator applied to G = psi_1 g, in psi coordinates
    G = psi1 * g
    LG = spectrum.apply_axial(G)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite W or F fails downstream
        W = (lift + mu1) * G - LG
        F = LowRank(-(rho[:, None] ** (sig + eps - 2.0)), W[None, :])
    q_scaled = np.abs(W[None, :] / (psi1[None, :] * angular_factor))
    return SolutionField(
        spectrum=spectrum, radial=grid, u=u, source=F, sigma=sig,
        source_power=sig + eps - 2.0, defect_power=eps,
        q_bound=float(np.max(q_scaled)),
    )


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
    built once and read at every radius.  u is projected onto the same
    vector grid.quadrature * psi_k and read at the requested radii.
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
    w = grid.quadrature * mode.psi
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values are returned
        data = field.source.project(w) / rho ** field.source_power
    I1 = integrate_power_from_zero(rho, 1.0 - sig + field.source_power, data)
    I2 = integrate_power_from_zero(rho, N - 1.0 + sig + field.source_power, data)
    u_k = field.u.project(w)
    values = []
    for j in rows:
        r = rho[j]
        values.append(float(r ** (-sig) * u_k[j] + I1[j] / gap - r ** (-gap) * I2[j] / gap))
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
    psi1 = field.spectrum.psi_1.psi
    rho = field.radial.points[:3]
    u = field.u.rows(slice(0, 3))
    if np.any(u <= 0):
        raise NumericalError("field is not positive near the origin")
    rows = []
    cs = []
    for j in range(3):
        ratio = u[j] / (rho[j] ** field.sigma * psi1)
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
    power_lower: float             # min over samples of lower / rho^sigma
    power_upper: float             # max over samples of upper / rho^sigma
    trace_residual: float
    radius: float
    admissible_radius: float
    modes_used: int


def check_radius_fraction(fraction: float) -> None:
    """The comparison radius of `sandwich_check` is a fraction in (0, 1] of its limit."""
    if not 0.0 < fraction <= 1.0:
        raise InputError(f"radius fraction {fraction} must lie in (0, 1]")


def sandwich_check(field: SolutionField, fraction: float) -> SandwichReport:
    """Trap a manufactured field between radial sub/supersolutions.

    The comparison radius is `fraction` of the smaller of the admissible
    radius of the coercivity gate and the field's outer radius, so the
    fraction must lie in (0, 1].  The boundary trace at that radius is
    expanded over the m = 0 tower; each coefficient is propagated inward
    with perturbation -q s^{eps-2} (subsolution) and +q s^{eps-2}
    (supersolution), where q is the field's q_bound and eps its defect power; at
    q = 0 both are one unperturbed solve per mode.  The field must sit
    between the two reconstructions at every common sample, up to 1e-6
    absolute plus five times the worst per-mode solver residual.
    """
    if field.q_bound is None:
        raise InputError("sandwich check expects a manufactured nonradial field")
    check_radius_fraction(fraction)
    spectrum = field.spectrum
    c_bound, eps = field.q_bound, field.defect_power
    grid = spectrum.grid
    N = grid.dim
    lam = hardy.lambda_n(spectrum.potential, grid).lambda_n
    r_adm = hardy.admissible_radius(N, lam, c_bound, eps)
    r = fraction * min(r_adm, field.radial.r_out)
    rho = field.radial.points
    j = field.radial.nearest_index(r) if r >= rho[0] else -1
    if j + 1 < RadialGrid.MIN_POINTS:
        raise InputError(f"comparison radius {r:.6g} = {fraction:g} x min(admissible radius "
                         f"{r_adm:.6g}, outer radius {rho[-1]:.6g}) keeps {j + 1} radial nodes "
                         f"(innermost {rho[0]:.6g}), fewer than {RadialGrid.MIN_POINTS}")
    r_snap = rho[j]
    sub_grid = RadialGrid(rho[: j + 1])
    trace = field.u.rows(j)

    n_modes = min(16, len(spectrum.tower(0)))
    modes = [spectrum.axisymmetric_mode(k) for k in range(1, n_modes + 1)]
    basis = np.array([mode.psi for mode in modes])  # (n_modes, M)
    coeffs = basis @ (grid.quadrature * trace)
    trace_residual = float(np.max(np.abs(trace - coeffs @ basis)))
    if trace_residual > 5e-7:
        raise ResolutionError(
            f"boundary trace truncation {trace_residual:.2e} is too coarse "
            "for the comparison; provide a spectrum with more axisymmetric "
            "modes"
        )

    if c_bound:
        bounds = (RadialPerturbation.power(-c_bound, eps), RadialPerturbation.power(c_bound, eps))
    else:
        bounds = (RadialPerturbation.zero(),)
    lower_profiles, upper_profiles = [], []
    worst_residual = 0.0
    for mode, c_k in zip(modes, coeffs.tolist()):
        profs = [solve_mode_bvp(N, mode.mu, h, c_k, sub_grid, 1e-10) for h in bounds]
        lower_profiles.append(profs[0].values)
        upper_profiles.append(profs[-1].values)
        worst_residual = max(worst_residual, *(prof.residual for prof in profs))
    # each bound: (radius x term) coefficients @ [eigenfunctions; u's angular factors]
    lower, upper = np.column_stack(lower_profiles), np.column_stack(upper_profiles)
    u_cut = field.u.radial[: sub_grid.size]
    zeros = np.zeros_like(u_cut)
    rho_scale = sub_grid.points[:, None] ** field.sigma
    terms = [(lower, -u_cut), (-upper, u_cut),
             (-lower / rho_scale, zeros), (upper / rho_scale, zeros)]
    coef = np.vstack([np.hstack(pair) for pair in terms])
    angular = np.vstack([basis, field.u.angular])
    step = max(1, (1 << 20) // angular[0].nbytes)  # row blocks of about 1 MB
    maxima = np.concatenate([np.max(coef[i:i + step] @ angular, axis=1)
                             for i in range(0, len(coef), step)])
    maxima = maxima.reshape(len(terms), -1).max(axis=1).tolist()

    slack = 1e-6 + 5.0 * worst_residual
    low_viol, up_viol = maxima[0], maxima[1]
    return SandwichReport(
        ordered=(low_viol <= slack) and (up_viol <= slack),
        max_lower_violation=low_viol,
        max_upper_violation=up_viol,
        slack=slack,
        power_lower=-maxima[2],
        power_upper=maxima[3],
        trace_residual=trace_residual,
        radius=r_snap,
        admissible_radius=r_adm,
        modes_used=n_modes,
    )
