"""Radial Fourier-coefficient solver via the Volterra representation.

Sign convention.  The perturbation h stored here is the one appearing on
the potential side of the equation -Delta u = [a(x/|x|)/|x|^2 + h(|x|)] u,
so the coefficient phi_k of the k-th angular mode satisfies

    phi'' + (N-1)/rho phi' - mu_k/rho^2 phi = -h(rho) phi.

With sigma_pm the characteristic exponents and D = sigma_plus - sigma_minus,
the bounded-at-zero solutions are exactly those of the Volterra form

    phi(rho) = rho^{s+} [ c - (1/D) int_0^rho s^{1-s+} h phi ds ]
             + rho^{s-}   (1/D) int_0^rho s^{1-s-} h phi ds,

where c is the limit coefficient lim rho^{-s+} phi(rho).  Picard iteration
of this map is what solve_mode_picard runs; the upper-limit representation
constants c1 (coefficient against the integral-to-outer-radius form) and c2
are recovered afterwards and stored on the profile.

Quadrature.  Integrands carry known power-law factors near zero, so each
cell integral is computed exactly against the power s^alpha with the
remaining bounded data factor taken piecewise linear; the head cell
(0, rho_1] uses the constant data value and the closed form of the power
integral.  On the default geometric grid (400 points spanning [1e-8, 1])
this makes the manufactured oracle exact to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    DivergentIntegralError,
    InputError,
    NonContractionError,
    NumericalError,
)
from .exponents import Exponents, sigma_pair

PICARD_MAX_SWEEPS = 200  # sweeps of solve_mode_picard before it gives up


@dataclass(frozen=True)
class RadialGrid:
    """Strictly increasing radii with the outer radius as last point."""

    points: np.ndarray = field(repr=False)
    MIN_POINTS = 8

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < self.MIN_POINTS:
            raise InputError(f"radial grid needs at least {self.MIN_POINTS} points")
        if pts[0] <= 0 or np.any(np.diff(pts) <= 0):
            raise InputError("radial grid must be strictly increasing and positive")
        object.__setattr__(self, "points", pts)

    @classmethod
    def geometric(cls, size: int = 400, r_min: float = 1e-8, r_out: float = 1.0):
        """Geometric grid rho_j = r_out * g^{J-j}, clustering at zero."""
        if not (0 < r_min < r_out):
            raise InputError("need 0 < r_min < r_out")
        if size < cls.MIN_POINTS:
            raise InputError(f"radial grid needs at least {cls.MIN_POINTS} points, got {size}")
        return cls(r_out * (r_min / r_out) ** np.linspace(1.0, 0.0, size))

    @property
    def size(self) -> int:
        return self.points.size

    @property
    def r_out(self) -> float:
        return float(self.points[-1])

    def restricted(self, r: float) -> "RadialGrid":
        """Sub-grid of all nodes <= r (r should be a node)."""
        return RadialGrid(self.points[self.points <= r * (1 + 1e-12)])

    def nearest_index(self, r: float) -> int:
        if not (self.points[0] <= r <= self.points[-1]):
            raise InputError(f"radius {r} outside grid range")
        return int(np.argmin(np.abs(self.points - r)))


@dataclass(frozen=True)
class RadialPerturbation:
    """Radial perturbation h(s) = s^{singular_power} * data(s), data bounded.

    Forms:
      zero          h = 0
      power         h = C s^{eps-2}
      manufactured  h = -beta (beta + 2 sigma + N - 2) s^{beta-2}/(1+s^beta);
                    the solution with limit coefficient 1 and angular
                    eigenvalue matching sigma is exactly rho^sigma (1+rho^beta)
      tabulated     bounded samples on a grid, piecewise linear

    The sign stored is the potential-side one (see module docstring): a
    positive C strengthens the attractive singularity.
    """

    form: str
    singular_power: float
    coeff: float = 0.0
    eps: float | None = None
    beta: float | None = None
    sigma: float | None = None
    table: tuple | None = field(default=None, repr=False)
    integrability_exponent: float | None = None

    @classmethod
    def zero(cls):
        return cls(form="zero", singular_power=0.0)

    @classmethod
    def power(cls, C: float, eps: float, p: float | None = None):
        if eps <= 0:
            raise InputError(f"eps must be positive, got {eps}")
        return cls(form="power", singular_power=eps - 2.0, coeff=float(C),
                   eps=float(eps), integrability_exponent=p)

    @classmethod
    def manufactured(cls, beta: float, sigma: float, N: int, p: float | None = None):
        if beta <= 0:
            raise InputError(f"beta must be positive, got {beta}")
        K = beta * (beta + 2.0 * sigma + N - 2.0)
        return cls(form="manufactured", singular_power=beta - 2.0, coeff=-K,
                   beta=float(beta), sigma=float(sigma), integrability_exponent=p)

    @classmethod
    def tabulated(cls, radii, values, p: float | None = None):
        r = tuple(float(x) for x in radii)
        v = tuple(float(x) for x in values)
        if len(r) != len(v):
            raise InputError("tabulated radii and values must have equal length")
        return cls(form="tabulated", singular_power=0.0, table=(r, v),
                   integrability_exponent=p)

    def data(self, s: np.ndarray) -> np.ndarray:
        """Bounded factor so that h(s) = s^{singular_power} * data(s)."""
        if self.form == "zero":
            return np.zeros_like(s)
        if self.form == "power":
            return np.full_like(s, self.coeff)
        if self.form == "manufactured":
            return self.coeff / (1.0 + s**self.beta)
        r, v = self.table
        return np.interp(s, r, v)

    def values(self, s: np.ndarray) -> np.ndarray:
        return s**self.singular_power * self.data(s)

    @property
    def is_zero(self) -> bool:
        return self.form == "zero"

    def check_integrability(self, N: int) -> None:
        """Validate the claimed L^p exponent against the form's decay at zero.

        h = C s^{eps-2} lies in L^p(0,1) (radially, against s^{N-1} ds) iff
        p < N/(2-eps) when eps < 2; and the claim must satisfy p > N/2.
        """
        p = self.integrability_exponent
        if p is None:
            return
        if p <= N / 2:
            raise InputError(f"claimed p = {p} must exceed N/2 = {N/2}")
        e = self.eps if self.form == "power" else self.beta
        if e is not None and e < 2 and p >= N / (2.0 - e):
            raise InputError(
                f"claimed p = {p} not attained: the form lies in L^p only "
                f"for p < {N/(2.0-e)}"
            )


def _power_cell_weights(rho: np.ndarray, alpha: float):
    """Exact integrals of s^alpha against the linear hat data on each cell."""
    a, b = rho[:-1], rho[1:]
    if abs(alpha + 1.0) < 1e-12:
        P1 = np.log(b / a)
    else:
        P1 = (b ** (alpha + 1) - a ** (alpha + 1)) / (alpha + 1)
    P2 = (b ** (alpha + 2) - a ** (alpha + 2)) / (alpha + 2)  # alpha > -1 here
    wl = (b * P1 - P2) / (b - a)
    wr = (P2 - a * P1) / (b - a)
    return wl, wr


def integrate_power_from_zero(rho: np.ndarray, alpha: float, data: np.ndarray) -> np.ndarray:
    """Cumulative int_0^{rho_j} s^alpha data(s) ds, data sampled at rho, piecewise linear.

    The head cell (0, rho_1] takes the constant data value; it needs
    alpha > -1, otherwise the integral does not exist at this resolution.
    """
    if alpha + 1.0 <= 0:
        raise DivergentIntegralError(
            f"power s^{alpha} is not integrable at zero"
        )
    wl, wr = _power_cell_weights(rho, alpha)
    head = rho[0] ** (alpha + 1) / (alpha + 1) * data[0]
    return np.concatenate(([head], head + np.cumsum(wl * data[:-1] + wr * data[1:])))


def extrapolate_geometric(s0: float, s1: float, s2: float) -> float:
    """Limit c of samples s_j = c + A q^{2-j}, 0 < q < 1, ordered outward.

    The defect shrinks by q per step toward the origin, so the limit sits
    beyond s0.  Samples whose differences are not geometric with such a q
    give s0 back unchanged.
    """
    d1, d2 = s1 - s0, s2 - s1
    if abs(d2) > 1e-300 and 0 < d1 / d2 < 1:
        q = d1 / d2
        return float(s0 - d1 * q / (1.0 - q))
    return float(s0)


@dataclass(frozen=True)
class RadialProfile:
    """Solved coefficient phi_k on its grid with representation constants."""

    dim: int
    mu: float
    exponents: Exponents
    grid: RadialGrid
    values: np.ndarray = field(repr=False)
    perturbation: RadialPerturbation = None
    c_limit: float = 0.0   # lim rho^{-sigma_plus} phi
    c1: float = 0.0        # upper-limit representation constant
    c2: float = 0.0        # coefficient of rho^{sigma_minus}
    residual: float = 0.0  # final Picard sup-distance
    iterations: int = 0

    @property
    def boundary_value(self) -> float:
        return float(self.values[-1])

    def scaled(self, s: float) -> "RadialProfile":
        """The profile of limit coefficient s c_limit: the Volterra map is linear."""
        return replace(
            self, values=self.values * s, c_limit=self.c_limit * s, c1=self.c1 * s,
            c2=self.c2 * s, residual=self.residual * abs(s),
        )


def _volterra_integrals(exps: Exponents, h: RadialPerturbation, rho, phi):
    """(I_plus, I_minus): cumulative integrals of s^{1-s_pm} h phi from zero."""
    scaled = phi / rho**exps.sigma_plus  # bounded data factor
    data = h.data(rho) * scaled
    a_plus = 1.0 - exps.sigma_plus + h.singular_power + exps.sigma_plus
    a_minus = 1.0 - exps.sigma_minus + h.singular_power + exps.sigma_plus
    Ip = integrate_power_from_zero(rho, a_plus, data)
    Im = integrate_power_from_zero(rho, a_minus, data)
    return Ip, Im


def solve_mode_picard(
    N: int,
    mu: float,
    h: RadialPerturbation,
    c1: float,
    grid: RadialGrid,
    tol: float = 1e-12,
) -> RadialProfile:
    """Fixed-point solve of the Volterra representation with limit coefficient c1.

    The map is linear in the limit coefficient, so the iteration runs at c = 1
    and the profile is scaled by c1 at the end: tol bounds the sup-distance of
    the unit-coefficient sweeps, whatever c1.  The iterate starts at
    rho^{sigma_plus} (exact for h = 0) and maps through the two cumulative
    integrals, with the upper-limit representation constant re-tied to 1
    every sweep.  If the sup-distance stops decreasing after a burn-in, the
    perturbation is too strong for this outer radius and NonContractionError
    advises shrinking it; a non-finite sweep is a NumericalError at once.
    """
    exps = sigma_pair(N, mu)
    if exps.degenerate:
        raise InputError(
            "degenerate exponents (zero discriminant): the representation "
            "divides by sigma_plus - sigma_minus"
        )
    h.check_integrability(N)
    if tol <= 0:
        raise InputError("tol must be positive")
    rho = grid.points
    D = exps.gap
    phi = rho**exps.sigma_plus
    if h.is_zero:
        return _finish_profile(N, mu, exps, grid, phi, h, 0.0, 1).scaled(c1)
    prev_dist = math.inf
    for it in range(1, PICARD_MAX_SWEEPS + 1):
        with np.errstate(all="ignore"):  # a non-finite sweep raises below
            Ip, Im = _volterra_integrals(exps, h, rho, phi)
            new = rho**exps.sigma_plus * (1.0 - Ip / D) + rho**exps.sigma_minus * (Im / D)
            dist = float(np.max(np.abs(new - phi)))
        if not math.isfinite(dist):
            raise NumericalError(f"Picard sweep {it} is not finite on this radial grid")
        phi = new
        if dist <= tol:
            return _finish_profile(N, mu, exps, grid, phi, h, dist, it).scaled(c1)
        if it > 5 and dist >= prev_dist:
            raise NonContractionError(
                f"Picard distance stopped decreasing ({prev_dist:.3e} -> "
                f"{dist:.3e} at sweep {it}); the perturbation is too strong "
                "for this outer radius, solve on a smaller ball"
            )
        prev_dist = dist
    raise NonContractionError(
        f"no convergence to {tol} within {PICARD_MAX_SWEEPS} sweeps (last {prev_dist:.3e})"
    )


def _finish_profile(N, mu, exps, grid, phi, h, dist, iters):
    """The unit-coefficient profile (c_limit = 1) of the converged iterate phi."""
    D = exps.gap
    if h.is_zero:
        c1_repr, c2 = 1.0, 0.0
    else:
        Ip, Im = _volterra_integrals(exps, h, grid.points, phi)
        # upper-limit representation constants: c1 = c - (1/D) int_0^R, c2 = (1/D) int_0^R
        c1_repr = 1.0 - float(Ip[-1]) / D
        c2 = float(Im[-1]) / D
    return RadialProfile(
        dim=N, mu=mu, exponents=exps, grid=grid,
        values=phi, perturbation=h, c_limit=1.0, c1=c1_repr, c2=c2,
        residual=dist, iterations=iters,
    )


def solve_mode_bvp(
    N: int,
    mu: float,
    h: RadialPerturbation,
    gamma: float,
    grid: RadialGrid,
    tol: float = 1e-12,
) -> RadialProfile:
    """Boundary-value solve: phi at the outer radius equals gamma.

    The Volterra map is linear in the limit coefficient, so the unit solve
    scaled by gamma / phi(R) is the solution; the scale carries over to the
    representation constants and the Picard residual.
    """
    if not math.isfinite(gamma):
        raise InputError("boundary value must be finite")
    prof = solve_mode_picard(N, mu, h, 1.0, grid, tol)
    if prof.boundary_value == 0.0:
        raise NumericalError("boundary value of the homogeneous solve vanished")
    return prof.scaled(gamma / prof.boundary_value)


@dataclass(frozen=True)
class LimitEstimate:
    value: float          # the profile's limit coefficient c_limit
    measured: float       # Richardson extrapolation of rho^{-s+} phi
    discrepancy: float


def limit_coefficient(profile: RadialProfile) -> LimitEstimate:
    """Limit of rho^{-sigma_plus} phi, as solved for and as measured.

    The Volterra representation ties the profile to its limit coefficient
    c_limit exactly (c1 + (1/D) int_0^R s^{1-s+} h phi is c_limit by the
    construction of c1), so that is the value.  The measured route
    Richardson-extrapolates the scaled profile over the three smallest radii
    and the discrepancy between the two is reported.
    """
    rho = profile.grid.points
    with np.errstate(divide="ignore", invalid="ignore"):  # the caller sees a NaN
        scaled = profile.values[:3] / rho[:3] ** profile.exponents.sigma_plus
    measured = extrapolate_geometric(*scaled)
    value = float(profile.c_limit)
    return LimitEstimate(value=value, measured=measured, discrepancy=abs(value - measured))


def ode_residual(profile: RadialProfile) -> np.ndarray:
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
        + (profile.dim - 1) / mid * d1
        - profile.mu / mid**2 * phi[1:-1]
        + h.values(mid) * phi[1:-1]
    )
