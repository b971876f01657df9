"""Angular eigenproblem -Delta_{S^{N-1}} psi - a(theta) psi = mu psi.

Axisymmetric potentials only: a depends on the polar angle t in (0, pi).
Separation over degree-m harmonics of the equatorial sphere S^{N-2} reduces
the problem to a family of singular Sturm-Liouville problems on (0, pi),
one per azimuthal tower, with centrifugal constant nu_m = m(m+N-3).

Each tower is discretized in the transformed variable
w(t) = psi(t) * sin^{(N-2)/2}(t), which vanishes at both poles, so the
matrices are symmetric tridiagonal with homogeneous Dirichlet ends.  Two
treatments of the singular sin^{-2} coefficient are provided:

``flux``
    Coefficients derived from the quadratic form of the weighted problem
    (fluxes of sin^{N-2} at cell midpoints, no flux through the poles).
    Second-order convergent for every N >= 3, and exact on constants:
    mu_1(a=0) = 0 to rounding.  Default.

``node``
    The singular coefficient sampled at the nodes.  For N = 3 the m = 0
    tower converges only logarithmically (the sin^{-2} coefficient sits at
    the critical Hardy constant), but this is the convention under which
    the reference critical-coupling table was produced, so it is kept
    available for reproduction runs.

All operations are pure and deterministic; concurrent calls on distinct
inputs are safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal

from .errors import EigenSolveError, InputError, ResolutionError

SAMPLINGS = ("flux", "node")


def unit_sphere_area(d: int) -> float:
    """Surface area |S^{d-1}| = 2 pi^{d/2} / Gamma(d/2) of the unit sphere in R^d."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def centrifugal_constant(N: int, m: int) -> int:
    """Eigenvalue nu_m = m(m+N-3) of -Delta on S^{N-2} for degree-m harmonics."""
    return m * (m + N - 3)


def harmonic_multiplicity(N: int, m: int) -> int:
    """dim H_m(S^{N-2}): 1 for m = 0; for N = 3 it is 2 for every m >= 1.

    For d = N-2 >= 2 the dimension is (2m+d-1) (m+d-2)! / (m! (d-1)!).
    """
    if m == 0:
        return 1
    d = N - 2
    if d == 1:
        return 2
    return (2 * m + d - 1) * math.factorial(m + d - 2) // (math.factorial(m) * math.factorial(d - 1))


_GAUSS7_NODES, _GAUSS7_WEIGHTS = np.polynomial.legendre.leggauss(7)


def _sin_power_cell_integrals(k: int, edges: np.ndarray) -> np.ndarray:
    """Integrals of sin^k over consecutive cells, 7-point Gauss per cell.

    Recurrence antiderivatives of sin^k cancel catastrophically near the
    poles once k grows; the quadrature sums positive values instead and is
    exact through polynomial degree 13, which covers the t^k leading
    behavior of every dimension this package targets.
    """
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    pts = mid[:, None] + half[:, None] * _GAUSS7_NODES[None, :]
    vals = np.sin(pts) ** k
    return half * (vals @ _GAUSS7_WEIGHTS)


@dataclass(frozen=True)
class PolarGrid:
    """Uniform grid of M interior nodes t_i = i pi/(M+1) on (0, pi)."""

    dim: int
    size: int
    nodes: np.ndarray = field(repr=False)
    step: float = 0.0
    weights: np.ndarray = field(default=None, repr=False)  # sin^{N-2}(t_i)
    area_full: float = 0.0      # |S^{N-1}|
    area_equator: float = 0.0   # |S^{N-2}|

    @classmethod
    def build(cls, N: int, M: int) -> "PolarGrid":
        if N < 3:
            raise InputError(f"dimension must be >= 3, got {N}")
        if M < 3:
            raise InputError(f"grid needs at least 3 interior nodes, got {M}")
        h = math.pi / (M + 1)
        t = h * np.arange(1, M + 1)
        return cls(
            dim=N,
            size=M,
            nodes=t,
            step=h,
            weights=np.sin(t) ** (N - 2),
            area_full=unit_sphere_area(N),
            area_equator=unit_sphere_area(N - 1),
        )

    def integrate(self, values: np.ndarray) -> float:
        """Integral over S^{N-1} of an axisymmetric sampled function."""
        return self.area_equator * float(np.sum(values * self.weights)) * self.step

    def spherical_mean(self, values: np.ndarray) -> float:
        return self.integrate(values) / self.area_full

    def average(self, values: np.ndarray) -> float:
        """Quadrature-normalized mean; exact on constants at any resolution."""
        return float(np.sum(values * self.weights) / np.sum(self.weights))


@dataclass(frozen=True)
class AngularPotential:
    """Axisymmetric potential on S^{N-1}: constant, dipole lam*cos(t), or tabulated."""

    kind: str
    ess_sup: float
    mean: float
    kappa: float | None = None
    coupling: float | None = None
    values: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def constant(cls, kappa: float) -> "AngularPotential":
        return cls(kind="constant", ess_sup=float(kappa), mean=float(kappa), kappa=float(kappa))

    @classmethod
    def dipole(cls, lam: float) -> "AngularPotential":
        return cls(kind="dipole", ess_sup=abs(float(lam)), mean=0.0, coupling=float(lam))

    @classmethod
    def tabulated(cls, values, grid: PolarGrid) -> "AngularPotential":
        vals = np.asarray(values, dtype=float)
        if vals.shape != grid.nodes.shape:
            raise InputError(
                f"tabulated potential has {vals.size} samples, grid has {grid.size} nodes"
            )
        return cls(
            kind="tabulated",
            ess_sup=float(np.max(vals)),
            mean=grid.spherical_mean(vals),
            values=vals,
        )

    def sample(self, grid: PolarGrid) -> np.ndarray:
        if self.kind == "constant":
            return np.full(grid.size, self.kappa)
        if self.kind == "dipole":
            return self.coupling * np.cos(grid.nodes)
        if self.values.shape != grid.nodes.shape:
            raise InputError(
                f"tabulated potential has {self.values.size} samples, grid has {grid.size} nodes"
            )
        return self.values

    @property
    def is_constant(self) -> bool:
        return self.kind == "constant"


@dataclass(frozen=True)
class TridiagonalMatrix:
    """Symmetric tridiagonal operator with the grid step it was built on."""

    diag: np.ndarray
    off: np.ndarray
    step: float

    @property
    def size(self) -> int:
        return self.diag.size

    def shifted(self, s: float) -> "TridiagonalMatrix":
        return TridiagonalMatrix(self.diag + s, self.off, self.step)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        y = self.diag * x
        y[:-1] += self.off * x[1:]
        y[1:] += self.off * x[:-1]
        return y


class PolarTowers:
    """The tower operators of one (N, potential, grid, sampling), built per m.

    Only the diagonal depends on the azimuthal degree m, through nu_m times
    an m-independent profile.  The sampled potential, the shared
    off-diagonal and the m-independent parts of the diagonal are computed
    once here; `matrix(m)` rebuilds a tower's diagonal in O(M).

    The continuous object is -w'' + [(N-2)(N-4)/4 + nu_m] w / sin^2 t
    - ((N-2)/2)^2 w - a(t) w with w = 0 at both poles.  The curvature shift
    makes the discrete eigenvalues approximate the sphere eigenvalues mu_k
    directly (mu_1 = 0 for a = 0).
    """

    def __init__(self, N: int, potential: AngularPotential, grid: PolarGrid, sampling: str):
        if grid.size < 3:
            raise InputError("grid too small")
        if sampling not in SAMPLINGS:
            raise InputError(f"unknown sampling {sampling!r}, expected one of {SAMPLINGS}")
        if grid.dim != N:
            raise InputError(f"grid built for dimension {grid.dim}, requested {N}")
        self.N, self.grid, self.sampling = N, grid, sampling
        self.a = potential.sample(grid)
        h = grid.step
        t = grid.nodes
        if sampling == "node":
            self._base = 2.0 / h**2
            self._sin2 = np.sin(t) ** 2
            self.off = np.full(grid.size - 1, -1.0 / h**2)
            return

        # flux form: stiffness of int sin^{N-2} (psi')^2 with midpoint fluxes and
        # no flux through the poles; the centrifugal energy nu int sin^{N-4} psi^2
        # integrated exactly over cells; both symmetrized by the lumped
        # sin^{N-2} mass.
        tmid = 0.5 * (t[:-1] + t[1:])
        p = np.sin(tmid) ** (N - 2)
        w = grid.weights
        fluxes = np.zeros(grid.size + 1)
        fluxes[1:-1] = p
        self._base = (fluxes[:-1] + fluxes[1:]) / (h**2 * w)
        self._edges = np.concatenate([[t[0] - h / 2], tmid, [t[-1] + h / 2]])
        self._wh = w * h
        self.off = -p / (h**2 * np.sqrt(w[:-1] * w[1:]))

    @cached_property
    def _cells(self) -> np.ndarray:
        """Cell integrals of sin^{N-4}; only the towers m >= 1 need them."""
        return _sin_power_cell_integrals(self.N - 4, self._edges)

    def matrix(self, m: int) -> TridiagonalMatrix:
        """Tower-m operator; eigenvalues approximate the mu_k of that tower."""
        if m < 0:
            raise InputError(f"azimuthal degree must be >= 0, got {m}")
        N = self.N
        nu = centrifugal_constant(N, m)
        if self.sampling == "node":
            beta2 = ((N - 2) / 2.0) ** 2
            d = self._base + ((N - 2) * (N - 4) / 4.0 + nu) / self._sin2 - beta2 - self.a
        else:
            centrifugal = nu * self._cells / self._wh if nu else 0.0
            d = self._base + centrifugal - self.a
        return TridiagonalMatrix(d, self.off, self.grid.step)


def assemble_polar_operator(
    N: int,
    potential: AngularPotential,
    m: int,
    grid: PolarGrid,
    sampling: str = "flux",
) -> TridiagonalMatrix:
    """Discrete tower-m operator in the w coordinate (see `PolarTowers`)."""
    return PolarTowers(N, potential, grid, sampling).matrix(m)


def count_at_most(matrix: TridiagonalMatrix, x: float, solver=None) -> int:
    """Number of eigenvalues of `matrix` at or below x, by a Sturm count.

    An absolute tolerance spanning the whole range leaves LAPACK's value
    bisection (stebz) nothing to refine, so it returns after the Sturm
    counts at the interval ends (Barth, Martin and Wilkinson 1967): two
    O(M) sweeps and an exact count.  The returned values are meaningless;
    only their number is used.  `solver` is the `eigvalsh_tridiagonal` to
    call through, this module's binding by default.
    """
    solve = eigvalsh_tridiagonal if solver is None else solver
    return solve(
        matrix.diag, matrix.off, select="v", select_range=(-math.inf, x), tol=math.inf
    ).size


def polar_eigen(matrix: TridiagonalMatrix, count: int):
    """First `count` eigenpairs, ascending.

    Eigenvectors are orthonormal in the step-weighted inner product
    sum_i v_i u_i h and carry a deterministic sign: first nonzero component
    positive.  LAPACK's bisection/inverse-iteration backend either converges
    or raises; a failure is re-raised as EigenSolveError, never truncated.
    """
    if count < 1 or count > matrix.size:
        raise InputError(f"count must be in [1, {matrix.size}], got {count}")
    try:
        vals, vecs = eigh_tridiagonal(
            matrix.diag, matrix.off, select="i", select_range=(0, count - 1)
        )
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure path
        raise EigenSolveError(f"tridiagonal eigensolver failed: {exc}") from exc
    vecs = vecs / math.sqrt(matrix.step)
    out = []
    for j in range(count):
        v = vecs[:, j]
        nz = np.flatnonzero(v)
        if nz.size and v[nz[0]] < 0:
            v = -v
        out.append((float(vals[j]), v))
    return out


@dataclass(frozen=True)
class AngularMode:
    """One eigenvalue of a fixed azimuthal tower, with its profile for m = 0.

    `polar` holds the w-coordinate profile at the interior nodes, normalized
    so the full eigenfunction has unit L^2(S^{N-1}) norm:
    |S^{N-2}| sum w_i^2 h = 1.  Only m = 0 modes carry it; modes of the
    towers m >= 1 carry mu and multiplicity only and have `polar` None.
    """

    m: int
    mu: float
    multiplicity: int
    polar: np.ndarray | None = field(default=None, repr=False)

    def psi(self, grid: PolarGrid) -> np.ndarray:
        """Polar-angle samples of psi = w / sin^{(N-2)/2} at interior nodes."""
        if self.polar is None:
            raise InputError(
                f"mode of tower m = {self.m} carries mu and multiplicity only; "
                "polar profiles are computed for the m = 0 tower"
            )
        return self.polar / np.sin(grid.nodes) ** ((grid.dim - 2) / 2.0)


def _quadratic_pole_value(x0: float, x: np.ndarray, y: np.ndarray) -> float:
    """Value at x0 of the quadratic through three (x, y) samples."""
    c = np.polyfit(x, y, 2)
    return float(np.polyval(c, x0))


def mode_sup_norm(mode: AngularMode, grid: PolarGrid) -> float:
    """Sup norm of psi over interior nodes plus quadratic extrapolation to poles."""
    psi = mode.psi(grid)
    t = grid.nodes
    return max(float(np.max(np.abs(psi))),
               abs(_quadratic_pole_value(0.0, t[:3], psi[:3])),
               abs(_quadratic_pole_value(math.pi, t[-3:], psi[-3:])))


@dataclass(frozen=True)
class AngularSpectrum:
    """Merged sphere spectrum with multiplicities, sorted ascending."""

    grid: PolarGrid
    potential: AngularPotential
    modes: tuple
    sampling: str = "flux"

    @property
    def mu_1(self) -> float:
        return self.modes[0].mu

    @property
    def psi_1(self) -> AngularMode:
        return self.modes[0]

    def flattened(self) -> np.ndarray:
        """Eigenvalues repeated according to multiplicity, nondecreasing."""
        return np.repeat(
            [md.mu for md in self.modes], [md.multiplicity for md in self.modes]
        )

    def tower(self, m: int):
        return [md for md in self.modes if md.m == m]

    def axisymmetric_mode(self, k: int) -> AngularMode:
        """k-th mode (1-based, ascending mu) of the m = 0 tower.

        Axisymmetric solution fields expand over this tower only, so radial
        mode indices throughout the package refer to it.
        """
        tower = self.tower(0)
        if k < 1 or k > len(tower):
            raise InputError(
                f"axisymmetric mode index {k} outside the computed range "
                f"1..{len(tower)}"
            )
        return tower[k - 1]


# each step costs a Sturm count per tower and halves the bracket's overshoot,
# which the value probes would pay for; 3 reach the gap above the K-th
# value's cluster near l(l+N-2) at K = 500
_BRACKET_BISECTIONS = 3


def _probe_towers(towers: PolarTowers, K: int):
    """(m = 0 matrix, each tower's values up to a bracket of the K-th flattened value).

    Phase one brackets the K-th flattened value by Sturm counts alone;
    phase two makes one value probe per tower up to the bracket, and the
    first empty tower ends the scan.
    """
    N, grid = towers.N, towers.grid
    axial = towers.matrix(0)

    def scan():
        """Tower matrices m = 0, 1, ... in turn, with a guard on the tower count."""
        yield 0, axial
        for m in range(1, grid.size + 1):
            yield m, towers.matrix(m)
        raise ResolutionError("tower merge did not terminate")  # pragma: no cover

    def reaches(x: float) -> bool:
        """F(x) >= K, summed tower by tower until it is decided."""
        total = 0
        for m, mat in scan():
            count = count_at_most(mat, x)
            if count == 0:
                return False
            total += harmonic_multiplicity(N, m) * count
            if total >= K:
                return True

    mu1 = eigvalsh_tridiagonal(axial.diag, axial.off, select="i", select_range=(0, 0))[0]
    lo, span = mu1, 1.0
    while not reaches(mu1 + span):
        lo, span = mu1 + span, 2.0 * span
    hi = mu1 + span
    for _ in range(_BRACKET_BISECTIONS):
        mid = 0.5 * (lo + hi)
        if reaches(mid):
            hi = mid
        else:
            lo = mid

    probed: list[np.ndarray] = []
    for _, mat in scan():
        vals = eigvalsh_tridiagonal(mat.diag, mat.off, select="v", select_range=(-math.inf, hi))
        if vals.size == 0:
            return axial, probed
        probed.append(vals.copy())  # not a view that keeps LAPACK's M-long output alive


def full_spectrum(
    N: int,
    potential: AngularPotential,
    K: int,
    grid: PolarGrid,
    sampling: str = "flux",
) -> AngularSpectrum:
    """Merge azimuthal towers until K flattened eigenvalues are safely collected.

    The K-th flattened value is bracketed before any value is computed.
    F(x) = sum_m mult(m) * count_m(x) counts the flattened eigenvalues at or
    below x with one Sturm count per tower (`count_at_most`); tower bottoms
    are strictly increasing in m (the quadratic forms differ by the positive
    term nu_m / sin^2), so the sum stops at the first tower with none.
    Starting from mu_1, a span above it is doubled until F reaches K, then
    bisected a few steps; hi is the upper end of that bracket.

    Each tower up to the first empty one then makes one value probe for its
    eigenvalues up to hi, and the K-th of the merged values is the cutoff.
    Eigenvectors are computed for the surviving m = 0 modes only, by the
    index-range solve `polar_eigen`, so mu_1, psi_1 and the axisymmetric
    modes are exactly what an index-range probe of that tower gives: radial
    mode indices and psi_1 refer to it.  Modes of the towers m >= 1 keep
    their probed values and carry no profile.  Those come from bisection
    over a value range, so they agree with an index-range probe to within
    LAPACK's bisection tolerance (about eps * ||T_m||), not bit for bit.
    """
    if K < 1:
        raise InputError(f"K must be >= 1, got {K}")
    if K > grid.size:
        raise ResolutionError(
            f"K={K} exceeds what the grid resolves per tower (M={grid.size})"
        )
    # PolarTowers dies here, before the eigenvectors: its arrays would otherwise
    # pin heap pages under them and raise the peak RSS
    axial, probed = _probe_towers(PolarTowers(N, potential, grid, sampling), K)
    flat = np.sort(np.concatenate(
        [np.repeat(vals, harmonic_multiplicity(N, m)) for m, vals in enumerate(probed)]
    ))
    if flat.size < K:
        raise EigenSolveError(f"value probes found {flat.size} of the {K} counted eigenvalues")

    # final cutoff, eigenvectors only for the surviving m = 0 modes
    cutoff = flat[K - 1]
    keep = int(np.searchsorted(probed[0], cutoff, side="right"))
    collected = [
        AngularMode(m=0, mu=mu, multiplicity=1, polar=vec / math.sqrt(grid.area_equator))
        for mu, vec in polar_eigen(axial, keep)
    ]
    for m, vals in enumerate(probed[1:], start=1):
        mult = harmonic_multiplicity(N, m)
        collected.extend(
            AngularMode(m=m, mu=float(mu), multiplicity=mult)
            for mu in vals[vals <= cutoff]
        )

    collected.sort(key=lambda md: (md.mu, md.m))
    spectrum = AngularSpectrum(
        grid=grid, potential=potential, modes=tuple(collected), sampling=sampling
    )
    ground = spectrum.psi_1
    if ground.m != 0:
        raise EigenSolveError("ground mode did not come from the m = 0 tower")
    if np.any(ground.polar <= 0):
        # the sign convention makes the nodeless ground profile positive;
        # a sign change here means the grid cannot resolve the potential
        raise ResolutionError("ground-mode profile is not strictly positive")
    return spectrum


@dataclass(frozen=True)
class Mu1BoundsReport:
    lower_ok: bool
    upper_ok: bool
    lower_margin: float
    upper_margin: float


def check_mu1_bounds(spectrum: AngularSpectrum) -> Mu1BoundsReport:
    """Strict bounds -ess sup a < mu_1 < -mean(a) for nonconstant potentials."""
    a = spectrum.potential
    if a.is_constant:
        raise InputError(
            "bounds are vacuous for constant potentials (mu_1 = -kappa exactly)"
        )
    mu1 = spectrum.mu_1
    lower = mu1 - (-a.ess_sup)
    upper = (-a.mean) - mu1
    return Mu1BoundsReport(
        lower_ok=lower > 0, upper_ok=upper > 0, lower_margin=lower, upper_margin=upper
    )


def _sup_ratios(spectrum: AngularSpectrum):
    N = spectrum.grid.dim
    power = math.floor((N - 1) / 4) + 1
    ratios = []
    for md in spectrum.modes:
        if md.m != 0 or md.mu == 0.0:
            continue
        ratios.append(mode_sup_norm(md, spectrum.grid) / abs(md.mu) ** power)
    return ratios


def eigenfunction_sup_ratio(spectrum: AngularSpectrum) -> float:
    """max over m=0 modes with mu != 0 of |psi_k|_inf / |mu_k|^{floor((N-1)/4)+1}."""
    if len(spectrum.tower(0)) < 2:
        raise InputError("need at least two m = 0 modes")
    ratios = _sup_ratios(spectrum)
    if not ratios:
        raise InputError("no m = 0 mode with nonzero eigenvalue")
    return max(ratios)


@dataclass(frozen=True)
class WeylFit:
    exponent: float
    constant: float
    max_rel_residual: float
    window: tuple


def weyl_fit(spectrum: AngularSpectrum) -> WeylFit:
    """Least-squares fit mu_k ~ C k^p over the top half of the flattened range.

    The counting asymptotics predict p = 2/(N-1).
    """
    flat = spectrum.flattened()
    if flat.size < 100:
        raise InputError(f"need >= 100 flattened eigenvalues, have {flat.size}")
    k0 = flat.size // 2
    window = flat[k0:]
    if np.any(window <= 0):
        raise ResolutionError(
            "nonpositive eigenvalues in the fit window; shift the window"
        )
    ks = np.arange(k0 + 1, flat.size + 1, dtype=float)
    logk = np.log(ks)
    logmu = np.log(window)
    p, logc = np.polyfit(logk, logmu, 1)
    fit = np.exp(logc) * ks**p
    resid = float(np.max(np.abs(window - fit) / window))
    return WeylFit(
        exponent=float(p),
        constant=float(np.exp(logc)),
        max_rel_residual=resid,
        window=(k0 + 1, flat.size),
    )
