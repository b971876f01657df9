"""Angular eigenproblem -Delta_{S^{N-1}} psi - a(theta) psi = mu psi.

Axisymmetric potentials only: a depends on the polar angle t in (0, pi).
Separation over degree-m harmonics of the equatorial sphere S^{N-2} reduces
the problem to a family of singular Sturm-Liouville problems on (0, pi),
one per azimuthal tower, with centrifugal constant nu_m = m(m+N-3).

Each tower is discretized in the transformed variable
w(t) = psi(t) * sin^{(N-2)/2}(t), which vanishes at both poles, so the
matrices are symmetric tridiagonal with homogeneous Dirichlet ends.  w stays
inside the tower solves: modes carry psi, and `PolarGrid` holds the factor
sin^{(N-2)/2} between the two and the sphere quadrature.  The grid is the
whole discretization: it fixes N, the node count M and one of two treatments
of the singular sin^{-2} coefficient, and no solver takes any of them again:

``flux``
    Coefficients derived from the quadratic form of the weighted problem
    (fluxes of sin^{N-2} at cell midpoints, no flux through the poles).
    Second-order convergent for every N >= 3 except on tower m = 1 at
    N = 3, and exact on constants: mu_1(a=0) = 0 to rounding.  The first
    free value of tower (3, 1) converges irregularly: errors -4.9e-6,
    -6.7e-7, -3.0e-8 at M = 624, 1249, 2499, ratios 7.3 and 22 where towers
    (3, 2) and (4, 1) show 4.0-4.2.  Default of `PolarGrid.build`.

``node``
    The singular coefficient sampled at the nodes.  For N = 3 the m = 0
    tower converges only logarithmically (the sin^{-2} coefficient sits at
    the critical Hardy constant), but this is the convention under which
    the reference critical-coupling table was produced, so it is kept
    available for reproduction runs.

One kernel solves every tower, after inertia counts (`count_at_most`) have
fixed how many values it solves.  Each value gets a cell: an interval that
holds it, clear of every other eigenvalue by a gap, in which
Rayleigh-quotient iteration (`_iterate`) certifies it within
2^-6 eps ||T||_1.  A cluster that no cell splits is bisected by one dstebz
call, and its bisected values are its values.  Cells come from one of two
sources.  Probed cells (`_probed_cells`): a value probe at the width
w = 2^-1 (`_probe`) bounds each value, and counts on the lattice wZ place
its cell (`_cell`).  Guided cells (`_guided_cells`): the free levels
l(l + N - 2), l = m + j - 1, guess value j of tower m from the towers
below, g_j = lambda_j(T_0) + 2j + N - 3 for m = 1 and g_j =
2 lambda_j(T_{m-1}) - lambda_j(T_{m-2}) + 2 (the levels' second
difference in m) for m >= 2, and counts between the guesses prove one
value in each interval.  The m = 0 tower keeps its vectors and takes
probed cells (`polar_eigen`); the towers m >= 1 keep no vectors and take
guided cells, else probed ones (`_tower_values`).

LAPACK (dgttrf, dgttrs, dpttrf, dstebz) is reached through
`_lapack`, which loads scipy's `_flapack` extension without importing
`scipy.linalg`.

All operations are deterministic, and all but `axisymmetric_spectrum` are
pure: that one keeps its last result, read-only, for the next call on the
same values (see there).  Concurrent calls are safe: `lru_cache` guards
the one entry, two calls that miss on one key both solve it, and two counts
that race on one (matrix, x) store the same count in the matrix's memo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from ._lapack import dgttrf, dgttrs, dpttrf, dstebz, eigvalsh_tridiagonal
from .errors import EigenSolveError, InputError, ResolutionError
from .exponents import classical_hardy_constant

SAMPLINGS = ("flux", "node")


def __getattr__(name: str):
    """`eigh_tridiagonal`, bound but never called: perfbench/tracer.py wraps the name."""
    if name == "eigh_tridiagonal":
        from scipy.linalg import eigh_tridiagonal
        return eigh_tridiagonal
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


_EPS = float(np.finfo(float).eps)  # also the absolute tolerance of a cluster's bisection
_TINY = float(np.finfo(float).tiny)


def unit_sphere_area(d: int) -> float:
    """Surface area |S^{d-1}| = 2 pi^{d/2} / Gamma(d/2) of the unit sphere in R^d."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def centrifugal_constant(N: int, m: int) -> int:
    """Eigenvalue nu_m = m(m+N-3) of -Delta on S^{N-2} for degree-m harmonics."""
    return m * (m + N - 3)


def harmonic_multiplicity(N: int, m: int) -> int:
    """dim H_m(S^{N-2}): 1 for m = 0; for N = 3 it is 2 for every m >= 1.

    For d = N-2 >= 1 the dimension is (2m+d-1) (m+d-2)! / (m! (d-1)!).
    """
    if m == 0:
        return 1
    d = N - 2
    return (2 * m + d - 1) * math.factorial(m + d - 2) // (math.factorial(m) * math.factorial(d - 1))


# 7-point Gauss-Legendre rule on [-1, 1], numpy.polynomial.legendre.leggauss(7)
# bit for bit, written out: importing numpy.polynomial costs every command ~5 ms
_GAUSS7_NODES = np.array([float.fromhex(x) for x in (
    "-0x1.e5f178e7c622ap-1", "-0x1.7ba9f9be3a1d6p-1", "-0x1.9f95df119fd62p-2", "0x0.0p+0",
    "0x1.9f95df119fd62p-2", "0x1.7ba9f9be3a1d6p-1", "0x1.e5f178e7c622ap-1")])
_GAUSS7_WEIGHTS = np.array([float.fromhex(x) for x in (
    "0x1.092f69f826d58p-3", "0x1.1e6b1713d8648p-2", "0x1.86fe74ee32b39p-2", "0x1.abfd7e03c2fa4p-2",
    "0x1.86fe74ee32b39p-2", "0x1.1e6b1713d8648p-2", "0x1.092f69f826d58p-3")])


def _sin_power_cell_integrals(k: int, edges: np.ndarray) -> np.ndarray:
    """Integrals of sin^k over consecutive cells, 7-point Gauss per cell.

    Recurrence antiderivatives of sin^k cancel catastrophically near the
    poles once k grows; the quadrature sums positive values instead and is
    exact through polynomial degree 13, which covers the t^k leading
    behavior of every dimension this package targets.
    """
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    vals = half[:, None] * _GAUSS7_NODES[None, :]  # one (cells x 7) array, updated in place
    vals += mid[:, None]
    np.sin(vals, out=vals)
    vals **= k
    return half * (vals @ _GAUSS7_WEIGHTS)


@dataclass(frozen=True)
class PolarGrid:
    """Uniform grid of M interior nodes t_i = i pi/(M+1) on (0, pi), for S^{N-1}.

    Axisymmetric functions on S^{N-1} are sampled as psi at the nodes; the
    tower solves use w = psi * `half_weights`, and int_S f ~ f @ `quadrature`.
    `sampling` ("flux" or "node") treats the singular coefficient of every
    operator on the grid; `build` rejects flux where sin^{N-2} underflows.
    """

    dim: int
    size: int
    sampling: str
    nodes: np.ndarray = field(repr=False)
    step: float
    weights: np.ndarray = field(repr=False)       # sin^{N-2}(t_i)
    half_weights: np.ndarray = field(repr=False)  # sin^{(N-2)/2}(t_i), w = psi * half_weights
    quadrature: np.ndarray = field(repr=False)    # |S^{N-2}| h sin^{N-2}(t_i)
    area_full: float      # |S^{N-1}|
    area_equator: float   # |S^{N-2}|

    @classmethod
    def build(cls, N: int, M: int, sampling: str = "flux") -> "PolarGrid":
        if sampling not in SAMPLINGS:
            raise InputError(f"unknown sampling {sampling!r}, expected one of {SAMPLINGS}")
        if N < 3:
            raise InputError(f"dimension must be >= 3, got {N}")
        if M < 3:
            raise InputError(f"grid needs at least 3 interior nodes, got {M}")
        try:
            area_full, area_equator = unit_sphere_area(N), unit_sphere_area(N - 1)
        except OverflowError:
            raise ResolutionError(f"|S^(N-1)| overflows float64 at N = {N} (grid M = {M})") from None
        h = math.pi / (M + 1)
        t = h * np.arange(1, M + 1)
        weights = np.sin(t) ** (N - 2)
        if sampling == "flux" and np.min(weights[:-1] * weights[1:]) == 0.0:
            raise ResolutionError(f"flux sampling at N = {N} on M = {M} polar nodes: "
                                  "sin^(N-2) underflows next to the poles")
        return cls(dim=N, size=M, sampling=sampling, nodes=t, step=h, weights=weights,
                   half_weights=np.sin(t) ** ((N - 2) / 2.0),
                   quadrature=area_equator * h * weights,
                   area_full=area_full, area_equator=area_equator)

    def average(self, values: np.ndarray) -> float:
        """Quadrature-normalized mean; exact on constants at any resolution."""
        return float(np.sum(values * self.weights) / np.sum(self.weights))


@dataclass(frozen=True)
class AngularPotential:
    """Axisymmetric potential on S^{N-1}: constant, dipole lam*cos(t), or tabulated."""

    kind: str
    ess_sup: float
    kappa: float | None = None
    coupling: float | None = None
    values: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def constant(cls, kappa: float) -> "AngularPotential":
        return cls(kind="constant", ess_sup=float(kappa), kappa=float(kappa))

    @classmethod
    def dipole(cls, lam: float) -> "AngularPotential":
        return cls(kind="dipole", ess_sup=abs(float(lam)), coupling=float(lam))

    @classmethod
    def tabulated(cls, values, grid: PolarGrid) -> "AngularPotential":
        vals = cls(kind="tabulated", ess_sup=math.nan,
                   values=np.asarray(values, dtype=float)).sample(grid)  # checks the size
        if not np.all(np.isfinite(vals)):
            raise InputError("tabulated potential has a non-finite sample")
        return cls(kind="tabulated", ess_sup=float(np.max(vals)), values=vals)

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


@dataclass(frozen=True)
class TridiagonalMatrix:
    """Symmetric tridiagonal operator with the grid step it was built on.

    It remembers ||T||_1, the pivmin of its counts and each `count_at_most`
    taken of it (`_counts`, not in ==, repr or __init__); that holds because
    no code writes to `diag` or `off` once a matrix is built.
    """

    diag: np.ndarray
    off: np.ndarray
    step: float
    _counts: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def size(self) -> int:
        return self.diag.size

    def shifted(self, s: float) -> "TridiagonalMatrix":
        return TridiagonalMatrix(self.diag + s, self.off, self.step)

    @cached_property
    def _one_norm(self) -> float:
        off = np.abs(self.off)  # ||T||_1, the largest absolute column sum
        return float(np.max(np.abs(self.diag) + np.append(off, 0.0) + np.insert(off, 0, 0.0)))

    def one_norm(self) -> float:
        return self._one_norm

    @cached_property
    def pivmin(self) -> float:  # LAPACK dstebz's smallest pivot size, tiny * max(1, max e^2)
        return _TINY * max(1.0, float(np.max(np.abs(self.off), initial=0.0)) ** 2)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        y = self.diag * x
        y[:-1] += self.off * x[1:]
        y[1:] += self.off * x[:-1]
        return y


class PolarTowers:
    """The tower operators of one (potential, grid), each built once.

    Only the diagonal depends on the azimuthal degree m, through nu_m times
    an m-independent profile.  The sampled potential, the shared
    off-diagonal and the m-independent parts of the diagonal are computed
    once here; `matrix(m)` builds a tower's diagonal in O(M) on its first
    call and returns the same matrix afterwards.

    The continuous object is -w'' + [(N-2)(N-4)/4 + nu_m] w / sin^2 t
    - ((N-2)/2)^2 w - a(t) w with w = 0 at both poles.  The curvature shift
    makes the discrete eigenvalues approximate the sphere eigenvalues mu_k
    directly (mu_1 = 0 for a = 0).
    """

    def __init__(self, potential: AngularPotential, grid: PolarGrid):
        self.grid = grid
        self._matrices: dict[int, TridiagonalMatrix] = {}
        self.a = potential.sample(grid)
        h = grid.step
        t = grid.nodes
        if grid.sampling == "node":
            self._base = 2.0 / h**2
            self._sin2 = np.sin(t) ** 2
            self.off = np.full(grid.size - 1, -1.0 / h**2)
            return

        # flux form: stiffness of int sin^{N-2} (psi')^2 with midpoint fluxes and
        # no flux through the poles; the centrifugal energy nu int sin^{N-4} psi^2
        # integrated exactly over cells; both symmetrized by the lumped
        # sin^{N-2} mass.
        tmid = 0.5 * (t[:-1] + t[1:])
        p = np.sin(tmid) ** (grid.dim - 2)
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
        return _sin_power_cell_integrals(self.grid.dim - 4, self._edges)

    def matrix(self, m: int) -> TridiagonalMatrix:
        """Tower-m operator; eigenvalues approximate the mu_k of that tower."""
        if m < 0:
            raise InputError(f"azimuthal degree must be >= 0, got {m}")
        if m in self._matrices:
            return self._matrices[m]
        N = self.grid.dim
        nu = centrifugal_constant(N, m)
        if self.grid.sampling == "node":
            beta2 = classical_hardy_constant(N)
            d = self._base + ((N - 2) * (N - 4) / 4.0 + nu) / self._sin2 - beta2 - self.a
        else:
            centrifugal = nu * self._cells / self._wh if nu else 0.0
            d = self._base + centrifugal - self.a
        self._matrices[m] = TridiagonalMatrix(d, self.off, self.grid.step)
        return self._matrices[m]


def assemble_polar_operator(
    potential: AngularPotential,
    m: int,
    grid: PolarGrid,
) -> TridiagonalMatrix:
    """Discrete tower-m operator in the w coordinate (see `PolarTowers`)."""
    return PolarTowers(potential, grid).matrix(m)


def count_at_most(matrix: TridiagonalMatrix, x: float) -> int:
    """Number of eigenvalues of `matrix` at or below x: the pivots p_i < pivmin of T - x I.

    By Sylvester's law of inertia the eigenvalues at or below x are counted
    by the nonpositive pivots of LDL^T = T - x I.  LAPACK's dpttrf factors
    one copy of diag - x and one of off in place and stops at the first
    pivot p_i <= 0.  That pivot is counted; if it is smaller in size than
    pivmin = tiny * max(1, max e^2) it becomes -pivmin (LAPACK dstebz's
    rule, which keeps every e_i^2 / p_i finite).  e_i^2 / p_i is subtracted
    from the next diagonal entry and dpttrf resumes in place on the trailing
    block; a trailing 1 x 1 block, like the last pivot, counts when it is
    below pivmin.  One O(M) sweep in all, plus a call per counted pivot.
    dpttrf lets a positive pivot below pivmin pass, which dstebz counts;
    that happens only within about pivmin of an eigenvalue of a leading block.
    At an x within rounding of an eigenvalue the count may go either way:
    diag [3, -1, 0], off [-2, 2] has the eigenvalue -3, where the last
    pivot rounds to 4.4e-16 and the count is 0, not the exact 1.

    A count depends on (matrix, x) alone: the matrix remembers it, and a
    second request at the same x makes no sweep.
    """
    if x in matrix._counts:
        return matrix._counts[x]
    d = np.subtract(matrix.diag, x, dtype=float)  # dpttrf works in place on float64 only
    e = np.array(matrix.off, dtype=float)
    count, start, last, pivmin = 0, 0, d.size - 1, matrix.pivmin
    while start < last:
        info = dpttrf(d[start:], e[start:], overwrite_d=1, overwrite_e=1)[2]
        if info == 0:
            break
        j = start + info - 1
        if j == last:  # d[last] <= 0 holds the last pivot, counted below
            break
        count += 1
        pivot = min(d[j], -pivmin)
        d[j + 1] -= e[j] / pivot * e[j]
        start = j + 1
    matrix._counts[x] = count + int(d[last] < pivmin)
    return matrix._counts[x]


# Rayleigh-quotient iteration (`_iterate`): a quotient is accepted at a
# residual within _RESIDUAL eps ||T||_1, at most _RQI_STEPS quotients a vector
_RESIDUAL = 16.0
_RQI_STEPS = 8


def _cell_width(matrix: TridiagonalMatrix) -> tuple[float, float]:
    """(lattice width, finest width) of the cells of `matrix`, both powers of 2.

    No cell is split below 2^-37 ||T||_1 rounded up to a power of 2, the
    finest width, so every gap is 2^-38 ||T||_1 > 2^14 eps ||T||_1 or more.
    The lattice width is 2^-1, or the finest width where that is wider, so
    that half a width covers the rounding of counts and of the probe.
    """
    finest = math.ldexp(1.0, math.frexp(matrix.one_norm())[1] - 37)  # ||T||_1 < 2^e
    return max(0.5, finest), finest


def _probe(matrix: TridiagonalMatrix, x: float, count: int, width: float) -> list[float]:
    """[-inf, p_1, ..., p_count, p_count+1 or top]: probe values of the count lowest eigenvalues.

    One value probe (LAPACK dstebz through `eigvalsh_tridiagonal`) at the
    tolerance w = `width`, up to top = x + 4w, puts eigenvalue j within w of
    p_j (w/2 for the probe, w/2 for rounding), and every other one at or
    below p_{j-1} + w or at or above p_{j+1} - w; top stands for the value
    above the last one probed.  Fewer probe values than count is an
    EigenSolveError.
    """
    top = x + 4.0 * width
    probe = eigvalsh_tridiagonal(matrix.diag, matrix.off, select="v",
                                 select_range=(-math.inf, top), tol=width).tolist()
    if len(probe) < count:
        raise EigenSolveError(f"value probe found {len(probe)} of {count} counted eigenvalues")
    return ([-math.inf] + probe[:count + 1] + [top])[:count + 2]


class _Cell(NamedTuple):
    """Eigenvalue j lies in [lo, hi], and every other one `gap` or more away from it.

    `shift` starts the iteration; a cluster's cells have its bisected values as
    shifts and values, and an infinite gap.
    """

    shift: float
    lo: float
    hi: float
    gap: float


def _cell(matrix: TridiagonalMatrix, j: int, probed: list[float], width: float,
          finest: float) -> list[_Cell]:
    """The cell of eigenvalue j, or the cells of its cluster j..last, placed by counts.

    Counts place eigenvalue j in the lattice cell (x, x + w], x in wZ, that
    holds it, and halve the cell, keeping the half that holds j, until no
    other eigenvalue lies within one width of it.  The iteration's cell
    reaches a quarter width past each end, for the rounding of counts, and
    its gap is w/2.  It depends on the matrix and j alone: the probe values
    `probed` (see `_probe`) only skip the counts whose outcome their bounds
    prove.  A cell still shared at the finest width holds a cluster, whose
    members all took j's halving path, so j is its first index: one LAPACK
    dstebz call bisects the values in that cell (x, x + w] to an absolute
    tolerance eps, from one start, so that they come out ascending; where
    it finds other than the values j..last that the counts at x and x + w
    name, one call by index j..last does.  A finest cell that holds j
    alone, with a neighbour within a width, is a cluster of one.
    """
    value, below, above = probed[j], probed[j - 1] + width, probed[j + 1] - width
    left = width * math.floor(value / width)
    if count_at_most(matrix, left) >= j:  # value - w > left - w bounds eigenvalue j below
        left -= width
    elif count_at_most(matrix, left + width) < j:  # and value + w < left + 2w above
        left += width
    while True:  # j alone in (left, left + 2w], then in (left - w, left + 2w]
        if ((left + 2.0 * width < above or count_at_most(matrix, left + width) == j
             and count_at_most(matrix, left + 2.0 * width) == j)
                and (below < left - width or count_at_most(matrix, left - width) == j - 1)):
            return [_Cell(left + 0.5 * width, left - 0.25 * width, left + 1.25 * width,
                          0.5 * width)]
        if width <= finest:
            break
        width *= 0.5
        if count_at_most(matrix, left + width) < j:
            left += width
    last = count_at_most(matrix, left + width)
    found, vals, *_, info = dstebz(matrix.diag, matrix.off, 1, left, left + width, 1, 1, _EPS, "E")
    if info != 0 or found != last - j + 1 or count_at_most(matrix, left) != j - 1:
        found, vals, *_, info = dstebz(matrix.diag, matrix.off, 2, 0.0, 0.0, j, last, _EPS, "E")
    if info != 0 or found != last - j + 1:
        raise EigenSolveError(f"bisection of eigenvalues {j}..{last} failed (dstebz info {info})")
    return [_Cell(mu, left - width, left + 2.0 * width, math.inf) for mu in vals[:found].tolist()]


@lru_cache(maxsize=4)
def _start_vector(n: int) -> np.ndarray:
    """The first n outputs of splitmix64 from seed 0, their top 53 bits scaled to [-1, 1).

    Integer arithmetic alone, so no libm, BLAS or host moves a bit; read-only,
    one per size.  Noise has a share of every eigenvector, where one tone is
    all but orthogonal to the smooth ones.
    """
    z = np.arange(1, n + 1, dtype=np.uint64)  # in place: few temporaries at large n
    z *= np.uint64(0x9E3779B97F4A7C15)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    z >>= np.uint64(11)  # 53 bits, exact in float64
    x = z.astype(float)
    x *= 2.0**-52
    x -= 1.0
    x.flags.writeable = False
    return x


def _quotient(matrix: TridiagonalMatrix, x: np.ndarray) -> tuple[float, float]:
    """(theta, ||Tx - theta x||^2) of the unit vector x, theta = x.Tx, by pairwise sums."""
    r = matrix.matvec(x)
    theta = float(np.add.reduce(r * x))
    r -= theta * x
    return theta, float(np.add.reduce(r * r))


def _orthonormal(x: np.ndarray, kept: list[np.ndarray]) -> np.ndarray:
    """x, in place, less its parts along the unit vectors `kept` (modified Gram-Schmidt), unit.

    Every reduction is a pairwise sum, so no BLAS call touches it.
    """
    for u in kept:
        x -= np.add.reduce(u * x) * u
    x /= math.sqrt(np.add.reduce(x * x))
    return x


def _iterate(matrix: TridiagonalMatrix, cell: _Cell,
             kept: list[np.ndarray]) -> tuple[float, np.ndarray]:
    """(theta, x): Rayleigh-quotient iteration in `cell`, x a unit vector orthogonal to `kept`.

    From the fixed `_start_vector`, two solves with T - sI at the cell's
    shift s (LAPACK dgttrf, dgttrs) and then one a step form x;
    `_orthonormal` against the unit vectors `kept` follows every step, and
    `_quotient` gives theta and r = Tx - theta x without BLAS.  theta is
    accepted inside the cell once ||r|| <= 16 eps ||T||_1: with a gap of
    2^14 eps ||T||_1 or more (`_cell_width`), that puts theta within
    ||r||^2 / gap <= 2^-6 eps ||T||_1 of the cell's eigenvalue (the residual
    bound of Kato and Temple; Parlett, The Symmetric Eigenvalue Problem,
    Thm 11.7.1) and x within 16 eps ||T||_1 / gap of its eigenvector.  Else
    a theta inside the cell with ||r|| < gap, nearer the cell's eigenvalue
    than any other, is the next step's shift; any other theta (a start with
    little of the cell's eigenvector), or one that is an eigenvalue to the
    bit (dgttrf info > 0), is not, and the next step solves with the same
    factors again.  As in LAPACK's dstein, a cluster's cell (infinite gap)
    starts from the start vector less its parts along `kept`, and a shift
    there that is an eigenvalue to the bit moves up once, by 10 eps ||T||_1
    (10 eps |s| can leave T - sI unchanged).  Any other such shift, or no
    acceptance within `_RQI_STEPS` steps, is an EigenSolveError.
    """
    off, limit = matrix.off, (_RESIDUAL * _EPS * matrix.one_norm())**2
    shift, cluster = cell.shift, cell.gap == math.inf
    *factors, info = dgttrf(off, matrix.diag - shift, off, overwrite_d=1)
    if info != 0 and cluster:
        shift += 10.0 * _EPS * matrix.one_norm()
        *factors, info = dgttrf(off, matrix.diag - shift, off, overwrite_d=1)
    if info != 0:
        raise EigenSolveError(f"the shift {shift!r} is an eigenvalue to the bit "
                              f"(dgttrf info {info})")
    x = _start_vector(matrix.size)
    if cluster:
        x = _orthonormal(np.array(x), kept)
    for step in range(_RQI_STEPS):
        for _ in range(1 if step else 2):
            x = dgttrs(*factors, x)[0]
        theta, rr = _quotient(matrix, _orthonormal(x, kept))
        if cell.lo <= theta <= cell.hi and rr < cell.gap**2:
            if rr <= limit:
                return theta, x
            *shifted, info = dgttrf(off, matrix.diag - theta, off, overwrite_d=1)
            if info == 0:
                factors = shifted
    raise EigenSolveError(f"Rayleigh-quotient iteration from {cell.shift!r} was not accepted "
                          f"in {_RQI_STEPS} steps")


def _probed_cells(matrix: TridiagonalMatrix, x: float, count: int) -> list[_Cell]:
    """The cells of the count lowest eigenvalues of `matrix`, all at or below x, ascending.

    One `_probe` up to x, then a walk over the indices j: each value's
    cell, or the cells of its whole cluster, from `_cell`, and on past them.
    A cluster that reaches past the count gives its first members alone.
    Cell j depends on the matrix and j alone, whatever x and the count.
    """
    width, finest = _cell_width(matrix)
    probed, cells = _probe(matrix, x, count, width), []
    while len(cells) < count:
        cells += _cell(matrix, len(cells) + 1, probed, width, finest)[:count - len(cells)]
    return cells


def polar_eigen(matrix: TridiagonalMatrix, x: float):
    """The eigenpairs at or below x, ascending; for x < x', a prefix of those up to x', bit for bit.

    Pair j comes from cell j of `_probed_cells`: its value is the quotient
    that `_iterate` accepts there, or its cluster's bisected value, and its
    vector is the iteration's, orthogonal to the vectors before it, with a
    residual within 16 eps ||T||_1 at its own quotient.  Eigenvectors are
    orthonormal in the step-weighted inner product sum_i v_i u_i h and
    carry a deterministic sign: first nonzero component positive.  A NaN
    bound is an InputError.
    """
    if math.isnan(x):
        raise InputError("the eigenvalue bound x is NaN")
    count = count_at_most(matrix, x)
    if count == 0:
        return []
    values, kept = [], []
    for cell in _probed_cells(matrix, x, count):
        theta, v = _iterate(matrix, cell, kept)
        values.append(cell.shift if cell.gap == math.inf else theta)
        # twice is enough: a cluster's solves grow v along kept
        kept.append(_orthonormal(v, kept))
    scale = 1.0 / math.sqrt(matrix.step)
    for v in kept:
        v *= scale if v[np.flatnonzero(v)[0]] > 0 else -scale
    return list(zip(values, kept))


@dataclass(frozen=True)
class AngularMode:
    """One eigenvalue of a fixed azimuthal tower, with its profile for m = 0.

    `psi` holds the eigenfunction's samples at the interior polar nodes,
    normalized to unit L^2(S^{N-1}) norm: psi**2 @ grid.quadrature = 1 up
    to rounding.  Only m = 0 modes carry it; modes of the towers m >= 1
    carry mu and multiplicity only and have `psi` None.
    """

    m: int
    mu: float
    multiplicity: int
    psi: np.ndarray | None = field(default=None, repr=False)


def mode_sup_norm(mode: AngularMode) -> float:
    """Sup norm of psi over the nodes and at the poles, where the quadratic through the
    three nearest equispaced samples y1, y2, y3 (y1 nearest) takes 3 y1 - 3 y2 + y3."""
    psi = mode.psi
    return max(float(np.max(np.abs(psi))),
               abs(float(3.0 * psi[0] - 3.0 * psi[1] + psi[2])),
               abs(float(3.0 * psi[-1] - 3.0 * psi[-2] + psi[-3])))


@dataclass(frozen=True)
class AngularSpectrum:
    """Merged sphere spectrum with multiplicities, sorted ascending.

    From `axisymmetric_spectrum`, `modes` hold the m = 0 tower alone.
    """

    grid: PolarGrid
    potential: AngularPotential
    modes: tuple
    axial: TridiagonalMatrix = field(repr=False)  # the m = 0 operator that was solved

    @property
    def m0_rounding(self) -> float:  # eps ||T_0||_1, the rounding in the m = 0 eigenvalues
        return _EPS * self.axial.one_norm()

    @property
    def mu_1(self) -> float:
        return self.modes[0].mu

    @property
    def psi_1(self) -> AngularMode:
        return self.modes[0]

    def apply_axial(self, psi: np.ndarray) -> np.ndarray:
        """The solved m = 0 operator applied to psi on the polar nodes, in psi coordinates."""
        return self.axial.matvec(psi * self.grid.half_weights) / self.grid.half_weights

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


# where the free level does not bound the K-th value, `_bracket` bisects its
# doubled span this many times, a count per tower a step, each step halving
# the values above the K-th that the towers still solve (4 or 5 steps cost
# 12-24 % more counts for 2-4 of 672 m >= 1 values).  hi moves no printed
# digit: the m = 0 pairs up to hi are a prefix of those up to any larger
# bound, and an m >= 1 value moves with hi, through its cell, only within
# rounding
_BRACKET_BISECTIONS = 3


def _scan(towers: PolarTowers, first: int):
    """Tower matrices m = first, first + 1, ... in turn, with a guard on the tower count."""
    for m in range(first, towers.grid.size + 1):
        yield m, towers.matrix(m)
    raise ResolutionError("tower merge did not terminate")  # pragma: no cover


def _count_from(towers: PolarTowers, first: int, x: float, limit: int) -> int:
    """sum_{m >= first} mult(m) * count_m(x), one Sturm count per tower.

    Tower bottoms increase with m, so the sum stops at the first tower with
    no value up to x; it also stops once it exceeds `limit`.
    """
    total = 0
    for m, mat in _scan(towers, first):
        count = count_at_most(mat, x)
        if count == 0:
            return total
        total += harmonic_multiplicity(towers.grid.dim, m) * count
        if total > limit:
            return total


def _bracket(towers: PolarTowers, K: int) -> float:
    """An upper bound hi of the K-th flattened value, from Sturm counts alone.

    By Weyl's inequality a moves each value of the free sphere by at most
    its range, so up to discretization the K-th value lies in
    [l(l+N-2) - max a, l(l+N-2) - min a], where l is the level of the K-th
    free value (each level l(l+N-2) counted dim H_l(S^{N-1}) times).  hi is
    first U = l(l+N-2) - min a + 1, taken when one count-sum F(U) >= K and
    U lies below V = (l+1)(l+N-1) - max a, the lowest value that the next
    level reaches.  Otherwise (discretization lifts values above their
    level, a oscillates by more than the levels' gap, or U is not finite) a
    span from -max a doubles until F reaches K and is bisected
    `_BRACKET_BISECTIONS` times.
    """
    start = -float(np.max(towers.a))  # below mu_1 for flux sampling (Weyl)
    if start + 1.0 == start:
        raise ResolutionError(f"float64 cannot resolve eigenvalues next to a = {-start:.3g}")

    def reaches(x: float) -> bool:
        """F(x) >= K, summed tower by tower until it is decided."""
        return _count_from(towers, 0, x, K - 1) >= K

    N, level, total = towers.grid.dim, 0, 1
    while total < K:  # total: the free values up to level l
        level += 1
        total += harmonic_multiplicity(N + 1, level)
    guess = level * (level + N - 2) - float(np.min(towers.a)) + 1.0  # U
    if guess < (level + 1) * (level + N - 1) + start and reaches(guess):  # U < V fails for NaN, inf
        return guess
    lo, span = start, 1.0
    while not reaches(start + span):
        lo, span = start + span, 2.0 * span
    hi = start + span
    for _ in range(_BRACKET_BISECTIONS):
        mid = 0.5 * (lo + hi)
        if reaches(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _guided_cells(matrix: TridiagonalMatrix, hi: float, guesses: list[float],
                  width: float) -> list[_Cell] | None:
    """Cells at the guesses of the values of `matrix` up to hi where counts prove them, else None.

    The ends c_0 < ... < c_n of the n guesses' intervals are the midpoints
    of consecutive guesses, hi above the last and the mirror of c_1 about
    g_1 below the first.  Each guess must lie the width w or more inside its
    interval (c_{j-1}, c_j], so the guesses increase, and count_at_most
    must read j at c_j (at hi it read n): then that interval holds
    eigenvalue j alone, and its cell is the interval less w/2 at each end,
    with the gap w/2 (at least 2^14 eps ||T||_1, see `_cell_width`).  None
    before any count where a guess fails that, and at the first count that
    disagrees.
    """
    ends = [0.5 * (a + b) for a, b in zip(guesses, guesses[1:])] + [hi]
    ends.insert(0, 2.0 * guesses[0] - ends[0])
    intervals = list(zip(guesses, ends, ends[1:]))
    if not all(min(g - lo, up - g) >= width for g, lo, up in intervals) or any(
            count_at_most(matrix, c) != j for j, c in enumerate(ends[:-1])):
        return None
    return [_Cell(g, lo + 0.5 * width, up - 0.5 * width, 0.5 * width) for g, lo, up in intervals]


def _cell_values(matrix: TridiagonalMatrix, cells: list[_Cell]) -> list[float]:
    """The value in each cell, without vectors: a cluster's bisected value, else `_iterate`'s."""
    return [cell.shift if cell.gap == math.inf else _iterate(matrix, cell, [])[0] for cell in cells]


def _tower_values(towers: PolarTowers, hi: float, axial: list[float]) -> list[np.ndarray]:
    """The values up to hi, without vectors, of the towers m >= 1, ascending in each tower.

    `axial` holds the m = 0 values up to hi.  Tower m gives the
    count_at_most(T_m, hi) values that the bracket summed, from the cells
    of `_guided_cells` where they are proven and every iteration in them is
    accepted, else from those of `_probed_cells`.  The first tower with
    none ends the scan.
    """
    N, values = towers.grid.dim, [axial]
    for m, mat in _scan(towers, 1):
        count = count_at_most(mat, hi)
        if count == 0:
            return [np.array(vals) for vals in values[1:]]
        below = values[-1][:count]
        if m == 1:
            guesses = [mu + (2 * j + N - 3) for j, mu in enumerate(below, 1)]
        else:
            guesses = [2.0 * mu - nu + 2.0 for mu, nu in zip(below, values[-2])]
        width = _cell_width(mat)[0]
        cells = _guided_cells(mat, hi, guesses, width) if len(guesses) == count else None
        try:
            vals = _cell_values(mat, cells or [])
        except EigenSolveError:  # a guess too far from its value: the probe's cells instead
            vals = []
        values.append(vals or _cell_values(mat, _probed_cells(mat, hi, count)))


def _axial_modes(grid: PolarGrid, pairs, n: int) -> list[AngularMode]:
    """The first n modes of the m = 0 `polar_eigen` pairs, with psi = w / sin^((N-2)/2)."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # checked below
        modes = [AngularMode(m=0, mu=mu, multiplicity=1,
                             psi=vec / math.sqrt(grid.area_equator) / grid.half_weights)
                 for mu, vec in pairs[:n]]
    if not all(np.all(np.isfinite(md.psi)) for md in modes):
        raise ResolutionError(f"psi = w / sin^((N-2)/2) overflows float64 next to the poles "
                              f"at N = {grid.dim} on M = {grid.size} polar nodes")
    if np.any(modes[0].psi <= 0):
        # the sign convention makes the nodeless ground profile positive;
        # a sign change here means the grid cannot resolve the potential
        raise ResolutionError("ground-mode profile is not strictly positive")
    return modes


def _axial_solve(potential: AngularPotential, K: int, grid: PolarGrid):
    """(towers, hi, the m = 0 `polar_eigen` pairs up to hi): what both spectra share.

    Two lowest values within 16 eps ||T_0||_1 leave the ground profile
    undetermined: ResolutionError, as for a ground profile that changes
    sign, before any tower m >= 1 is solved or counted by the keep rule.
    """
    if K < 1:
        raise InputError(f"K must be >= 1, got {K}")
    if K > grid.size:
        raise ResolutionError(f"K={K} exceeds what the grid resolves per tower (M={grid.size})")
    towers = PolarTowers(potential, grid)
    hi = _bracket(towers, K)
    pairs = polar_eigen(towers.matrix(0), hi)
    gap = pairs[1][0] - pairs[0][0] if len(pairs) > 1 else math.inf
    if gap <= 16.0 * _EPS * towers.matrix(0).one_norm():
        raise ResolutionError(f"the two lowest m = 0 eigenvalues lie {gap:.3g} apart, within "
                              f"16 eps ||T_0||_1: the grid (M = {grid.size}) cannot separate "
                              "the ground mode")
    return towers, hi, pairs


def full_spectrum(
    potential: AngularPotential,
    K: int,
    grid: PolarGrid,
) -> AngularSpectrum:
    """Merge azimuthal towers until K flattened eigenvalues are safely collected.

    Sturm counts bracket the K-th flattened value by hi before any value is
    computed (`_bracket`); if float64 cannot add 1 to -max a, nothing is
    solved: ResolutionError.  The m = 0 tower is solved once, with
    eigenvectors, by `polar_eigen(T_0, hi)`, so mu_1, psi_1 and the
    axisymmetric modes are the same bits for every K that keeps them.  Each
    tower m >= 1 up to the first one with no value at or below hi gives its
    count_at_most(T_m, hi) lowest values, without profiles, to within
    2^-6 eps ||T_m||_1 and rounding (`_tower_values`); those counts summed
    to at least K when the bracket took hi, and an m >= 1 value moves with
    K only within rounding.  The K-th of the merged values is the cutoff.
    """
    N = grid.dim
    towers, hi, pairs = _axial_solve(potential, K, grid)
    probed = _tower_values(towers, hi, [mu for mu, _ in pairs])
    flat = np.sort(np.concatenate(
        [[mu for mu, _ in pairs]]
        + [np.repeat(vals, harmonic_multiplicity(N, m)) for m, vals in enumerate(probed, 1)]
    ))
    cutoff = flat[K - 1]
    if flat[0] < pairs[0][0]:
        raise EigenSolveError("ground mode did not come from the m = 0 tower")

    collected = _axial_modes(grid, pairs, sum(mu <= cutoff for mu, _ in pairs))
    collected += [AngularMode(m=m, mu=float(mu), multiplicity=harmonic_multiplicity(N, m))
                  for m, vals in enumerate(probed, 1) for mu in vals[vals <= cutoff]]
    collected.sort(key=lambda md: (md.mu, md.m))
    return AngularSpectrum(grid=grid, potential=potential, modes=tuple(collected),
                           axial=towers.matrix(0))


def axisymmetric_spectrum(
    potential: AngularPotential,
    K: int,
    grid: PolarGrid,
) -> AngularSpectrum:
    """The m = 0 modes among the K lowest flattened eigenvalues, without the values of m >= 1.

    The same modes as `full_spectrum(...).tower(0)`, bit for bit, from the
    same Sturm-count bracket hi (`_bracket`: the free sphere's level where
    one count-sum confirms it) and the same `polar_eigen(T_0, hi)`; the
    towers m >= 1 make Sturm counts only.
    mu_j is kept exactly when j + sum_{m >= 1} mult(m) * count_m(mu_j) <= K.
    The tower-0 term is j, not a count at mu_j, which sits within rounding
    of where that count flips.  The kept modes are a prefix, found by
    bisection over j.  The result's `modes` are the m = 0 tower alone, so
    its `flattened()` is not the sphere spectrum.

    The last result is remembered, one entry, keyed on values, not objects:
    N, M, sampling, K, the potential's kind and the exact bits of kappa or
    lambda (`float.hex`: 0.0 and -0.0 differ) or a table's sample bytes.  A
    hit returns that result, whose grid and potential were rebuilt from the
    key; it is shared, so its grid's `nodes`, `weights`, `half_weights` and
    `quadrature`, every `psi` and `axial.diag`/`axial.off` are read-only.
    The solve is deterministic, so a hit has the bits of a fresh solve.  A
    call that raises leaves the entry as it was.
    """
    if potential.kind == "tabulated":
        value = potential.values.tobytes()
    else:
        value = float.hex(potential.kappa if potential.kind == "constant" else potential.coupling)
    return _axisymmetric_memo(grid.dim, grid.size, grid.sampling, K, potential.kind, value)


@lru_cache(maxsize=1)
def _axisymmetric_memo(N: int, M: int, sampling: str, K: int, kind: str,
                       value: str | bytes) -> AngularSpectrum:
    """`axisymmetric_spectrum` on the grid and potential that its key rebuilds."""
    grid = PolarGrid.build(N, M, sampling)
    if kind == "tabulated":
        potential = AngularPotential.tabulated(np.frombuffer(value), grid)
    elif kind == "constant":
        potential = AngularPotential.constant(float.fromhex(value))
    else:
        potential = AngularPotential.dipole(float.fromhex(value))
    towers, _, pairs = _axial_solve(potential, K, grid)
    lo, top = 0, len(pairs)
    while lo < top:
        j = (lo + top + 1) // 2
        if j + _count_from(towers, 1, pairs[j - 1][0], K - j) <= K:
            lo = j
        else:
            top = j - 1
    if lo == 0:
        raise EigenSolveError("ground mode did not come from the m = 0 tower")
    axial = towers.matrix(0)
    modes = tuple(_axial_modes(grid, pairs, lo))
    for array in (grid.nodes, grid.weights, grid.half_weights, grid.quadrature,
                  axial.diag, axial.off, *(md.psi for md in modes)):
        array.flags.writeable = False
    return AngularSpectrum(grid=grid, potential=potential, modes=modes, axial=axial)


def eigenfunction_sup_ratio(spectrum: AngularSpectrum) -> float:
    """max over m=0 modes with |mu| > 4 eps ||T_0||_1 of |psi_k|_inf / |mu_k|^{floor((N-1)/4)+1}."""
    tower = spectrum.tower(0)
    if len(tower) < 2:
        raise InputError("need at least two m = 0 modes")
    power = math.floor((spectrum.grid.dim - 1) / 4) + 1
    floor = 4.0 * spectrum.m0_rounding
    ratios = [mode_sup_norm(md) / abs(md.mu) ** power for md in tower if abs(md.mu) > floor]
    if not ratios:
        raise InputError("no m = 0 mode with nonzero eigenvalue")
    return max(ratios)


@dataclass(frozen=True)
class WeylFit:
    exponent: float
    constant: float
    max_rel_residual: float


def weyl_fit(spectrum: AngularSpectrum) -> WeylFit:
    """Least-squares fit mu_k ~ C k^p over the top half of the flattened range.

    The counting asymptotics predict p = 2/(N-1).  The two normal equations
    are solved in closed form on the centred log k, in pairwise sums, so no
    BLAS kernel touches the fit.
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
    x_mean = np.add.reduce(logk) / logk.size
    x = logk - x_mean
    p = np.add.reduce(x * logmu) / np.add.reduce(x * x)
    logc = np.add.reduce(logmu) / logmu.size - p * x_mean
    fit = np.exp(logc) * ks**p
    resid = float(np.max(np.abs(window - fit) / window))
    return WeylFit(
        exponent=float(p),
        constant=float(np.exp(logc)),
        max_rel_residual=resid,
    )
