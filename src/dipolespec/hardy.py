"""Best constant of the Hardy-type inequality and the critical dipole coupling.

The best constant Lambda_N(a) is the largest eigenvalue of the matrix pencil
B w = Lambda A w of the axisymmetric (m = 0) tower, where B = diag(a(t_i))
and A discretizes the denominator form int(|w'|^2 + [(N-2)(N-4)/4] w^2 /
sin^2) of the reduced one-dimensional characterization (the w-transform
absorbs the ((N-2)/2)^2 mass term of the spherical form exactly).  Tower m
has the denominator A + diag(nu_m c), c > 0, under both samplings, so it
never carries a larger value when a has a positive sample.  If ess sup
a <= 0, every tower's value is <= 0 and rises to 0 with nu_m: the best
constant is 0.

Two independent routes to the critical dipole coupling are provided: the
reciprocal of the pencil value at unit coupling, and monotone bisection on
the coupling for the first sphere eigenvalue crossing -((N-2)/2)^2, each
step decided by one LDL^T factorization (LAPACK dpttrf): is the m = 0
tower shifted by that threshold positive definite?  At the discrete level
both characterize the same singularity of A - lambda B, so they agree to
solver tolerance on a common grid.  The bisection may take the pencil's
coupling as a guess: it then skips the sweeps that would only narrow the
bracket down to the guess, after checking that the bracket it starts from
is the one the unguided run passes through, so the result keeps its bits
and the route stays independent of the pencil.

Every solve reads N and the sampling from its `PolarGrid`.  Deterministic
throughout, and on any BLAS kernel: both routes factor with LAPACK dpttrf
(LDL^T of a symmetric tridiagonal matrix), whose loops call no BLAS.  The
pencil's one routine, `_lanczos_largest`, runs Lanczos on A^{-1} B in the A
inner product, each step one dpttrs solve on A's factor, and reduces in
pairwise sums; its Ritz values come from dstebz.  All of these come from
`_lapack`, which loads scipy's `_flapack` extension without importing
`scipy.linalg`.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from ._lapack import dpttrf, dpttrs, eigvalsh_tridiagonal
from .angular import AngularPotential, PolarGrid, TridiagonalMatrix, assemble_polar_operator
from .errors import (BracketError, EigenSolveError, IndefiniteFormError, InputError,
                     ResolutionError)
from .exponents import classical_hardy_constant
from .radial import check_eps


def __getattr__(name: str):
    """`solve_banded` and `cholesky_banded`, bound but never called: perfbench/tracer.py
    wraps the names."""
    if name in ("solve_banded", "cholesky_banded"):
        import scipy.linalg
        return getattr(scipy.linalg, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


_LANCZOS_CAP = 500
_LANCZOS_TOL = 1e-13
_BISECTION_TOL = 1e-8  # width of the final coupling bracket


def _lanczos_largest(A: TridiagonalMatrix, b: np.ndarray) -> float:
    """Largest value Lambda of the pencil diag(b) w = Lambda A w (the Ritz value only).

    A = L D L^T is factored once (LAPACK dpttrf), and a failed factorization
    is the IndefiniteFormError.  Lanczos runs on A^{-1} B, self-adjoint in
    the A inner product, from the all-ones vector normalized in that
    product, with full reorthogonalization, and stops when the largest Ritz
    value settles.  Each step makes one dpttrs solve A w = b q on the
    factor; the A inner products take A q_i, kept beside each basis vector
    q_i from `A.matvec`.  Every reduction is a pairwise `np.add.reduce`, so
    no BLAS call touches the value.  A nonzero LAPACK info of a solve is an
    EigenSolveError.
    """
    d, e, info = dpttrf(A.diag, A.off)
    if info != 0:
        raise IndefiniteFormError(
            "denominator form is numerically indefinite at this grid "
            "resolution; refine the polar grid"
        )
    ones = np.ones(A.size)
    A_ones = A.matvec(ones)
    norm = math.sqrt(np.add.reduce(ones * A_ones))
    basis = [(ones / norm, A_ones / norm)]  # (q_i, A q_i)
    alphas: list[float] = []
    betas: list[float] = []
    prev = math.inf
    for _ in range(_LANCZOS_CAP):
        q = basis[-1][0]
        w = b * q
        alphas.append(float(np.add.reduce(q * w)))
        w, info = dpttrs(d, e, w, overwrite_b=1)
        if info != 0:
            raise EigenSolveError(f"tridiagonal solve failed (LAPACK info {info})")
        w -= alphas[-1] * q
        if len(basis) > 1:
            w -= betas[-1] * basis[-2][0]
        for qq, Aqq in basis:  # full reorthogonalization keeps the run reproducible
            w -= np.add.reduce(Aqq * w) * qq
        if len(alphas) == 1:
            ritz = alphas[0]
        else:
            top = (len(alphas) - 1,) * 2
            ritz = eigvalsh_tridiagonal(np.array(alphas), np.array(betas), select="i",
                                        select_range=top)[0]
        Aw = A.matvec(w)
        # a w left at rounding level by an invariant subspace can read w^T A w < 0
        beta = math.sqrt(max(float(np.add.reduce(w * Aw)), 0.0))
        if abs(ritz - prev) <= _LANCZOS_TOL * max(1.0, abs(ritz)) or beta < 1e-14:
            return float(ritz)
        prev = ritz
        betas.append(beta)
        basis.append((w / beta, Aw / beta))
    raise EigenSolveError(f"Lanczos did not converge within {_LANCZOS_CAP} iterations")


@dataclass(frozen=True)
class HardyResult:
    lambda_n: float
    critical_coupling: float | None
    nonpositive: bool = False


def lambda_n(
    potential: AngularPotential,
    grid: PolarGrid,
) -> HardyResult:
    """Best constant Lambda_N(a): the largest value of one pencil, the m = 0 tower's.

    The towers m >= 1 never carry a larger value (see the module docstring).
    For ess sup a <= 0 the best constant is 0: the result is flagged
    `nonpositive` and no pencil is solved.  For ess sup a > 0, a value
    below the smallest normal float64 (a subnormal coupling) has too few
    significant bits to print: ResolutionError.  The potential is sampled on
    `grid` first either way, so a tabulated potential of another size is
    an input error.
    """
    a_samples = potential.sample(grid)
    if potential.ess_sup <= 0:
        return HardyResult(lambda_n=0.0, critical_coupling=None, nonpositive=True)
    # A = (discrete m = 0 tower operator at a = 0) + ((N-2)/2)^2 I
    zero = AngularPotential.constant(0.0)
    A = assemble_polar_operator(zero, 0, grid).shifted(classical_hardy_constant(grid.dim))
    # Lambda is homogeneous of degree 1 in a; Lanczos stops on absolute
    # thresholds, so it runs on a / ess sup a and the value is scaled back.
    # A dipole's is sign(lam) cos t, formed as such, and its critical
    # coupling is 1 / Lambda(sign(lam) cos): for a subnormal lam, lam cos t /
    # |lam| loses bits and Lambda(lam cos) underflows
    if potential.kind == "dipole":
        unit = _lanczos_largest(A, math.copysign(1.0, potential.coupling) * np.cos(grid.nodes))
        critical = 1.0 / unit if unit > 0 else None
    else:
        unit, critical = _lanczos_largest(A, a_samples / potential.ess_sup), None
    value = unit * potential.ess_sup
    if value < sys.float_info.min:
        raise ResolutionError(f"Lambda_N = {value:.3g} is below the smallest normal float64 "
                              f"{sys.float_info.min:.3g}, where its digits do not hold "
                              f"(ess sup a = {potential.ess_sup:.3g})")
    return HardyResult(value, critical)


def critical_dipole_coupling(
    grid: PolarGrid,
    method: str = "pencil",
    guess: float | None = None,
) -> float:
    """Coupling lambda* at which the dipole quadratic form loses positivity.

    pencil: reciprocal of Lambda_N(cos).  bisection: the lambda solving
    mu_1(lambda cos) = -((N-2)/2)^2; mu_1 is nonincreasing in lambda and
    always comes from the m = 0 tower (higher towers sit above it by at
    least nu_m), so plain bisection on [0, 4(N-2)^2] applies, with geometric
    expansion of the bracket on failure, to a width of _BISECTION_TOL.  Each
    step only needs to know whether mu_1 lies above the threshold, that is
    whether the m = 0 tower shifted by it is positive definite (Sylvester's
    law of inertia).  One dpttrf sweep of LDL^T answers it: every pivot is
    positive and the last is at least the tower's pivmin, the rule by which
    `angular.count_at_most` counts no eigenvalue at or below the threshold.
    The coupling enters the diagonal only, as -lam cos t: the zero-potential
    tower is assembled once, and each step's diagonal is the assembled
    tower's bit for bit.

    A finite guess in (0, H), H the first bracket end that is not
    positive, skips sweeps without changing a bit.  Every bracket of the
    bisection is a dyadic interval of [0, H] and every midpoint an exact
    float; `_certified_start` starts the bisection from an interval near the
    guess that passes the check of its two ends.  A sweep is a pure function
    of lam, monotone outside a rounding zone of about eps ||T_0||_1 in mu_1
    that is far narrower than that interval, so only one interval of its
    width passes: the one the unguided run passes through.  A NaN, infinite,
    nonpositive or too large guess, or none, is the unguided run; the pencil
    route ignores the guess.
    """
    if method == "pencil":
        res = lambda_n(AngularPotential.dipole(1.0), grid)
        if res.critical_coupling is None:
            raise EigenSolveError("pencil returned a nonpositive best constant")
        return res.critical_coupling
    if method != "bisection":
        raise InputError(f"unknown method {method!r}")
    classical = classical_hardy_constant(grid.dim)
    target = -classical
    free = assemble_polar_operator(AngularPotential.constant(0.0), 0, grid)
    cos_t = np.cos(grid.nodes)

    def positive(lam: float) -> bool:
        """mu_1(lam cos) > target: no eigenvalue of the m = 0 tower at or below it."""
        d = np.subtract(free.diag - lam * cos_t, target)
        d, _, info = dpttrf(d, np.array(free.off), overwrite_d=1, overwrite_e=1)
        return info == 0 and not d[-1] < free.pivmin

    lo, hi = 0.0, 8.0 * classical
    for _ in range(8):  # hi = 4(N-2)^2 first, doubled up to 512(N-2)^2
        hi *= 2.0
        if not positive(hi):
            break
    else:
        raise BracketError(
            f"mu_1 stayed above the threshold on [0, {hi}]; no crossing found"
        )
    if guess is not None and 0.0 < guess < hi:
        lo, hi = _certified_start(positive, hi, guess)
    while hi - lo > _BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if positive(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _certified_start(
    positive: Callable[[float], bool], top: float, guess: float
) -> tuple[float, float]:
    """The bracket of the bisection on [0, top] at the finest level where it holds near guess.

    Walks down the dyadic tree of [0, top] without a sweep, to the interval
    of width s that holds guess: s is the largest top / 2^j not above
    2^-20 guess, and no finer than the final bracket.  The interval holds
    when positive(lo) and not positive(hi); 0 counts as positive and top as
    not, as in the unguided run.  A failed check climbs to the parent
    interval, which shares one end with it, so each level climbed sweeps at
    most one new end.  [0, top] always holds.
    """
    path = [(0.0, top)]
    width = max(2.0**-20 * guess, _BISECTION_TOL)
    lo, hi = path[0]
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if guess < mid else (mid, hi)
        path.append((lo, hi))
    known = {0.0: True, top: False}

    def holds(lam: float, want: bool) -> bool:
        if lam not in known:
            known[lam] = positive(lam)
        return known[lam] == want

    return next((lo, hi) for lo, hi in reversed(path) if holds(lo, True) and holds(hi, False))


def admissible_radius(N: int, lam: float, C: float, eps: float) -> float:
    """Largest ball radius on which the perturbed form stays coercive.

    r_max = [ ((N-2)/2)^2 (1 - Lambda) / C^+ ]^{1/eps} for C > 0, +inf for
    C <= 0 and where the power exceeds the float64 range.
    """
    check_eps(eps)
    if lam >= 1.0:
        raise InputError(
            f"operator not positive: Lambda = {lam} >= 1"
        )
    if C <= 0:
        return math.inf
    try:
        return (classical_hardy_constant(N) * (1.0 - lam) / C) ** (1.0 / eps)
    except OverflowError:
        return math.inf
