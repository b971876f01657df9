"""Explicit constants of the integrability bootstrap and their convergence.

One bootstrap step raises weighted-L^q integrability of u/phi to the
exponent 2* q / 2 at the cost of the factor

    [ step_constant(q) ]^{1/q},
    step_constant(q) = 16 k^4 / (R^2 C(q)) + 4 k^4 (q+2) / R^2 + 2 l_q / C(q)

at stage k, with C(q) = min(1/4, 4/(q+4)), the truncation level l_q chosen
from the weighted norm of the potential, R = dist/4 and shell radii
r_k = 1/k^2.  Iterating with exponents q_n growing geometrically makes
sum b_n = sum (1/q_n) log(step_constant(q_n)) converge, which is the whole
content verified here.

The exponent sequence is q_n = 2 (2*/2)^n, the variant consistent with the
first two explicit bootstrap steps (q_1 = 2*, q_2 = (2*)^2/2); the
alternative prefactor 1/2 sometimes quoted is exposed behind
``printed_variant`` for comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InputError, NumericalError


@dataclass(frozen=True)
class BKParameters:
    """Inputs of the bootstrap constants.

    ckn_constant is the constant of the weighted Sobolev inequality used to
    absorb the large-potential set; it is an input, never computed here.
    """

    dim: int
    s: float
    v_norm: float
    ckn_constant: float
    dist: float
    diam: float
    sigma: float

    def __post_init__(self):
        if self.dim < 3:
            raise InputError(f"dimension must be >= 3, got {self.dim}")
        if self.s <= self.dim / 2:
            raise InputError(f"s must exceed N/2 = {self.dim/2}, got {self.s}")
        if self.v_norm < 0:
            raise InputError("v_norm must be nonnegative")
        if self.ckn_constant <= 0 or self.dist <= 0 or self.diam <= 0:
            raise InputError("ckn_constant, dist and diam must be positive")

    @property
    def two_star(self) -> float:
        return 2.0 * self.dim / (self.dim - 2.0)


def c_of_q(q: float) -> float:
    """min(1/4, 4/(q+4)); the branches cross at q = 12."""
    if q <= 1:
        raise InputError(f"q must exceed 1, got {q}")
    return min(0.25, 4.0 / (q + 4.0))


class EllQ(NamedTuple):
    value: float
    no_truncation: bool


def ell_q(q: float, p: BKParameters) -> EllQ:
    """Truncation level l_q = [max(8, (q+4)/2) ckn |V|^{2s/N}]^{N/(2s-N)}.

    The defining property, checked here to 1e-12 relative, is
    |V|^s l_q^{-s+N/2} = min(1/(8 ckn), 2/((q+4) ckn))^{N/2}.
    v_norm = 0 needs no truncation at all and returns 0 with a flag.
    """
    if q <= 1:
        raise InputError(f"q must exceed 1, got {q}")
    if p.v_norm == 0:
        return EllQ(0.0, True)
    N, s = p.dim, p.s
    branch = max(8.0, (q + 4.0) / 2.0)
    base = branch * p.ckn_constant * p.v_norm ** (2.0 * s / N)
    value = base ** (N / (2.0 * s - N))
    lhs = p.v_norm**s * value ** (-s + N / 2.0)
    rhs = min(1.0 / (8.0 * p.ckn_constant), 2.0 / ((q + 4.0) * p.ckn_constant)) ** (N / 2.0)
    if abs(lhs - rhs) > 1e-12 * max(abs(lhs), abs(rhs)):
        raise NumericalError(
            f"truncation-level identity violated: {lhs} vs {rhs}"
        )
    return EllQ(value, False)


def exponent_sequence(p: BKParameters, n: np.ndarray, printed_variant: bool = False):
    """q_n = 2 (2*/2)^n, or the printed prefactor 1/2 when requested."""
    ratio = p.two_star / 2.0
    pref = 0.5 if printed_variant else 2.0
    return pref * np.exp(n * math.log(ratio))


def _log_step_constant(p: BKParameters, n: np.ndarray, q: np.ndarray) -> np.ndarray:
    """log of the bracket 16 n^4/(R^2 C(q)) + 4 n^4 (q+2)/R^2 + 2 l_q/C(q).

    Evaluated in log space: the truncation term grows like q^{2s/(2s-N)}
    and overflows float64 long before the sums settle.
    """
    N, s = p.dim, p.s
    R = p.dist / 4.0
    logq = np.log(q)
    # C(q) = 4/(q+4) once q > 12; keep the exact min via logs
    logC = np.minimum(math.log(0.25), math.log(4.0) - np.log(q + 4.0))
    log_t1 = math.log(16.0) + 4.0 * np.log(n) - 2.0 * math.log(R) - logC
    log_t2 = math.log(4.0) + 4.0 * np.log(n) + np.log(q + 2.0) - 2.0 * math.log(R)
    if p.v_norm == 0:
        log_t3 = np.full_like(q, -np.inf)
    else:
        theta = N / (2.0 * s - N)
        log_ell = theta * (
            np.log((q + 4.0) / 2.0)
            + math.log(p.ckn_constant)
            + (2.0 * s / N) * math.log(p.v_norm)
        )
        # exact l_q uses max(8, (q+4)/2); switch branch below q = 12
        small = q < 12.0
        if np.any(small):
            log_ell = np.where(
                small,
                theta * (math.log(8.0 * p.ckn_constant) + (2.0 * s / N) * math.log(p.v_norm)),
                log_ell,
            )
        log_t3 = math.log(2.0) + log_ell - logC
    stack = np.vstack([log_t1, log_t2, log_t3])
    peak = np.max(stack, axis=0)
    return peak + np.log(np.sum(np.exp(stack - peak), axis=0))


@dataclass(frozen=True)
class BKTable:
    rows: tuple            # (n, q_n, r_n, b_n, partial_sum, partial_product)
    limit_constant: float
    sum_b: float
    sum_inv_q: float
    sum_inv_q_closed: float


def iteration_constants(p: BKParameters, n_max: int, printed_variant: bool = False) -> BKTable:
    """Stage table and the limit constant of the bootstrap.

    The limit constant is [diam^{sigma(2-2*)}]^{sum 1/q_n} exp(sum b_n)
    with the diameter exponent taken as printed (nonpositive for sigma >= 0).
    Divergent partial sums (b_n not decaying by n_max) raise, which is the
    signature of inputs with s at or below N/2.  So does an n_max past the
    float64 range of q_n: the error names the largest n with q_n finite,
    about log(float_max / prefactor) / log(2*/2).  A partial product or a
    limit constant past the float64 range is a NumericalError naming n.
    """
    if n_max < 2:
        raise InputError(f"n_max must be >= 2, got {n_max}")
    n = np.arange(1, n_max + 1, dtype=float)
    with np.errstate(over="ignore"):
        q = exponent_sequence(p, n, printed_variant)
    if not np.isfinite(q[-1]):
        cap = np.count_nonzero(np.isfinite(q))
        raise InputError(
            f"q_n overflows float64 for n > {cap}: the largest allowed n is "
            f"{cap} for these inputs, got {n_max}"
        )
    r = 1.0 / n**2
    b = _log_step_constant(p, n, q) / q
    if b[-1] >= b[n_max // 2 - 1] and b[-1] > 0:
        raise NumericalError(
            "per-stage costs b_n are not decaying; the bootstrap diverges "
            "for these inputs (s too close to N/2)"
        )
    partial_sums = np.cumsum(b)
    with np.errstate(over="ignore"):
        partial_products = np.exp(partial_sums)
    if not np.all(np.isfinite(partial_products)):
        first = int(np.argmin(np.isfinite(partial_products))) + 1
        raise NumericalError(
            f"the partial product exp(b_1 + ... + b_n) overflows float64 at n = {first}"
        )
    inv_q = np.cumsum(1.0 / q)
    ratio = 2.0 / p.two_star
    pref = 0.5 if printed_variant else 2.0
    closed = (1.0 / pref) * ratio / (1.0 - ratio)
    try:
        prefactor = p.diam ** (p.sigma * (2.0 - p.two_star))
        limit = prefactor ** float(inv_q[-1]) * float(partial_products[-1])
    except OverflowError as exc:
        raise NumericalError(
            "the diameter factor of the limit constant overflows float64 for these inputs"
        ) from exc
    if not math.isfinite(limit):
        raise NumericalError(
            f"the limit constant overflows float64 at n = {n_max} for these inputs"
        )
    rows = tuple(
        (int(n[i]), float(q[i]), float(r[i]), float(b[i]),
         float(partial_sums[i]), float(partial_products[i]))
        for i in range(n_max)
    )
    return BKTable(
        rows=rows,
        limit_constant=float(limit),
        sum_b=float(partial_sums[-1]),
        sum_inv_q=float(inv_q[-1]),
        sum_inv_q_closed=closed,
    )


def asymptotic_cost_ratio(p: BKParameters, n: int) -> float:
    """b_n over its predicted tail (1/q_n) log(K q_n^{2s/(2s-N)}) -> 1.

    K is the exact coefficient of the dominant truncation term,
    (ckn |V|^{2s/N})^{N/(2s-N)} 2^{-2s/(2s-N)}.
    """
    if p.v_norm == 0:
        raise InputError("asymptotic ratio needs a nonzero potential norm")
    narr = np.array([float(n)])
    q = exponent_sequence(p, narr)
    b = float((_log_step_constant(p, narr, q) / q)[0])
    theta = p.dim / (2.0 * p.s - p.dim)
    logK = theta * (
        math.log(p.ckn_constant) + (2.0 * p.s / p.dim) * math.log(p.v_norm)
    ) - (theta + 1.0) * math.log(2.0)
    predicted = (logK + (theta + 1.0) * math.log(q[0])) / q[0]
    return b / predicted
