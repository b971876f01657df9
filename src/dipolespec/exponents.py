"""Characteristic exponents of the radial Euler equation.

sigma^2 + (N-2) sigma - mu = 0 has roots
sigma_pm = -(N-2)/2 +- sqrt(((N-2)/2)^2 + mu); solutions of the radial
problem behave like rho^{sigma_pm} near the origin.  The gap
sigma_plus - sigma_minus = 2 sigma_plus + N - 2 divides every
representation formula downstream, so a near-zero discriminant is flagged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InputError

DEGENERATE_DISCRIMINANT = 1e-14


@dataclass(frozen=True)
class Exponents:
    sigma_plus: float
    sigma_minus: float
    discriminant: float
    degenerate: bool

    @property
    def gap(self) -> float:
        """sigma_plus - sigma_minus, the Wronskian gap 2 sigma + N - 2."""
        return self.sigma_plus - self.sigma_minus


def classical_hardy_constant(N: int) -> float:
    """((N-2)/2)^2: the threshold of -Delta - a(x/|x|)/|x|^2 that mu is measured against."""
    half = (N - 2) / 2.0
    return half * half


def sigma_pair(N: int, mu: float) -> Exponents:
    """Both characteristic exponents for angular eigenvalue mu.

    Raises for negative discriminant (complex exponents are out of scope;
    they occur only when the quadratic form has already lost positivity).
    """
    if N < 3:
        raise InputError(f"dimension must be >= 3, got {N}")
    half = (N - 2) / 2.0
    disc = classical_hardy_constant(N) + mu
    if disc < 0:
        raise InputError(
            f"negative discriminant ((N-2)/2)^2 + mu = {disc}; "
            "exponents are complex"
        )
    root = math.sqrt(disc)
    return Exponents(
        sigma_plus=-half + root,
        sigma_minus=-half - root,
        discriminant=disc,
        degenerate=disc < DEGENERATE_DISCRIMINANT,
    )
