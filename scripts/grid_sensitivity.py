#!/usr/bin/env python3
"""Grid-refinement sensitivity of the polar discretizations.

Two experiments, both at N = 3 where the transformed polar operator carries
the critical -1/(4 sin^2) coefficient:

1. free-sphere eigenvalues under the two singular-coefficient treatments:
   the flux form converges at second order (the ground value is exact by
   construction), the node-sampled form stalls at an O(1) offset that decays
   only logarithmically;

2. the critical dipole coupling: the flux value settles to 1.2786298 with
   fourth-per-halving error decay, while the node-sampled value keeps
   drifting through the refinement range -- its value at any fixed
   resolution (1.6409 at 10000 nodes) is a property of the scheme, not of
   the operator.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dipolespec.angular import AngularPotential, PolarGrid, assemble_polar_operator, polar_eigen
from dipolespec.hardy import critical_dipole_coupling


def eigenvalue_table() -> None:
    print("free sphere at N = 3, m = 0 tower: deviation from l(l+1)")
    print(f"{'M':>7} {'flux l=0':>11} {'flux l=1':>11} {'node l=0':>11} {'node l=1':>11}")
    zero = AngularPotential.constant(0.0)
    for M in (500, 1000, 2000, 4000, 8000):
        row = [M]
        for sampling in ("flux", "node"):
            grid = PolarGrid.build(3, M, sampling)
            mat = assemble_polar_operator(zero, 0, grid)
            vals = [v for v, _ in polar_eigen(mat, 2)]
            row.extend([vals[0] - 0.0, vals[1] - 2.0])
        print(f"{row[0]:>7} {row[1]:>11.2e} {row[2]:>11.2e} "
              f"{row[3]:>11.2e} {row[4]:>11.2e}")


def coupling_table() -> None:
    print("\ncritical dipole coupling at N = 3")
    print(f"{'M':>7} {'flux':>13} {'node':>13}")
    for M in (1000, 2500, 5000, 10000, 20000):
        flux = critical_dipole_coupling(PolarGrid.build(3, M, "flux"), "pencil")
        node = critical_dipole_coupling(PolarGrid.build(3, M, "node"), "pencil")
        print(f"{M:>7} {flux:>13.8f} {node:>13.8f}")


if __name__ == "__main__":
    eigenvalue_table()
    coupling_table()
