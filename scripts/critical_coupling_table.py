#!/usr/bin/env python3
"""Critical dipole couplings for N = 3..10, both routes and both samplings.

The node-sampled column reproduces the reference finite-difference table at
10000 steps; the flux column is the grid-converged value of the same
continuum quantity.  The two agree to a few parts in 1e4 for N >= 4; at
N = 3 the node-sampled problem sits at the critical Hardy constant and its
value at fixed resolution is a discretization artifact (see
grid_sensitivity.py).
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dipolespec.angular import PolarGrid
from dipolespec.hardy import critical_dipole_coupling


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--grid", type=int, default=10000)
    ap.add_argument("--dims", type=int, nargs=2, default=(3, 10))
    args = ap.parse_args()

    print(f"# polar grid: {args.grid} interior nodes")
    print(f"{'N':>3} {'classical':>12} {'node pencil':>14} {'node bisect':>14} "
          f"{'flux pencil':>14}")
    start = time.perf_counter()
    for N in range(args.dims[0], args.dims[1] + 1):
        node = PolarGrid.build(N, args.grid, "node")
        flux = PolarGrid.build(N, args.grid, "flux")
        node_p = critical_dipole_coupling(node, "pencil")
        node_b = critical_dipole_coupling(node, "bisection")
        flux_p = critical_dipole_coupling(flux, "pencil")
        classical = (N - 2) ** 2 / 4.0
        print(f"{N:>3} {classical:>12.6g} {node_p:>14.8f} {node_b:>14.8f} "
              f"{flux_p:>14.8f}")
    print(f"# elapsed: {time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
