#!/usr/bin/env python3
"""Outcomes of `full_spectrum` on 648 double-well shapes, as one JSON line.

    python3 scripts/well_sweep.py

The shapes: a = c cos 2t tabulated at the nodes with c in {40, 200}, N = 3, 4
and 5, M = 300, 303, ..., 459 and both samplings, each solved for K = 30
values.  Their lowest values come in tunnelling pairs, many closer than one
lattice width (2^-1) and some equal to rounding, so the kernel bisects them.
The line counts each outcome: "ok", "ResolutionError" (the package declines
the shape, as for a ground doublet it cannot separate), "EigenSolveError"
and "other"; "failures" lists the shapes of the last two, whose tracebacks
go to stderr, and "wall_s" the sweep's wall time.  The exit status is 1
where any shape raised anything other than a ResolutionError, else 0.
"""

from __future__ import annotations

import json
import sys
import time
import traceback
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dipolespec.angular import AngularPotential, PolarGrid, full_spectrum  # noqa: E402
from dipolespec.errors import EigenSolveError, ResolutionError  # noqa: E402

K = 30
SHAPES = [(depth, N, M, sampling) for depth in (40.0, 200.0) for N in (3, 4, 5)
          for M in range(300, 460, 3) for sampling in ("flux", "node")]
OUTCOMES = ("ok", "ResolutionError", "EigenSolveError", "other")


def outcome(depth: float, N: int, M: int, sampling: str) -> str:
    """The outcome of `full_spectrum` on one shape, a name of OUTCOMES."""
    grid = PolarGrid.build(N, M, sampling)
    try:
        full_spectrum(AngularPotential.tabulated(depth * np.cos(2 * grid.nodes), grid), K, grid)
    except ResolutionError:
        return "ResolutionError"
    except Exception as exc:  # a failed shape: its traceback goes to stderr, the sweep goes on
        traceback.print_exc()
        return "EigenSolveError" if isinstance(exc, EigenSolveError) else "other"
    return "ok"


def sweep(shapes: list[tuple]) -> dict:
    """The count of shapes per outcome, the failed shapes and the wall time in seconds."""
    start = time.perf_counter()
    summary = {"shapes": len(shapes), **dict.fromkeys(OUTCOMES, 0), "failures": []}
    for shape in shapes:
        result = outcome(*shape)
        summary[result] += 1
        if result in ("EigenSolveError", "other"):
            summary["failures"].append([*shape, result])
    summary["wall_s"] = round(time.perf_counter() - start, 3)
    return summary


def main(shapes: list[tuple] = SHAPES) -> int:
    summary = sweep(shapes)
    print(json.dumps(summary))
    return 1 if summary["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
