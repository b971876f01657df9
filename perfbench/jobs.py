"""Seeded job lists of the benchmark workloads.

A workload is a fixed list of CLI jobs.  The seed, together with the batch
index, draws only physical parameters (dipole couplings, constant levels
kappa, tabulated potentials, radii, beta and eps); grid sizes, counts,
radial point counts and the number of jobs never depend on it, so the work
size is the same for every seed.  Every batch of a run draws fresh
parameters, so no spectrum is computed twice by accident: on `spectra` no
two jobs of a run share a spectrum key, while on `limits` the Cauchy and
sandwich jobs of a batch share one on purpose.

The program receives only the generated argv; `Job.expect` carries what the
output checker needs to know about the inputs it drew.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("spectra", "limits")

# Batches per run for each workload at --seconds 20.  The count is fixed
# (scaled linearly with --seconds) rather than "as many as fit", so the
# number of job samples, and with it the percentile behind job_tail_s, is
# the same on every commit: a faster program finishes sooner instead of
# running more batches.  At --seconds 20 the median job latency and the
# latency with ten jobs beyond it fall inside one group of similar jobs
# (dipole count 80 and N=4 Weyl on `spectra`, sandwich and Cauchy on
# `limits`), never in the gap between a fast and a slow group.  On `spectra`
# that makes job_tail_s a p64, not a tail; the run report keeps each job
# name's median latency for the jobs the order statistics miss.
BATCHES_AT_20S = {"spectra": 4, "limits": 6}


def batches_for(workload: str, seconds: int) -> int:
    return max(2, round(BATCHES_AT_20S[workload] * seconds / 20))


@dataclass(frozen=True)
class Job:
    name: str                 # stable label of the job within its workload
    argv: tuple               # CLI arguments, without --out
    expect: dict = field(default_factory=dict)
    key: tuple | None = None  # spectrum key (N, potential, grid, sampling, count)

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def fmt(self) -> str:
        if self.command == "sandwich":  # sandwich always emits JSON
            return "json"
        if "--format" in self.argv:
            return self.argv[self.argv.index("--format") + 1]
        return "csv"


def _num(x: float) -> str:
    return f"{x:.6f}"


def _sphere_area(d: int) -> float:
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def _table_potential(rng: random.Random, M: int, path: Path) -> np.ndarray:
    """a(t) = c0 + c1 cos t + c2 cos 2t sampled at the M interior polar nodes."""
    c0, c1, c2 = rng.uniform(0.0, 0.5), rng.uniform(0.5, 1.2), rng.uniform(-0.3, 0.3)
    t = math.pi / (M + 1) * np.arange(1, M + 1)
    values = c0 + c1 * np.cos(t) + c2 * np.cos(2 * t)
    np.savetxt(path, values, fmt="%.17g")
    return values


def _table_bounds(values: np.ndarray, N: int) -> dict:
    """ess sup and the spherical mean (the same quadrature as PolarGrid)."""
    M = values.size
    h = math.pi / (M + 1)
    w = np.sin(h * np.arange(1, M + 1)) ** (N - 2)
    mean = _sphere_area(N - 1) * float(np.sum(values * w)) * h / _sphere_area(N)
    return {"sup": float(np.max(values)), "mean": mean}


def _radii(rng: random.Random, n: int) -> str:
    return ",".join(_num(r) for r in sorted(rng.uniform(0.15, 0.95) for _ in range(n)))


def _spectrum_key(N, potential, grid, count):
    """(N, potential, grid, sampling, count); every job here uses flux sampling."""
    return (N, potential, grid, "flux", count)


def spectra(rng: random.Random, workdir: Path) -> list[Job]:
    """README-sized spectrum jobs plus sandwich and cauchy at M = 10000."""
    jobs = []
    for N in (3, 4):
        kappa = rng.uniform(0.0, 1.0)
        pot = f"constant:{_num(kappa)}"
        jobs.append(Job(
            f"spectrum-n{N}-weyl",
            ("spectrum", "--dim", str(N), "--potential", pot, "--count", "500",
             "--grid", "1200", "--format", "json"),
            {"kappa": float(_num(kappa)), "dim": N, "grid": 1200, "count": 500},
            _spectrum_key(N, pot, 1200, 500),
        ))
    for count in (20, 80):
        lam = rng.uniform(0.5, 1.5)
        pot = f"dipole:{_num(lam)}"
        jobs.append(Job(
            f"spectrum-dipole-{count}",
            ("spectrum", "--dim", "3", "--potential", pot, "--count", str(count),
             "--grid", "10000"),
            {"coupling": float(_num(lam)), "count": count},
            _spectrum_key(3, pot, 10000, count),
        ))
    table = workdir / "spectra-table.txt"
    values = _table_potential(rng, 10000, table)
    pot = f"table:{table}"
    jobs.append(Job(
        "spectrum-table-20",
        ("spectrum", "--dim", "3", "--potential", pot, "--count", "20", "--grid", "10000"),
        {"table": _table_bounds(values, 3), "count": 20},
        _spectrum_key(3, pot, 10000, 20),
    ))
    lam, eps = rng.uniform(0.6, 1.1), rng.uniform(0.8, 1.2)
    pot = f"dipole:{_num(lam)}"
    jobs.append(Job(
        "sandwich-10000",
        ("sandwich", "--potential", pot, "--grid", "10000", "--eps", _num(eps)),
        {},
        _spectrum_key(3, pot, 10000, 80),
    ))
    lam, beta = rng.uniform(0.6, 1.2), rng.uniform(0.8, 1.5)
    pot = f"dipole:{_num(lam)}"
    jobs.append(Job(
        "cauchy-radial-10000",
        ("cauchy", "--scenario", "manufactured-radial", "--potential", pot,
         "--grid", "10000", "--beta", _num(beta), "--radii", _radii(rng, 3)),
        {},
        _spectrum_key(3, pot, 10000, 40),
    ))
    return jobs


def limits(rng: random.Random, workdir: Path) -> list[Job]:
    """Small-grid Cauchy and sandwich jobs sharing one spectrum, plus radial, bk,
    sigma and the critical-coupling table (pencil and bisection; no full_spectrum)."""
    lam = rng.uniform(0.6, 1.1)
    pot = f"dipole:{_num(lam)}"
    key = _spectrum_key(3, pot, 800, 40)
    small = ("--potential", pot, "--grid", "800", "--modes", "40")
    cauchy = small + ("--points", "2000")
    jobs = [Job("hardy-table-both",
                ("hardy", "--table", "3..10", "--method", "both", "--grid", "10000",
                 "--format", "json"))]
    for fmt in ("csv", "json"):
        jobs.append(Job(
            f"cauchy-radial-{fmt}",
            ("cauchy", "--scenario", "manufactured-radial") + cauchy
            + ("--beta", _num(rng.uniform(0.8, 1.5)), "--radii", _radii(rng, 4),
               "--format", fmt),
            {}, key))
    jobs.append(Job(
        "cauchy-nonradial-table",
        ("cauchy", "--scenario", "manufactured-nonradial", "--limit-table") + cauchy
        + ("--eps", _num(rng.uniform(0.8, 1.2))),
        {}, key))
    jobs.append(Job(
        "cauchy-nonradial-json",
        ("cauchy", "--scenario", "manufactured-nonradial") + cauchy
        + ("--eps", _num(rng.uniform(0.8, 1.2)), "--radii", _radii(rng, 4),
           "--format", "json"),
        {}, key))
    for fmt in ("csv", "json"):
        jobs.append(Job(
            f"cauchy-mode2-{fmt}",
            ("cauchy", "--scenario", "mode:2") + cauchy
            + ("--beta", _num(rng.uniform(0.8, 1.5)), "--radii", _radii(rng, 3),
               "--format", fmt),
            {}, key))
    for name in ("sandwich-800-a", "sandwich-800-b"):
        jobs.append(Job(name, ("sandwich",) + small + ("--eps", _num(rng.uniform(0.8, 1.2))),
                        {}, key))
    for points, fmt in ((1000, "csv"), (4000, "csv"), (4000, "json")):
        beta = rng.uniform(0.8, 1.8)
        jobs.append(Job(
            f"radial-{points}-{fmt}",
            ("radial", "--dim", "3", "--mu", "2", "--perturbation",
             f"manufactured:{_num(beta)}", "--points", str(points), "--format", fmt),
            {"beta": float(_num(beta))}))
    jobs.append(Job("bk-200", ("bk", "--dim", "4", "--s", "3", "--n", "200"), {}))
    jobs.append(Job("bk-400-json",
                    ("bk", "--dim", "4", "--s", "3", "--n", "400", "--format", "json"), {}))
    jobs.append(Job("sigma-csv", ("sigma", "--dim", "4", "--mu", "0"), {"dim": 4, "mu": 0.0}))
    jobs.append(Job("sigma-json", ("sigma", "--dim", "3", "--mu", "2.5", "--format", "json"),
                    {"dim": 3, "mu": 2.5}))
    return jobs


JOB_LISTS = {"spectra": spectra, "limits": limits}


def batch_jobs(workload: str, seed: int, batch: int, workdir: Path) -> list[Job]:
    """The job list of one batch; identical for identical (workload, seed, batch)."""
    rng = random.Random(f"{workload}/{seed}/{batch}")
    batch_dir = workdir / f"inputs-{batch}"
    batch_dir.mkdir(parents=True, exist_ok=True)
    return JOB_LISTS[workload](rng, batch_dir)


def repeated_key_share(jobs: list[Job]) -> float:
    """Share of jobs whose spectrum key an earlier job of the list already had."""
    seen, repeats = set(), 0
    for job in jobs:
        if job.key is None:
            continue
        repeats += job.key in seen
        seen.add(job.key)
    return repeats / len(jobs)
