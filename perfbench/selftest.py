"""Tests of the benchmark itself: checker, job generation and tracer.

    python3 -m pytest perfbench/selftest.py -q

The file name keeps it out of the repository's default test collection; the
traced tests run real CLI jobs and take a few seconds.
"""

from __future__ import annotations

import shutil
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import dipolespec.cli as cli  # noqa: E402
from checker import Checker  # noqa: E402
from jobs import WORKLOADS, Job, batch_jobs, repeated_key_share  # noqa: E402
from run import import_program  # noqa: E402
from tracer import LAYERS, Tracer, TraceError, summarize  # noqa: E402

SIZE_FLAGS = {"--grid", "--count", "--points", "--modes", "--n", "--table", "--method"}


@pytest.fixture(scope="module")
def workdir():
    path = ROOT / ".perfbench_work" / "selftest"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture(scope="module")
def checker():
    return Checker(ROOT / "docs" / "output_schema.json")


def run_job(job, path):
    code = cli.main(list(job.argv) + ["--out", str(path)])
    return code, path.read_bytes()


def test_bk_overflow_is_a_failure(checker, workdir):
    # q_n overflows near n = 1024 for N = 4, so this prints NaN with exit code 0
    job = Job("bk-1500", ("bk", "--n", "1500"))
    code, data = run_job(job, workdir / "bk1500.csv")
    assert code == 0
    verdict = checker.check(job, code, None, data)
    assert not verdict.ok and "non-finite" in verdict.reason

    job = Job("bk-200", ("bk", "--n", "200"))
    code, data = run_job(job, workdir / "bk200.csv")
    assert checker.check(job, code, None, data).ok


@pytest.mark.parametrize("job, code, error, text, reason", [
    (Job("s", ("sigma", "--dim", "4", "--mu", "0"), {"dim": 4, "mu": 0.0}),
     3, None, "0, -2\n", "exit code"),
    (Job("s", ("sigma", "--dim", "4", "--mu", "0"), {"dim": 4, "mu": 0.0}),
     None, "ValueError: boom", None, "raised"),
    (Job("s", ("sigma", "--dim", "4", "--mu", "0"), {"dim": 4, "mu": 0.0}),
     0, None, "0.1, -2\n", "indicial"),
    (Job("w", ("sandwich",)), 0, None,
     '{"command": "sandwich", "inputs": {}, "results": {"ordered": true}}', "schema"),
    (Job("t", ("hardy", "--table", "3..4")), 0, None,
     "N,classical,dipole_inverse_lambda,method,grid\n3,0.25,1.6398,pencil,10000\n"
     "4,1,3.9,pencil,10000\n", "reference"),
    (Job("c", ("cauchy", "--scenario", "manufactured-radial")), 0, None,
     "R,value\n0.3,1\n0.6,1.01\n", "Cauchy"),
    (Job("d", ("spectrum", "--potential", "dipole:1", "--count", "2"), {"coupling": 1.0, "count": 2}),
     0, None, "k,mu\n1,-1.2\n2,0.5\n", "dipole mu_1"),
])
def test_checker_rejects(checker, job, code, error, text, reason):
    data = None if text is None else text.encode()
    verdict = checker.check(job, code, error, data)
    assert not verdict.ok and reason in verdict.reason


def test_jobs_are_seeded_with_fixed_work_size(workdir):
    def sizes(jobs):
        return [[a for i, a in enumerate(j.argv) if i and j.argv[i - 1] in SIZE_FLAGS]
                for j in jobs]

    for workload in WORKLOADS:
        a = batch_jobs(workload, 1, 0, workdir / "a")
        again = batch_jobs(workload, 1, 0, workdir / "a")
        b = batch_jobs(workload, 2, 0, workdir / "b")
        assert [j.argv for j in a] == [j.argv for j in again]
        assert [j.name for j in a] == [j.name for j in b] and sizes(a) == sizes(b)
        assert [j.argv for j in a] != [j.argv for j in b]


def test_repeated_key_share(workdir):
    run = lambda w: [j for b in range(2) for j in batch_jobs(w, 7, b, workdir / w)]  # noqa: E731
    assert repeated_key_share(run("spectra")) == 0.0
    assert repeated_key_share(run("limits")) > 0.0


def test_missing_traced_name_fails_loudly():
    modules = import_program((ROOT / "src").resolve())
    broken = dict(modules, radial=types.ModuleType("dipolespec.radial"))
    tracer = Tracer()
    with pytest.raises(TraceError, match="solve_mode_picard no longer exists"):
        tracer.install(broken)
    assert modules["cli"].main is cli.main and not tracer.spans


def traced(argv, workdir):
    modules = import_program((ROOT / "src").resolve())
    original = modules["cli"].main
    tracer = Tracer()
    tracer.install(modules)
    tracer.job = "job"
    try:
        start = time.perf_counter()
        code = modules["cli"].main(argv + ["--out", str(workdir / "traced.out")])
        latency = time.perf_counter() - start
    finally:
        tracer.uninstall()
    assert code == 0 and modules["cli"].main is original
    assert modules["hardy"].assemble_polar_operator is modules["angular"].assemble_polar_operator
    m = summarize(tracer.spans, 0, len(tracer.spans), latency, [("job", latency)])["metrics"]
    self_times = sum(m[f"{layer}.self_s"] for layer in LAYERS)
    assert self_times + m["harness.self_s"] == pytest.approx(m["trace.batch_s"], rel=1e-9)
    return tracer.spans, m


def test_accounting_checks_fail_on_a_mismatch(workdir):
    # long enough (about 0.1 s) that the wrapper's own overhead stays far below 1%
    spans, _ = traced(["radial", "--dim", "3", "--mu", "2", "--perturbation", "manufactured:1.5"],
                      workdir)
    root = spans[0][2] - spans[0][1]
    with pytest.raises(TraceError, match="measured latency"):
        summarize(spans, 0, len(spans), 2 * root, [("job", 2 * root)])
    with pytest.raises(TraceError, match="harness time"):
        summarize(spans, 0, len(spans), 1.5 * root, [("job", root)])
    with pytest.raises(TraceError, match="2 jobs"):
        summarize(spans, 0, len(spans), root, [("job", root), ("job", root)])


def test_traced_counts_of_weyl_spectrum(workdir):
    _, m = traced(["spectrum", "--dim", "3", "--potential", "constant:0", "--count", "500",
                   "--grid", "1200"], workdir)
    assert m["angular.towers_scanned"] == 23
    assert m["angular.eigvalsh_tridiagonal.values"] == 11500
    assert m["angular.full_spectrum.calls"] == 1 and m["cli.main.calls"] == 1


def test_traced_counts_of_default_sandwich(workdir):
    _, m = traced(["sandwich"], workdir)
    assert m["hardy.lambda_n.calls"] == 2
    assert m["asymptotics.sandwich_check.calls"] == 1
    # aliases are traced: sandwich_check reaches solve_mode_bvp through asymptotics
    assert m["radial.solve_mode_bvp.calls"] > 0 and m["exponents.sigma_pair.calls"] > 0

