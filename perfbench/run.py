"""dipolespec batch benchmark.

    python3 perfbench/run.py --workload spectra --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the benchmark works in the checkout
root and imports the program from its `src/`.  One run is one process, a
closed loop with one client: it imports `dipolespec.cli` once and runs the
workload's job list, one job at a time, through `dipolespec.cli.main(argv)`
with `--out`, for a fixed number of batches (see jobs.BATCHES_AT_20S).  Every
job's output is checked after its batch, outside the timed region.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json: set-up
time (median of fresh-process imports, SETUP_PER_BATCH of them before each
batch, so the samples spread over the run), batch time, per-job latency
median and tail, and peak RSS.  --trace 1 runs batch 0 untraced as a
warm-up, then traces half the batches, each followed by an untraced rerun of
the same job list; it reports the per-layer metrics of the first traced
batch and, as the tracing overhead, the median traced-minus-rerun wall time.
The last stdout line is the JSON result; a report with per-job digests and
latencies, per-job-name median latencies, and the spans of traced runs goes
to .perfbench_work/<workload>-seed<seed>-trace<t>/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checker import Checker
from jobs import WORKLOADS, batch_jobs, batches_for, repeated_key_share
from tracer import Tracer, summarize

ROOT = Path(__file__).resolve().parent.parent
SETUP_PER_BATCH = 3
TAIL_BEYOND = 10
SETUP_CODE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import dipolespec.cli as cli\n"
    "cli.build_parser()\n"
    "print(time.perf_counter() - t, cli.__file__)\n"
)


class BenchError(RuntimeError):
    pass


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure_setup(src: Path) -> list[float]:
    """Fresh-process imports of dipolespec.cli plus build_parser(), timed in the child."""
    samples = []
    for _ in range(SETUP_PER_BATCH):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(src)],
            capture_output=True, text=True, timeout=120, check=True,
        ).stdout.split()
        if Path(out[1]).resolve().parent.parent != src:
            raise BenchError(f"set-up child imported dipolespec from {out[1]}")
        samples.append(float(out[0]))
    return samples


def import_program(src: Path) -> dict:
    """Import every dipolespec module from `src`; returns short name -> module."""
    import importlib
    import pkgutil

    sys.path.insert(0, str(src))
    package = importlib.import_module("dipolespec")
    modules = {info.name: importlib.import_module(f"dipolespec.{info.name}")
               for info in pkgutil.iter_modules(package.__path__)}
    if Path(modules["cli"].__file__).resolve().parent.parent != src:
        raise BenchError(f"imported dipolespec from {modules['cli'].__file__}, not {src}")
    return modules


def blas_threads() -> dict:
    """OpenBLAS thread counts of the libraries bundled with numpy and scipy."""
    import ctypes

    import numpy
    import scipy

    found = {}
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libdir.glob("*openblas*.so*")):
            handle = ctypes.CDLL(str(lib))
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[lib.name] = fn()
                    break
    return found


def cache_sizes() -> dict:
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=30).stdout
    except OSError:
        return {}
    sizes = {}
    for line in out.splitlines():
        name, _, value = line.partition(":")
        if name.strip() in ("L2 cache", "L3 cache"):
            sizes[name.strip().split()[0]] = value.strip()
    return sizes


def _mib(text: str | None) -> float | None:
    if not text:
        return None
    number, unit = text.split()[:2]
    scale = {"KiB": 1 / 1024, "MiB": 1.0, "GiB": 1024.0}.get(unit)
    return float(number) * scale if scale else None


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True, timeout=30)
    return out.stdout.strip() or "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": blas_threads(),
        "git_commit": git_commit(),
        "caches": cache_sizes(),
    }


def run_batch(cli, jobs, outdir: Path, tracer: Tracer | None):
    """Run the jobs one after another; returns (wall seconds, per-job records)."""
    outdir.mkdir(parents=True, exist_ok=True)
    records = []
    clock = time.perf_counter
    t0 = clock()
    for i, job in enumerate(jobs):
        out = outdir / f"{i:02d}-{job.name}.{job.fmt}"
        argv = list(job.argv) + ["--out", str(out)]
        if tracer is not None:
            tracer.job = job.name
        code, error = None, None
        start = clock()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a job failure is counted, never fatal to the run
            error = f"{type(exc).__name__}: {exc}"
        records.append((job, clock() - start, code, error, out))
    return clock() - t0, records


def check_batch(checker: Checker, records) -> list[dict]:
    rows = []
    for job, latency, code, error, out in records:
        data = out.read_bytes() if out.exists() else None
        verdict = checker.check(job, code, error, data)
        rows.append({"job": job.name, "argv": list(job.argv), "latency_s": latency,
                     "ok": verdict.ok, "reason": verdict.reason,
                     "digest": verdict.digest, "bytes": verdict.size})
    return rows


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency with TAIL_BEYOND jobs above it, and its percentile."""
    ranked = sorted(latencies)
    index = max(0, len(ranked) - TAIL_BEYOND - 1)
    return ranked[index], 100.0 * (index + 1) / len(ranked)


def combined_digest(rows) -> str:
    return hashlib.sha256("".join(r["digest"] for r in rows).encode()).hexdigest()[:16]


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    src = (ROOT / "src").resolve()
    schema = ROOT / "docs" / "output_schema.json"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if not (src / "dipolespec" / "cli.py").is_file() or not schema.is_file():
        print(f"error: no program to benchmark under {ROOT} (need src/dipolespec and "
              "docs/output_schema.json)", file=sys.stderr)
        return 2

    workdir = Path(".perfbench_work") / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    modules = import_program(src)
    cli = modules["cli"]
    checker = Checker(schema)
    tracer = Tracer() if args.trace else None

    n_batches = batches_for(args.workload, args.seconds)
    # (batch, traced) in run order.  A traced run warms up on batch 0, then
    # reruns each traced batch's own job list untraced, so the overhead is not
    # mixed with work that depends on the drawn parameters.  The traced run
    # comes first so that its counts never see a state the rerun left behind.
    if args.trace:
        plan = [(0, False)] + [(b, traced) for b in range(1, max(1, n_batches // 2) + 1)
                               for traced in (True, False)]
    else:
        plan = [(b, False) for b in range(n_batches)]
    setup, walls, batches, traced_digests = [], {}, {}, {}
    rows, layer = [], None
    for b, traced in plan:
        if not args.trace:
            setup += measure_setup(src)
        if b not in batches:
            batches[b] = batch_jobs(args.workload, args.seed, b, workdir)
        jobs = batches[b]
        first = len(tracer.spans) if traced else 0
        if traced:
            tracer.install(modules)
        try:
            wall, records = run_batch(cli, jobs, workdir / f"out-{b}", tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        walls[b, traced] = wall
        if traced and layer is None:
            layer = summarize(tracer.spans, first, len(tracer.spans), wall,
                              [(job.name, latency) for job, latency, *_ in records])
            layer["metrics"]["cli.bytes_out"] = sum(
                out.stat().st_size for *_, out in records if out.exists())
        batch_rows = check_batch(checker, records)
        if traced:
            traced_digests[b] = [r["digest"] for r in batch_rows]
        for i, r in enumerate(batch_rows):
            r["batch"], r["traced"] = b, traced
            if r["ok"] and b in traced_digests and r["digest"] != traced_digests[b][i]:
                r["ok"], r["reason"] = False, "output differs from the traced run of this job"
        rows.extend(batch_rows)
        shutil.rmtree(workdir / f"out-{b}")

    all_jobs = [job for jobs in batches.values() for job in jobs]
    untraced = [r for r in rows if not r["traced"]]
    attempted = len(rows)
    failed = sum(not r["ok"] for r in rows)
    latencies = [r["latency_s"] for r in untraced]
    tail_value, tail_pct = tail(latencies)
    by_name = {}
    for r in untraced:
        by_name.setdefault(r["job"], []).append(r["latency_s"])
    computed = {
        "setup_s": statistics.median(setup) if setup else None,
        "batch_s": statistics.median(w for (_, t), w in walls.items() if not t),
        "job_p50_s": statistics.median(latencies),
        "job_tail_s": tail_value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_ratio": failed / attempted,
    }
    env = environment()
    props = {
        "repeated_key_share": repeated_key_share(all_jobs),
        "jobs_per_batch": len(all_jobs) // len(batches),
        "batch_runs": len(plan),
        "job_tail": f"p{tail_pct:.1f} over {len(latencies)} jobs ({TAIL_BEYOND} beyond it)",
        "l2": env["caches"].get("L2"),
        "l3": env["caches"].get("L3"),
    }
    if layer is not None:
        computed.update(layer["metrics"])
        computed["trace.overhead_s"] = statistics.median(
            walls[b, True] - walls[b, False] for b, traced in plan if traced)
        ws = layer["working_set_bytes"] / 2**20
        l2, l3 = _mib(props["l2"]), _mib(props["l3"])
        props["largest_working_set_mib_computed"] = ws
        props["working_set_vs_caches"] = (
            f"{ws:.1f} MiB computed from array sizes; "
            f"{'above' if l2 and ws > l2 else 'within'} L2 ({props['l2']}), "
            f"{'above' if l3 and ws > l3 else 'within'} L3 ({props['l3']})")

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for m in spec[section]:
        value = computed.get(m["name"])
        if value is None:
            raise BenchError(f"metric {m['name']} was not measured")
        if m["unit"] in ("count", "bytes", "bytes_computed"):
            value = int(value)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "properties": props,
        "setup_samples_s": setup, "metrics": metrics,
        "batch_walls_s": [{"batch": b, "traced": t, "wall_s": w} for (b, t), w in walls.items()],
        "job_latency_median_s": {name: statistics.median(v) for name, v in by_name.items()},
        "digest_batch0": combined_digest([r for r in rows if r["batch"] == 0]),
        "jobs": rows,
    }
    if layer is not None:
        report["trace"] = {"spans": layer["spans"], "per_job": layer["per_job"]}
        tracer.write_jsonl(workdir / "spans.jsonl", tracer.spans[0][1] if tracer.spans else 0.0)
    (workdir / "report.json").write_text(json.dumps(report, indent=1), encoding="utf-8")

    print(f"workload {args.workload} seed {args.seed}: {len(plan)} batch runs x "
          f"{props['jobs_per_batch']} jobs, repeated spectrum keys {props['repeated_key_share']:.2f}")
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"job_tail_s is {props['job_tail']}; batch-0 output digest {report['digest_batch0']}")
    if layer is not None:
        lm = layer["metrics"]
        print(f"traced batch {lm['trace.batch_s']:.4f} s, {lm['harness.self_s']:.4f} s of it "
              f"outside cli.main; every root span matches its job's latency; "
              f"overhead {computed['trace.overhead_s']:.4f} s; {layer['spans']} spans; "
              f"{props['working_set_vs_caches']}")
    for r in rows:
        if not r["ok"]:
            print(f"FAILED batch {r['batch']} {r['job']}: {r['reason']}")
    print(f"report: {workdir / 'report.json'}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
