#!/usr/bin/env python3
"""Before/after numbers of the batch benchmark from alternating pairs of runs.

    python3 scripts/bench_pairs.py --base HEAD --pairs 10 --seed0 9100

For every workload of BENCHMARK.json, pair i runs `perfbench/run.py
--workload W --seed S0+i --seconds <run_seconds> --trace 0` once on a
`git archive` copy of the base revision ("parent") and once on a copy of
the working tree ("change"): the files git tracks plus untracked ones it
does not ignore.  Both copies live in one temporary directory
outside the checkout, and every run has PYTHONDONTWRITEBYTECODE=1 with no
__pycache__ left from an earlier run.  Odd pairs run the parent first, even
pairs the change first.  Runs go one at a time.

The summary is the `workloads` block of a BENCH_trajectory.json entry: per
metric the median and quartiles (linear interpolation) of each side, the
runs themselves, and `change_better_pairs`, the pairs where the change
reads better.  Each pair also compares every job's output digest from the
two run reports; `outputs_identical_pairs` counts the pairs where all match.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def summarize(runs: list[dict], better: dict) -> dict:
    """The trajectory `workloads` block of finished runs.

    Each run is {"workload", "seed", "side", "result", "digests"}: `result`
    is the last stdout line of run.py, parsed, and `digests` the job output
    digests of its report.  `better` maps a metric name to "lower" or
    "higher".  Every seed of a workload needs one run of each side.
    """
    summary = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        pairs = {}
        for run in runs:
            if run["workload"] == workload:
                pairs.setdefault(run["seed"], {})[run["side"]] = run
        seeds = sorted(pairs)
        metrics = {}
        for name, metric in pairs[seeds[0]]["parent"]["result"]["metrics"].items():
            if name == "fail_ratio":
                continue
            side_runs = {side: [pairs[s][side]["result"]["metrics"][name]["value"]
                                for s in seeds] for side in SIDES}
            sign = -1.0 if better.get(name, "lower") == "lower" else 1.0
            metrics[name] = {
                "unit": metric["unit"],
                "change_better_pairs": sum(sign * (c - p) > 0 for p, c in
                                           zip(side_runs["parent"], side_runs["change"])),
                "pairs": len(seeds),
                **{side: quartiles(side_runs[side]) for side in SIDES},
                **{f"{side}_runs": [round(v, 4) for v in side_runs[side]] for side in SIDES},
            }
        summary[workload] = {
            "seeds": seeds,
            "attempted": {side: sum(pairs[s][side]["result"]["attempted"] for s in seeds)
                          for side in SIDES},
            "failed": {side: sum(pairs[s][side]["result"]["failed"] for s in seeds)
                       for side in SIDES},
            "outputs_identical_pairs": sum(
                pairs[s]["parent"]["digests"] == pairs[s]["change"]["digests"] for s in seeds),
            "metrics": metrics,
        }
    return summary


def export_base(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def export_worktree(dest: Path) -> None:
    listed = subprocess.run(
        ["git", "-C", str(ROOT), "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        capture_output=True, check=True, text=True).stdout.split("\0")
    for name in filter(None, listed):
        source = ROOT / name
        if source.is_file():  # a tracked file deleted from the tree is skipped
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    for cache in tree.rglob("__pycache__"):
        shutil.rmtree(cache)
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"run.py failed in {tree} ({workload}, seed {seed}):\n{proc.stderr}")
    report = tree / ".perfbench_work" / f"{workload}-seed{seed}-trace0" / "report.json"
    jobs = json.loads(report.read_text(encoding="utf-8"))["jobs"]
    return {"result": json.loads(proc.stdout.splitlines()[-1]),
            "digests": [job["digest"] for job in jobs]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", default="HEAD", help="revision of the parent side")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed0", type=int, required=True, help="pair i uses seed SEED0 + i")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("quartiles need at least two pairs")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        export_base(args.base, trees["parent"])
        export_worktree(trees["change"])
        for workload in (w["name"] for w in spec["workloads"]):
            for i in range(1, args.pairs + 1):
                seed = args.seed0 + i
                for side in (SIDES if i % 2 else SIDES[::-1]):
                    run = run_once(trees[side], workload, seed, spec["run_seconds"])
                    runs.append({"workload": workload, "seed": seed, "side": side, **run})
                    metrics = run["result"]["metrics"]
                    print(f"{workload} seed {seed} {side}: " + " ".join(
                        f"{k}={v['value']:.4g}" for k, v in metrics.items()), file=sys.stderr)
    print(json.dumps({"base": args.base, "workloads": summarize(runs, better)}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
