"""Wall time of the README CLI commands, each in a fresh process.

    python3 perfbench/fresh_table.py

Informational only, not part of the gated runs: each command runs as
`python3 -m dipolespec.cli ...` from the checkout's src/, so its time
includes interpreter start and the numpy/scipy import that `setup_s`
isolates.  Outputs go through the benchmark's checker; the script prints a
Markdown table of the median wall time with the range over REPEATS runs.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checker import Checker
from jobs import Job
from run import ROOT, environment

REPEATS = 3
COMMANDS = [
    ("spectrum --count 20", ("spectrum", "--dim", "3", "--potential", "dipole:1.0",
                             "--count", "20")),
    ("hardy --table 3..10", ("hardy", "--table", "3..10", "--grid", "10000")),
    ("hardy --table 3..10 --method both", ("hardy", "--table", "3..10", "--method", "both")),
    ("cauchy manufactured-radial", ("cauchy", "--scenario", "manufactured-radial",
                                    "--radii", "0.3,0.6,0.9")),
    ("cauchy manufactured-nonradial --limit-table",
     ("cauchy", "--scenario", "manufactured-nonradial", "--limit-table")),
    ("sandwich (M=10000)", ("sandwich",)),
    ("spectrum --count 500 --grid 1200", ("spectrum", "--count", "500", "--grid", "1200")),
    ("radial", ("radial", "--dim", "3", "--mu", "2", "--perturbation", "manufactured:1.5")),
    ("bk", ("bk", "--dim", "4", "--s", "3", "--n", "200")),
    ("import alone", None),
]
EXPECT = {
    "spectrum --count 20": {"coupling": 1.0, "count": 20},
    "spectrum --count 500 --grid 1200": {"coupling": 1.0, "count": 500},
    "hardy --table 3..10": {"sampling": "node"},
    "hardy --table 3..10 --method both": {"sampling": "node"},
    "radial": {"beta": 1.5},
}


def main() -> int:
    os.chdir(ROOT)
    env = {k: v for k, v in os.environ.items() if k != "DIPOLESPEC_GRID_M"}
    env["PYTHONPATH"] = str(ROOT / "src")
    out_dir = Path(".perfbench_work") / "fresh"
    out_dir.mkdir(parents=True, exist_ok=True)
    checker = Checker(ROOT / "docs" / "output_schema.json")
    rows = []
    for label, argv in COMMANDS:
        times, ok = [], True
        for _ in range(REPEATS):
            out = out_dir / "out.txt"
            cmd = ([sys.executable, "-m", "dipolespec.cli", *argv, "--out", str(out)] if argv
                   else [sys.executable, "-c", "import dipolespec.cli"])
            start = time.perf_counter()
            code = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL, timeout=300).returncode
            times.append(time.perf_counter() - start)
            if argv:
                job = Job(label, argv, EXPECT.get(label, {}))
                ok = ok and checker.check(job, code, None, out.read_bytes()).ok
            else:
                ok = ok and code == 0
        rows.append((label, statistics.median(times), min(times), max(times), ok))
    print(f"environment: {json.dumps(environment(), sort_keys=True)}")
    print(f"\n| command | median of {REPEATS} | range | output checked |")
    print("| --- | --- | --- | --- |")
    for label, med, lo, hi, ok in rows:
        print(f"| `{label}` | {med:.2f} s | {lo:.2f}–{hi:.2f} s | {'yes' if ok else 'FAILED'} |")
    return 0 if all(r[-1] for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
