import importlib.util
import json
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPTS / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result_line(tail: float, rss: float) -> str:
    """The last stdout line of a perfbench run, as run.py prints it."""
    return json.dumps({"correct": True, "attempted": 96, "failed": 0, "metrics": {
        "job_tail_s": {"value": tail, "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
        "fail_ratio": {"value": 0.0, "unit": "1"}}})


def test_bench_pairs_summarizes_canned_runs():
    parent = [0.030, 0.034, 0.032, 0.036, 0.038]
    change = [0.020, 0.035, 0.022, 0.024, 0.026]
    runs = []
    for i, (p, c) in enumerate(zip(parent, change)):
        for side, tail in (("parent", p), ("change", c)):
            digests = ["a", "b"] if side == "parent" or i != 2 else ["a", "c"]
            runs.append({"workload": "limits", "seed": 9101 + i, "side": side,
                         "result": json.loads(_result_line(tail, 64.0 + i)),
                         "digests": digests})
    summary = _bench_pairs().summarize(runs, {"job_tail_s": "lower", "peak_rss_mb": "lower"})
    limits = summary["limits"]
    assert limits["seeds"] == [9101, 9102, 9103, 9104, 9105]
    assert limits["attempted"] == {"parent": 480, "change": 480}
    assert limits["failed"] == {"parent": 0, "change": 0}
    assert limits["outputs_identical_pairs"] == 4
    assert sorted(limits["metrics"]) == ["job_tail_s", "peak_rss_mb"]
    tail = limits["metrics"]["job_tail_s"]
    assert tail["unit"] == "s" and tail["pairs"] == 5
    assert tail["parent"] == {"median": 0.034, "q1": 0.032, "q3": 0.036}
    assert tail["change"] == {"median": 0.024, "q1": 0.022, "q3": 0.026}
    assert tail["change_better_pairs"] == 4
    assert tail["parent_runs"] == parent and tail["change_runs"] == change
    assert limits["metrics"]["peak_rss_mb"]["change_better_pairs"] == 0
