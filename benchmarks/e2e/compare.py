"""Compare two sets of benchmark runs against the BENCHMARK.json bounds.

    python3 benchmarks/e2e/compare.py A.json B.json

``A`` is the parent (or the first half of an A/A check), ``B`` the
change; both come from ``run.py --runs K --out FILE``.  For every
(workload, end-to-end metric) the medians are compared:

``ok``          B's median is no worse than A's by more than the bound.
``regression``  it is worse by more than the bound (exit code 1).
``unresolved``  the run-to-run spread of either side (distance between
                the quartiles over the median) is wider than the bound,
                and not every run of B reads better than every run of A
                — the data cannot tell; lengthen the run.

``missing``     a side has no run of the workload, or a run without the
                metric: no data is not a pass (counted as a regression).

The byte metrics are seed-determined and have no spread, so any
worsening at all is a regression, and so is a higher share of failed
operations or any run that reported ``correct: false``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")

#: Seed-determined metrics: equal inputs give equal values, exactly.
EXACT = frozenset(
    {
        "response_bytes_per_row",
        "replication_bytes_per_update",
        "snapshot_bytes_per_user_byte",
    }
)


def load_runs(path: str) -> dict[str, list[dict]]:
    """Untraced runs of one ``--out`` file, by workload."""
    with open(path, encoding="utf-8") as handle:
        runs = json.load(handle)["runs"]
    by_workload: dict[str, list[dict]] = defaultdict(list)
    for run in runs:
        if not run.get("trace"):
            by_workload[run["workload"]].append(run)
    return by_workload


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def judge(metric: dict, a: list[float], b: list[float]) -> tuple[str, float]:
    """``(status, worsening)``; worsening is a share of A's median."""
    lower = metric["better"] == "lower"
    med_a, med_b = statistics.median(a), statistics.median(b)
    delta = (med_b - med_a) if lower else (med_a - med_b)
    worse = delta / abs(med_a) if med_a else 0.0
    if metric["name"] in EXACT:
        return ("regression" if worse > 0 else "ok"), worse
    bound = metric["bound"]
    if max(spread(a), spread(b)) > bound:
        clear_win = max(b) < min(a) if lower else min(b) > max(a)
        return ("ok" if clear_win else "unresolved"), worse
    return ("regression" if worse > bound else "ok"), worse


def failed_share(runs: list[dict]) -> float:
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 0.0


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(BENCHMARK, encoding="utf-8") as handle:
        benchmark = json.load(handle)
    side_a, side_b = load_runs(argv[0]), load_runs(argv[1])
    regressions = 0
    for workload in (w["name"] for w in benchmark["workloads"]):
        runs_a, runs_b = side_a.get(workload, []), side_b.get(workload, [])
        if not runs_a or not runs_b:
            regressions += 1
            print(f"{workload} missing (runs: A={len(runs_a)} B={len(runs_b)})")
            continue
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            if not all(name in run["metrics"] for run in runs_a + runs_b):
                regressions += 1
                print(f"{workload} {name} missing from a run")
                continue
            a = [run["metrics"][name]["value"] for run in runs_a]
            b = [run["metrics"][name]["value"] for run in runs_b]
            status, worse = judge(metric, a, b)
            regressions += status == "regression"
            print(
                f"{workload} {name} {status} "
                f"A={statistics.median(a):.6g} B={statistics.median(b):.6g} "
                f"{metric['unit']} worse={worse:+.2%} bound={metric['bound']:.0%} "
                f"spread A={spread(a):.2%} B={spread(b):.2%} "
                f"(n={len(a)}/{len(b)})"
            )
        share_a, share_b = failed_share(runs_a), failed_share(runs_b)
        incorrect = sum(not run["correct"] for run in runs_b)
        status = "regression" if share_b > share_a or incorrect else "ok"
        regressions += status == "regression"
        print(
            f"{workload} failed_ops_share {status} A={share_a:.6g} "
            f"B={share_b:.6g} incorrect_runs={incorrect}"
        )
    print(f"{regressions} regression(s)")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
