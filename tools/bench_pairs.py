"""Order-alternated benchmark pairs of two source trees, with an A/A leg.

Runs the unchanged ``benchmarks/e2e/run.py`` of each tree, one workload
at a time, on the same seed per pair:

    python tools/bench_pairs.py PARENT_DIR CHANGE_DIR --pairs 10 \\
        --seeds 4801 --workloads read_wide_inproc --out BENCH_<n>.json

Every pair runs three times: the parent, the change and a copy of the
parent made once, at start, under a temporary directory (the A/A leg: a
tree against itself, which shows how far apart identical code reads on
this machine).  The parent and its copy flank the change and swap
places from pair to pair, so the parent runs before the change in half
the pairs and after it in the other half.

For every workload and every end-to-end metric of ``BENCHMARK.json`` it
prints one table row — the parent's median (quartiles), the change's,
the change's difference of medians and in how many pairs it read
better, the A/A difference of medians, and the verdict of
``benchmarks/e2e/compare.py`` on parent → change and on parent → copy —
and writes the same as JSON: the seeds, each tree's commit, every
value, and whether each exact (seed-determined) metric read identically
in every pair.

Each run is a child process; nothing runs in parallel.  A side that
exits non-zero (a failed operation, an answer off the oracle, an
accepted canary) stops the tool.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change", "copy")


def _compare_module():
    """``benchmarks/e2e/compare.py`` of this tree: the verdict rule."""
    path = os.path.join(ROOT, "benchmarks", "e2e", "compare.py")
    spec = importlib.util.spec_from_file_location("e2e_compare", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_e2e(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run of ``tree``'s ``run.py``: its contract line."""
    child = subprocess.run(
        [sys.executable, os.path.join(tree, "benchmarks", "e2e", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=False, cwd=tree,
    )
    lines = child.stdout.strip().splitlines()
    if child.returncode or not lines or not lines[-1].startswith("{"):
        raise RuntimeError(
            f"{tree}: {workload} seed {seed} exited {child.returncode}\n"
            f"{child.stdout[-2000:]}{child.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def commit_of(tree: str) -> str | None:
    """``git describe --always --dirty`` of ``tree``, if it is a checkout."""
    try:
        out = subprocess.run(
            ["git", "-C", tree, "describe", "--always", "--dirty"],
            capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip() or None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarise(metric: dict, values: dict[str, list[float]], judge) -> dict:
    """One table row: medians, quartiles, pair wins and verdicts."""
    lower = metric["better"] == "lower"
    parent, change, copy = (values[side] for side in SIDES)
    row = {"unit": metric["unit"], "bound": metric["bound"]}
    for side in SIDES:
        q1, median, q3 = quartiles(values[side])
        row[side] = {"median": median, "q1": q1, "q3": q3, "values": values[side]}
    base = row["parent"]["median"]
    for side, other in (("change", change), ("copy", copy)):
        delta = row[side]["median"] - base
        row[side]["delta"] = delta / abs(base) if base else 0.0
        row[side]["better_in"] = sum(
            (b < a) if lower else (b > a) for a, b in zip(parent, other, strict=True)
        )
        row[side]["verdict"] = judge(metric, parent, other)[0]
    row["identical"] = len(set(parent + change + copy)) == 1
    return row


def _format_row(name: str, row: dict, pairs: int) -> str:
    def side(key: str) -> str:
        s = row[key]
        return f"{s['median']:.4g} ({s['q1']:.4g} – {s['q3']:.4g})"

    change, copy = row["change"], row["copy"]
    return (
        f"| `{name}` | {side('parent')} | {side('change')} | "
        f"{change['delta']:+.1%}, better in {change['better_in']} / {pairs} | "
        f"{change['verdict']} | {copy['delta']:+.1%} | {copy['verdict']} |"
    )


def main(argv: list[str] | None = None, runner=run_e2e) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="the parent tree")
    parser.add_argument("change", help="the changed tree")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True,
                        help="one seed per pair, or the first of consecutive ones")
    parser.add_argument("--workloads", nargs="+",
                        help="default: every workload of BENCHMARK.json")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out", required=True, help="the JSON record to write")
    args = parser.parse_args(argv)
    seeds = args.seeds
    if len(seeds) == 1:
        seeds = [seeds[0] + i for i in range(args.pairs)]
    if len(seeds) != args.pairs:
        parser.error(f"{args.pairs} pairs need one seed, or {args.pairs}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    workloads = args.workloads or [w["name"] for w in benchmark["workloads"]]
    judge = _compare_module().judge

    scratch = tempfile.mkdtemp(prefix="bench-pairs-")
    try:
        copy = os.path.join(scratch, "copy")
        shutil.copytree(args.parent, copy,
                        ignore=shutil.ignore_patterns(".git", "__pycache__"))
        trees = {"parent": args.parent, "change": args.change, "copy": copy}
        runs: dict[str, list[dict]] = {side: [] for side in SIDES}
        for workload in workloads:
            for i, seed in enumerate(seeds):
                order = ("parent", "change", "copy") if i % 2 == 0 else (
                    "copy", "change", "parent")
                for side in order:
                    result = runner(trees[side], workload, seed, args.seconds)
                    runs[side].append({"workload": workload, **result})
                    print(f"{workload} pair {i + 1}/{args.pairs} seed {seed} "
                          f"{side}: query_ms_p50 "
                          f"{result['metrics'].get('query_ms_p50', {}).get('value')}",
                          file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    record = {
        "pairs": args.pairs,
        "seeds": seeds,
        "seconds": args.seconds,
        "commits": {"parent": commit_of(args.parent), "change": commit_of(args.change)},
        "workloads": {},
    }
    for workload in workloads:
        of = {side: [r for r in runs[side] if r["workload"] == workload] for side in SIDES}
        rows = {}
        print(f"\n**{workload}** — {args.pairs} pairs, seeds {seeds[0]} – {seeds[-1]}\n")
        print("| metric | parent median (quartiles) | change | vs parent | verdict "
              "| A/A | A/A verdict |")
        print("|---|---|---|---|---|---|---|")
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            if not all(name in r["metrics"] for side in SIDES for r in of[side]):
                continue
            values = {
                side: [r["metrics"][name]["value"] for r in of[side]] for side in SIDES
            }
            rows[name] = summarise(metric, values, judge)
            print(_format_row(name, rows[name], args.pairs))
        record["workloads"][workload] = {
            "metrics": rows,
            "correct": {side: all(r["correct"] for r in of[side]) for side in SIDES},
            "failed": {side: sum(r["failed"] for r in of[side]) for side in SIDES},
        }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
