"""End-to-end benchmark of the signed-insert → verified-query pipeline.

One workload (what the benchmark driver runs; the last line printed is
the contract's JSON object)::

    python3 benchmarks/e2e/run.py --workload read_narrow_tcp --seed 1 \\
        --seconds 10 --trace 0

Every workload, each in a fresh child process, with a summary table::

    python3 benchmarks/e2e/run.py [--seed N] [--seconds S] [--trace]
        [--runs K] [--out FILE]

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` (or a bare
``--trace``) the per-layer metrics from a traced run and writes the
spans to ``benchmarks/e2e/results/trace-<workload>.jsonl``.  ``--out``
collects every run for ``compare.py``.  The exit code is non-zero when
an operation failed, an answer differed from the oracle, a canary was
accepted, or the fabric swallowed an unexpected exception: a number
from a verifier that does not verify is void.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")
if not os.path.isdir(os.path.join(SRC, "repro")):
    # A directory holding only the benchmark has nothing to measure.
    sys.exit(f"run.py: the program under test is missing: no {SRC}/repro")
for path in (SRC, HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

from e2ebench.fabric import DEFAULT_RECIPE  # noqa: E402 - sys.path bootstrap above
from e2ebench.harness import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    Result,
    run_traced,
    run_untraced,
)
from e2ebench.workloads import WORKLOADS  # noqa: E402

RESULTS = os.path.join(HERE, "results")


def _print_result(result: Result, units: dict[str, str]) -> None:
    print(f"== {result.workload} seed={result.seed} "
          f"{'traced' if result.traced else 'untraced'}")
    for name, value in result.metrics.items():
        n = result.samples.get(name)
        print(f"{name} {value:.6g} {units[name]}" + (f" (n={n})" if n else ""))
    for name, value in result.diagnostics.items():
        print(f"  . {name} {value:.6g}")
    for problem in result.problems:
        print(f"PROBLEM {problem}")
    print(f"attempted {result.attempted} failed {result.failed} "
          f"failed_ops_share {result.failed / max(1, result.attempted):.6g}")
    print(f"total wall time {result.wall_s:.3f} s")


def run_one(args: argparse.Namespace) -> int:
    """Run one workload in this process; print the contract line last."""
    workload = WORKLOADS[args.workload]
    if args.trace:
        os.makedirs(RESULTS, exist_ok=True)
        result = run_traced(
            workload, args.seed, args.seconds, DEFAULT_RECIPE,
            trace_path=os.path.join(RESULTS, f"trace-{workload.name}.jsonl"),
        )
    else:
        result = run_untraced(workload, args.seed, args.seconds, DEFAULT_RECIPE)
    units = PER_LAYER if result.traced else END_TO_END
    _print_result(result, units)
    sys.stdout.flush()
    print(json.dumps(result.to_contract(units)))
    return 0 if result.correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh child process, ``--runs`` times."""
    started = time.perf_counter()
    runs: list[dict] = []
    status = 0
    for _ in range(args.runs):
        for name in WORKLOADS:
            child = subprocess.run(
                [
                    sys.executable, os.path.abspath(__file__),
                    "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace),
                ],
                capture_output=True, text=True, check=False,
            )
            sys.stdout.write(child.stdout)
            sys.stderr.write(child.stderr)
            status = status or child.returncode
            lines = child.stdout.strip().splitlines()
            if lines and lines[-1].startswith("{"):
                runs.append(
                    {"workload": name, "seed": args.seed, "trace": args.trace,
                     **json.loads(lines[-1])}
                )
            elif not status:
                status = 1
    if args.out:
        with open(args.out, "w", encoding="utf-8") as out:
            json.dump({"runs": runs}, out, indent=1)
    print(f"total wall time {time.perf_counter() - started:.3f} s "
          f"({len(runs)} runs)")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--runs", type=int, default=1,
                        help="repeat every workload this often (no --workload)")
    parser.add_argument("--out", help="write every run's JSON here (no --workload)")
    args = parser.parse_args(argv)
    return run_one(args) if args.workload else run_all(args)


def _pin_to_one_cpu() -> None:
    """Keep the caller and the ``EdgeHost`` reactor on one CPU.

    Under the GIL the two threads never compute at the same time, so
    nothing is lost; what is gained is that handing a frame to the
    other thread no longer has to wake a halted vCPU, which in this
    sandbox costs ~25 µs or ~200 µs depending on the hypervisor's mood
    for the next few minutes — twice the whole reactor round trip.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


if __name__ == "__main__":
    _pin_to_one_cpu()
    sys.exit(main())
