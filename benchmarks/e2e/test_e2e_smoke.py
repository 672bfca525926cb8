"""Smoke tests of the e2e benchmark harness (collected by tier-1).

They check the harness, not the system's speed: the percentile rule,
self-time attribution, seed determinism, a 64-row run of all four
workloads untraced and traced, and that a verifier that does not verify
(or an answer that differs from the oracle) makes ``run.py`` exit
non-zero.
"""

import functools
import importlib.util
import json
import os
from collections import defaultdict

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"e2e_{name}", os.path.join(HERE, f"{name}.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run = _load("run")  # puts benchmarks/e2e and src on sys.path
compare = _load("compare")

from e2ebench import fabric, harness, trace  # noqa: E402 - after the bootstrap
from e2ebench.workloads import WORKLOADS  # noqa: E402

SMALL = fabric.Recipe(rows=64)


# ----------------------------------------------------------------------
# Pure pieces
# ----------------------------------------------------------------------


def test_percentile_rule_picks_highest_percentile_with_ten_beyond():
    assert harness.pick_percentiles(19) == [50]
    assert harness.pick_percentiles(99) == [50]
    assert harness.pick_percentiles(100) == [50, 90]
    assert harness.pick_percentiles(999) == [50, 90]
    assert harness.pick_percentiles(1000) == [50, 99]
    samples = list(range(1, 101))
    assert harness.percentile(samples, 50) == 50
    assert harness.percentile(samples, 90) == 90
    assert harness.percentile([7], 99) == 7


def test_self_time_on_a_synthetic_tree_with_cross_thread_children():
    main, worker = 1, 2
    spans = [
        # (id, name, op, parent, thread, start, end)
        (1, "op.query", 1, 0, main, 0, 100),
        (2, "a", 1, 1, main, 10, 60),
        (3, "edge", 1, 2, worker, 20, 40),       # inside its parent
        (4, "late", 1, 2, worker, 50, 75),       # outlives its parent
        (5, "b", 1, 1, main, 70, 90),
        (6, "stray", 1, 1, worker, 95, 130),     # clipped to the root
    ]
    own = trace.exclusive_ns(spans, main)
    assert own == {1: 15, 2: 20, 3: 20, 4: 25, 5: 15, 6: 5}
    assert sum(own.values()) == 100
    stats = trace.aggregate(spans, {1: "query"}, main, lambda op: ("query",))
    assert stats["query"].root_ns == 100
    assert stats["query"].root_self_ns == 15
    assert sum(stats["query"].self_ns.values()) + 15 == 100


def first_ops(workload, seed, cycles=3):
    """The first cycles of every phase, flattened."""
    return [
        op
        for phase in workload.phases(seed, SMALL)
        for _ in range(cycles)
        for op in next(phase.cycles)
    ]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_op_list_is_a_function_of_the_seed(name):
    workload = WORKLOADS[name]
    once = first_ops(workload, 7)
    assert once == first_ops(workload, 7)
    assert once != first_ops(workload, 8)


def test_benchmark_json_names_exactly_what_the_harness_emits():
    with open(compare.BENCHMARK, encoding="utf-8") as handle:
        benchmark = json.load(handle)
    assert [w["name"] for w in benchmark["workloads"]] == list(WORKLOADS)
    for section, units in (("end_to_end", harness.END_TO_END),
                           ("per_layer", harness.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in benchmark[section]}
        assert declared == units


def test_compare_flags_regressions_and_wide_spreads():
    timing = {"name": "query_ms_p50", "unit": "ms", "better": "lower", "bound": 0.1}
    assert compare.judge(timing, [10, 10.1, 9.9], [10.5, 10.4, 10.6])[0] == "ok"
    assert compare.judge(timing, [10, 10.1, 9.9], [12, 12.1, 11.9])[0] == "regression"
    assert compare.judge(timing, [10, 14, 7], [12, 15, 8])[0] == "unresolved"
    assert compare.judge(timing, [10, 14, 8], [5, 6, 7])[0] == "ok"
    exact = {"name": "response_bytes_per_row", "unit": "bytes", "better": "lower",
             "bound": 0.01}
    assert compare.judge(exact, [600.0], [600.0])[0] == "ok"
    assert compare.judge(exact, [600.0], [600.5])[0] == "regression"
    assert compare.judge(exact, [600.0], [590.0])[0] == "ok"


def test_compare_counts_a_missing_workload_or_metric_as_a_regression(
    tmp_path, capsys
):
    with open(compare.BENCHMARK, encoding="utf-8") as handle:
        benchmark = json.load(handle)
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]}
               for m in benchmark["end_to_end"]}
    runs = [
        {"workload": w["name"], "trace": 0, "correct": True, "attempted": 1,
         "failed": 0, "metrics": metrics}
        for w in benchmark["workloads"]
    ]

    def write(name, runs):
        path = tmp_path / name
        path.write_text(json.dumps({"runs": runs}))
        return str(path)

    whole = write("a.json", runs)
    assert compare.main([whole, whole]) == 0
    assert compare.main([whole, write("b.json", runs[1:])]) == 1
    assert f"{runs[0]['workload']} missing" in capsys.readouterr().out
    lacking = dict(metrics)
    del lacking["ops_per_s"]
    assert compare.main([whole, write("c.json", [{**runs[0], "metrics": lacking},
                                                 *runs[1:]])]) == 1
    assert "ops_per_s missing from a run" in capsys.readouterr().out


# ----------------------------------------------------------------------
# 64-row smoke of every workload
# ----------------------------------------------------------------------


def _untraced(name):
    return harness.run_untraced(WORKLOADS[name], 3, 0.02, SMALL)


_untraced_once = functools.lru_cache(maxsize=None)(_untraced)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_untraced_reports_every_end_to_end_metric(name):
    result = _untraced_once(name)
    assert result.correct, result.problems
    assert list(result.metrics) == list(harness.END_TO_END)
    assert all(value > 0 for value in result.metrics.values())
    assert result.failed == 0 and result.attempted > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_traced_self_times_add_up_to_the_root(name, tmp_path):
    path = tmp_path / "trace.jsonl"
    result = harness.run_traced(
        WORKLOADS[name], 3, 0.02, SMALL, trace_path=str(path)
    )
    assert result.correct, result.problems
    assert list(result.metrics) == list(harness.PER_LAYER)
    assert result.metrics["trace.attributed_share"] > 0.9
    by_op = defaultdict(list)
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            s = json.loads(line)
            by_op[s["op"]].append(
                (s["id"], s["name"], s["op"], s["parent"], s["thread"],
                 s["start_ns"], s["end_ns"])
            )
    assert len(by_op) >= 4
    for members in by_op.values():
        root = next(s for s in members if s[3] == 0 and s[1].startswith("op."))
        own = trace.exclusive_ns(members, root[4])
        assert sum(own.values()) == pytest.approx(root[6] - root[5], rel=0.01)


def test_same_seed_gives_identical_byte_and_count_metrics():
    first = _untraced_once("mixed_rw_tcp").metrics
    second = _untraced("mixed_rw_tcp").metrics
    for name in sorted(compare.EXACT):
        assert first[name] == second[name]


# ----------------------------------------------------------------------
# The correctness gate must be able to fail
# ----------------------------------------------------------------------


def test_a_failed_sync_is_a_failed_operation_with_no_write_pending(monkeypatch):
    from repro.workloads.generator import generate_table

    schema, rows = generate_table(SMALL.table_spec(3))
    built, _times = fabric.build_fabric(
        WORKLOADS["read_wide_inproc"].shape, 3, SMALL, schema, rows
    )
    try:
        rec = harness.Recorder()
        runner = harness.Runner(built, fabric.Oracle(rows), rec)
        monkeypatch.setattr(built, "at_parity", lambda: False)
        runner._sync(harness._REST)
    finally:
        built.close()
    assert (rec.attempted, rec.failed) == (1, 1)
    assert "edge behind the log" in rec.errors[0]


ARGV = ["--workload", "read_wide_inproc", "--seconds", "0.05"]


@pytest.fixture
def small_table(monkeypatch):
    monkeypatch.setattr(run, "DEFAULT_RECIPE", SMALL)


def test_run_exits_zero_and_prints_the_contract_line(small_table, capsys):
    assert run.main(ARGV) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert set(last["metrics"]) == set(harness.END_TO_END)
    assert last["metrics"]["setup_s"]["unit"] == "s"


def test_run_exits_nonzero_when_a_canary_is_accepted(small_table, monkeypatch, capsys):
    from repro.core.verify import Verdict
    from repro.edge.client import Client

    monkeypatch.setattr(Client, "verify", lambda self, response: Verdict(ok=True))
    assert run.main(ARGV) == 1
    out = capsys.readouterr().out
    assert "canary ValueTamper: tampered answer was ACCEPTed" in out
    assert json.loads(out.strip().splitlines()[-1])["correct"] is False


def test_run_exits_nonzero_on_an_oracle_mismatch(small_table, monkeypatch, capsys):
    honest = fabric.Oracle.expect

    def forgetful(self, low, high, columns):
        keys, rows = honest(self, low, high, columns)
        return keys[:-1], rows[:-1]

    monkeypatch.setattr(fabric.Oracle, "expect", forgetful)
    assert run.main(ARGV) == 1
    out = capsys.readouterr().out
    assert "oracle mismatch" in out
    assert json.loads(out.strip().splitlines()[-1])["failed"] > 0
