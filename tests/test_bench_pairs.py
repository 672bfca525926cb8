"""The paired-run tool (tools/bench_pairs.py), driven by a stub runner.

No benchmark runs: the stub answers for each tree from a marker file,
so the test checks the tool's own work — the order alternation, the A/A
copy of the parent, the table, the verdicts and the JSON record.
"""

import importlib.util
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tree(path, side):
    os.makedirs(path)
    with open(os.path.join(path, "SIDE"), "w", encoding="utf-8") as handle:
        handle.write(side)
    return str(path)


def test_pairs_alternate_and_the_record_is_written(tmp_path, capsys):
    tool = _load_tool()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        metrics = json.load(handle)["end_to_end"]
    parent, change = _tree(tmp_path / "p", "parent"), _tree(tmp_path / "c", "change")
    calls = []

    def stub(tree, workload, seed, seconds):
        with open(os.path.join(tree, "SIDE"), encoding="utf-8") as handle:
            side = handle.read()
        is_copy = tree not in (parent, change)
        calls.append(("copy" if is_copy else side, workload, seed))
        values = {m["name"]: 100.0 + seed % 3 for m in metrics}
        if side == "change":
            values["query_ms_p50"] = 50.0 + seed % 3
        return {
            "correct": True, "attempted": 10, "failed": 0,
            "metrics": {name: {"value": v, "unit": "x"} for name, v in values.items()},
        }

    out = tmp_path / "BENCH.json"
    assert tool.main(
        [parent, change, "--pairs", "4", "--seeds", "11", "--workloads", "w",
         "--seconds", "1", "--out", str(out)],
        runner=stub,
    ) == 0
    # Three runs a pair; the parent and its copy (a copy: it reads the
    # parent's marker) flank the change and swap places.
    assert [c[0] for c in calls] == ["parent", "change", "copy", "copy", "change",
                                     "parent"] * 2
    assert [c[2] for c in calls] == [11] * 3 + [12] * 3 + [13] * 3 + [14] * 3

    record = json.loads(out.read_text(encoding="utf-8"))
    assert record["seeds"] == [11, 12, 13, 14] and record["pairs"] == 4
    rows = record["workloads"]["w"]["metrics"]
    assert list(rows) == [m["name"] for m in metrics]
    query = rows["query_ms_p50"]
    assert query["parent"]["median"] == 101.5 and query["change"]["median"] == 51.5
    assert query["change"]["better_in"] == 4 and query["change"]["verdict"] == "ok"
    assert query["copy"]["delta"] == 0.0 and query["copy"]["verdict"] == "ok"
    assert rows["response_bytes_per_row"]["change"]["better_in"] == 0
    assert rows["ops_per_s"]["change"]["verdict"] == "ok"
    assert record["workloads"]["w"]["correct"] == dict.fromkeys(tool.SIDES, True)

    table = capsys.readouterr().out
    assert "| `query_ms_p50` | 101.5 (100.2 – 102) | 51.5 (50.25 – 52) | -49.3%, " \
        "better in 4 / 4 | ok | +0.0% | ok |" in table
    assert sum(line.startswith("| `") for line in table.splitlines()) == len(metrics)


def test_a_regression_is_named(tmp_path, capsys):
    tool = _load_tool()
    parent, change = _tree(tmp_path / "p", "parent"), _tree(tmp_path / "c", "change")

    def stub(tree, workload, seed, seconds):
        with open(os.path.join(tree, "SIDE"), encoding="utf-8") as handle:
            slow = handle.read() == "change"
        return {
            "correct": True, "attempted": 10, "failed": 0,
            "metrics": {"query_ms_p50": {"value": (20.0 if slow else 10.0) + seed % 2,
                                         "unit": "ms"}},
        }

    out = tmp_path / "BENCH.json"
    tool.main([parent, change, "--pairs", "2", "--seeds", "1", "2", "--workloads",
               "w", "--out", str(out)], runner=stub)
    row = json.loads(out.read_text(encoding="utf-8"))["workloads"]["w"]["metrics"]
    assert list(row) == ["query_ms_p50"]
    assert row["query_ms_p50"]["change"]["verdict"] == "regression"
    assert "| regression |" in capsys.readouterr().out
