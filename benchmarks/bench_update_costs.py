"""Section 4.4 — update costs (formulas 11 and 12).

The paper analyses insert/delete maintenance cost but plots no figure;
this bench generates the implied table and measures the real system:
wall-clock + operation counts for inserts (the cheap commutative fold)
and range deletes (X-lock + recompute), including the FLATTENED vs
NESTED policy ablation the paper's "minimal effect on other digests"
claim rests on."""

import pytest

from repro.analysis.params import Parameters
from repro.analysis.updates import delete_series, insert_cost, insert_cost_as_built
from repro.bench.series import emit
from repro.core.digests import DigestEngine, DigestPolicy, SigningDigestEngine
from repro.core.update import AuthenticatedUpdater
from repro.core.vbtree import VBTree
from repro.crypto.meter import CostMeter
from repro.crypto.rsa import generate_keypair
from repro.crypto.signatures import DigestSigner
from repro.db.rows import Row
from repro.db.schema import Column, TableSchema
from repro.db.types import IntType, VarcharType


def test_update_costs_analytic(benchmark):
    p = Parameters()
    rows = delete_series(p)
    emit(
        "Formulas 11-12: update costs (units of Cost_h; N_r = 1M)",
        "update_costs_analytic",
        ["deleted rows Q_r", "delete cost", "insert cost (ref)"],
        rows,
    )
    costs = [c for _n, c, _i in rows]
    assert costs == sorted(costs)
    benchmark(delete_series, p)


def _build_tree(policy: DigestPolicy, n: int, meter: CostMeter | None = None):
    schema = TableSchema(
        "upd",
        (
            Column("id", IntType()),
            Column("a", VarcharType(capacity=20)),
            Column("b", VarcharType(capacity=20)),
        ),
        key="id",
    )
    keypair = generate_keypair(bits=512, seed=7)
    meter = meter or CostMeter()
    engine = DigestEngine("benchdb", policy=policy, meter=meter)
    signing = SigningDigestEngine(
        engine, DigestSigner.from_keypair(keypair, meter=meter)
    )
    rows = [Row(schema, (i * 2, f"v{i}", f"w{i}")) for i in range(n)]
    tree = VBTree.build(schema, rows, signing, fanout_override=16)
    return schema, tree


@pytest.mark.parametrize("policy", [DigestPolicy.FLATTENED, DigestPolicy.NESTED])
def test_insert_measured(benchmark, policy):
    """The paper's cheap insert only exists under FLATTENED: one
    combine per path node vs a full recompute per ancestor under
    NESTED (the op counts are the next test's)."""
    schema, tree = _build_tree(policy, 2_000)
    updater = AuthenticatedUpdater(tree)
    keys = iter(range(100_001, 10_000_000, 2))

    def do_insert():
        key = next(keys)
        updater.insert(Row(schema, (key, "new", "row")))

    benchmark(do_insert)


def test_insert_fold_vs_recompute_opcounts(benchmark):
    """Op-count comparison behind the paper's insert claim, with the
    signatures measured beside formula 11's ``N_c + 1 + H_vb`` and the
    as-built ``1 + H_vb`` (DESIGN.md D5: no attribute is signed)."""
    results = {}

    def measure():
        results.clear()
        # An odd key in the middle of the even-keyed table lands in a
        # half-full leaf: no split, so the digest-maintenance paths (the
        # fold vs the ancestor recompute) are isolated.
        key = 1001
        for policy in (DigestPolicy.FLATTENED, DigestPolicy.NESTED):
            meter = CostMeter()
            schema, tree = _build_tree(policy, 2_000, meter=meter)
            updater = AuthenticatedUpdater(tree)
            meter.reset()
            updater.insert(Row(schema, (key, "new", "row")))
            # The formulas take the height from a packed tree at the
            # default page geometry; give them the fewest rows whose
            # packed height is this (fan-out 16, half-full) tree's.
            params = Parameters(
                digest_len=tree.geometry.digest_len,
                key_len=tree.geometry.key_len,
                num_cols=schema.num_columns,
            )
            packed = params.vbtree_geometry()
            params = params.with_(
                num_rows=packed.leaf_capacity()
                * packed.internal_fanout() ** (tree.height() - 2) + 1
            )
            assert packed.height_for(params.num_rows) == tree.height()
            results[policy.value] = {
                **meter.snapshot(),
                "formula_signs": insert_cost(params).signs,
                "as_built_signs": insert_cost_as_built(params).signs,
            }
        return results

    benchmark.pedantic(measure, rounds=1, iterations=1)
    emit(
        "Insert maintenance op-counts: FLATTENED fold vs NESTED recompute",
        "update_insert_opcounts",
        ["policy", "hashes", "combines", "signs", "as-built signs", "formula 11 signs"],
        [
            (
                name,
                *(
                    snap[k]
                    for k in (
                        "hashes", "combines", "signs", "as_built_signs", "formula_signs"
                    )
                ),
            )
            for name, snap in results.items()
        ],
    )
    assert results["flattened"]["combines"] < results["nested"]["combines"]
    # One signature per tuple and per path node: the no-split fold signs
    # exactly the as-built closed form, which is formula 11 less its
    # N_c attribute signatures.
    flattened = results["flattened"]
    assert flattened["signs"] == flattened["as_built_signs"]
    assert flattened["as_built_signs"] == flattened["formula_signs"] - 3


def test_propagation_cost_end_to_end(benchmark):
    """End-to-end write-path cost under eager delta replication: one
    insert at the central server through to N edge replicas, reporting
    replication bytes and simulated transfer seconds per edge count."""
    import time

    from repro.edge.central import CentralServer
    from repro.workloads.generator import TableSpec, generate_table

    series = []
    for n_edges in (1, 2, 4, 8):
        central = CentralServer(db_name="propbench", rsa_bits=512, seed=55)
        schema, data = generate_table(
            TableSpec(name="t", rows=1_000, columns=5, seed=3)
        )
        central.create_table(schema, data)
        edges = [central.spawn_edge_server(f"e{i}") for i in range(n_edges)]
        for edge in edges:
            edge.replication_channel.reset()
        t0 = time.perf_counter()
        central.insert("t", (10_000_000, *["p"] * 4))
        elapsed = time.perf_counter() - t0
        total_bytes = sum(
            e.replication_channel.total_bytes for e in edges
        )
        total_seconds = sum(
            e.replication_channel.total_seconds for e in edges
        )
        series.append(
            (n_edges, total_bytes, round(total_seconds, 4), round(elapsed, 4))
        )
    emit(
        "End-to-end propagation: one insert -> N edges (eager deltas)",
        "update_propagation_cost",
        ["edges", "replication bytes", "simulated transfer s", "wall s"],
        series,
    )
    # Per-edge cost is flat: total bytes scale linearly with edge count.
    per_edge = [b / n for n, b, _s, _w in series]
    assert max(per_edge) < 1.5 * min(per_edge)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


@pytest.mark.parametrize("range_size", [1, 16, 64])
def test_delete_range_measured(benchmark, range_size):
    """Range deletes: recompute cost grows with the deleted range."""
    schema, tree = _build_tree(DigestPolicy.FLATTENED, 4_000)
    updater = AuthenticatedUpdater(tree)
    starts = iter(range(0, 8_000, 2 * range_size))

    def do_delete():
        start = next(starts)
        updater.delete_range(start, start + 2 * range_size - 1)

    benchmark.pedantic(do_delete, rounds=20, iterations=1)
    tree.audit()  # digests stay correct throughout
