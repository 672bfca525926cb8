"""Section 4.1 — storage costs: base-table digest overhead and index
sizes at the paper's defaults."""

from repro.analysis.params import Parameters
from repro.analysis.storage import storage_costs
from repro.bench.series import emit


def test_storage_costs(benchmark):
    p = Parameters()
    s = storage_costs(p)
    emit(
        "Section 4.1: storage costs at paper defaults (N_r = 1M)",
        "storage_costs",
        ["quantity", "B-tree", "VB-tree"],
        [
            ("fan-out", s.btree_fanout, s.vbtree_fanout),
            ("height", s.btree_height, s.vbtree_height),
            ("nodes", s.btree_nodes, s.vbtree_nodes),
            ("index bytes", s.btree_index_bytes, s.vbtree_index_bytes),
            ("table bytes", s.table_bytes, s.table_bytes),
            ("table digest overhead", 0, s.table_digest_overhead),
            ("table digest overhead, as built", 0, s.tuple_digest_overhead),
            ("per-node overhead bytes", 0, s.node_overhead_bytes),
        ],
    )
    # Paper claims: table overhead = N_r x N_c x |D| = 160 MB here.
    assert s.table_digest_overhead == 160_000_000
    # As built (DESIGN.md D5), one signed digest per tuple: N_r x |D|.
    assert s.tuple_digest_overhead == 16_000_000
    assert s.vbtree_index_bytes > s.btree_index_bytes
    benchmark(storage_costs, p)
