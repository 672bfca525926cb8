"""Storage cost models — Section 4.1, Figures 8 and 9.

Fan-out (formula 6 and its B-tree counterpart) and fully-packed tree
heights (formula 7) come straight from the shared
:class:`~repro.db.page.PageGeometry`; this module adds the table-level
overheads and the figure sweeps."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.analysis.params import Parameters

__all__ = [
    "StorageCosts",
    "storage_costs",
    "fig8_series",
    "fig9_series",
]


@dataclass(frozen=True)
class StorageCosts:
    """Storage accounting for one parameter set."""

    table_bytes: int
    table_digest_overhead: int
    #: As built (DESIGN.md D5): one signed digest per *tuple*.
    tuple_digest_overhead: int
    btree_fanout: int
    vbtree_fanout: int
    btree_height: int
    vbtree_height: int
    btree_nodes: int
    vbtree_nodes: int
    btree_index_bytes: int
    vbtree_index_bytes: int
    #: Extra bytes per VB-tree node vs B-tree (``f_vb * |D|``).
    node_overhead_bytes: int


def _node_count(num_rows: int, leaf_capacity: int, fanout: int) -> int:
    """Nodes of a fully packed tree with the given capacities."""
    if num_rows == 0:
        return 1
    level = math.ceil(num_rows / leaf_capacity)
    total = level
    while level > 1:
        level = math.ceil(level / fanout)
        total += level
    return total


def storage_costs(params: Parameters) -> StorageCosts:
    """All Section 4.1 storage quantities for ``params``.

    * Base-table digest overhead: one signed digest per attribute —
      ``N_r * N_c * |D|`` bytes; as built, one per tuple — ``N_r * |D|``.
    * Index sizes: node count x block size for fully packed trees.
    """
    b = params.btree_geometry()
    vb = params.vbtree_geometry()
    table_bytes = round(params.num_rows * params.num_cols * params.attr_size)
    overhead = params.num_rows * params.num_cols * params.digest_len
    b_nodes = _node_count(params.num_rows, b.leaf_capacity(), b.internal_fanout())
    vb_nodes = _node_count(
        params.num_rows, vb.leaf_capacity(), vb.internal_fanout()
    )
    return StorageCosts(
        table_bytes=table_bytes,
        table_digest_overhead=overhead,
        tuple_digest_overhead=params.num_rows * params.digest_len,
        btree_fanout=b.internal_fanout(),
        vbtree_fanout=vb.internal_fanout(),
        btree_height=b.height_for(params.num_rows),
        vbtree_height=vb.height_for(params.num_rows),
        btree_nodes=b_nodes,
        vbtree_nodes=vb_nodes,
        btree_index_bytes=b_nodes * params.block_size,
        vbtree_index_bytes=vb_nodes * params.block_size,
        node_overhead_bytes=vb.internal_fanout() * params.digest_len,
    )


# Default figure sweeps, evaluated once (never mutated).
_LOG2_KEY_SIZES = tuple(range(0, 9))


def fig8_series(
    params: Parameters | None = None,
    log2_key_sizes: Sequence[int] = _LOG2_KEY_SIZES,
) -> list[tuple[int, int, int]]:
    """Figure 8: (log2 |K|, B-tree fan-out, VB-tree fan-out)."""
    params = params or Parameters()
    rows = []
    for log_k in log2_key_sizes:
        p = params.with_(key_len=2**log_k)
        rows.append(
            (
                log_k,
                p.btree_geometry().internal_fanout(),
                p.vbtree_geometry().internal_fanout(),
            )
        )
    return rows


def fig9_series(
    params: Parameters | None = None,
    log2_key_sizes: Sequence[int] = _LOG2_KEY_SIZES,
) -> list[tuple[int, int, int]]:
    """Figure 9: (log2 |K|, B-tree height, VB-tree height) at ``N_r``."""
    params = params or Parameters()
    rows = []
    for log_k in log2_key_sizes:
        p = params.with_(key_len=2**log_k)
        rows.append(
            (
                log_k,
                p.btree_geometry().height_for(p.num_rows),
                p.vbtree_geometry().height_for(p.num_rows),
            )
        )
    return rows
