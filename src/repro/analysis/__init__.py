"""Closed-form cost models of the paper's Section 4.

These functions regenerate every figure of the evaluation at the
paper's scale (1M rows) — see ``benchmarks/`` for the harnesses that
print the series and EXPERIMENTS.md for paper-vs-ours notes."""

from repro.analysis.communication import (
    CommCost,
    DEFAULT_SELECTIVITIES,
    envelope_digests,
    fig10_series,
    fig11_series,
    naive_comm_cost,
    vbtree_comm_cost,
    vbtree_comm_cost_as_built,
)
from repro.analysis.computation import (
    CompCost,
    fig12_series,
    fig13a_series,
    fig13b_series,
    naive_comp_cost,
    vbtree_comp_cost,
    vbtree_comp_cost_as_built,
)
from repro.analysis.params import Parameters
from repro.analysis.storage import (
    StorageCosts,
    fig8_series,
    fig9_series,
    storage_costs,
)
from repro.analysis.updates import (
    UpdateCost,
    delete_cost,
    delete_series,
    insert_cost,
    insert_cost_as_built,
)

__all__ = [
    "CommCost",
    "CompCost",
    "DEFAULT_SELECTIVITIES",
    "Parameters",
    "StorageCosts",
    "UpdateCost",
    "delete_cost",
    "delete_series",
    "envelope_digests",
    "fig10_series",
    "fig11_series",
    "fig12_series",
    "fig13a_series",
    "fig13b_series",
    "fig8_series",
    "fig9_series",
    "insert_cost",
    "insert_cost_as_built",
    "naive_comm_cost",
    "naive_comp_cost",
    "storage_costs",
    "vbtree_comm_cost",
    "vbtree_comm_cost_as_built",
    "vbtree_comp_cost",
    "vbtree_comp_cost_as_built",
]
