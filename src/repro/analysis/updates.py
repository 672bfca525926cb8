"""Update cost models — Section 4.4, formulas (11) and (12).

**Insert** (formula 11).  The central server hashes the ``N_c``
attribute values, combines them into the tuple digest (``N_c - 1``
folds), then folds the tuple digest into each of the ``H_vb`` node
digests on the root-to-leaf path (one ``Cost_c`` each under the
commutative scheme).  Every modified digest must be re-signed:
``N_c`` attribute signatures + 1 tuple signature + ``H_vb`` node
signatures.

**Delete** (formula 12).  A contiguous range of ``Q_r`` tuples empties
out the interior of its enveloping subtree (height ``H_env``) and
leaves partial nodes at the top/left/right boundaries — at most
``2 H_env + 1`` nodes with up to ``f_vb - 1`` children each, all of
whose digests must be *recomputed* (the exponent fold cannot be
reversed).  The ``H_vb - H_env`` nodes above the envelope recompute
from up to ``f_vb`` children each.  The paper notes node merges are
rare (lazy deletion per Johnson & Shasha [9]) and excludes them.

The paper gives the formulas but plots no figure; the update bench
generates the table the formulas imply and cross-checks the measured
system against the shapes.

**As built** (DESIGN.md D5).  The running system hashes the ordered row
into the tuple digest instead of folding the attribute digests, so no
attribute digest is signed: :func:`insert_cost_as_built` is formula 11
with one more hash, ``N_c - 1`` fewer combines and ``N_c`` fewer
signatures.  A delete signs no tuple, so formula 12 is as built."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.analysis.params import Parameters

__all__ = [
    "UpdateCost",
    "insert_cost",
    "insert_cost_as_built",
    "delete_cost",
    "delete_series",
]


@dataclass(frozen=True)
class UpdateCost:
    """Operation counts and weighted total for one update."""

    hashes: int
    combines: int
    signs: int
    total: float


def _weighted(
    params: Parameters, hashes: int, combines: int, signs: int
) -> UpdateCost:
    """The counts with their total at ``params``' unit costs."""
    return UpdateCost(
        hashes=hashes,
        combines=combines,
        signs=signs,
        total=(
            hashes * params.cost_hash
            + combines * params.cost_combine
            + signs * params.cost_sign
        ),
    )


def insert_cost(params: Parameters, include_signing: bool = True) -> UpdateCost:
    """Formula (11): cost of inserting one tuple."""
    height = params.vbtree_geometry().height_for(params.num_rows)
    hashes = params.num_cols
    combines = (params.num_cols - 1) + height
    signs = (params.num_cols + 1 + height) if include_signing else 0
    return _weighted(params, hashes, combines, signs)


def insert_cost_as_built(params: Parameters) -> UpdateCost:
    """Insert as the system runs it: ``N_c`` attribute hashes and the
    row hash, one fold per path node, and ``1 + H_vb`` signatures — the
    tuple's and the path's."""
    paper = insert_cost(params)
    return _weighted(
        params,
        hashes=paper.hashes + 1,
        combines=paper.combines - (params.num_cols - 1),
        signs=paper.signs - params.num_cols,
    )


def delete_cost(
    params: Parameters,
    deleted_rows: int,
    include_signing: bool = True,
) -> UpdateCost:
    """Formula (12): cost of deleting ``deleted_rows`` contiguous tuples."""
    geometry = params.vbtree_geometry()
    fanout = geometry.internal_fanout()
    height = geometry.height_for(params.num_rows)
    h_env = geometry.envelope_height_for(deleted_rows)
    boundary_nodes = 2 * h_env + 1
    combines = boundary_nodes * (fanout - 1) + (height - h_env) * fanout
    signs = (boundary_nodes + (height - h_env)) if include_signing else 0
    return _weighted(params, 0, combines, signs)


def delete_series(
    params: Parameters | None = None,
    deleted_row_counts: Sequence[int] = (1, 10, 100, 1_000, 10_000, 100_000),
) -> list[tuple[int, float, float]]:
    """(Q_r deleted, delete cost, insert cost for reference) — the
    Section 4.4 comparison the paper describes in prose."""
    params = params or Parameters()
    ins = insert_cost(params).total
    return [
        (n, delete_cost(params, n).total, ins) for n in deleted_row_counts
    ]
