"""Client computation cost models — Section 4.3, Figures 12 and 13.

**VB-tree** (formula 10).  The client:

1. hashes the ``Q_r * Q_c`` returned attribute values —
   ``Q_r * Q_c * Cost_a``;
2. decrypts the ``Q_r (N_c - Q_c)`` digests in ``D_P``, the
   ``(2 H_env - 1)(f_vb - 1)`` digests in ``D_S``, and ``D_N`` —
   each at ``Cost_v``;
3. combines everything back into the top digest — ``Cost_c`` per
   pairwise fold: ``N_c - 1`` folds per tuple, plus one fold per tuple
   digest and per ``D_S`` entry into the envelope product.  The product
   is compared with the value recovered from ``D_N`` as it stands; there
   is no final exponentiation.

For large results the hash term dominates and the whole thing is
O(``Q_r``) — the linearity the paper observes.

**VB-tree as built** (DESIGN.md D5).  The tuple digest is a hash of the
ordered row, so ``D_P`` carries bare digests: ``Q_r`` more hashes (one
row hash per tuple), ``Q_r (N_c - Q_c)`` fewer decryptions, and the
``N_c - 1`` attribute folds per tuple are gone —
:func:`vbtree_comp_cost_as_built`.

**Naive** (appendix).  Per result tuple: ``Q_c`` hashes, ``N_c - Q_c``
filtered-attribute decryptions, **one tuple-digest decryption**, and
``N_c - 1`` combines.  The extra ``Q_r * Cost_v`` term is the entire
story of Figure 12: the gap between the schemes is the per-tuple
signature decryption, so it scales with ``X``."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.analysis.communication import DEFAULT_SELECTIVITIES, envelope_digests
from repro.analysis.params import Parameters

__all__ = [
    "CompCost",
    "vbtree_comp_cost",
    "vbtree_comp_cost_as_built",
    "naive_comp_cost",
    "fig12_series",
    "fig13a_series",
    "fig13b_series",
]


@dataclass(frozen=True)
class CompCost:
    """Operation counts and weighted total for one verification."""

    hashes: int
    decryptions: int
    combines: int
    total: float


def _weighted(
    params: Parameters, hashes: int, decryptions: int, combines: int
) -> CompCost:
    """The counts with their total at ``params``' unit costs."""
    return CompCost(
        hashes=hashes,
        decryptions=decryptions,
        combines=combines,
        total=(
            hashes * params.cost_hash
            + decryptions * params.cost_verify
            + combines * params.cost_combine
        ),
    )


def vbtree_comp_cost(params: Parameters, selectivity: float) -> CompCost:
    """Formula (10): client cost of verifying a VB-tree result."""
    qr = params.result_rows(selectivity)
    ds = envelope_digests(params, qr)
    filtered = params.num_cols - params.query_cols
    hashes = qr * params.query_cols
    decryptions = qr * filtered + ds + 1
    combines = (
        qr * (params.num_cols - 1)  # fold attr digests into tuple digests
        + qr                        # fold tuple digests into the envelope
        + ds                        # fold D_S digests into the envelope
    )
    return _weighted(params, hashes, decryptions, combines)


def vbtree_comp_cost_as_built(params: Parameters, selectivity: float) -> CompCost:
    """Formula (10) for the system as it runs: hash each returned value
    and each row, decrypt ``D_S`` and ``D_N`` only, fold one value per
    tuple and per ``D_S`` entry."""
    paper = vbtree_comp_cost(params, selectivity)
    qr = params.result_rows(selectivity)
    return _weighted(
        params,
        hashes=paper.hashes + qr,
        decryptions=paper.decryptions - qr * (params.num_cols - params.query_cols),
        combines=paper.combines - qr * (params.num_cols - 1),
    )


def naive_comp_cost(params: Parameters, selectivity: float) -> CompCost:
    """Appendix formula: client cost under the Naive scheme."""
    qr = params.result_rows(selectivity)
    filtered = params.num_cols - params.query_cols
    hashes = qr * params.query_cols
    decryptions = qr * filtered + qr  # filtered attrs + one per tuple
    combines = qr * (params.num_cols - 1)
    return _weighted(params, hashes, decryptions, combines)


def fig12_series(
    x_ratio: float,
    params: Parameters | None = None,
    selectivities: Sequence[float] = DEFAULT_SELECTIVITIES,
) -> list[tuple[float, float, float]]:
    """Figure 12 (a/b/c for X in {5, 10, 100}):
    (selectivity %, Naive Cost_h units, VB-tree Cost_h units)."""
    params = (params or Parameters()).with_(x_ratio=x_ratio)
    return [
        (
            sel * 100,
            naive_comp_cost(params, sel).total,
            vbtree_comp_cost(params, sel).total,
        )
        for sel in selectivities
    ]


def fig13a_series(
    params: Parameters | None = None,
    cost_ratios: Sequence[float] = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0),
    selectivities: Sequence[float] = (0.2, 0.8),
) -> list[tuple[float, dict[str, float]]]:
    """Figure 13(a): sweep ``Cost_c / Cost_a`` from 0 to 3 at X = 10.

    Returns ``(ratio, {"naive(20%)": ..., "vbtree(20%)": ..., ...})``.
    """
    base = (params or Parameters()).with_(x_ratio=10)
    rows = []
    for ratio in cost_ratios:
        # hash_combine_ratio is Cost_a/Cost_c; the figure sweeps its
        # inverse.  ratio == 0 means free combines.
        p = (
            base.with_(hash_combine_ratio=float("inf"))
            if ratio == 0
            else base.with_(hash_combine_ratio=1.0 / ratio)
        )
        entry: dict[str, float] = {}
        for sel in selectivities:
            label = f"{round(sel * 100)}%"
            entry[f"naive({label})"] = naive_comp_cost(p, sel).total
            entry[f"vbtree({label})"] = vbtree_comp_cost(p, sel).total
        rows.append((ratio, entry))
    return rows


# Default Q_c sweep, evaluated once (never mutated).
_QUERY_COLS_SWEEP = tuple(range(0, 11))


def fig13b_series(
    params: Parameters | None = None,
    query_cols_sweep: Sequence[int] = _QUERY_COLS_SWEEP,
    selectivities: Sequence[float] = (0.2, 0.8),
) -> list[tuple[int, dict[str, float]]]:
    """Figure 13(b): sweep ``Q_c`` from 0 to N_c at X = 10.

    Returns ``(q_c, {"naive(20%)": ..., "vbtree(20%)": ..., ...})``.
    """
    base = (params or Parameters()).with_(x_ratio=10)
    rows = []
    for qc in query_cols_sweep:
        p = base.with_(query_cols=qc)
        entry: dict[str, float] = {}
        for sel in selectivities:
            label = f"{round(sel * 100)}%"
            entry[f"naive({label})"] = naive_comp_cost(p, sel).total
            entry[f"vbtree({label})"] = vbtree_comp_cost(p, sel).total
        rows.append((qc, entry))
    return rows
