"""Communication cost models — Section 4.2, Figures 10 and 11.

**VB-tree** (formula 9).  The edge server ships, per query:

* the result tuples themselves — ``Q_r * Q_c * |A|`` bytes;
* ``D_P`` — one signed digest per filtered attribute per result tuple:
  ``Q_r * (N_c - Q_c)`` digests (Lemma 2);
* ``D_S`` — at most ``f_vb - 1`` digests in each of the top node and the
  leftmost/rightmost nodes at every level of the enveloping subtree,
  i.e. ``(2 * H_env - 1) * (f_vb - 1)`` digests for a contiguous result
  in a fully packed tree (Section 4.2);
* ``D_N`` — the one signed digest of the envelope's top node.

**VB-tree as built** (DESIGN.md D5).  ``D_P`` is the hidden attributes'
*bare* digests — ``Q_r (N_c - Q_c) |h|`` bytes at the commutative hash's
width ``|h|`` instead of the signed width ``|D|`` —
:func:`vbtree_comm_cost_as_built`.  In the paper's Table 1 the two
widths are equal; in a deployment ``|D|`` is an RSA signature.

**Naive** (appendix).  Per result tuple: the tuple's signed digest, the
returned attribute values, and one signed digest per filtered
attribute::

    C = Q_r * ( |D| + Q_c*|A| + (N_c - Q_c)*|D| )

The difference is ``Q_r * |D|`` (Naive's per-tuple signatures) minus the
VB-tree's envelope digests — which is why VB-tree wins at every
selectivity and the gap grows linearly (Figure 10), and why the curves
converge *relatively* but not absolutely as attributes grow
(Figure 11)."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from repro import constants
from repro.analysis.params import Parameters

__all__ = [
    "CommCost",
    "vbtree_comm_cost",
    "vbtree_comm_cost_as_built",
    "naive_comm_cost",
    "fig10_series",
    "fig11_series",
    "DEFAULT_SELECTIVITIES",
]

#: Selectivity sweep used by Figures 10 and 12 (0..100 %).
DEFAULT_SELECTIVITIES = tuple(s / 100 for s in range(0, 101, 5))


@dataclass(frozen=True)
class CommCost:
    """Byte breakdown of one scheme's response."""

    data_bytes: float
    dp_bytes: float
    ds_bytes: float
    dn_bytes: float
    per_tuple_sig_bytes: float = 0.0

    @property
    def total(self) -> float:
        """Total bytes shipped."""
        return (
            self.data_bytes
            + self.dp_bytes
            + self.ds_bytes
            + self.dn_bytes
            + self.per_tuple_sig_bytes
        )


def envelope_digests(params: Parameters, result_rows: int) -> int:
    """``|D_S|`` upper bound: ``(2 H_env - 1)(f_vb - 1)`` (Section 4.2)."""
    if result_rows <= 0:
        return 0
    geometry = params.vbtree_geometry()
    h_env = geometry.envelope_height_for(result_rows)
    fanout = geometry.internal_fanout()
    return (2 * h_env - 1) * (fanout - 1)


def vbtree_comm_cost(params: Parameters, selectivity: float) -> CommCost:
    """Formula (9): VB-tree response bytes at a selectivity factor."""
    qr = params.result_rows(selectivity)
    data = qr * params.query_cols * params.attr_size
    dp = qr * (params.num_cols - params.query_cols) * params.digest_len
    ds = envelope_digests(params, qr) * params.digest_len
    dn = params.digest_len if qr > 0 else params.digest_len  # D_N always ships
    return CommCost(data_bytes=data, dp_bytes=dp, ds_bytes=ds, dn_bytes=dn)


def vbtree_comm_cost_as_built(params: Parameters, selectivity: float) -> CommCost:
    """Formula (9) for the system as it runs: ``D_P`` at ``|h|`` bytes
    a digest (the 16-byte commutative hash), everything else as the
    paper has it."""
    hash_len = constants.COMMUTATIVE_HASH_BITS // 8
    hidden = params.num_cols - params.query_cols
    return replace(
        vbtree_comm_cost(params, selectivity),
        dp_bytes=params.result_rows(selectivity) * hidden * hash_len,
    )


def naive_comm_cost(params: Parameters, selectivity: float) -> CommCost:
    """Appendix formula: Naive response bytes at a selectivity factor."""
    qr = params.result_rows(selectivity)
    data = qr * params.query_cols * params.attr_size
    dp = qr * (params.num_cols - params.query_cols) * params.digest_len
    sigs = qr * params.digest_len
    return CommCost(
        data_bytes=data,
        dp_bytes=dp,
        ds_bytes=0.0,
        dn_bytes=0.0,
        per_tuple_sig_bytes=sigs,
    )


def fig10_series(
    query_cols: int,
    params: Parameters | None = None,
    selectivities: Sequence[float] = DEFAULT_SELECTIVITIES,
) -> list[tuple[float, float, float]]:
    """Figure 10 (a/b/c for ``query_cols`` in {2, 5, 8}):
    (selectivity %, Naive bytes, VB-tree bytes)."""
    params = (params or Parameters()).with_(query_cols=query_cols)
    return [
        (
            sel * 100,
            naive_comm_cost(params, sel).total,
            vbtree_comm_cost(params, sel).total,
        )
        for sel in selectivities
    ]


# Default attrFactor sweep, evaluated once (never mutated).
_ATTR_FACTORS = tuple(range(0, 7))


def fig11_series(
    params: Parameters | None = None,
    attr_factors: Sequence[float] = _ATTR_FACTORS,
    selectivities: Sequence[float] = (0.2, 0.8),
) -> list[tuple[float, dict[str, float]]]:
    """Figure 11: attribute size = ``attrFactor * |D|``; full projection
    (``Q_c = N_c``).

    Returns:
        ``(attr_factor, {"naive(20%)": ..., "vbtree(20%)": ..., ...})``
        per sweep point.
    """
    base = params or Parameters()
    rows = []
    for factor in attr_factors:
        p = base.with_(
            attr_size=factor * base.digest_len, query_cols=base.num_cols
        )
        entry: dict[str, float] = {}
        for sel in selectivities:
            label = f"{round(sel * 100)}%"
            entry[f"naive({label})"] = naive_comm_cost(p, sel).total
            entry[f"vbtree({label})"] = vbtree_comm_cost(p, sel).total
        rows.append((float(factor), entry))
    return rows
