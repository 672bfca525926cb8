#!/usr/bin/env python3
"""Regenerate the paper's entire analytical evaluation in one command.

Prints the series behind Figures 8-13 and the Section 4.1/4.4 tables at
the paper's default parameters (Table 1).  The same series are produced
(with timings and measured counterparts) by ``pytest benchmarks/
--benchmark-only``; this script is the quick, dependency-free view.

Run:  python examples/paper_evaluation.py
"""

from repro.analysis import (
    Parameters,
    delete_series,
    fig10_series,
    fig11_series,
    fig12_series,
    fig13a_series,
    fig13b_series,
    fig8_series,
    fig9_series,
    storage_costs,
)
from repro.bench.series import format_table


def show(title: str, headers, rows) -> None:
    print(f"\n=== {title} ===")
    print(format_table(headers, rows))


def main() -> None:
    p = Parameters()
    print("Pang & Tan, ICDE 2004 — analytical evaluation at Table 1 defaults")
    print(f"|D|={p.digest_len}B |K|={p.key_len}B |B|={p.block_size}B "
          f"N_r={p.num_rows:,} N_c={p.num_cols}")

    show("Figure 8: fan-out vs key length",
         ["log2|K|", "B-tree", "VB-tree"], fig8_series())
    show("Figure 9: height vs key length",
         ["log2|K|", "B-tree", "VB-tree"], fig9_series())

    sel = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
    for qc, label in ((2, "a"), (5, "b"), (8, "c")):
        show(f"Figure 10({label}): communication cost, Q_c={qc} (bytes)",
             ["sel %", "Naive", "VB-tree"], fig10_series(qc, selectivities=sel))

    show("Figure 11: communication vs attrFactor (|A| = f x |D|)",
         ["factor", "Naive(20%)", "VB(20%)", "Naive(80%)", "VB(80%)"],
         [(f, e["naive(20%)"], e["vbtree(20%)"], e["naive(80%)"],
           e["vbtree(80%)"]) for f, e in fig11_series()])

    for x, label in ((5, "a"), (10, "b"), (100, "c")):
        show(f"Figure 12({label}): computation cost, X={x} (Cost_h units)",
             ["sel %", "Naive", "VB-tree"], fig12_series(x, selectivities=sel))

    show("Figure 13(a): computation vs Cost_c/Cost_a (X=10)",
         ["ratio", "Naive(20%)", "VB(20%)", "Naive(80%)", "VB(80%)"],
         [(r, e["naive(20%)"], e["vbtree(20%)"], e["naive(80%)"],
           e["vbtree(80%)"]) for r, e in fig13a_series()])

    show("Figure 13(b): computation vs Q_c (X=10)",
         ["Q_c", "Naive(20%)", "VB(20%)", "Naive(80%)", "VB(80%)"],
         [(q, e["naive(20%)"], e["vbtree(20%)"], e["naive(80%)"],
           e["vbtree(80%)"]) for q, e in fig13b_series()])

    s = storage_costs(p)
    show("Section 4.1: storage",
         ["quantity", "B-tree", "VB-tree"],
         [("fan-out", s.btree_fanout, s.vbtree_fanout),
          ("height", s.btree_height, s.vbtree_height),
          ("index bytes", s.btree_index_bytes, s.vbtree_index_bytes),
          ("table digest overhead", 0, s.table_digest_overhead),
          ("table digest overhead, as built", 0, s.tuple_digest_overhead)])

    show("Section 4.4: update costs (formulas 11-12)",
         ["deleted Q_r", "delete cost", "insert cost"], delete_series(p))


if __name__ == "__main__":
    main()
