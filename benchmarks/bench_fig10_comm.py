"""Figure 10 (a, b, c) — query communication cost vs selectivity,
Naive vs VB-tree, for Q_c in {2, 5, 8}.

Analytic series from formula (9) and the appendix formula at paper
scale (1M rows, 200-byte tuples), plus a measured series: real
serialized response sizes from the 5k-row deployment, same sweep."""

import pytest

from repro.analysis.communication import fig10_series
from repro.bench.series import emit
from repro.workloads.queries import range_for_selectivity

MEASURED_SELECTIVITIES = (0.05, 0.2, 0.4, 0.6, 0.8, 1.0)


@pytest.mark.parametrize("qc", [2, 5, 8])
def test_fig10_analytic(benchmark, qc):
    rows = fig10_series(qc)
    emit(
        f"Figure 10({'abc'[[2, 5, 8].index(qc)]}): communication cost, Q_c = {qc} "
        "(bytes; N_r = 1M, 200 B tuples)",
        f"fig10_qc{qc}_analytic",
        ["selectivity %", "Naive", "VB-tree"],
        rows,
    )
    for sel, naive, vb in rows:
        if sel > 0:
            assert vb < naive  # VB-tree wins at every selectivity
    benchmark(fig10_series, qc)


@pytest.mark.parametrize("qc", [2, 5, 8])
def test_fig10_measured(benchmark, deployment, naive_baseline, qc):
    """Measured serialized bytes from the running system (5k rows).

    Absolute values differ from the paper (real 512-bit signatures, not
    16 B digests) — the *shape* must hold: VB-tree below Naive at every
    selectivity, both linear, gap = Q_r per-tuple signatures."""
    central, edge, _client, spec = deployment
    naive_query, _verifier = naive_baseline
    sig_len = central.public_key.signature_len
    columns = ("id", *(f"a{i}" for i in range(1, qc)))

    series = []

    def run_sweep():
        series.clear()
        for sel in MEASURED_SELECTIVITIES:
            q = range_for_selectivity(spec, sel)
            resp = edge.range_query("items", q.low, q.high, columns=columns)
            naive_bytes = naive_query(q.low, q.high, columns).wire_size(sig_len)
            series.append((sel * 100, naive_bytes, resp.wire_bytes))
        return series

    benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    emit(
        f"Figure 10 measured (5k rows, 512-bit RSA), Q_c = {qc}",
        f"fig10_qc{qc}_measured",
        ["selectivity %", "Naive bytes", "VB-tree bytes"],
        series,
    )
    for _sel, naive_bytes, vb_bytes in series:
        assert vb_bytes < naive_bytes
