"""Figure 12 (a, b, c) — query computation cost vs selectivity for
X = Cost_v/Cost_a in {5, 10, 100}.

Analytic series from formula (10) + the appendix formula, plus a
measured series: the client's actual operation counters (hashes,
combines, signature decryptions) from verifying real responses,
weighted with the same X — the running system producing the paper's
cost units."""

import pytest

from repro.analysis.computation import fig12_series
from repro.bench.series import emit
from repro.crypto.meter import CostMeter, CostWeights
from repro.workloads.queries import range_for_selectivity

MEASURED_SELECTIVITIES = (0.05, 0.2, 0.4, 0.6, 0.8, 1.0)


@pytest.mark.parametrize("x", [5, 10, 100])
def test_fig12_analytic(benchmark, x):
    rows = fig12_series(x)
    emit(
        f"Figure 12({'abc'[[5, 10, 100].index(x)]}): computation cost, X = {x} "
        "(units of Cost_h; N_r = 1M)",
        f"fig12_x{x}_analytic",
        ["selectivity %", "Naive", "VB-tree"],
        rows,
    )
    for sel, naive, vb in rows:
        if sel > 0:
            assert vb < naive
    benchmark(fig12_series, x)


@pytest.mark.parametrize("x", [5, 10, 100])
def test_fig12_measured(benchmark, deployment, naive_baseline, x):
    """Measured client op-counts from the 5k-row deployment, weighted
    at ratio X — same unit as the paper's y-axis."""
    central, edge, _client, spec = deployment
    naive_query, naive_verifier = naive_baseline
    weights = CostWeights(
        cost_hash=1.0, cost_combine=0.1, cost_verify=float(x), cost_sign=0.0
    )

    series = []

    def run_sweep():
        series.clear()
        for sel in MEASURED_SELECTIVITIES:
            q = range_for_selectivity(spec, sel)
            resp = edge.range_query("items", q.low, q.high)
            naive_result = naive_query(q.low, q.high)

            vb_client = central.make_client(meter=CostMeter())
            assert vb_client.verify(resp).ok
            vb_cost = vb_client.meter.cost(weights)

            naive_meter = CostMeter()
            assert naive_verifier(naive_meter).verify(naive_result)
            naive_cost = naive_meter.cost(weights)

            series.append((sel * 100, naive_cost, vb_cost))
        return series

    benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    emit(
        f"Figure 12 measured (5k rows, op counters), X = {x}",
        f"fig12_x{x}_measured",
        ["selectivity %", "Naive cost", "VB-tree cost"],
        series,
    )
    for _sel, naive_cost, vb_cost in series:
        assert vb_cost < naive_cost
