"""Cross-validation: the running system against the Section-4 formulas.

The analytic models are evaluated with the *measured deployment's*
parameters (5k rows, real 514-byte signed digests) and compared with
what the system actually ships and computes.  Byte formulas should
match within the wire format's framing overhead; op-count formulas
within the envelope's boundary effects."""

import pytest

from repro.analysis.communication import (
    naive_comm_cost,
    vbtree_comm_cost,
    vbtree_comm_cost_as_built,
)
from repro.analysis.computation import vbtree_comp_cost, vbtree_comp_cost_as_built
from repro.analysis.params import Parameters
from repro.bench.series import emit
from repro.core.wire import wire_breakdown
from repro.crypto.meter import CostMeter
from repro.workloads.queries import range_for_selectivity

from conftest import MEASURED_ATTR, MEASURED_COLS, MEASURED_ROWS


def _measured_params(central) -> Parameters:
    sig_len = central.public_key.signature_len + 2  # signed-digest width
    return Parameters(
        digest_len=sig_len,
        num_rows=MEASURED_ROWS,
        num_cols=MEASURED_COLS,
        attr_size=MEASURED_ATTR + 5,  # canonical encoding: tag + length
    )


def test_comm_bytes_vs_formula(benchmark, deployment):
    central, edge, _client, spec = deployment
    params = _measured_params(central)
    sig_len = central.public_key.signature_len

    series = []

    def sweep():
        series.clear()
        for sel in (0.1, 0.3, 0.5, 0.8):
            q = range_for_selectivity(spec, sel)
            resp = edge.range_query("items", q.low, q.high)
            analytic = vbtree_comm_cost(params, sel).total
            series.append((sel * 100, analytic, resp.wire_bytes))
        return series

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(
        "Measured wire bytes vs formula (9) at deployment parameters",
        "measured_vs_analytic_comm",
        ["selectivity %", "formula bytes", "measured bytes"],
        series,
    )
    for _sel, analytic, measured in series:
        # Framing (keys, per-entry tags, headers) adds overhead; the
        # formula is the digest+data floor.  Within 35% is a match.
        assert measured == pytest.approx(analytic, rel=0.35)


def test_comm_breakdown_matches_components(benchmark, deployment):
    central, edge, _client, spec = deployment
    params = _measured_params(central)
    sig_len = central.public_key.signature_len
    sel = 0.4
    q = range_for_selectivity(spec, sel)
    resp = edge.range_query("items", q.low, q.high)
    breakdown = benchmark.pedantic(
        wire_breakdown, args=(resp.result, sig_len), rounds=1, iterations=1
    )
    analytic = vbtree_comm_cost(params, sel)
    # The same range projected to two columns: D_P as built is the bare
    # block, Q_r (N_c - Q_c) |h| to the byte.
    projected = edge.range_query("items", q.low, q.high, columns=("id", "a1"))
    as_built = vbtree_comm_cost_as_built(params.with_(query_cols=2), sel)
    dp_projected = wire_breakdown(projected.result, sig_len)["dp"]
    emit(
        "Formula (9) components vs measured breakdown (sel 40%)",
        "measured_vs_analytic_breakdown",
        ["component", "formula", "measured"],
        [
            ("result data", analytic.data_bytes, breakdown["data"]),
            ("D_S + D_N", analytic.ds_bytes + analytic.dn_bytes,
             breakdown["ds"] + breakdown["dn"]),
            ("D_P", analytic.dp_bytes, breakdown["dp"]),
            ("D_P, Q_c = 2 (as built)", as_built.dp_bytes, dp_projected),
        ],
    )
    assert dp_projected == as_built.dp_bytes > 0
    # D_S formula is an upper bound over the worst-case envelope.
    assert breakdown["ds"] + breakdown["dn"] <= (
        analytic.ds_bytes + analytic.dn_bytes
    )
    assert breakdown["dp"] == analytic.dp_bytes == 0


def test_verify_opcounts_vs_formula(benchmark, deployment):
    central, edge, _client, spec = deployment
    params = _measured_params(central)

    series = []

    def sweep():
        series.clear()
        for sel in (0.1, 0.3, 0.5, 0.8):
            q = range_for_selectivity(spec, sel)
            resp = edge.range_query("items", q.low, q.high)
            meter = CostMeter()
            client = central.make_client(meter=meter)
            assert client.verify(resp).ok
            paper = vbtree_comp_cost(params, sel)
            as_built = vbtree_comp_cost_as_built(params, sel)
            series.append(
                (
                    sel * 100,
                    paper.hashes,
                    as_built.hashes,
                    meter.hashes,
                    as_built.decryptions,
                    meter.verifies,
                    as_built.combines,
                    meter.combines,
                )
            )
        return series

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(
        "Client op-counts vs formula (10), the paper's and as built "
        "(one row hash per tuple, no attribute folds), at deployment parameters",
        "measured_vs_analytic_comp",
        [
            "sel %", "hashes (paper)", "hashes (f)", "hashes (m)",
            "decrypts (f)", "decrypts (m)", "combines (f)", "combines (m)",
        ],
        series,
    )
    for _sel, p_hash, f_hash, m_hash, f_dec, m_dec, f_comb, m_comb in series:
        assert m_hash == f_hash            # exact: Q_r x Q_c + Q_r hashes
        assert f_hash - p_hash == m_hash // (MEASURED_COLS + 1)  # one per row
        assert m_dec <= f_dec              # formula is the worst case
        assert m_comb <= f_comb            # Q_r + |D_S|, same bound


def test_naive_bytes_vs_formula(benchmark, deployment, naive_baseline):
    central, _edge, _client, spec = deployment
    naive_query, _verifier = naive_baseline
    params = _measured_params(central)
    sel = 0.4
    q = range_for_selectivity(spec, sel)

    def run():
        return naive_query(q.low, q.high).wire_size(central.public_key.signature_len)

    measured = benchmark.pedantic(run, rounds=1, iterations=1)
    analytic = naive_comm_cost(params, sel).total
    print(f"\nnaive: formula={analytic:,.0f} measured={measured:,}")
    assert measured == pytest.approx(analytic, rel=0.35)
