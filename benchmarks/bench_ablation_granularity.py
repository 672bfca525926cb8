"""Ablation A2 — signature granularity.

Three points on the design axis the paper stakes out:

* **per-tuple** signatures (Naive): no tree, O(Q_r) decryptions;
* **per-node** signatures (VB-tree): O(envelope) decryptions, VO
  independent of N_r — the paper's position;
* **root-only** signature (Merkle / Devanbu et al. [5]): 1 decryption
  but VO grows with log N_r and projection happens at the client.

Measured on the same data: VO/proof bytes and client decryptions per
query across selectivities."""

import pytest

from repro.baselines.merkle import MerkleTree, MerkleVerifier
from repro.bench.series import emit
from repro.crypto.meter import CostMeter
from repro.workloads.queries import range_for_selectivity

SELECTIVITIES = (0.01, 0.1, 0.4, 0.8)


@pytest.fixture(scope="module")
def merkle(deployment):
    central, _edge, _client, _spec = deployment
    vbt = central.vbtrees["items"]
    return MerkleTree(
        vbt.schema, list(vbt.rows()), central._signer
    )


def test_granularity_bytes(benchmark, deployment, naive_baseline, merkle):
    central, edge, _client, spec = deployment
    naive_query, _verifier = naive_baseline
    sig_len = central.public_key.signature_len

    series = []

    def sweep():
        series.clear()
        for sel in SELECTIVITIES:
            q = range_for_selectivity(spec, sel)
            resp = edge.range_query("items", q.low, q.high)
            naive_bytes = naive_query(q.low, q.high).wire_size(sig_len)
            proof = merkle.prove_key_range(q.low, q.high)
            series.append(
                (
                    sel * 100,
                    naive_bytes,
                    resp.wire_bytes,
                    proof.wire_size(sig_len),
                )
            )
        return series

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(
        "Ablation A2: response bytes by signature granularity",
        "ablation_granularity_bytes",
        ["sel %", "per-tuple (Naive)", "per-node (VB)", "root-only (Merkle)"],
        series,
    )


def test_granularity_decryptions(benchmark, deployment, naive_baseline, merkle):
    central, edge, _client, spec = deployment
    naive_query, naive_verifier = naive_baseline

    series = []

    def sweep():
      series.clear()
      for sel in SELECTIVITIES:
        q = range_for_selectivity(spec, sel)

        resp = edge.range_query("items", q.low, q.high)
        vb_meter = CostMeter()
        assert central.make_client(meter=vb_meter).verify(resp).ok

        naive_meter = CostMeter()
        assert naive_verifier(naive_meter).verify(naive_query(q.low, q.high))

        proof = merkle.prove_key_range(q.low, q.high)
        merkle_meter = CostMeter()
        assert MerkleVerifier(central.public_key, meter=merkle_meter).verify(proof)

        series.append(
            (
                sel * 100,
                naive_meter.verifies,
                vb_meter.verifies,
                merkle_meter.verifies,
            )
        )
      return series

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(
        "Ablation A2: client signature decryptions by granularity",
        "ablation_granularity_decryptions",
        ["sel %", "per-tuple (Naive)", "per-node (VB)", "root-only (Merkle)"],
        series,
    )
    for _sel, naive_v, vb_v, merkle_v in series:
        assert merkle_v == 1            # root only
        assert vb_v < naive_v           # the paper's Figure 12 ordering


def test_merkle_proof_grows_with_table(benchmark, deployment, merkle):
    """The paper's core criticism of [5]: VO depends on table size."""
    central, _edge, _client, _spec = deployment
    vbt = central.vbtrees["items"]
    rows = list(vbt.rows())
    small = MerkleTree(vbt.schema, rows[:512], central._signer)
    p_small = small.prove_range(10, 5)
    p_large = benchmark.pedantic(merkle.prove_range, args=(10, 5), rounds=1, iterations=1)
    print(
        f"\nsame 5-row result: siblings small-table={len(p_small.siblings)} "
        f"large-table={len(p_large.siblings)}"
    )
    assert len(p_large.siblings) > len(p_small.siblings)
