"""Ablation A4 — secondary VB-trees (sort orders beyond the key).

The paper builds "one or more VB-trees" per table.  This bench
quantifies why more than one: the same non-key selection answered from
(a) the primary tree — scattered matches, one D_S digest per gap — vs
(b) a secondary tree sorted on the selection attribute — contiguous
envelope, boundary-only D_S."""

import pytest

from repro.bench.series import emit
from repro.db.expressions import between
from repro.edge.central import CentralServer
from repro.db.schema import Column, TableSchema
from repro.db.types import IntType
from repro.edge.transport import secondary_query_frame, select_query_frame

SELECTIVITIES = (0.05, 0.2, 0.5)


@pytest.fixture(scope="module")
def sec_deployment():
    central = CentralServer(db_name="secbench", rsa_bits=512, seed=71)
    schema = TableSchema(
        "readings",
        (
            Column("id", IntType()),
            Column("temp", IntType()),
            Column("site", IntType()),
            Column("raw", IntType()),
        ),
        key="id",
    )
    n = 2_000
    rows = [(i, (i * 7919) % 1000, i % 7, i) for i in range(n)]
    central.create_table(schema, rows)
    central.create_secondary_index("readings", "temp")
    edge = central.spawn_edge_server("bench-sec-edge")
    return central, edge, n


def test_secondary_vs_primary_vo(benchmark, sec_deployment):
    central, edge, n = sec_deployment

    series = []

    def sweep():
        series.clear()
        for sel in SELECTIVITIES:
            width = int(1000 * sel)
            low, high = 100, 100 + width - 1
            via_primary = edge.query(
                select_query_frame("readings", between("temp", low, high))
            )
            via_secondary = edge.query(
                secondary_query_frame("readings", "temp", low=low, high=high)
            )
            assert sorted(via_primary.result.keys) == sorted(
                via_secondary.result.keys
            )
            series.append(
                (
                    sel * 100,
                    len(via_primary.result.rows),
                    via_primary.result.vo.num_selection_digests,
                    via_secondary.result.vo.num_selection_digests,
                    via_primary.wire_bytes,
                    via_secondary.wire_bytes,
                )
            )
        return series

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(
        "Ablation A4: non-key selection via primary vs secondary VB-tree",
        "ablation_secondary",
        ["sel %", "rows", "|D_S| primary", "|D_S| secondary",
         "bytes primary", "bytes secondary"],
        series,
    )
    for _sel, _rows, ds_p, ds_s, b_p, b_s in series:
        assert ds_s < ds_p
        assert b_s < b_p


def test_secondary_query_latency(benchmark, sec_deployment):
    _central, edge, _n = sec_deployment
    resp = benchmark(
        edge.query, secondary_query_frame("readings", "temp", 100, 300)
    )
    assert resp.result.rows
