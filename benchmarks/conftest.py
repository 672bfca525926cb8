"""Shared fixtures for the benchmark harness.

The *analytic* benches evaluate the Section-4 formulas at the paper's
scale (1M rows — closed-form, instant).  The *measured* benches run the
real implementation at reduced scale (see DESIGN.md, deviation D4) on
the deployment below."""

import pytest

from repro.baselines.naive import NaiveStore, NaiveVerifier
from repro.core.digests import DigestEngine
from repro.edge.central import CentralServer
from repro.workloads.generator import TableSpec, generate_table

#: Rows in the measured deployment (paper scale / 200).
MEASURED_ROWS = 5_000
#: Columns (matches the paper's N_c).
MEASURED_COLS = 10
#: Bytes per attribute (matches the paper's 20 B).
MEASURED_ATTR = 20


@pytest.fixture(scope="session")
def deployment():
    """central + edge + client over a 5k-row, 10-column table."""
    central = CentralServer(db_name="benchdb", rsa_bits=512, seed=1234)
    spec = TableSpec(
        name="items",
        rows=MEASURED_ROWS,
        columns=MEASURED_COLS,
        attr_size=MEASURED_ATTR,
        seed=99,
    )
    schema, rows = generate_table(spec)
    central.create_table(schema, rows)
    edge = central.spawn_edge_server("bench-edge")
    client = central.make_client()
    return central, edge, client, spec


@pytest.fixture(scope="session")
def naive_baseline(deployment):
    """The appendix's Naive scheme over the same table under the same
    key, in a store of its own: the fabric signs one digest per tuple
    (DESIGN.md D5), so the comparison builds the per-attribute baseline
    explicitly from the central signing engine.  Returns ``(query,
    verifier)``: ``query(low, high, columns=None)`` answers a range from
    the rows the edge replica holds, ``verifier(meter)`` is a metered
    :class:`NaiveVerifier`."""
    central, edge, _client, _spec = deployment
    vbt = central.vbtrees["items"]
    store = NaiveStore.build(vbt.schema, vbt.rows(), central.signing_engine())

    def query(low, high, columns=None):
        held = edge.replica("items").tree.range_items(low=low, high=high)
        return store.build_result([row for _key, row in held], columns)

    def verifier(meter):
        engine = DigestEngine(central.db_name, policy=central.policy, meter=meter)
        return NaiveVerifier(engine, keyring=central.keyring, meter=meter)

    return query, verifier
