"""Shared fixtures for the benchmark harness.

The *analytic* benches evaluate the Section-4 formulas at the paper's
scale (1M rows — closed-form, instant).  The *measured* benches run the
real implementation at reduced scale (see DESIGN.md, deviation D4) on
the deployment below."""

import pytest

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
