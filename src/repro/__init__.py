"""repro — reproduction of Pang & Tan, *Authenticating Query Results in
Edge Computing* (ICDE 2004).

The package implements the paper's Verifiable B-tree (VB-tree) and the
full stack around it:

* :mod:`repro.crypto` — hashes, the commutative combinator, RSA signing.
* :mod:`repro.db` — a miniature relational substrate (tables, B+-tree,
  predicates, materialized views, 2PL locking).
* :mod:`repro.core` — the VB-tree, verification objects, client-side
  verification, and authenticated updates.
* :mod:`repro.baselines` — the paper's Naive scheme and a Devanbu-style
  Merkle-tree baseline.
* :mod:`repro.edge` — central server / edge server / client simulation
  with adversaries and replication.
* :mod:`repro.sql` — a small SQL front-end.
* :mod:`repro.analysis` — the closed-form cost models of Section 4
  (these regenerate Figures 8-13).
* :mod:`repro.workloads` — synthetic data and query generators.

Quickstart (see ``examples/quickstart.py`` for the narrated version)::

    from repro import quick_setup

    central, edge, client = quick_setup(rows=1000)
    response = edge.range_query("items", low=100, high=120)
    verdict = client.verify(response)
    assert verdict.ok
"""

from repro._version import __version__
from repro.quickstart import quick_setup

__all__ = ["__version__", "quick_setup"]
