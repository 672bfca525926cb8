"""Trusted DB clients (Figure 2, right).

A client holds the central server's key ring (distributed through an
authenticated channel, e.g. a PKI — Section 3.2) and verifies every
result+VO an edge server returns.  It never talks to the central server
for individual queries — the on-demand property the paper highlights
over Devanbu et al.'s periodic digest broadcasts.
"""

from __future__ import annotations

from repro.core.digests import DigestEngine
from repro.core.verify import ResultVerifier, Verdict
from repro.core.vo import AuthenticatedResult
from repro.crypto.meter import CostMeter
from repro.edge.central import ClientConfig
from repro.edge.edge_server import EdgeResponse

__all__ = ["Client"]


class Client:
    """A verifying client.

    A client is stateful: its verifier remembers the value of every
    signed digest it has already decrypted (DESIGN.md §23), so a digest
    met again costs a dictionary probe while the key ring is still asked
    on every use.  A fresh ``Client`` is the cold verifier the paper's
    ``Cost_v`` prices; ``Verdict.digests_decrypted`` and
    ``digests_recalled`` say which half each verification paid.

    Args:
        config: Verification parameters from
            :meth:`~repro.edge.central.CentralServer.client_config`.
        meter: Optional cost meter; a fresh one is created otherwise, so
            per-client Cost_h/Cost_v accounting is always available.
    """

    def __init__(self, config: ClientConfig, meter: CostMeter | None = None) -> None:
        self.config = config
        self.meter = meter or CostMeter()
        engine = DigestEngine(
            config.db_name, policy=config.policy, meter=self.meter
        )
        self._verifier = ResultVerifier(
            engine, keyring=config.keyring, meter=self.meter
        )

    def verify(self, response: EdgeResponse | AuthenticatedResult) -> Verdict:
        """Verify an edge response (or a bare authenticated result)."""
        result = (
            response.result if isinstance(response, EdgeResponse) else response
        )
        return self._verifier.verify(result)

    def cost_snapshot(self) -> dict[str, int]:
        """Crypto-operation counters accumulated by this client."""
        return self.meter.snapshot()
