"""Deterministic, seedable chaos orchestration (DESIGN.md §14).

The package turns the fabric's existing fault hooks — in-process
:class:`~repro.edge.link.FaultInjector` links, adversary tamper
modes, key rotation, relay store drops, deployment SIGKILL storms —
into *named, replayable scenarios* that run concurrently under
sustained query load and assert the paper's standing invariant: a
caller never sees an unverified result, no matter the weather.

* :mod:`repro.chaos.plan` — :class:`FaultPlan` / :class:`FaultEvent`:
  a tick-indexed fault schedule that is a pure function of its seed
  and replays byte-identically (``to_bytes``/``from_bytes``).
* :mod:`repro.chaos.orchestrator` — :class:`ChaosOrchestrator`:
  applies a plan tick by tick against a live
  :class:`~repro.edge.fleet.Fleet` (:func:`chaos_fleet` builds the
  battery's) while a :class:`~repro.workloads.load_gen.LoadGenerator`
  keeps routed queries flowing, then heals and settles, producing a
  :class:`ChaosReport`.
* :mod:`repro.chaos.scenarios` — the standing battery: network flaps,
  slow links, byzantine edges, relay storms, rotation mid-partition,
  and the combined storm, each a zero-argument callable in
  :data:`~repro.chaos.scenarios.SCENARIOS`.
"""

from repro.chaos.orchestrator import (
    ChaosOrchestrator,
    ChaosReport,
    chaos_fleet,
)
from repro.chaos.plan import FaultEvent, FaultPlan

__all__ = [
    "ChaosOrchestrator",
    "ChaosReport",
    "FaultEvent",
    "FaultPlan",
    "chaos_fleet",
]
