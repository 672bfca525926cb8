"""Routing + adversary test battery for the verified query router
(DESIGN.md section 9).

Three layers, all deterministic:

* **Policy properties** on scripted channels with a fake clock (every
  channel serves one real signed answer, which the router verifies) —
  round-robin fairness and the freshest-policy invariant are checked
  property-style with hypothesis, the cooldown/recovery state machine
  and failover ordering example-style.
* **Adversary-under-routing** on a real 3-edge in-process fabric: one
  edge serves tampered data; the :class:`VerifyingRouter` must return a
  verified ACCEPT from another edge, quarantine the bad one, and
  surface the REJECT verdict in its stats.
* **Query-path fault injection** on :class:`InProcessTransport` —
  partition / drop / slow-hold now fail a synchronous ``request`` the
  same way socket faults do, and query traffic is metered on the link
  channels exactly like replication traffic.
"""

from dataclasses import dataclass, field
from typing import Any, NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.edge.adversary import DropTuple, ResponseTamper, ValueTamper
from repro.edge.central import CentralServer
from repro.edge.network import Channel
from repro.edge.router import (
    RoutingPolicy,
    TransportQueryChannel,
    VerifyingRouter,
    in_process_query_channel,
)
from repro.edge.link import InProcessTransport
from repro.edge.transport import (
    QueryRequestFrame,
    QueryResponseFrame,
    frame_from_bytes,
    frame_to_bytes,
    range_query_frame,
    secondary_query_frame,
)
from repro.exceptions import RouterError, TransportError
from repro.workloads.generator import TableSpec, generate_table
from repro.workloads.queries import QueryWorkload

DB = "routerdb"


# ---------------------------------------------------------------------------
# Deterministic fakes
# ---------------------------------------------------------------------------


class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self, now: float = 100.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@dataclass
class ScriptedChannel:
    """A fake query channel with scripted latency/failure behaviour.

    ``payload`` must be real serialized-result bytes (the fixture's
    signed answer) when the test queries; tests that only rank
    candidates can leave the placeholder.
    """

    name: str
    payload: bytes = b""
    latency: float = 0.01
    lsn: int = 0
    epoch: int = 1
    fail_next: int = 0           # raise TransportError for the next N requests
    error: str = ""              # answer with an error response instead
    requests: list = field(default_factory=list)

    def request(self, frame) -> tuple[QueryResponseFrame, float]:
        self.requests.append(frame)
        if self.fail_next > 0:
            self.fail_next -= 1
            raise TransportError(f"scripted fault on {self.name}")
        reply = QueryResponseFrame(
            edge=self.name,
            payload=self.payload,
            error=self.error,
            lsn=self.lsn,
            epoch=self.epoch,
        )
        return reply, self.latency


class Signed(NamedTuple):
    """One real signed answer and a client of the central that signed
    it: every scripted channel serves ``payload``, and ``client``
    accepts it."""

    payload: bytes
    client: Any


@pytest.fixture(scope="module")
def signed() -> Signed:
    central = CentralServer(db_name=DB, rsa_bits=512, seed=17)
    schema, rows = generate_table(TableSpec(name="t", rows=30, columns=3, seed=5))
    central.create_table(schema, rows, fanout_override=6)
    edge = central.spawn_edge_server("payload-edge")
    link = InProcessTransport("payload-link")
    link.connect(edge.handle_frame)
    reply = link.request(range_query_frame("t", low=5, high=12))
    return Signed(reply.payload, central.make_client())


@pytest.fixture(scope="module")
def result_payload(signed) -> bytes:
    return signed.payload


@pytest.fixture(scope="module")
def client(signed):
    return signed.client


def make_router(channels, client, **kwargs) -> VerifyingRouter:
    kwargs.setdefault("clock", FakeClock())
    return VerifyingRouter(channels, client, **kwargs)


FRAME = QueryRequestFrame(kind="range", table="t", low=0, high=100)


# ---------------------------------------------------------------------------
# Cursor echo (the wire extension routing rides on)
# ---------------------------------------------------------------------------


class TestCursorEcho:
    def test_response_frame_round_trips_cursor(self):
        frame = QueryResponseFrame(
            edge="e1", payload=b"xy", error="", lsn=41, epoch=3
        )
        assert frame_from_bytes(frame_to_bytes(frame)) == frame

    def test_edge_echoes_replica_cursor(self):
        central = CentralServer(db_name=DB, rsa_bits=512, seed=23)
        schema, rows = generate_table(
            TableSpec(name="t", rows=40, columns=3, seed=2)
        )
        central.create_table(schema, rows, fanout_override=6)
        edge = central.spawn_edge_server("e1")
        resp = edge.range_query("t", low=0, high=10)
        assert resp.lsn == 0 and resp.epoch == edge.replica_epochs["t"]
        central.insert("t", (9001, "a", "b"))
        central.insert("t", (9002, "a", "b"))
        resp = edge.range_query("t", low=0, high=10)
        assert resp.lsn == edge.replica_lsns["t"] == 2

    def test_secondary_query_echoes_index_cursor(self):
        central = CentralServer(db_name=DB, rsa_bits=512, seed=23)
        schema, rows = generate_table(
            TableSpec(name="t", rows=40, columns=3, seed=2)
        )
        central.create_table(schema, rows, fanout_override=6)
        central.create_secondary_index("t", "a1", fanout_override=6)
        edge = central.spawn_edge_server("e1")
        resp = edge.query(secondary_query_frame("t", "a1", low="a", high="zzzz"))
        assert resp.lsn == edge.replica_lsns["t__by_a1"]


# ---------------------------------------------------------------------------
# Policy selection properties
# ---------------------------------------------------------------------------


class TestPolicies:
    def test_round_robin_is_fair(self, result_payload, client):
        channels = [
            ScriptedChannel(f"e{i}", payload=result_payload) for i in range(4)
        ]
        router = make_router(channels, client, policy="round_robin")
        for _ in range(40):
            router.query(FRAME)
        assert [len(c.requests) for c in channels] == [10, 10, 10, 10]

    @settings(max_examples=50, deadline=None)
    @given(
        edges=st.integers(min_value=2, max_value=6),
        rounds=st.integers(min_value=1, max_value=5),
    )
    def test_round_robin_fairness_property(
        self, edges, rounds, result_payload, client
    ):
        channels = [
            ScriptedChannel(f"e{i}", payload=result_payload)
            for i in range(edges)
        ]
        router = make_router(channels, client, policy="round_robin")
        for _ in range(edges * rounds):
            router.query(FRAME)
        assert all(len(c.requests) == rounds for c in channels)

    def test_lowest_latency_probes_then_prefers_fastest(
        self, result_payload, client
    ):
        channels = [
            ScriptedChannel("fast", payload=result_payload, latency=0.01),
            ScriptedChannel("slow", payload=result_payload, latency=0.50),
        ]
        router = make_router(channels, client, policy="lowest_latency")
        for _ in range(10):
            router.query(FRAME)
        # One exploratory probe each, then every query goes to the
        # measured-fastest edge.
        assert len(channels[1].requests) == 1
        assert len(channels[0].requests) == 9

    @settings(max_examples=60, deadline=None)
    @given(
        lsns=st.lists(
            st.integers(min_value=0, max_value=50), min_size=2, max_size=6
        ),
        cooling=st.sets(st.integers(min_value=0, max_value=5)),
        data=st.data(),
    )
    def test_freshest_never_picks_strictly_staler(
        self, lsns, cooling, data, client
    ):
        """The archetype property: with at least one healthy edge, the
        freshest policy never selects an edge strictly staler than some
        other healthy edge."""
        clock = FakeClock()
        channels = [ScriptedChannel(f"e{i}") for i in range(len(lsns))]
        router = make_router(channels, client, policy="freshest", clock=clock)
        healthy = []
        for i, lsn in enumerate(lsns):
            router.observe_cursor(f"e{i}", "t", lsn)
            if i in cooling:
                router.edge_stats(f"e{i}").cooldown_until = clock.now + 60
            else:
                healthy.append((f"e{i}", lsn))
        # Rotation state is arbitrary at selection time.
        router._rotation = data.draw(st.integers(min_value=0, max_value=11))
        if not healthy:
            return  # all cooling: any fallback order is acceptable
        picked = router.ordering(FRAME)[0]
        picked_lsn = router.edge_stats(picked).cursors.get("t", 0)
        assert picked in dict(healthy)
        assert picked_lsn == max(lsn for _, lsn in healthy)

    def test_freshest_uses_cursor_echo(self, result_payload, client):
        channels = [
            ScriptedChannel("stale", payload=result_payload, lsn=3),
            ScriptedChannel("fresh", payload=result_payload, lsn=9),
        ]
        router = make_router(channels, client, policy="freshest")
        # Both edges are probed once (no hint yet → explore), in
        # rotation order.
        assert router.query(FRAME).edge == "stale"
        assert router.query(FRAME).edge == "fresh"
        # Hints now installed from the cursor echoes: only "fresh" wins.
        for _ in range(6):
            assert router.query(FRAME).edge == "fresh"

    def test_weighted_shifts_load_but_starves_nobody(
        self, result_payload, client
    ):
        channels = [
            ScriptedChannel("fast", payload=result_payload, latency=0.01),
            ScriptedChannel("slow", payload=result_payload, latency=0.10),
        ]
        router = make_router(channels, client, policy="weighted")
        for _ in range(120):
            router.query(FRAME)
        fast, slow = len(channels[0].requests), len(channels[1].requests)
        assert fast + slow == 120
        assert slow >= 5, "weighted must not starve the slow edge"
        assert fast > slow * 4, "weighted must shift load to the fast edge"

    def test_weighted_ignores_excluded_edges_in_wrr_state(self, client):
        """An excluded edge (one a verify round has already tried) must
        not participate in the smooth-WRR bookkeeping — it can neither
        be debited as the phantom 'chosen' edge nor accumulate credit
        while out of the candidate set."""
        channels = [ScriptedChannel("a"), ScriptedChannel("b")]
        router = make_router(channels, client, policy="weighted")
        for _ in range(6):
            assert router.ordering(FRAME, exclude={"a"}) == ["b"]
            router._commit_choice({"a"})
        assert router._wrr_current["a"] == 0.0

    def test_policy_accepts_enum_and_string(self, client):
        channels = [ScriptedChannel("e0")]
        assert (
            make_router(channels, client, policy="freshest").policy
            is RoutingPolicy.FRESHEST
        )
        assert (
            make_router(channels, client, policy=RoutingPolicy.WEIGHTED).policy
            is RoutingPolicy.WEIGHTED
        )
        with pytest.raises(ValueError):
            make_router(channels, client, policy="nope")

    def test_duplicate_channel_names_rejected(self, client):
        with pytest.raises(RouterError):
            make_router([ScriptedChannel("e0"), ScriptedChannel("e0")], client)


# ---------------------------------------------------------------------------
# Cooldown / recovery state machine
# ---------------------------------------------------------------------------


class TestHealth:
    def test_failures_trip_cooldown_then_recover(self, result_payload, client):
        clock = FakeClock()
        bad = ScriptedChannel("bad", payload=result_payload, fail_next=2)
        good = ScriptedChannel("good", payload=result_payload)
        router = make_router(
            [bad, good], client,
            policy="round_robin",
            failure_threshold=2,
            cooldown=10.0,
            clock=clock,
        )
        # "bad" is only attempted when rotation puts it first (query 1
        # and 3 — failover serves those from "good"); its second
        # failure crosses the threshold into cooldown.
        router.query(FRAME)
        router.query(FRAME)
        router.query(FRAME)
        stats = router.edge_stats("bad")
        assert stats.consecutive_failures == 2
        assert stats.cooldown_until == clock.now + 10.0
        # While cooling, "bad" is ordered last — all traffic to "good".
        before = len(bad.requests)
        for _ in range(4):
            assert router.query(FRAME).edge == "good"
        assert len(bad.requests) == before
        # Cooldown lapses: "bad" is probed again and, now healthy,
        # rejoins the rotation (streak reset on success).
        clock.advance(10.1)
        served = {router.query(FRAME).edge for _ in range(4)}
        assert served == {"bad", "good"}
        assert router.edge_stats("bad").consecutive_failures == 0
        assert router.edge_stats("bad").cooldown_until == 0.0

    def test_failed_probe_reenters_cooldown_immediately(
        self, result_payload, client
    ):
        clock = FakeClock()
        bad = ScriptedChannel("bad", payload=result_payload, fail_next=3)
        good = ScriptedChannel("good", payload=result_payload)
        router = make_router(
            [bad, good], client,
            policy="round_robin",
            failure_threshold=2,
            cooldown=10.0,
            clock=clock,
        )
        router.query(FRAME)
        router.query(FRAME)
        router.query(FRAME)  # second "bad" failure: cooldown armed
        clock.advance(10.1)
        # The probe (whenever rotation reaches "bad" again) fails: the
        # streak is already past the threshold, so one more failure
        # re-arms the cooldown at once.
        router.query(FRAME)
        router.query(FRAME)
        assert router.edge_stats("bad").consecutive_failures == 3
        assert router.edge_stats("bad").cooldown_until == clock.now + 10.0

    def test_all_edges_failing_raises_router_error(self, client):
        channels = [ScriptedChannel(f"e{i}", fail_next=99) for i in range(2)]
        router = make_router(channels, client)
        with pytest.raises(RouterError):
            router.query(FRAME)
        assert router.failed_queries == 1

    def test_error_responses_count_as_failures_not_link_faults(
        self, result_payload, client
    ):
        """An application-level error response fails the query over but
        is not a health signal: a healthy edge missing one replica must
        never be cooled down for the tables it serves fine."""
        broken = ScriptedChannel("broken", error="no replica of 't'")
        good = ScriptedChannel("good", payload=result_payload)
        router = make_router(
            [broken, good], client, policy="round_robin", failure_threshold=2
        )
        for _ in range(8):
            assert router.query(FRAME).edge == "good"
        stats = router.edge_stats("broken")
        assert stats.failures == 4  # attempted whenever rotation leads
        assert "no replica" in stats.last_error
        assert stats.consecutive_failures == 0
        assert stats.cooldown_until == 0.0


# ---------------------------------------------------------------------------
# Failover ordering
# ---------------------------------------------------------------------------


class TestFailover:
    def test_failover_follows_policy_order(self, result_payload, client):
        channels = [
            ScriptedChannel("a", payload=result_payload, latency=0.01),
            ScriptedChannel("b", payload=result_payload, latency=0.02),
            ScriptedChannel("c", payload=result_payload, latency=0.03),
        ]
        router = make_router(channels, client, policy="lowest_latency")
        for _ in range(3):  # probe all
            router.query(FRAME)
        assert router.ordering(FRAME) == ["a", "b", "c"]
        # Best edge fails: the next-best (by latency) serves; the
        # attempt list records the order tried.
        channels[0].fail_next = 1
        routed = router.query(FRAME)
        assert routed.edge == "b"
        assert routed.attempts == ("a", "b")
        assert router.failovers == 1

    def test_quarantined_edges_never_appear(self, result_payload, client):
        channels = [
            ScriptedChannel("a", payload=result_payload),
            ScriptedChannel("b", payload=result_payload),
        ]
        router = make_router(channels, client, policy="round_robin")
        router.quarantine("a", reason="tampered")
        for _ in range(5):
            assert router.query(FRAME).edge == "b"
        assert router.ordering(FRAME) == ["b"]
        router.release("a")
        assert set(router.ordering(FRAME)) == {"a", "b"}

    def test_exclude_narrows_candidates(self, client):
        router = make_router([ScriptedChannel("a"), ScriptedChannel("b")], client)
        assert router.ordering(FRAME, exclude={"a"}) == ["b"]
        assert router.ordering(FRAME, exclude={"a", "b"}) == []

    def test_no_eligible_edge_is_a_failed_query(self, client):
        router = make_router([ScriptedChannel("a"), ScriptedChannel("b")], client)
        router.quarantine("a")
        router.quarantine("b")
        with pytest.raises(RouterError):
            router.query(FRAME)
        assert router.queries == router.failed_queries == 1
        assert router.failovers == 0


# ---------------------------------------------------------------------------
# Adversary under routing (real 3-edge fabric)
# ---------------------------------------------------------------------------


def items_fabric(n_edges: int):
    central = CentralServer(db_name=DB, rsa_bits=512, seed=31)
    schema, rows = generate_table(
        TableSpec(name="items", rows=90, columns=4, seed=6)
    )
    central.create_table(schema, rows, fanout_override=6)
    edges = [central.spawn_edge_server(f"edge-{i}") for i in range(n_edges)]
    return central, edges


def three_edge_fabric(policy="round_robin", **router_kwargs):
    central, edges = items_fabric(3)
    verifying = central.make_router(policy=policy, **router_kwargs)
    return central, edges, verifying


def tamper(edge) -> None:
    """Make every 10..40 range answer of ``edge`` REJECT."""
    ValueTamper(table="items", key=20, column="a1", new_value="evil").apply(edge)


class TestAdversaryUnderRouting:
    def test_value_tamper_quarantined_and_failed_over(self):
        _central, edges, verifying = three_edge_fabric()
        ValueTamper(
            table="items", key=20, column="a1", new_value="evil"
        ).apply(edges[1])
        for _ in range(9):
            resp = verifying.range_query("items", low=10, high=40)
            assert resp.verdict.ok
            assert resp.edge != "edge-1"
        stats = verifying.stats()["edge-1"]
        assert stats.quarantined
        assert stats.rejects == 1
        assert "rejected" in stats.quarantine_reason
        assert verifying.rejects == 1 and verifying.accepts == 9
        # Counter semantics: a verify-reject retry is a failover of the
        # same logical query, never a second query.
        snap = verifying.snapshot()
        assert snap["queries"] == 9
        assert snap["failovers"] >= 1

    def test_drop_tuple_quarantined(self):
        _central, edges, verifying = three_edge_fabric()
        DropTuple(table="items", index=0).install(edges[2])
        for _ in range(6):
            assert verifying.range_query("items", low=5, high=25).verdict.ok
        assert verifying.stats()["edge-2"].quarantined
        assert verifying.rejects >= 1

    def test_response_tamper_quarantined(self):
        _central, edges, verifying = three_edge_fabric()
        ResponseTamper(row_index=0, column_index=1, new_value="mitm").install(
            edges[0]
        )
        for _ in range(6):
            assert verifying.range_query("items", low=5, high=25).verdict.ok
        assert verifying.stats()["edge-0"].quarantined

    def test_all_edges_tampered_raises(self):
        _central, edges, verifying = three_edge_fabric()
        for edge in edges:
            ValueTamper(
                table="items", key=20, column="a1", new_value="evil"
            ).apply(edge)
        with pytest.raises(RouterError):
            verifying.range_query("items", low=10, high=40)
        assert all(s.quarantined for s in verifying.stats().values())

    def test_rejected_query_reports_both_edges_tried(self):
        _central, edges, verifying = three_edge_fabric()
        ValueTamper(
            table="items", key=20, column="a1", new_value="evil"
        ).apply(edges[0])
        resp = verifying.range_query("items", low=10, high=40)
        assert resp.verdict.ok
        assert resp.rejected == ("edge-0",)
        assert resp.attempts[0] == "edge-0"
        assert resp.edge in ("edge-1", "edge-2")

    def test_stale_edge_avoided_by_freshest_but_still_verifies(self):
        """Lazy trust: a lagging replica's results are old but signed —
        they verify.  The freshest policy avoids the laggard; round
        robin would serve (verified) stale data from it."""
        central = CentralServer(db_name=DB, rsa_bits=512, seed=31)
        schema, rows = generate_table(
            TableSpec(name="items", rows=60, columns=4, seed=6)
        )
        central.create_table(schema, rows, fanout_override=6)
        edges = [central.spawn_edge_server(f"edge-{i}") for i in range(3)]
        laggard = central.fanout.peer("edge-2").transport
        laggard.faults.hold = True
        for key in range(9001, 9006):
            central.insert("items", (key, "a", "b", "c"))
        assert central.staleness("edge-2", "items") > 0
        verifying = central.make_router(policy="freshest")
        for _ in range(6):
            resp = verifying.range_query("items", low=9001, high=9005)
            assert resp.verdict.ok
            assert resp.edge != "edge-2"
            assert len(resp.result.rows) == 5
        # The laggard still answers and its (stale) result verifies.
        laggard_resp = edges[2].range_query("items", low=9001, high=9005)
        assert central.make_client().verify(laggard_resp).ok
        assert len(laggard_resp.result.rows) == 0  # stale: inserts unseen


class TestOneFailoverLoop:
    """One loop does routing, failover and verification: a REJECT
    starts a new verify round over the untried edges, re-ranked after
    the routing state advanced once more."""

    @pytest.mark.parametrize(
        "policy, attempts",
        [
            ("round_robin", [("edge-0", "edge-2"), ("edge-1",), ("edge-2",)]),
            ("lowest_latency", [("edge-0", "edge-2"), ("edge-1",), ("edge-2",)]),
            ("freshest", [("edge-0", "edge-2"), ("edge-1",), ("edge-2",)]),
            ("weighted", [("edge-0", "edge-1"), ("edge-2",), ("edge-1",)]),
        ],
    )
    def test_attempts_after_one_reject(self, policy, attempts):
        _central, edges, verifying = three_edge_fabric(policy=policy)
        tamper(edges[0])
        got = [
            verifying.range_query("items", low=10, high=40).attempts
            for _ in attempts
        ]
        assert got == attempts
        assert verifying.failovers == 1

    @pytest.mark.parametrize("n_edges", [1, 3])
    def test_query_every_edge_rejects_is_one_failed_query(self, n_edges):
        central, edges = items_fabric(n_edges)
        verifying = central.make_router(policy="round_robin")
        for edge in edges:
            tamper(edge)
        with pytest.raises(RouterError) as raised:
            verifying.range_query("items", low=10, high=40)
        snap = verifying.snapshot()
        assert snap["queries"] == snap["failed_queries"] == 1
        assert snap["rejects"] == n_edges
        assert snap["failovers"] == 0
        message = str(raised.value)
        assert "tried" in message and "rejected" in message
        assert all(edge.name in message for edge in edges)

    def test_failovers_count_attempts_before_the_accepted_one(self):
        central, edges = items_fabric(3)
        channels = [in_process_query_channel(e) for e in edges]
        verifying = central.make_router(channels=channels, policy="round_robin")
        channels[0].transport.faults.partitioned = True
        tamper(edges[1])
        # A transport fault, a REJECT, then the ACCEPT: two failovers.
        resp = verifying.range_query("items", low=10, high=40)
        assert resp.attempts == ("edge-0", "edge-1", "edge-2")
        assert (verifying.queries, verifying.failovers) == (1, 2)
        # A transport fault, then a REJECT, then nobody left: a failed
        # query adds no failovers, however far it got.
        tamper(edges[2])
        with pytest.raises(RouterError):
            verifying.range_query("items", low=10, high=40)
        assert (verifying.queries, verifying.failed_queries) == (2, 1)
        assert verifying.failovers == 2
        assert verifying.rejects == 2


class TestFailureAccounting:
    def test_transport_failure_feeds_cooldown_exactly_once_per_query(self):
        """Regression: one logical verifying query re-ran the routing
        core after a verify-reject *without* excluding the edges that
        had already failed in transport — a partitioned edge ordered
        first by ``freshest`` was probed again in the reject round and
        its cooldown streak double-counted, so another edge's tampering
        pushed a merely-unreachable edge toward cooldown twice as fast.
        A transport failure must feed the health state exactly once per
        logical query."""
        central = CentralServer(db_name=DB, rsa_bits=512, seed=31)
        schema, rows = generate_table(
            TableSpec(name="items", rows=90, columns=4, seed=6)
        )
        central.create_table(schema, rows, fanout_override=6)
        edges = [central.spawn_edge_server(f"edge-{i}") for i in range(3)]
        channels = [in_process_query_channel(e) for e in edges]
        channels[0].transport.faults.partitioned = True  # probe will fail
        ValueTamper(
            table="items", key=20, column="a1", new_value="evil"
        ).apply(edges[1])
        verifying = central.make_router(
            channels=channels, policy="freshest", failure_threshold=2
        )
        # Deterministic freshest order: edge-0 first, then 1, then 2.
        verifying.observe_cursor("edge-0", "items", 1000)
        verifying.observe_cursor("edge-1", "items", 500)
        verifying.observe_cursor("edge-2", "items", 100)

        resp = verifying.range_query("items", low=10, high=40)
        assert resp.verdict.ok
        assert resp.edge == "edge-2"
        assert resp.rejected == ("edge-1",)
        stats = verifying.edge_stats("edge-0")
        assert stats.failures == 1
        assert stats.consecutive_failures == 1
        # threshold=2: a double-counted failure would have armed the
        # cooldown off the back of a single unreachable attempt.
        assert stats.cooldown_until == 0.0

    def test_piggybacked_cursor_hints_are_bounded(self, result_payload, client):
        """Piggybacked cursors are untrusted: an edge flooding every
        response with fabricated replica names must not grow a
        long-lived router's per-edge state without bound."""
        from repro.edge.transport import MAX_CURSORS

        router = make_router(
            [ScriptedChannel("a", payload=result_payload)], client
        )
        stats = router.edge_stats("a")
        flood = QueryResponseFrame(
            edge="a",
            payload=result_payload,
            lsn=1,
            cursors=tuple(
                (f"fake-{i}", 1, 0) for i in range(MAX_CURSORS + 200)
            ),
        )
        router._record_success(stats, flood, 0.01, "items")
        assert len(stats.cursors) <= MAX_CURSORS + 1  # + queried echo
        # Known replicas keep updating even once the bound is hit.
        update = QueryResponseFrame(
            edge="a", payload=result_payload, lsn=9,
            cursors=(("fake-0", 9, 0),),
        )
        router._record_success(stats, update, 0.01, "items")
        assert stats.cursors["fake-0"] == 9

    def test_failed_edge_recovers_on_later_queries(self):
        """The exactly-once rule is per logical query: later queries
        still probe the edge, and a recovery clears the streak."""
        central = CentralServer(db_name=DB, rsa_bits=512, seed=31)
        schema, rows = generate_table(
            TableSpec(name="items", rows=90, columns=4, seed=6)
        )
        central.create_table(schema, rows, fanout_override=6)
        edges = [central.spawn_edge_server(f"edge-{i}") for i in range(2)]
        channels = [in_process_query_channel(e) for e in edges]
        channels[0].transport.faults.partitioned = True
        verifying = central.make_router(
            channels=channels, policy="freshest", failure_threshold=3
        )
        verifying.observe_cursor("edge-0", "items", 1000)
        verifying.observe_cursor("edge-1", "items", 100)
        for expected in (1, 2):
            assert verifying.range_query("items", low=5, high=15).verdict.ok
            assert verifying.edge_stats("edge-0").consecutive_failures == expected
        channels[0].transport.faults.clear()
        assert verifying.range_query("items", low=5, high=15).edge == "edge-0"
        assert verifying.edge_stats("edge-0").consecutive_failures == 0


# ---------------------------------------------------------------------------
# Query-path fault injection + metering (InProcessTransport.request)
# ---------------------------------------------------------------------------


class TestQueryPathFaults:
    def _edge_and_link(self):
        central = CentralServer(db_name=DB, rsa_bits=512, seed=31)
        schema, rows = generate_table(
            TableSpec(name="t", rows=50, columns=3, seed=6)
        )
        central.create_table(schema, rows, fanout_override=6)
        edge = central.spawn_edge_server("e1")
        link = InProcessTransport("query-link")
        link.connect(edge.handle_frame)
        return central, edge, link

    def test_partitioned_link_raises_and_meters_nothing(self):
        _central, _edge, link = self._edge_and_link()
        link.faults.partitioned = True
        with pytest.raises(TransportError, match="down"):
            link.request(range_query_frame("t", low=0, high=10))
        assert link.down_channel.total_bytes == 0

    def test_dropped_request_raises_but_bytes_left_sender(self):
        _central, _edge, link = self._edge_and_link()
        link.faults.drop_next = 1
        with pytest.raises(TransportError, match="lost"):
            link.request(range_query_frame("t", low=0, high=10))
        # The request left the sender (metered) but no reply came back.
        assert link.down_channel.bytes_by_kind().get("query", 0) > 0
        assert link.up_channel.total_bytes == 0

    def test_slow_hold_times_out_then_drains_on_flush(self):
        _central, _edge, link = self._edge_and_link()
        link.faults.hold = True
        with pytest.raises(TransportError, match="timed out"):
            link.request(range_query_frame("t", low=0, high=10))
        assert link.queued_frames == 1
        # The fault clears: the held query drains and the edge's reply
        # (with cursor echo) is metered on the up channel like any
        # other response.
        link.faults.clear()
        replies = link.flush()
        assert len(replies) == 1 and isinstance(replies[0], QueryResponseFrame)
        assert link.up_channel.bytes_by_kind().get("payload", 0) > 0

    def test_query_metering_matches_frame_sizes_exactly(self):
        """The metering invariant the router benches rely on: the link
        channels record exactly the serialized frame bytes, for query
        traffic as for replication traffic (Transport ABC metering)."""
        _central, _edge, link = self._edge_and_link()
        frame = range_query_frame("t", low=3, high=17)
        reply = link.request(frame)
        assert link.down_channel.total_bytes == len(frame_to_bytes(frame))
        assert link.up_channel.total_bytes == len(frame_to_bytes(reply))

    def test_router_fails_over_on_injected_faults(self):
        central = CentralServer(db_name=DB, rsa_bits=512, seed=31)
        schema, rows = generate_table(
            TableSpec(name="t", rows=50, columns=3, seed=6)
        )
        central.create_table(schema, rows, fanout_override=6)
        edges = [central.spawn_edge_server(f"e{i}") for i in range(2)]
        channels = [in_process_query_channel(edge) for edge in edges]
        router = make_router(channels, central.make_client(), policy="round_robin")
        # Partition e0's query link: every query fails over to e1.
        channels[0].transport.faults.partitioned = True
        for _ in range(4):
            assert router.query(range_query_frame("t", low=0, high=10)).edge == "e1"
        assert router.edge_stats("e0").failures > 0
        # Heal: e0 rejoins the rotation.
        channels[0].transport.faults.clear()
        router.edge_stats("e0").cooldown_until = 0.0
        served = {router.query(range_query_frame("t", low=0, high=10)).edge
                  for _ in range(4)}
        assert served == {"e0", "e1"}

    def test_query_exceptions_become_error_frames_in_process(self):
        """An in-process edge answers a failing query with an error
        response frame (like the TCP serve loop) instead of raising
        through the transport — the router's verify-or-failover path
        must see frames, never exceptions."""
        from repro.exceptions import ReplicationError

        _central, edge, link = self._edge_and_link()
        reply = link.request(
            QueryRequestFrame(kind="secondary", table="t", attribute="ghost")
        )
        assert isinstance(reply, QueryResponseFrame)
        assert "ReplicationError" in reply.error and reply.payload == b""
        # The same-process convenience API keeps its typed exception.
        with pytest.raises(ReplicationError):
            edge.query(secondary_query_frame("t", "ghost", low=0, high=1))

    def test_router_raises_router_error_when_no_edge_holds_replica(self):
        """Every edge answering 'no replica' exhausts the candidates as
        failovers and surfaces as RouterError — a typed edge exception
        must never escape the routed query path."""
        central = CentralServer(db_name=DB, rsa_bits=512, seed=31)
        schema, rows = generate_table(
            TableSpec(name="t", rows=50, columns=3, seed=6)
        )
        central.create_table(schema, rows, fanout_override=6)
        for i in range(2):
            central.spawn_edge_server(f"e{i}")
        verifying = central.make_router(policy="round_robin")
        with pytest.raises(RouterError):
            verifying.query(secondary_query_frame("t", "ghost", low=0, high=1))
        # Per-replica errors are not link faults: nobody cooled down.
        for stats in verifying.stats().values():
            assert stats.failures == 1
            assert stats.consecutive_failures == 0

    def test_simulated_latency_is_deterministic(self):
        """In-process query latency is the channel model's transfer
        seconds — a function of bytes and rtt, not wall clock."""
        _central, edge, _link = self._edge_and_link()
        slow_down = Channel(rtt_seconds=0.2)
        slow_up = Channel(rtt_seconds=0.2)
        channel = in_process_query_channel(edge, slow_down, slow_up)
        frame = range_query_frame("t", low=0, high=10)
        _reply, latency1 = channel.request(frame)
        _reply, latency2 = channel.request(frame)
        assert latency1 == latency2
        assert latency1 > 0.4  # two 0.2 s rtt legs + transfer time


# ---------------------------------------------------------------------------
# The acceptance fabric, in miniature (the bench runs it at 500 queries)
# ---------------------------------------------------------------------------


class TestVerifiedWorkload:
    def test_mixed_fabric_serves_workload_fully_verified(self):
        central = CentralServer(db_name=DB, rsa_bits=512, seed=47)
        spec = TableSpec(name="items", rows=120, columns=4, seed=9)
        schema, rows = generate_table(spec)
        central.create_table(schema, rows, fanout_override=8)
        edges = [central.spawn_edge_server(f"edge-{i}") for i in range(3)]
        # Tampered keys every 20 apart: any 24-row query window covers
        # at least one, so edge-1's first served result REJECTs — the
        # quarantine point is deterministic, not seed-dependent.
        for key in range(0, 120, 20):
            ValueTamper(
                table="items", key=key, column="a1", new_value="evil"
            ).apply(edges[1])
        slow = TransportQueryChannel(
            "edge-2",
            _connected_link(edges[2], rtt=0.25),
        )
        channels = [
            in_process_query_channel(edges[0]),
            in_process_query_channel(edges[1]),
            slow,
        ]
        verifying = make_router(
            channels, central.make_client(), policy="lowest_latency"
        )
        workload = QueryWorkload(spec=spec, selectivity=0.2, seed=4)
        for frame in workload.request_frames(60):
            assert verifying.query(frame).verdict.ok
        assert verifying.accepts == 60
        assert verifying.stats()["edge-1"].quarantined
        # The slow edge was probed but not preferred.
        assert verifying.stats()["edge-2"].served <= 2
        assert verifying.stats()["edge-0"].served >= 55


def _connected_link(edge, rtt: float) -> InProcessTransport:
    link = InProcessTransport(
        edge.name,
        Channel(rtt_seconds=rtt),
        Channel(rtt_seconds=rtt),
    )
    link.connect(edge.handle_frame)
    return link
