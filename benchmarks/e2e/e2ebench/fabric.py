"""The one fabric recipe, its independent oracle, and the canaries.

Every workload builds the same thing from scratch — a
``CentralServer("benchdb", rsa_bits=512, seed=S)`` owning one table
``items`` (2000 rows × 10 columns × 20 B, keys on a step-4 lattice so
the holes take in-place inserts) — and differs only in how many edges
hang off it, over which medium, and in which replication mode.  All
other settings are the shipped defaults (reactor I/O, ``ack_every=1``,
FLATTENED digests, default page geometry).  Nothing signed is cached on
disk: set-up cost is paid, and measured, in every run.
"""

from __future__ import annotations

import random
import string
import time
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.edge import telemetry
from repro.edge.adversary import DropTuple, SpuriousTuple, ValueTamper
from repro.edge.central import CentralServer, ReplicationMode
from repro.edge.deploy import Deployment
from repro.edge.event_loop import EdgeHost
from repro.edge.router import in_process_query_channel
from repro.exceptions import RouterError
from repro.workloads.generator import TableSpec

__all__ = [
    "TABLE",
    "PROJECTION",
    "DEFAULT_RECIPE",
    "Recipe",
    "Shape",
    "Fabric",
    "Oracle",
    "SetupTimes",
    "build_fabric",
    "run_canaries",
    "random_values",
]

TABLE = "items"
#: The projected query's column list (key + one attribute: 8 of the 10
#: attributes come back as signed digests in D_P).
PROJECTION = ("id", "a1")
_ALPHABET = string.ascii_lowercase + string.digits


@dataclass(frozen=True)
class Recipe:
    """Table geometry; the defaults are the benchmark's, the smoke test
    shrinks ``rows``."""

    rows: int = 2000
    columns: int = 10
    attr_size: int = 20
    key_step: int = 4

    def table_spec(self, seed: int) -> TableSpec:
        return TableSpec(
            name=TABLE,
            rows=self.rows,
            columns=self.columns,
            attr_size=self.attr_size,
            key_step=self.key_step,
            seed=seed,
        )

    @property
    def max_key(self) -> int:
        return (self.rows - 1) * self.key_step

    def user_bytes(self) -> int:
        """Bytes of user data in the table: an 8-byte key plus the
        attribute characters of every row."""
        return self.rows * (8 + (self.columns - 1) * self.attr_size)


DEFAULT_RECIPE = Recipe()


@dataclass(frozen=True)
class Shape:
    """What a workload hangs off the central server."""

    edges: int
    tcp: bool
    lazy: bool = False

    @property
    def edge_names(self) -> tuple[str, ...]:
        return tuple(f"edge-{i}" for i in range(self.edges))


@dataclass(frozen=True)
class SetupTimes:
    """Where one set-up spent its time (seconds)."""

    keygen_s: float
    create_table_s: float
    bootstrap_s: float

    @property
    def total_s(self) -> float:
        return self.keygen_s + self.create_table_s + self.bootstrap_s


def random_values(rng: random.Random, key: int, recipe: Recipe) -> tuple:
    """One row for ``key`` with seeded payload columns."""
    return (
        key,
        *(
            "".join(rng.choices(_ALPHABET, k=recipe.attr_size))
            for _ in range(recipe.columns - 1)
        ),
    )


class Oracle:
    """Independent mirror of the table: a dict plus a sorted key list.

    It never looks at the system under test — it starts from the
    generated rows and follows the harness's own inserts and deletes —
    so an ACCEPTed answer that differs from :meth:`expect` is a wrong
    answer, whatever the verifier said.
    """

    def __init__(self, rows: Sequence[Sequence[Any]]) -> None:
        self.rows = {row[0]: tuple(row) for row in rows}
        self.keys = sorted(self.rows)

    def insert(self, values: Sequence[Any]) -> None:
        self.rows[values[0]] = tuple(values)
        insort(self.keys, values[0])

    def delete(self, key: int) -> None:
        del self.rows[key]
        self.keys.pop(bisect_left(self.keys, key))

    def expect(
        self, low: int, high: int, columns: Optional[Sequence[str]]
    ) -> tuple[list[int], list[tuple]]:
        """``(keys, rows)`` a correct edge returns for the range."""
        keys = self.keys[bisect_left(self.keys, low):bisect_right(self.keys, high)]
        if columns is None:
            return keys, [self.rows[k] for k in keys]
        picks = [0 if name == "id" else int(name[1:]) for name in columns]
        return keys, [tuple(self.rows[k][i] for i in picks) for k in keys]

    def matches(self, result, low: int, high: int, columns) -> bool:
        keys, rows = self.expect(low, high, columns)
        return list(result.keys) == keys and list(result.rows) == rows


class Fabric:
    """A built deployment: central server, edges, one verifying router.

    The medium-specific parts (a TCP :class:`Deployment` +
    :class:`EdgeHost`, or plain in-process links) sit behind the few
    methods the harness calls, so the runner is medium-agnostic.
    """

    def __init__(
        self,
        central: CentralServer,
        shape: Shape,
        recipe: Recipe,
        deploy: Optional[Deployment],
        host: Optional[EdgeHost],
    ) -> None:
        self.central = central
        self.shape = shape
        self.recipe = recipe
        self.deploy = deploy
        self.host = host
        if host is not None:
            self.edges = dict(host.edges)
        else:
            self.edges = {edge.name: edge for edge in central.edges}
        self._channels = (
            None
            if deploy is not None
            else [in_process_query_channel(e) for e in self.edges.values()]
        )
        self.router = self.make_router()

    def make_router(self):
        """A fresh round-robin :class:`VerifyingRouter` (no quarantine
        or latency history)."""
        if self.deploy is not None:
            return self.deploy.make_router(
                names=list(self.shape.edge_names), policy="round_robin"
            )
        return self.central.make_router(
            channels=self._channels, policy="round_robin"
        )

    # -- replication -----------------------------------------------------

    def sync(self) -> None:
        """Bring every edge to cursor parity on the table."""
        if self.deploy is not None:
            self.deploy.sync(TABLE)
        else:
            self.central.propagate(TABLE)
            self.central.fanout.drain(wait=True)

    def at_parity(self) -> bool:
        return all(
            self.central.staleness(name, TABLE) == 0
            for name in self.shape.edge_names
        )

    def replication_link(self, name: str):
        """The central→edge transport replication rides on."""
        return self.central.fanout.peer(name).transport

    def replication_bytes(self, kind: str) -> int:
        """Central→edge bytes of one transfer kind, over all edges."""
        return sum(
            self.replication_link(name).down_channel.bytes_by_kind().get(kind, 0)
            for name in self.shape.edge_names
        )

    def replication_frames(self) -> tuple[int, int]:
        """``(delta frames sent, ack frames received)`` over all edges."""
        deltas = acks = 0
        for name in self.shape.edge_names:
            link = self.replication_link(name)
            deltas += sum(1 for t in link.down_channel.transfers if t.kind == "delta")
            acks += sum(1 for t in link.up_channel.transfers if t.kind == "ack")
        return deltas, acks

    def syscalls(self) -> dict[str, int]:
        """The central reactor's syscall tallies (zeros in-process)."""
        if self.deploy is None or self.deploy.reactor is None:
            return {"sendmsg": 0, "recv": 0, "select": 0}
        return dict(self.deploy.reactor.syscalls)

    # -- queries ---------------------------------------------------------

    def response_bytes(self, edge: str) -> int:
        """Payload bytes of the last query response ``edge`` sent."""
        if self.deploy is not None:
            link = self.deploy.edges[edge].transport
        else:
            link = next(c.transport for c in self._channels if c.name == edge)
        return link.up_channel.transfers[-1].nbytes

    def direct_query(self, edge: str, low: int, high: int, columns=None):
        """Unrouted, unverified query against one named edge."""
        if self.deploy is not None:
            return self.deploy.range_query(edge, TABLE, low, high, columns)
        return self.edges[edge].range_query(TABLE, low, high, columns)

    def close(self) -> None:
        if self.host is not None:
            self.host.close()
        if self.deploy is not None:
            self.deploy.shutdown()


def build_fabric(
    shape: Shape, seed: int, recipe: Recipe, schema, rows
) -> tuple[Fabric, SetupTimes]:
    """Build one fabric from scratch and time the three set-up stages.

    ``schema, rows`` are ``generate_table(recipe.table_spec(seed))``:
    input generation is not set-up and stays outside the timed interval
    (the oracle needs the same rows).
    """
    t0 = time.perf_counter()
    central = CentralServer(
        "benchdb",
        rsa_bits=512,
        seed=seed,
        replication=ReplicationMode.LAZY if shape.lazy else ReplicationMode.EAGER,
    )
    t1 = time.perf_counter()
    central.create_table(schema, rows)
    t2 = time.perf_counter()
    deploy = host = None
    try:
        if shape.tcp:
            deploy = Deployment(central)
            host = EdgeHost(*deploy.address)
            host.start()
            # One edge at a time: each snapshot install settles inside
            # the fan-out engine's drain deadline instead of all of
            # them racing it on one reactor thread.
            for name in shape.edge_names:
                host.launch(name)
                deploy.wait_for_edge(name, sync=True)
        else:
            for name in shape.edge_names:
                central.spawn_edge_server(name)
        fabric = Fabric(central, shape, recipe, deploy, host)
        fabric.sync()
        if not fabric.at_parity():
            raise RuntimeError("fabric did not reach cursor parity at set-up")
    except BaseException:
        if host is not None:
            host.close()
        if deploy is not None:
            deploy.shutdown()
        raise
    t3 = time.perf_counter()
    return fabric, SetupTimes(t1 - t0, t2 - t1, t3 - t2)


# ----------------------------------------------------------------------
# Canaries
# ----------------------------------------------------------------------


def _probe(fabric: Fabric, oracle: Oracle, edge: str, low: int, high: int,
           label: str) -> list[str]:
    """One tampered edge must be REJECTed directly and routed around."""
    problems: list[str] = []
    client = fabric.central.make_client()
    direct = fabric.direct_query(edge, low, high)
    if client.verify(direct).ok:
        problems.append(f"canary {label}: tampered answer was ACCEPTed")
    router = fabric.make_router()
    for _ in range(len(fabric.shape.edge_names)):
        try:
            answer = router.range_query(TABLE, low=low, high=high)
        except RouterError:
            if len(fabric.shape.edge_names) > 1:
                problems.append(f"canary {label}: no edge left to fail over to")
            continue
        if answer.edge == edge:
            problems.append(f"canary {label}: router served the tampered edge")
        if not oracle.matches(answer.result, low, high, None):
            problems.append(f"canary {label}: routed answer differs from oracle")
    if not router.stats()[edge].quarantined:
        problems.append(f"canary {label}: tampered edge was not quarantined")
    return problems


def run_canaries(fabric: Fabric, oracle: Oracle, seed: int) -> list[str]:
    """Tamper one edge three ways; every way must be caught.

    Untimed, and last: the forged tuple stays in the replica.  Returns
    the list of problems (empty = the verifier verifies).
    """
    edge_name = fabric.shape.edge_names[0]
    edge = fabric.edges[edge_name]
    keys = oracle.keys
    # A middle row whose next lattice hole is still free for the forgery.
    mid = next(
        i for i in range(len(keys) // 2, len(keys) - 1)
        if keys[i] + 1 not in oracle.rows
    )
    key, low, high = keys[mid], keys[mid - 1], keys[mid + 1]
    problems: list[str] = []

    original = oracle.rows[key][1]
    ValueTamper(TABLE, key, "a1", "x" * len(original)).apply(edge)
    problems += _probe(fabric, oracle, edge_name, low, high, "ValueTamper")
    ValueTamper(TABLE, key, "a1", original).apply(edge)

    DropTuple(TABLE, index=0).install(edge)
    problems += _probe(fabric, oracle, edge_name, low, high, "DropTuple")
    edge.clear_interceptors()

    forged = random_values(random.Random(seed), key + 1, fabric.recipe)
    SpuriousTuple(TABLE, forged, seed=seed).apply(edge)
    problems += _probe(fabric, oracle, edge_name, low, high, "SpuriousTuple")

    unexpected = telemetry.unexpected_total()
    if unexpected:
        problems.append(f"telemetry: {unexpected} unexpected swallowed exceptions")
    return problems
