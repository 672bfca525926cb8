"""Sharded multi-signer central plane (scale-out of Figure 2's left box).

One :class:`~repro.edge.central.CentralServer` signs every update on a
single core, so write throughput is flat no matter how many cores the
host has.  This module splits the central plane into N **share-nothing
signer shards**: each shard is a full ``CentralServer`` with its *own*
signing key pair, key-ring epochs, per-table LSN logs, and
:class:`~repro.edge.fanout.FanoutEngine` — there is no cross-shard
coordination on the write path, so signed-insert throughput scales
~linearly with shard count (WedgeChain's signer/serving split, and the
multi-authority topology the edge-integrity survey treats as the
deployment norm).

Placement is described by a versioned :class:`ShardMap`:

* small tables live whole on one shard, chosen by a **seeded stable
  hash** of the table name (:func:`stable_hash` — never the builtin
  ``hash()``, which is randomized per process and would scatter the
  same table to different shards in different processes);
* large tables are **range-partitioned**: ``nshards - 1`` integer
  boundaries split the key domain into contiguous half-open ranges
  ``[b_{i-1}, b_i)``, shard ``i`` owning range ``i``.  The half-open
  convention makes boundary ownership exact: a key equal to a boundary
  lands in the *right* shard, and in exactly one shard.

Queries scatter/gather through
:class:`~repro.edge.router.ScatterGatherRouter`: a range query is
planned against the map, each overlapping shard answers its sub-range
through that shard's verify-or-failover router (verified against that
shard's public keys), and the verified sub-results merge — in shard
order, which *is* key order for a range partition — into one verified
answer.  A REJECT quarantines only the tampering shard's edge; every
other shard's verified sub-result is kept.

The map travels to edges and routers in the handshake
:class:`~repro.edge.transport.ConfigFrame` (optional trailing fields —
a single-shard deployment emits byte-identical frames to the pre-shard
protocol).

Role and ownership: everything here is **trusted central plane** —
each shard holds its own *private* signing key, and a shard's results
verify only against that shard's public records.  The
:class:`ShardMap` itself is public control-plane data (it routes, it
does not authenticate) and is safe to hand to edges, relays, and
routers verbatim.  Threading follows the share-nothing split: each
shard's write path runs wherever its caller runs, with no cross-shard
lock; the sharded *deployment* serves all shards' accepted links from
one reactor thread (DESIGN.md section 11), which owns the sockets but
never the keys."""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

from repro.constants import RSA_BITS
from repro.crypto.encoding import encode_value
from repro.db.schema import TableSchema
from repro.edge.central import CentralServer, ClientConfig
from repro.exceptions import ReplicationError, SchemaError

__all__ = [
    "stable_hash",
    "ShardMap",
    "ShardedCentral",
]


def stable_hash(value: Any, seed: int = 0) -> int:
    """A seeded, cross-process-stable 64-bit hash of ``value``.

    Built on ``blake2b`` over the canonical wire encoding of ``value``
    (:func:`repro.crypto.encoding.encode_value`), keyed by ``seed`` —
    so shard assignment is a pure function of ``(value, seed)`` and two
    processes (or two runs months apart) always agree.  The builtin
    ``hash()`` must never route data: ``PYTHONHASHSEED`` randomizes it
    per process, which would send the same table to different shards on
    the two sides of a wire.

    Args:
        value: Any wire-encodable value (str/int/bytes/None/bool/float).
        seed: Placement seed; different seeds give independent hashes.
    """
    digest = hashlib.blake2b(
        encode_value(value),
        digest_size=8,
        key=seed.to_bytes(8, "big", signed=True),
    ).digest()
    return int.from_bytes(digest, "big")


@dataclass(frozen=True)
class _Placement:
    """Where one table lives.

    Attributes:
        kind: ``"hash"`` (whole table on one shard) or ``"range"``
            (contiguous key ranges across every shard).
        shard: Owning shard for a hash placement (-1 for range).
        boundaries: ``nshards - 1`` sorted integer split points for a
            range placement — shard ``i`` owns ``[b_{i-1}, b_i)`` with
            open outer ends (empty for hash).
    """

    kind: str
    shard: int = -1
    boundaries: tuple[int, ...] = ()


class ShardMap:
    """Versioned table → shard placement map.

    The map is the *only* shared state of a sharded central plane, and
    it is control-plane state: it changes on DDL (placing a table),
    never per write, and every change bumps :attr:`version` so edges
    and routers can detect a stale map.

    Args:
        nshards: Number of signer shards.
        seed: Placement seed for :func:`stable_hash` table assignment.
    """

    def __init__(self, nshards: int, seed: int = 0) -> None:
        if nshards < 1:
            raise ReplicationError("a shard map needs nshards >= 1")
        self.nshards = nshards
        self.seed = seed
        self.version = 0
        self._placements: dict[str, _Placement] = {}

    # ------------------------------------------------------------------
    # Placement (DDL time)
    # ------------------------------------------------------------------

    def place_table(self, name: str, shard: int | None = None) -> int:
        """Place a whole table on one shard (hash placement).

        Args:
            name: Table name.
            shard: Explicit shard override; defaults to
                ``stable_hash(name, seed) % nshards``.

        Returns:
            The owning shard id.
        """
        if name in self._placements:
            raise SchemaError(f"table {name!r} is already placed")
        if shard is None:
            shard = stable_hash(name, self.seed) % self.nshards
        if not 0 <= shard < self.nshards:
            raise ReplicationError(
                f"shard {shard} out of range for {self.nshards} shards"
            )
        self._placements[name] = _Placement(kind="hash", shard=shard)
        self.version += 1
        return shard

    def place_range_table(
        self, name: str, boundaries: Sequence[int]
    ) -> tuple[int, ...]:
        """Range-partition a table across *every* shard.

        Args:
            name: Table name.
            boundaries: ``nshards - 1`` sorted integer split points;
                shard ``i`` owns the half-open range ``[b_{i-1}, b_i)``
                (unbounded at both outer ends).

        Returns:
            The boundaries as stored.
        """
        if name in self._placements:
            raise SchemaError(f"table {name!r} is already placed")
        bounds = tuple(boundaries)
        if len(bounds) != self.nshards - 1:
            raise ReplicationError(
                f"range placement needs {self.nshards - 1} boundaries, "
                f"got {len(bounds)}"
            )
        if any(b2 < b1 for b1, b2 in zip(bounds, bounds[1:], strict=False)):
            raise ReplicationError("boundaries must be sorted ascending")
        self._placements[name] = _Placement(kind="range", boundaries=bounds)
        self.version += 1
        return bounds

    # ------------------------------------------------------------------
    # Routing (hot path — pure lookups)
    # ------------------------------------------------------------------

    def tables(self) -> tuple[str, ...]:
        """Every placed table name."""
        return tuple(self._placements)

    def placement(self, table: str) -> _Placement:
        try:
            return self._placements[table]
        except KeyError:
            raise SchemaError(f"table {table!r} is not placed") from None

    def shard_for(self, table: str, key: Any) -> int:
        """The single shard that owns ``key`` of ``table``.

        Hash tables ignore the key; range tables bisect the boundary
        list — a key equal to a boundary belongs to the range *starting*
        at that boundary (half-open ``[lo, hi)``), so every key lands
        in exactly one shard.
        """
        placement = self.placement(table)
        if placement.kind == "hash":
            return placement.shard
        return bisect_right(placement.boundaries, key)

    def shards_for_table(self, table: str) -> tuple[int, ...]:
        """Every shard holding a replica of ``table``."""
        placement = self.placement(table)
        if placement.kind == "hash":
            return (placement.shard,)
        return tuple(range(self.nshards))

    def plan(
        self, table: str, low: Any = None, high: Any = None
    ) -> list[tuple[int, Any, Any]]:
        """Scatter plan for an *inclusive* key-range query.

        Returns:
            ``(shard, sub_low, sub_high)`` per overlapping shard, in
            shard (= key) order, with inclusive sub-bounds clamped to
            the shard's half-open range (``None`` = unbounded).  Range
            boundaries are integers, so the inclusive upper clamp of a
            range ending (exclusively) at ``b`` is ``b - 1``.
        """
        placement = self.placement(table)
        if placement.kind == "hash":
            return [(placement.shard, low, high)]
        plan: list[tuple[int, Any, Any]] = []
        bounds = placement.boundaries
        for shard in range(self.nshards):
            lo = bounds[shard - 1] if shard > 0 else None
            hi = bounds[shard] if shard < len(bounds) else None
            if lo is not None and hi is not None and lo >= hi:
                continue  # empty range (duplicate boundaries)
            if hi is not None and low is not None and low >= hi:
                continue
            if lo is not None and high is not None and high < lo:
                continue
            sub_low = lo if low is None else (low if lo is None else max(low, lo))
            if hi is None:
                sub_high = high
            elif high is None:
                sub_high = hi - 1
            else:
                sub_high = min(high, hi - 1)
            plan.append((shard, sub_low, sub_high))
        return plan

    # ------------------------------------------------------------------
    # Wire form (ConfigFrame trailing fields)
    # ------------------------------------------------------------------

    def to_wire(self) -> tuple:
        """The map as plain tuples for the handshake ``ConfigFrame``."""
        entries = tuple(
            (name, p.kind, (p.shard,) if p.kind == "hash" else p.boundaries)
            for name, p in self._placements.items()
        )
        return (self.version, self.nshards, self.seed, entries)

    @classmethod
    def from_wire(cls, wire: tuple) -> "ShardMap":
        """Rebuild a map from :meth:`to_wire` tuples."""
        version, nshards, seed, entries = wire
        shard_map = cls(nshards=nshards, seed=seed)
        for name, kind, payload in entries:
            if kind == "hash":
                shard_map.place_table(name, shard=payload[0])
            else:
                shard_map.place_range_table(name, payload)
        shard_map.version = version
        return shard_map


def boundaries_from_keys(
    keys: Iterable[int], nshards: int
) -> tuple[int, ...]:
    """Even split points for seeding a range partition from known keys.

    Sorts the distinct keys and cuts them into ``nshards`` equal-count
    chunks; each boundary is the first key of a chunk, so the seed rows
    spread evenly.  Future inserts route by these *fixed* boundaries —
    the partition does not rebalance."""
    distinct = sorted(set(keys))
    if len(distinct) < nshards:
        raise ReplicationError(
            f"need at least {nshards} distinct keys to derive "
            f"{nshards} ranges, got {len(distinct)}"
        )
    chunk = len(distinct) / nshards
    return tuple(distinct[round(i * chunk)] for i in range(1, nshards))


class ShardedCentral:
    """N share-nothing signer shards behind one placement map.

    Each shard is a full :class:`~repro.edge.central.CentralServer`
    with its own signing key, epochs, logs, fan-out engine, and edge
    fleet.  Writes hash-route (or range-route) to exactly one shard; no
    lock, log, or signature is ever shared between shards, so the write
    path of a sharded plane *is* the write path of a single central —
    times N cores.

    Args:
        db_name: Logical database name, shared by every shard (the
            digest label; per-shard authenticity comes from per-shard
            keys, not the name).
        shards: Number of signer shards.
        seed: Deterministic key-generation seed; shard ``i`` derives
            its signing key from ``seed + i`` so every shard signs
            under a *different* key pair; it also seeds the shard map's
            placement (0 when ``None``).
        rsa_bits: Forwarded to every shard.
        **central_kwargs: Remaining :class:`CentralServer` options,
            forwarded to every shard (digest policy, replication mode,
            fan-out windows, ack policy, …).
    """

    def __init__(
        self,
        db_name: str,
        shards: int = 4,
        seed: int | None = None,
        rsa_bits: int = RSA_BITS,
        **central_kwargs,
    ) -> None:
        if shards < 1:
            raise ReplicationError("a sharded central needs shards >= 1")
        self.db_name = db_name
        self.nshards = shards
        self.shard_map = ShardMap(nshards=shards, seed=seed or 0)
        self.shards: list[CentralServer] = [
            CentralServer(
                db_name,
                rsa_bits=rsa_bits,
                seed=None if seed is None else seed + i,
                shard_id=i,
                **central_kwargs,
            )
            for i in range(shards)
        ]
        self._key_index: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Schema management
    # ------------------------------------------------------------------

    def shard(self, shard_id: int) -> CentralServer:
        """The shard's :class:`CentralServer` (IndexError if unknown)."""
        return self.shards[shard_id]

    def create_table(
        self,
        schema: TableSchema,
        rows: Iterable[Sequence[Any]] = (),
        partition: str = "hash",
        boundaries: Sequence[int] | None = None,
        fanout_override: int | None = None,
    ) -> None:
        """Create and place a table, seeding each shard with its rows.

        Args:
            schema: Table schema (created identically on every owning
                shard).
            rows: Seed rows; routed to their owning shards.
            partition: ``"hash"`` places the whole table on one shard;
                ``"range"`` partitions contiguous integer key ranges
                across every shard.
            boundaries: Explicit split points for ``"range"``
                (``nshards - 1`` sorted ints); derived evenly from the
                seed rows' keys when omitted.
            fanout_override: Fixed VB-tree node fanout for every
                shard's tree.  Worth setting for range partitions: the
                default size-derived geometry gives a small partition a
                single wide root whose per-insert rehash is O(rows),
                while a fixed fanout keeps node width constant and
                lets *depth* absorb the size difference — so a shard
                holding 1/N of the table pays at most the unsharded
                per-insert cost.
        """
        rows = list(rows)
        key_index = schema.key_index
        self._key_index[schema.name] = key_index
        if partition == "hash":
            owner = self.shard_map.place_table(schema.name)
            self.shards[owner].create_table(
                schema, rows, fanout_override=fanout_override
            )
            return
        if partition != "range":
            raise SchemaError(
                f"partition must be 'hash' or 'range', got {partition!r}"
            )
        if boundaries is None:
            boundaries = boundaries_from_keys(
                (row[key_index] for row in rows), self.nshards
            )
        self.shard_map.place_range_table(schema.name, boundaries)
        parts: list[list[Sequence[Any]]] = [[] for _ in range(self.nshards)]
        for row in rows:
            parts[self.shard_map.shard_for(schema.name, row[key_index])].append(row)
        for shard_id, shard_rows in enumerate(parts):
            self.shards[shard_id].create_table(
                schema, shard_rows, fanout_override=fanout_override
            )

    def create_secondary_index(self, table: str, attribute: str) -> str:
        """Build the secondary index on every shard holding ``table``."""
        name = ""
        for shard_id in self.shard_map.shards_for_table(table):
            name = self.shards[shard_id].create_secondary_index(table, attribute)
        return name

    # ------------------------------------------------------------------
    # Writes (hot path: exactly one shard, no coordination)
    # ------------------------------------------------------------------

    def shard_for(self, table: str, key: Any) -> int:
        """The shard that owns ``key`` of ``table``."""
        return self.shard_map.shard_for(table, key)

    def insert(self, table: str, values: Sequence[Any]):
        """Insert one row on its owning shard (signed by that shard)."""
        key = values[self._key_index[table]]
        return self.shards[self.shard_for(table, key)].insert(table, values)

    def delete(self, table: str, key: Any):
        """Delete one row from its owning shard."""
        return self.shards[self.shard_for(table, key)].delete(table, key)

    def rotate_key(self, shard_id: int, **kwargs) -> int:
        """Rotate one shard's signing key (its epochs are its own)."""
        return self.shards[shard_id].rotate_key(**kwargs)

    # ------------------------------------------------------------------
    # Edges & replication
    # ------------------------------------------------------------------

    def spawn_edge_fleet(
        self, per_shard: int, prefix: str = "edge"
    ) -> dict[int, list]:
        """Spawn ``per_shard`` in-process edges behind every shard.

        Edge names are ``{prefix}-s{shard}-{i}``; each fleet replicates
        only its shard's tables, bootstrapped with the shared-payload
        fast path.

        Returns:
            shard id → its edge servers.
        """
        fleets: dict[int, list] = {}
        for shard_id, shard in enumerate(self.shards):
            names = [f"{prefix}-s{shard_id}-{i}" for i in range(per_shard)]
            fleets[shard_id] = shard.spawn_edge_fleet(names)
        return fleets

    def propagate(self) -> int:
        """Pump every shard's fan-out engine; returns frames shipped."""
        return sum(shard.propagate() for shard in self.shards)

    # ------------------------------------------------------------------
    # Verification plumbing (per-shard public keys)
    # ------------------------------------------------------------------

    def client_config(self, shard_id: int) -> ClientConfig:
        """Shard ``shard_id``'s verification bundle — results from a
        shard verify against *that shard's* key ring and no other."""
        return self.shards[shard_id].client_config()

    def make_router(self, policy: Any = "round_robin", **kwargs):
        """A :class:`~repro.edge.router.ScatterGatherRouter` over every
        shard's in-process edge fleet: per-shard verify-or-failover
        routing composed with map-driven scatter/gather planning.

        Args:
            policy: Per-shard routing policy (name or enum).
            **kwargs: Forwarded to each shard's
                :class:`~repro.edge.router.EdgeRouter`.
        """
        from repro.edge.router import ScatterGatherRouter

        routers = {
            shard_id: shard.make_router(policy=policy, **kwargs)
            for shard_id, shard in enumerate(self.shards)
        }
        return ScatterGatherRouter(self.shard_map, routers)

    def make_sharded_router(self, routers: Mapping[int, Any]):
        """Compose pre-built per-shard verifying routers (e.g. a
        deployment's TCP routers) with this plane's shard map."""
        from repro.edge.router import ScatterGatherRouter

        return ScatterGatherRouter(self.shard_map, dict(routers))

    def total_rows(self, table: str) -> int:
        """Rows of ``table`` across every owning shard."""
        return sum(
            len(self.shards[s].vbtrees[table])
            for s in self.shard_map.shards_for_table(table)
            if table in self.shards[s].vbtrees
        )
