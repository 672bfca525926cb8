"""The Naive baseline — the paper's appendix strategy.

"The naive strategy maintains for each attribute a signed digest, and
for each tuple a signed digest obtained from the attribute digests.  It
transmits the result tuples together with their attribute and tuple
digests for the client to verify the correctness of the result tuples."
(Appendix; Figure 14.)

Per result tuple the edge ships:

* the tuple's signed digest ``D_T``;
* the value of every *returned* attribute;
* the signed digest of every *filtered* attribute (projection support).

The client recomputes each returned attribute's digest, decrypts each
filtered attribute's digest, combines them into the tuple digest and
compares with the decrypted ``D_T`` — one signature decryption **per
tuple**, which is exactly the linear-in-``Q_r`` decryption cost that
Figures 10 and 12 show the VB-tree beating.

There is no node-level structure, hence no protection against an edge
server *omitting* tuples (same trust model as the paper) and no
envelope — the scheme's communication cost has no ``D_S``/``D_N``
component but pays one signature per tuple instead.

This module is also the one place the paper's **per-attribute** form
still lives: every attribute digest signed, the tuple digest the
commutative fold of them (formula 2 as written — the same fold formula 3
applies to a node's children).  The fabric's VB-trees hash the ordered
row instead and sign the tuple only (DESIGN.md D5), so Figures 10-12
build a :class:`NaiveStore` explicitly, from the central server's
signing engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Sequence

from repro.core.digests import DigestEngine, SigningDigestEngine
from repro.crypto.encoding import encode_uint, encode_value, encode_values
from repro.crypto.keyring import KeyRing
from repro.crypto.meter import CostMeter, NULL_METER
from repro.crypto.rsa import RSAPublicKey
from repro.crypto.signatures import DigestSigner, DigestVerifier, SignedDigest
from repro.db.expressions import Predicate
from repro.db.rows import Row
from repro.db.schema import TableSchema
from repro.exceptions import SignatureError, StaleKeyError, VOFormatError

__all__ = [
    "NaiveTupleAuth",
    "NaiveResult",
    "NaiveStore",
    "NaiveVerifier",
]


@dataclass
class NaiveTupleAuth:
    """Signed digests for one stored tuple under the naive scheme."""

    signed_tuple: SignedDigest
    signed_attrs: tuple[SignedDigest, ...]


@dataclass
class NaiveResult:
    """A query result under the naive strategy (Figure 14's wire shape).

    Attributes:
        tuple_digests: one signed tuple digest per result row.
        filtered_attr_digests: per row, the signed digests of the
            attributes removed by projection (order follows the filtered
            column order).
    """

    table: str
    columns: tuple[str, ...]
    all_columns: tuple[str, ...]
    key_column: str
    rows: list[tuple[Any, ...]]
    keys: list[Any]
    tuple_digests: list[SignedDigest] = field(default_factory=list)
    filtered_attr_digests: list[tuple[SignedDigest, ...]] = field(
        default_factory=list
    )

    @property
    def num_rows(self) -> int:
        """``Q_r``."""
        return len(self.rows)

    @property
    def filtered_columns(self) -> tuple[str, ...]:
        """Columns removed by projection."""
        returned = set(self.columns)
        return tuple(c for c in self.all_columns if c not in returned)

    def wire_size(self, sig_len: int) -> int:
        """Serialized size in bytes (same encoding family as the VB-tree
        wire format, so byte comparisons are apples-to-apples)."""
        total = (
            4
            + len(encode_value(self.table))
            + len(encode_value(self.key_column))
            + len(encode_values(self.columns))
            + len(encode_values(self.all_columns))
            + 4
        )
        for row in self.rows:
            total += len(encode_values(row))
        total += len(encode_values(self.keys))
        total += len(self.tuple_digests) * (sig_len + 2)
        for digests in self.filtered_attr_digests:
            total += 4 + len(digests) * (sig_len + 2)
        return total


def _paper_tuple_value(engine: DigestEngine, attribute_values: Sequence[int]) -> int:
    """Formula (2) as the paper writes it: the attribute digests folded
    by the commutative combinator, exactly as formula (3) folds a
    node's children."""
    return engine.node_value(attribute_values)


class NaiveStore:
    """The scheme on its own: per-tuple signed digests for a table —
    what a central server running *only* the naive scheme would keep,
    ``N_c + 1`` signatures per row.

    Args:
        schema: The table's schema.
        signing: The central server's signing engine (the same
            attribute digests, formula (1), as the VB-tree).
    """

    def __init__(self, schema: TableSchema, signing: SigningDigestEngine) -> None:
        self.schema = schema
        self.signing = signing
        self._auth: dict[Any, NaiveTupleAuth] = {}

    @classmethod
    def build(
        cls,
        schema: TableSchema,
        rows: Iterable[Row],
        signing: SigningDigestEngine,
    ) -> "NaiveStore":
        """Digest and sign every row."""
        store = cls(schema, signing)
        for row in rows:
            store.add(row)
        return store

    def add(self, row: Row) -> None:
        """Sign a newly inserted row's digests: one per attribute, one
        for the tuple."""
        engine, sign = self.signing.engine, self.signing.sign_value
        attribute_values = engine.row_attribute_values(
            self.schema.name, self.schema.column_names, row.key, row.values
        )
        self._auth[row.key] = NaiveTupleAuth(
            signed_tuple=sign(_paper_tuple_value(engine, attribute_values)),
            signed_attrs=tuple(sign(value) for value in attribute_values),
        )

    def remove(self, key: Any) -> None:
        """Drop a deleted row's digests."""
        self._auth.pop(key, None)

    def auth_for(self, key: Any) -> NaiveTupleAuth:
        """Signed digests of the tuple at ``key``."""
        try:
            return self._auth[key]
        except KeyError:
            raise VOFormatError(f"no naive digests for key {key!r}") from None

    # ------------------------------------------------------------------
    # Edge-side result construction
    # ------------------------------------------------------------------

    def build_result(
        self,
        rows: Sequence[Row],
        columns: Optional[Sequence[str]] = None,
    ) -> NaiveResult:
        """Assemble the naive wire object for ``rows``."""
        all_columns = self.schema.column_names
        returned = tuple(columns) if columns is not None else all_columns
        returned_set = set(returned)
        filtered_idx = [
            i for i, c in enumerate(all_columns) if c not in returned_set
        ]
        result = NaiveResult(
            table=self.schema.name,
            columns=returned,
            all_columns=all_columns,
            key_column=self.schema.key,
            rows=[tuple(r[c] for c in returned) for r in rows],
            keys=[r.key for r in rows],
        )
        for row in rows:
            auth = self.auth_for(row.key)
            result.tuple_digests.append(auth.signed_tuple)
            result.filtered_attr_digests.append(
                tuple(auth.signed_attrs[i] for i in filtered_idx)
            )
        return result


class NaiveVerifier:
    """Client-side verification for the naive strategy.

    One signature decryption per tuple plus one per filtered attribute —
    the appendix's computation-cost formula made executable.
    """

    def __init__(
        self,
        engine: DigestEngine,
        public_key: RSAPublicKey | None = None,
        keyring: KeyRing | None = None,
        meter: CostMeter = NULL_METER,
    ) -> None:
        if public_key is None and keyring is None:
            raise VOFormatError("verifier needs a public key or a key ring")
        self.engine = engine
        self.keyring = keyring
        self.meter = meter
        self._fixed = DigestVerifier(public_key, meter=meter) if public_key else None
        self._by_epoch: dict[int, DigestVerifier] = {}

    def _recover(self, signed: SignedDigest) -> int:
        if self.keyring is not None:
            # Validity re-checked on every recovery (stale-replay defence).
            key = self.keyring.public_key_for(signed.epoch)
            verifier = self._by_epoch.get(signed.epoch)
            if verifier is None:
                verifier = DigestVerifier(key, meter=self.meter)
                self._by_epoch[signed.epoch] = verifier
            return verifier.recover(signed)
        assert self._fixed is not None
        return self._fixed.recover(signed)

    def verify(self, result: NaiveResult) -> bool:
        """Check every tuple's digest; False on any mismatch."""
        try:
            return self._verify(result)
        except (SignatureError, StaleKeyError, VOFormatError):
            return False

    def _verify(self, result: NaiveResult) -> bool:
        if not (
            len(result.rows)
            == len(result.keys)
            == len(result.tuple_digests)
            == len(result.filtered_attr_digests)
        ):
            raise VOFormatError("naive result arrays misaligned")
        filtered = result.filtered_columns
        for row, key, signed_tuple, filtered_sigs in zip(
            result.rows,
            result.keys,
            result.tuple_digests,
            result.filtered_attr_digests,
            strict=True,
        ):
            if len(filtered_sigs) != len(filtered):
                raise VOFormatError("filtered digest arity mismatch")
            attr_values = self.engine.row_attribute_values(
                result.table, result.columns, key, row
            )
            attr_values.extend(self._recover(s) for s in filtered_sigs)
            expected = self._recover(signed_tuple)
            if _paper_tuple_value(self.engine, attr_values) != expected:
                return False
        return True
