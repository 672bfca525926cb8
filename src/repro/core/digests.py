"""Digest computation — formulas (1), (2), (3) of the paper.

Attribute digests are formula (1) as written.  The **tuple** digest is
not the paper's fold of them but a hash over the ordered row (DESIGN.md,
deviation D5 and §21)::

    t = h( ROW | db | table | key | N_c | a_1 ‖ … ‖ a_Nc )

so a hidden attribute is bound as a string inside a hash input — it
cannot be divided out of a product — and the only signature a tuple
needs is its own.  Above the tuple, two digest *policies* are provided
(DESIGN.md, deviation D3):

* :attr:`DigestPolicy.FLATTENED` — our reading of the paper's actual
  scheme.  With the commutative hash ``h(x) = g^x mod n``, the digest
  value that propagates upward is the **exponent product**:

  - node exponent     ``x_N = ∏_child (child exponent)  (mod n)``
    (a leaf's children are tuple digests, an internal node's are the
    child nodes' exponents)

  Lemma 1's equation compares ``g^{x_N} mod n`` with ``g`` raised to the
  product of the VO's values; with ``n = 2^k`` the exponents are reduced
  mod ``n`` anyway, so the verifier compares the exponents themselves —
  the stronger check — and ``g^{x_N}`` is never computed, signed or
  shipped (DESIGN.md §20).

  Because every constituent multiplies into every ancestor's exponent,
  ``D_S`` can be an **unordered set** of signed values (the paper's
  headline simplicity claim), and inserts fold into each node digest
  with a single multiplication (Section 3.4's cheap insert).

* :attr:`DigestPolicy.NESTED` — the conservative hash-of-hashes reading
  (à la Merkle): ``n = H(child digests)``.  Upward flattening is
  impossible, so verification objects must carry node grouping
  (structured VO) and ancestor digests must be recomputed on insert.
  Included as the baseline reading and for ablations.

The :class:`DigestEngine` computes unsigned values; the central server
signs them through :class:`SigningDigestEngine`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Iterable, Sequence

from repro.crypto.commutative import CommutativeHash, ExponentialCommutativeHash
from repro.crypto.encoding import encode_uint, encode_value
from repro.crypto.meter import CostMeter, NULL_METER
from repro.crypto.signatures import DigestSigner, SignedDigest
from repro.db.rows import Row
from repro.exceptions import AuthenticationError

#: Ceiling on cached prefix tuples per engine.  There is one entry per
#: ``(db, table, column tuple)`` — O(tables x projections) — so a real
#: deployment stays far below it; it only keeps results that name
#: ever-new column sets from growing a verifier without bound.
_PREFIX_CACHE_MAX = 1024

#: What opens every row string (formula 2's input).  Every formula-(1)
#: input opens with ``encode_value(db_name)``, i.e. with the string tag
#: ``S``, so no byte string is both.
_ROW_TAG = b"ROW"

__all__ = [
    "DigestPolicy",
    "DigestEngine",
    "SigningDigestEngine",
    "VerifyOnlyDigestEngine",
    "TupleDigests",
]


class DigestPolicy(Enum):
    """How digests propagate up the VB-tree (see module docstring)."""

    FLATTENED = "flattened"
    NESTED = "nested"


@dataclass(frozen=True)
class TupleDigests:
    """All digest material for one tuple.

    Attributes:
        attribute_values: Unsigned attribute digest values, in schema
            column order (formula 1, pre-signature).
        tuple_value: Unsigned tuple digest value (formula 2 as built,
            pre-signature): the hash of the row string over those
            attribute digests, under either policy.
    """

    attribute_values: tuple[int, ...]
    tuple_value: int


class DigestEngine:
    """Computes unsigned digest values for attributes, tuples, nodes.

    Args:
        db_name: Database name bound into every attribute digest.
        commutative: The commutative hash (paper default
            :class:`~repro.crypto.commutative.ExponentialCommutativeHash`).
        policy: FLATTENED (paper) or NESTED (hash-of-hashes).
        meter: Cost meter for the computation-cost benches.

    Note:
        FLATTENED semantics require the exponential combinator, whose
        modulus provides the exponent ring; other combinators only admit
        NESTED.
    """

    def __init__(
        self,
        db_name: str,
        commutative: CommutativeHash | None = None,
        policy: DigestPolicy = DigestPolicy.FLATTENED,
        meter: CostMeter = NULL_METER,
    ) -> None:
        self.db_name = db_name
        self.meter = meter
        self.commutative = commutative or ExponentialCommutativeHash(meter=meter)
        if meter is not NULL_METER and self.commutative.meter is NULL_METER:
            self.commutative.meter = meter
        self.policy = policy
        self._prefixes: dict[
            tuple[str, str, tuple[str, ...]], tuple[bytes, ...]
        ] = {}
        self._row_heads: dict[tuple[str, str], bytes] = {}
        if policy is DigestPolicy.FLATTENED and not isinstance(
            self.commutative, ExponentialCommutativeHash
        ):
            raise AuthenticationError(
                "FLATTENED digests require the exponential commutative hash"
            )

    # ------------------------------------------------------------------
    # Formula (1): attribute digests
    # ------------------------------------------------------------------

    def row_attribute_values(
        self, table: str, columns: Sequence[str], key: Any, values: Sequence[Any]
    ) -> list[int]:
        """Unsigned attribute digests ``h(db | table | attr | key | value)``
        of one row, for ``columns`` and their ``values`` in step: each
        value encoded, then :meth:`encoded_attribute_values`.

        Raises:
            AuthenticationError: If ``values`` and ``columns`` differ in
                length, or a name is not a ``str``.
        """
        return self.encoded_attribute_values(
            table, columns, key, [encode_value(value) for value in values]
        )

    def encoded_attribute_values(
        self, table: str, columns: Sequence[str], key: Any, encodings: Sequence[bytes]
    ) -> list[int]:
        """:meth:`row_attribute_values` over values already in their
        canonical encoding — the bytes a result row's values arrived as.

        This is the one place formula (1)'s input is concatenated
        (:func:`repro.crypto.encoding.digest_input` is its executable
        specification): the ``db | table | attr`` prefixes come from a
        per-``(table, columns)`` cache, the key is encoded once for the
        row, and the commutative hash digests the row's byte strings
        with a single meter update.

        Raises:
            AuthenticationError: If ``encodings`` and ``columns`` differ
                in length, or a name is not a ``str``.
        """
        prefixes = self._attribute_prefixes(table, tuple(columns))
        if len(encodings) != len(prefixes):
            raise AuthenticationError(
                f"{len(encodings)} values for {len(prefixes)} columns"
            )
        key_bytes = encode_value(key)
        return self.commutative.digest_of_many(
            [
                prefix + key_bytes + encoding
                for prefix, encoding in zip(prefixes, encodings, strict=True)
            ]
        )

    def _attribute_prefixes(
        self, table: str, columns: tuple[str, ...]
    ) -> tuple[bytes, ...]:
        """``encode(db) + encode(table) + encode(attr)`` per column.

        The cache key is the whole triple the prefixes are a function
        of.  Names must be exact ``str``: dict keys compare by ``==``,
        under which ``1``, ``1.0`` and ``True`` are one key with three
        encodings, and only strings are free of that.
        """
        cache_key = (self.db_name, table, columns)
        prefixes = self._prefixes.get(cache_key)
        if prefixes is None:
            if any(type(name) is not str for name in (self.db_name, table, *columns)):
                raise AuthenticationError(
                    "database, table and attribute names must be str"
                )
            head = encode_value(self.db_name) + encode_value(table)
            prefixes = tuple(head + encode_value(attr) for attr in columns)
            if len(self._prefixes) >= _PREFIX_CACHE_MAX:
                self._prefixes.clear()
            self._prefixes[cache_key] = prefixes
        return prefixes

    def attribute_value(
        self, table: str, attr: str, key: Any, value: Any
    ) -> int:
        """Unsigned attribute digest
        ``h(db | table | attr | key | value)``."""
        return self.row_attribute_values(table, (attr,), key, (value,))[0]

    # ------------------------------------------------------------------
    # Formula (2): tuple digests
    # ------------------------------------------------------------------

    def pack_digests(self, values: Sequence[int]) -> bytes:
        """``values`` end to end at ``commutative.digest_len`` bytes
        each — the form attribute digests take inside a row string and
        inside ``D_P``."""
        width = self.commutative.digest_len
        return b"".join([value.to_bytes(width, "big") for value in values])

    def tuple_value(self, table: str, key: Any, attribute_digests: bytes) -> int:
        """Unsigned tuple digest ``h(ROW | db | table | key | N_c |
        a_1 ‖ … ‖ a_Nc)`` over the row's packed attribute digests, in
        schema column order (DESIGN.md D5).

        Raises:
            AuthenticationError: If ``attribute_digests`` is empty or
                not a whole number of digests, or ``table`` is not a
                ``str``.
        """
        count, rest = divmod(
            len(attribute_digests), self.commutative.digest_len
        )
        if rest or not count:
            raise AuthenticationError(
                "a tuple needs at least one whole attribute digest"
            )
        return self.commutative.digest_of_bytes(
            self._row_head(table)
            + encode_value(key)
            + encode_uint(count)
            + attribute_digests
        )

    def _row_head(self, table: str) -> bytes:
        """``ROW | encode(db) | encode(table)``, cached like the
        attribute prefixes and for the same reason exact-``str`` only."""
        cache_key = (self.db_name, table)
        head = self._row_heads.get(cache_key)
        if head is None:
            if type(self.db_name) is not str or type(table) is not str:
                raise AuthenticationError("database and table names must be str")
            head = _ROW_TAG + encode_value(self.db_name) + encode_value(table)
            if len(self._row_heads) >= _PREFIX_CACHE_MAX:
                self._row_heads.clear()
            self._row_heads[cache_key] = head
        return head

    def tuple_digests(self, table: str, row: Row) -> TupleDigests:
        """Attribute + tuple digest values for ``row`` (formulas 1-2)."""
        attr_values = self.row_attribute_values(
            table, row.schema.column_names, row.key, row.values
        )
        return TupleDigests(
            attribute_values=tuple(attr_values),
            tuple_value=self.tuple_value(
                table, row.key, self.pack_digests(attr_values)
            ),
        )

    # ------------------------------------------------------------------
    # Formula (3): node digests
    # ------------------------------------------------------------------

    def node_value(self, child_values: Iterable[int]) -> int:
        """Unsigned node digest from child digest values.

        Children of a leaf are tuple values; children of an internal
        node are the child nodes' values.
        """
        values = list(child_values)
        if not values:
            # Only the root of an empty tree; identity element by policy.
            return 1 if self.policy is DigestPolicy.FLATTENED else self.commutative.empty()
        if self.policy is DigestPolicy.FLATTENED:
            return self._product(values)
        return self.commutative.combine(values)

    def fold_into_node(self, node_value: int, tuple_value: int) -> int:
        """The paper's cheap insert: fold a new tuple digest into a node
        digest (Section 3.4).  Only FLATTENED supports this.

        Raises:
            AuthenticationError: Under NESTED (ancestors must recompute).
        """
        if self.policy is not DigestPolicy.FLATTENED:
            raise AuthenticationError(
                "incremental digest folding requires the FLATTENED policy"
            )
        modulus = self.commutative.modulus
        self.meter.count_combine(1)
        return (node_value * (tuple_value | 1)) % modulus

    def _product(self, values: Sequence[int]) -> int:
        """Odd-forced product modulo the hash modulus (exponent ring)."""
        modulus = self.commutative.modulus
        acc = 1
        for v in values:
            if v <= 0:
                raise AuthenticationError("digest values must be positive")
            acc = (acc * (v | 1)) % modulus
        self.meter.count_combine(len(values))
        return acc


class SigningDigestEngine:
    """A :class:`DigestEngine` plus the central server's signer.

    Only the central DBMS holds one of these; edge servers and clients
    get the plain engine plus a verifier.
    """

    def __init__(self, engine: DigestEngine, signer: DigestSigner) -> None:
        self.engine = engine
        self.signer = signer

    @property
    def policy(self) -> DigestPolicy:
        """Digest policy of the wrapped engine."""
        return self.engine.policy

    def sign_value(self, value: int) -> SignedDigest:
        """Sign any digest value (tuple / node)."""
        return self.signer.sign(value)

    def sign_tuple(self, table: str, row: Row) -> tuple[TupleDigests, SignedDigest]:
        """Digest one tuple and sign its digest — the only signature a
        tuple carries.

        Returns:
            ``(digests, signed_tuple)``.
        """
        digests = self.engine.tuple_digests(table, row)
        return digests, self.signer.sign(digests.tuple_value)


class _PublicOnlySigner:
    """The shape of a :class:`~repro.crypto.signatures.DigestSigner`
    minus the ability to sign — what an edge replica is allowed to hold."""

    def __init__(self, public_key, epoch: int) -> None:
        self.public_key = public_key
        self.epoch = epoch

    def sign(self, value: int):
        from repro.exceptions import SignatureError

        raise SignatureError(
            "edge servers hold no private key and cannot sign digests"
        )


class VerifyOnlyDigestEngine:
    """Drop-in for :class:`SigningDigestEngine` on *unsecured* replicas.

    Edge-side VB-trees need the digest engine (for geometry, audits, and
    adversary modelling) and the public key of the epoch their material
    was signed under — but must never hold the private key.  Before the
    transport refactor, replica clones shared the central server's full
    :class:`SigningDigestEngine`, private key included; reconstructing
    replicas from serialized snapshots installs one of these instead.
    """

    def __init__(self, engine: DigestEngine, public_key, epoch: int) -> None:
        self.engine = engine
        self.signer = _PublicOnlySigner(public_key, epoch)

    @property
    def policy(self) -> DigestPolicy:
        """Digest policy of the wrapped engine."""
        return self.engine.policy

    def sign_value(self, value: int):
        """Unavailable on replicas.

        Raises:
            SignatureError: Always.
        """
        return self.signer.sign(value)

    def sign_tuple(self, table: str, row: Row):
        """Unavailable on replicas.

        Raises:
            SignatureError: Always.
        """
        return self.signer.sign(0)
