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
from repro.exceptions import AuthenticationError, SignatureError

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
        attribute_digests: The unsigned attribute digests (formula 1),
            packed in schema column order.
        tuple_value: Unsigned tuple digest value (formula 2 as built,
            pre-signature): the hash of the row string over those
            attribute digests, under either policy.
    """

    attribute_digests: bytes
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
            tuple[str, str, tuple[str, ...]], tuple[bytes, tuple[bytes, ...]]
        ] = {}
        if policy is DigestPolicy.FLATTENED and not isinstance(
            self.commutative, ExponentialCommutativeHash
        ):
            raise AuthenticationError(
                "FLATTENED digests require the exponential commutative hash"
            )

    # ------------------------------------------------------------------
    # Formulas (1) and (2): the kernel, a result at a time
    # ------------------------------------------------------------------

    def attribute_digests(
        self, table: str, columns: Sequence[str], keys: Sequence[Any],
        encodings: Sequence[Sequence[bytes]],
    ) -> bytes:
        """Formula (1) for a whole result: ``h(db | table | attr | key |
        value)`` of every row's ``columns``, packed — ``digest_len``
        bytes each, row after row, the form attribute digests take in a
        row string and in ``D_P``.

        ``encodings`` holds each row's values in their canonical
        encoding (the bytes a result value arrived as).  This is the one
        place formula (1)'s input is concatenated
        (:func:`repro.crypto.encoding.digest_input` is its executable
        specification): the ``db | table | attr`` prefixes are looked up
        once per result, each key is encoded once, and the commutative
        hash digests the whole result with one meter update.

        Raises:
            AuthenticationError: If keys and rows differ in number, a row
                and ``columns`` differ in width, or a name is not a
                ``str``.
            EncodingError: If a key has no canonical encoding.
        """
        return self._kernel(table, columns, keys, encodings)[2]

    def tuple_values(
        self, table: str, columns: Sequence[str], keys: Sequence[Any],
        encodings: Sequence[Sequence[bytes]],
        all_columns: Sequence[str] | None = None, hidden: bytes = b"",
    ) -> list[int]:
        """Formula (2) for a whole result: each row hashed over its
        attribute digests in ``all_columns`` order (DESIGN.md D5) —
        those of ``columns`` from :meth:`attribute_digests`, every other
        column's spliced, as bytes, from ``hidden`` (``D_P``: per row,
        the digests of the columns ``columns`` leaves out, in schema
        order).  ``all_columns`` defaults to ``columns``: a full row.
        The row head and ``encode(N_c)`` are made once, each key is
        encoded once for both formulas.

        Raises:
            AuthenticationError: As :meth:`attribute_digests`, or for a
                row of no attributes.
            EncodingError: If a key has no canonical encoding.
        """
        head, key_bytes, block = self._kernel(table, columns, keys, encodings)
        width = self.commutative.digest_len
        own = len(columns) * width
        rows = [block[i * own : (i + 1) * own] for i in range(len(key_bytes))]
        if all_columns is None or tuple(all_columns) == tuple(columns):
            all_columns = columns
        else:
            # A row's own digests, then its stride of D_P, read back in
            # schema order.
            order = [*columns, *(name for name in all_columns if name not in columns)]
            offsets = [order.index(name) * width for name in all_columns]
            stride = len(offsets) * width - own
            rows = [
                b"".join([both[at : at + width] for at in offsets])
                for both in (
                    row + hidden[i * stride : (i + 1) * stride]
                    for i, row in enumerate(rows)
                )
            ]
        return self._row_values(head, key_bytes, rows, len(all_columns))

    def _kernel(
        self, table: str, columns: Sequence[str], keys: Sequence[Any],
        encodings: Sequence[Sequence[bytes]],
    ) -> tuple[bytes, list[bytes], bytes]:
        """The row head, the keys' encodings and :meth:`attribute_digests`."""
        head, prefixes = self._prefixes_for(table, tuple(columns))
        width = len(prefixes)
        if len(keys) != len(encodings) or set(map(len, encodings)) - {width}:
            raise AuthenticationError(
                f"{len(encodings)} rows of values for {len(keys)} keys "
                f"and {width} columns"
            )
        key_bytes = [encode_value(key) for key in keys]
        chunks = [
            prefix + key + value
            for key, row in zip(key_bytes, encodings)
            for prefix, value in zip(prefixes, row)
        ]
        return head, key_bytes, self.commutative.digest_block(chunks)

    def _row_values(
        self, head: bytes, key_bytes: Sequence[bytes], rows: Sequence[bytes], count: int
    ) -> list[int]:
        """Formula (2) over each row's packed attribute digests."""
        if not count:
            raise AuthenticationError("a tuple needs at least one attribute digest")
        tail = encode_uint(count)
        return self._values(self.commutative.digest_block(
            [head + key + tail + row for key, row in zip(key_bytes, rows, strict=True)]
        ))

    def _values(self, block: bytes) -> list[int]:
        """The integers of a packed block's digests."""
        width, from_bytes = self.commutative.digest_len, int.from_bytes
        return [
            from_bytes(block[i : i + width], "big") for i in range(0, len(block), width)
        ]

    def _prefixes_for(
        self, table: str, columns: tuple[str, ...]
    ) -> tuple[bytes, tuple[bytes, ...]]:
        """The row head ``ROW | encode(db) | encode(table)`` and
        ``encode(db) + encode(table) + encode(attr)`` per column.

        The cache key is the whole triple they are a function of.  Names
        must be exact ``str``: dict keys compare by ``==``, under which
        ``1``, ``1.0`` and ``True`` are one key with three encodings,
        and only strings are free of that.
        """
        cache_key = (self.db_name, table, columns)
        cached = self._prefixes.get(cache_key)
        if cached is None:
            if any(type(name) is not str for name in (self.db_name, table, *columns)):
                raise AuthenticationError(
                    "database, table and attribute names must be str"
                )
            head = encode_value(self.db_name) + encode_value(table)
            cached = (
                _ROW_TAG + head,
                tuple(head + encode_value(attr) for attr in columns),
            )
            if len(self._prefixes) >= _PREFIX_CACHE_MAX:
                self._prefixes.clear()
            self._prefixes[cache_key] = cached
        return cached

    def row_attribute_values(
        self, table: str, columns: Sequence[str], key: Any, values: Sequence[Any]
    ) -> list[int]:
        """The ``int`` attribute digests of one row's ``values``: each
        value encoded, then :meth:`attribute_digests`."""
        encodings = ([encode_value(value) for value in values],)
        return self._values(self.attribute_digests(table, columns, (key,), encodings))

    def attribute_value(
        self, table: str, attr: str, key: Any, value: Any
    ) -> int:
        """Unsigned attribute digest
        ``h(db | table | attr | key | value)``."""
        return self.row_attribute_values(table, (attr,), key, (value,))[0]

    def tuple_value(self, table: str, key: Any, attribute_digests: bytes) -> int:
        """Unsigned tuple digest ``h(ROW | db | table | key | N_c |
        a_1 ‖ … ‖ a_Nc)`` over one row's packed attribute digests, in
        schema column order (DESIGN.md D5).

        Raises:
            AuthenticationError: If ``attribute_digests`` is empty or
                not a whole number of digests, or ``table`` is not a
                ``str``.
        """
        count, rest = divmod(len(attribute_digests), self.commutative.digest_len)
        if rest:
            raise AuthenticationError("a tuple needs whole attribute digests")
        head = self._prefixes_for(table, ())[0]
        key_bytes = [encode_value(key)]
        return self._row_values(head, key_bytes, [attribute_digests], count)[0]

    def tuple_digests(self, table: str, row: Row) -> TupleDigests:
        """Attribute + tuple digest values for ``row`` (formulas 1-2):
        the kernel over a one-row result."""
        columns = row.schema.column_names
        head, key_bytes, block = self._kernel(
            table, columns, (row.key,), ([encode_value(v) for v in row.values],)
        )
        value = self._row_values(head, key_bytes, (block,), len(columns))[0]
        return TupleDigests(block, value)

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
        raise SignatureError(
            "edge servers hold no private key and cannot sign digests"
        )


class VerifyOnlyDigestEngine(SigningDigestEngine):
    """A :class:`SigningDigestEngine` over a signer that cannot sign:
    what an *unsecured* replica installs.

    Edge-side VB-trees need the digest engine (for geometry, audits, and
    adversary modelling) and the public key of the epoch their material
    was signed under — but must never hold the private key.  Every
    ``sign_*`` call raises :class:`~repro.exceptions.SignatureError`.
    """

    def __init__(self, engine: DigestEngine, public_key, epoch: int) -> None:
        super().__init__(engine, _PublicOnlySigner(public_key, epoch))
