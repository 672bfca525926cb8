"""Client-side verification of authenticated query results (Lemmas 1-2).

The client trusts only the central server's public key(s).  Given an
:class:`~repro.core.vo.AuthenticatedResult` from an edge server, it
recomputes the attribute digests of the returned values — over the
bytes each value arrived as, which canonical decoding makes the value's
one encoding (DESIGN.md §27) — splices the
hidden attributes' bare digests from ``D_P`` between them at the
positions ``all_columns`` assigns, hashes each row into its tuple digest
(DESIGN.md D5), folds those with the signed digests from ``D_S`` (after
decrypting them with the public key), and compares the outcome against
the value recovered from the signed top digest ``D_N``, the top node's
own signature (comparing the values is strictly stronger than comparing
``g^value``: DESIGN.md §20).

Any of the following makes verification fail:

* a tampered attribute value (the recomputed attribute digest changes),
  a value moved to another column, or any changed byte of ``D_P`` (the
  row hash changes);
* a spurious / duplicated / reordered-across-leaves tuple;
* a forged or corrupted signature, including one that recovers to a
  value no digest can take (``>=`` the commutative-hash modulus — what a
  product of two textbook-RSA signatures yields);
* a signature from an expired key epoch (stale-data replay, Section
  3.4) — when a :class:`~repro.crypto.keyring.KeyRing` is supplied;
* a malformed VO (slot collisions, missing positions, ...).

Verification returns a :class:`Verdict` rather than raising, so callers
can treat tampering as data, not control flow.

A verifier is stateful in exactly one way: it remembers the value every
signature it has already decrypted recovered to (DESIGN.md §23), so a
signed digest it meets again — the upper nodes and hot leaves that every
envelope repeats — costs a dictionary probe, not a ``pow``.  The key
ring is still asked on every use; a fresh verifier is the cold one.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.digests import DigestEngine, DigestPolicy
from repro.core.vo import AuthenticatedResult, VOFormat
from repro.crypto.keyring import KeyRing
from repro.crypto.meter import CostMeter, NULL_METER
from repro.crypto.rsa import RSAPublicKey
from repro.crypto.signatures import DigestVerifier, SignedDigest
from repro.exceptions import (
    AuthenticationError,
    EncodingError,
    SignatureError,
    StaleKeyError,
    VOFormatError,
)

__all__ = ["Verdict", "ResultVerifier"]

#: Ceiling on remembered recoveries per verifier, sized by memory: an
#: entry is ≈ 265 B at 512-bit keys, so ≤ ≈ 2.2 MB.  A table of 2 000
#: rows has 2 079 signatures; a verifier that has met more than this
#: many distinct ones starts over, which also bounds what an edge
#: replaying old valid signatures can make a client hold.
_RECOVERED_MAX = 8192


@dataclass
class Verdict:
    """Outcome of verifying one authenticated result.

    Attributes:
        ok: True if the result is proven consistent with the signatures.
        reason: Human-readable explanation (``"verified"`` on success).
        rows_checked: Number of result tuples covered by the check.
        digests_decrypted: Public-key operations this verification made
            (the paper's ``Cost_v``), counted by the verifier itself —
            attempts that failed included.
        digests_recalled: Signed digests whose value this verifier had
            already recovered and did not decrypt again.  On an accepted
            result the two sum to ``vo.digest_count()``; on a verifier's
            first result ``digests_recalled`` is 0.
    """

    ok: bool
    reason: str = "verified"
    rows_checked: int = 0
    digests_decrypted: int = 0
    digests_recalled: int = 0


class ResultVerifier:
    """Verifies authenticated results against the central server's key.

    Args:
        engine: Digest engine configured identically to the central
            server's (same commutative hash, policy, db name).
        public_key: The central server's public key — used only when no
            key ring is supplied, and then for every epoch a signature
            claims (the claim must still match the epoch the signature
            embeds); ignored beside a key ring.
        keyring: Optional key-epoch registry; enables stale-replay
            detection on rotated keys.
        meter: Cost meter (hashes/combines/verifies) for the benches;
            ``verifies`` counts real decryptions only.
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
        self._public_key = public_key
        #: ``(n, e, signed bytes) -> value``: what the signature (whose
        #: bytes end in the epoch it claims) recovered to under that key,
        #: stored only after every check passed.
        self._recovered: dict[tuple[int, int, SignedDigest], int] = {}
        self._decrypted = self._recalled = 0

    # ------------------------------------------------------------------
    # Signature recovery with epoch validation
    # ------------------------------------------------------------------

    def _recover(self, signed: SignedDigest) -> int:
        """The value of a signed digest, enforcing epoch validity and
        that the value is one a digest can take — decrypted on first
        sight, remembered after."""
        # Validity must be re-checked on EVERY use, remembered or not: an
        # epoch that was acceptable earlier may since have expired (stale
        # replay).  Without a ring every claimed epoch resolves to the one
        # key.
        ring = self.keyring
        key = ring.public_key_for(signed.epoch) if ring is not None else self._public_key
        memo_key = (key.n, key.e, signed)
        value = self._recovered.get(memo_key)
        if value is not None:
            self._recalled += 1
            return value
        if len(signed) != key.signature_len + 2:  # refused before any pow
            raise SignatureError("signed digest is not the key's width")
        self._decrypted += 1
        value = DigestVerifier(key, meter=self.meter).recover(signed)
        if value >= self.engine.commutative.modulus:
            raise SignatureError(
                "recovered value is wider than any digest the central "
                "server signs"
            )
        if len(self._recovered) >= _RECOVERED_MAX:
            self._recovered.clear()
        self._recovered[memo_key] = value
        return value

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def verify(self, result: AuthenticatedResult) -> Verdict:
        """Verify one authenticated result (Lemmas 1 and 2)."""
        self._decrypted = self._recalled = 0
        try:
            self._structural_checks(result)
            if result.vo.format is VOFormat.FLAT_SET:
                ok = self._verify_flat(result)
            else:
                ok = self._verify_structured(result)
        except StaleKeyError as exc:
            return self._verdict(result, False, f"stale key epoch: {exc}")
        except SignatureError as exc:
            return self._verdict(result, False, f"bad signature: {exc}")
        except (AuthenticationError, EncodingError) as exc:
            # A VO the verifier cannot even parse, and a key or value the
            # codec cannot encode (a row handed over in process), are
            # both a malformed result.
            return self._verdict(result, False, f"malformed VO: {exc}")
        if not ok:
            return self._verdict(
                result, False, "digest mismatch: result tampered or VO wrong"
            )
        return self._verdict(result, True, "verified")

    def _verdict(
        self, result: AuthenticatedResult, ok: bool, reason: str
    ) -> Verdict:
        return Verdict(
            ok=ok,
            reason=reason,
            rows_checked=result.num_rows,
            digests_decrypted=self._decrypted,
            digests_recalled=self._recalled,
        )

    # ------------------------------------------------------------------
    # Shared plumbing
    # ------------------------------------------------------------------

    def _structural_checks(self, result: AuthenticatedResult) -> None:
        vo = result.vo
        if len(result.rows) != len(result.keys):
            raise VOFormatError("rows/keys length mismatch")
        if vo.format is VOFormat.FLAT_SET and vo.policy is not DigestPolicy.FLATTENED:
            raise VOFormatError("FLAT_SET VO under a non-FLATTENED policy")
        if vo.format is VOFormat.STRUCTURED:
            if vo.result_positions is None or len(vo.result_positions) != len(
                result.rows
            ):
                raise VOFormatError("missing/misaligned result positions")
        if type(result.table) is not str or any(
            type(name) is not str for name in result.all_columns
        ):
            raise VOFormatError("table and column names must be strings")
        # The row hash is positional, so name -> position must be a map.
        if not result.all_columns:
            raise VOFormatError("result declares a table without columns")
        if len(set(result.all_columns)) != len(result.all_columns):
            raise VOFormatError("duplicate schema columns")
        if result.key_column not in result.all_columns:
            raise VOFormatError(f"key column {result.key_column!r} not in schema")
        for name in result.columns:
            if name not in result.all_columns:
                raise VOFormatError(f"returned column {name!r} not in schema")
        if len(set(result.columns)) != len(result.columns):
            raise VOFormatError("duplicate returned columns")
        width = len(result.columns)
        if any(len(row) != width for row in result.rows):
            raise VOFormatError("result row width differs from column count")
        hidden = len(result.all_columns) - width
        if len(vo.projection_digests) != (
            len(result.rows) * hidden * self.engine.commutative.digest_len
        ):
            raise VOFormatError("D_P length does not match projection width")

    def _tuple_values(self, result: AuthenticatedResult) -> list[int]:
        """Formula (2) of every result tuple, in one kernel call: the
        digests of returned columns computed over the bytes each value
        arrived as (encoded afresh only for a row that is not the tuple
        those bytes decoded to), those of hidden columns spliced — as
        bytes, never parsed — from ``D_P``, each at the position
        ``all_columns`` assigns it, and the row hashed."""
        return self.engine.tuple_values(
            result.table,
            result.columns,
            result.keys,
            list(result.value_encodings()),
            result.all_columns,
            result.vo.projection_digests,
        )

    # ------------------------------------------------------------------
    # FLAT_SET verification (the paper's equations 4-5)
    # ------------------------------------------------------------------

    def _verify_flat(self, result: AuthenticatedResult) -> bool:
        vo = result.vo
        modulus = self.engine.commutative.modulus
        product = 1
        # Result tuples: one row hash each (already odd: a unit of the
        # ring).
        for value in self._tuple_values(result):
            product = (product * value) % modulus
        # D_S: filtered tuples and pruned branches (unordered, Lemma 1).
        for entry in vo.selection_entries:
            product = (product * (self._recover(entry.signed) | 1)) % modulus
        self.meter.count_combine(len(result.rows) + len(vo.selection_entries))
        return product == self._recover(vo.top_signed)

    # ------------------------------------------------------------------
    # STRUCTURED verification (node-by-node rebuild)
    # ------------------------------------------------------------------

    def _verify_structured(self, result: AuthenticatedResult) -> bool:
        vo = result.vo
        # path -> slot -> digest value
        slots: dict[tuple[int, ...], dict[int, int]] = {}

        def place(path: tuple[int, ...], slot: int, value: int) -> None:
            node = slots.setdefault(path, {})
            if slot in node:
                raise VOFormatError(
                    f"slot collision at path={path} slot={slot}"
                )
            node[slot] = value

        assert vo.result_positions is not None
        for (path, slot), value in zip(
            vo.result_positions, self._tuple_values(result), strict=True
        ):
            place(tuple(path), slot, value)

        for entry in vo.selection_entries:
            if entry.path is None or entry.slot is None:
                raise VOFormatError("structured D_S entry missing position")
            place(tuple(entry.path), entry.slot, self._recover(entry.signed))

        if not slots:
            raise VOFormatError("empty VO: nothing to verify")

        # Fold nodes bottom-up, one level at a time: folding a node at
        # depth d places its value into its parent at depth d-1, which
        # the next iteration then picks up.
        max_depth = max(len(p) for p in slots)
        for depth in range(max_depth, 0, -1):
            for path in [p for p in slots if len(p) == depth]:
                node_slots = slots.pop(path)
                value = self.engine.node_value(
                    node_slots[s] for s in sorted(node_slots)
                )
                place(path[:-1], path[-1], value)

        top_slots = slots.get(())
        if not top_slots:
            raise VOFormatError("VO never reaches the envelope top")
        top_value = self.engine.node_value(
            top_slots[s] for s in sorted(top_slots)
        )
        return top_value == self._recover(vo.top_signed)
