"""Client-side verification of authenticated query results (Lemmas 1-2).

The client trusts only the central server's public key(s).  Given an
:class:`~repro.core.vo.AuthenticatedResult` from an edge server, it
recomputes digests from the returned values, folds in the signed
digests from ``D_S``/``D_P`` (after decrypting them with the public
key), and compares the outcome against the value recovered from the
signed top digest ``D_N``, the top node's own signature (comparing the
values is strictly stronger than comparing ``g^value``: DESIGN.md §20).

Any of the following makes verification fail:

* a tampered attribute value (the recomputed attribute digest changes);
* a spurious / duplicated / reordered-across-leaves tuple;
* a forged or corrupted signature, including one that recovers to a
  value no digest can take (``>=`` the commutative-hash modulus — what a
  product of two textbook-RSA signatures yields);
* a signature from an expired key epoch (stale-data replay, Section
  3.4) — when a :class:`~repro.crypto.keyring.KeyRing` is supplied;
* a malformed VO (slot collisions, missing positions, ...).

Verification returns a :class:`Verdict` rather than raising, so callers
can treat tampering as data, not control flow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core.digests import DigestEngine, DigestPolicy
from repro.core.vo import (
    AuthenticatedResult,
    VerificationObject,
    VOEntry,
    VOEntryKind,
    VOFormat,
)
from repro.crypto.keyring import KeyRing
from repro.crypto.meter import CostMeter, NULL_METER
from repro.crypto.rsa import RSAPublicKey
from repro.crypto.signatures import DigestVerifier, SignedDigest
from repro.exceptions import (
    SignatureError,
    StaleKeyError,
    VOFormatError,
)

__all__ = ["Verdict", "ResultVerifier"]


@dataclass
class Verdict:
    """Outcome of verifying one authenticated result.

    Attributes:
        ok: True if the result is proven consistent with the signatures.
        reason: Human-readable explanation (``"verified"`` on success).
        rows_checked: Number of result tuples covered by the check.
        digests_decrypted: Signature decryptions performed (``Cost_v``).
    """

    ok: bool
    reason: str = "verified"
    rows_checked: int = 0
    digests_decrypted: int = 0


class ResultVerifier:
    """Verifies authenticated results against the central server's key.

    Args:
        engine: Digest engine configured identically to the central
            server's (same commutative hash, policy, db name).
        public_key: The central server's public key — used when no key
            ring is supplied, or as a fallback for epoch 0.
        keyring: Optional key-epoch registry; enables stale-replay
            detection on rotated keys.
        meter: Cost meter (hashes/combines/verifies) for the benches.
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
        self._fixed_verifier = (
            DigestVerifier(public_key, meter=meter) if public_key else None
        )
        self._epoch_verifiers: dict[int, DigestVerifier] = {}

    # ------------------------------------------------------------------
    # Signature recovery with epoch validation
    # ------------------------------------------------------------------

    def _verifier_for(self, signed: SignedDigest) -> DigestVerifier:
        if self.keyring is not None:
            # Validity must be re-checked on EVERY recovery: an epoch that
            # was acceptable earlier may since have expired (stale replay).
            key = self.keyring.public_key_for(signed.epoch)  # may raise
            cached = self._epoch_verifiers.get(signed.epoch)
            if cached is None:
                cached = DigestVerifier(key, meter=self.meter)
                self._epoch_verifiers[signed.epoch] = cached
            return cached
        assert self._fixed_verifier is not None
        return self._fixed_verifier

    def _recover(self, signed: SignedDigest) -> int:
        """Decrypt a signed digest, enforcing epoch validity and that
        the recovered value is one a digest can take."""
        value = self._verifier_for(signed).recover(signed)
        if value >= self.engine.commutative.modulus:
            raise SignatureError(
                "recovered value is wider than any digest the central "
                "server signs"
            )
        return value

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def verify(self, result: AuthenticatedResult) -> Verdict:
        """Verify one authenticated result (Lemmas 1 and 2)."""
        meter_before = self.meter.verifies
        try:
            self._structural_checks(result)
            if result.vo.format is VOFormat.FLAT_SET:
                ok = self._verify_flat(result)
            else:
                ok = self._verify_structured(result)
        except StaleKeyError as exc:
            return self._verdict(result, False, f"stale key epoch: {exc}", meter_before)
        except SignatureError as exc:
            return self._verdict(result, False, f"bad signature: {exc}", meter_before)
        except VOFormatError as exc:
            return self._verdict(result, False, f"malformed VO: {exc}", meter_before)
        if not ok:
            return self._verdict(
                result, False, "digest mismatch: result tampered or VO wrong",
                meter_before,
            )
        return self._verdict(result, True, "verified", meter_before)

    def _verdict(
        self,
        result: AuthenticatedResult,
        ok: bool,
        reason: str,
        meter_before: int,
    ) -> Verdict:
        return Verdict(
            ok=ok,
            reason=reason,
            rows_checked=result.num_rows,
            digests_decrypted=self.meter.verifies - meter_before,
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
        for name in result.columns:
            if name not in result.all_columns:
                raise VOFormatError(f"returned column {name!r} not in schema")
        if len(set(result.columns)) != len(result.columns):
            raise VOFormatError("duplicate returned columns")
        width = len(result.columns)
        if any(len(row) != width for row in result.rows):
            raise VOFormatError("result row width differs from column count")

    def _attribute_values_for_row(
        self,
        result: AuthenticatedResult,
        row_index: int,
        projection_by_row: dict[int, list[int]],
    ) -> list[int]:
        """Attribute digest values of one result tuple: recomputed for
        returned columns, recovered from ``D_P`` for filtered ones."""
        values = self.engine.row_attribute_values(
            result.table,
            result.columns,
            result.keys[row_index],
            result.rows[row_index],
        )
        values.extend(projection_by_row.get(row_index, ()))
        expected = len(result.all_columns)
        if len(values) != expected:
            raise VOFormatError(
                f"row {row_index}: {len(values)} attribute digests for "
                f"{expected} columns"
            )
        return values

    def _projection_by_row(
        self, result: AuthenticatedResult
    ) -> dict[int, list[int]]:
        """Group recovered D_P values by result row (STRUCTURED only)."""
        grouped: dict[int, list[int]] = {}
        filtered_count = len(result.all_columns) - len(result.columns)
        for entry in result.vo.projection_entries:
            if entry.row_index is None:
                raise VOFormatError("structured D_P entry missing row index")
            grouped.setdefault(entry.row_index, []).append(
                self._recover(entry.signed)
            )
        for row_index, values in grouped.items():
            if row_index >= len(result.rows):
                raise VOFormatError("D_P entry references missing row")
            if len(values) != filtered_count:
                raise VOFormatError(
                    f"row {row_index}: {len(values)} projection digests for "
                    f"{filtered_count} filtered columns"
                )
        if filtered_count and len(grouped) != len(result.rows):
            raise VOFormatError("projection digests missing for some rows")
        return grouped

    # ------------------------------------------------------------------
    # FLAT_SET verification (the paper's equations 4-5)
    # ------------------------------------------------------------------

    def _verify_flat(self, result: AuthenticatedResult) -> bool:
        vo = result.vo
        modulus = self.engine.commutative.modulus
        row_values = self.engine.row_attribute_values
        table, columns = result.table, result.columns
        product = 1
        # Result tuples: recomputed attribute digests of returned columns.
        for key, row in zip(result.keys, result.rows, strict=True):
            for a in row_values(table, columns, key, row):
                product = (product * (a | 1)) % modulus
        self.meter.count_combine(len(columns) * len(result.rows))
        # D_P: filtered attribute digests (unordered — the flattening
        # makes per-row grouping unnecessary, Lemma 2).
        filtered_count = len(result.all_columns) - len(result.columns)
        if len(vo.projection_entries) != filtered_count * len(result.rows):
            raise VOFormatError(
                "D_P cardinality does not match projection width"
            )
        for entry in vo.projection_entries:
            v = self._recover(entry.signed)
            product = (product * (v | 1)) % modulus
            self.meter.count_combine(1)
        # D_S: filtered tuples and pruned branches (unordered, Lemma 1).
        for entry in vo.selection_entries:
            v = self._recover(entry.signed)
            product = (product * (v | 1)) % modulus
            self.meter.count_combine(1)
        return product == self._recover(vo.top_signed)

    # ------------------------------------------------------------------
    # STRUCTURED verification (node-by-node rebuild)
    # ------------------------------------------------------------------

    def _verify_structured(self, result: AuthenticatedResult) -> bool:
        vo = result.vo
        projection_by_row = self._projection_by_row(result)
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
        for row_index, (path, slot) in enumerate(vo.result_positions):
            attr_values = self._attribute_values_for_row(
                result, row_index, projection_by_row
            )
            place(tuple(path), slot, self.engine.tuple_value(attr_values))

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
