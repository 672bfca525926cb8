"""Tests for digest signing, verification, epochs and the key ring."""

import pytest

from repro.crypto.keyring import KeyRing
from repro.crypto.meter import CostMeter
from repro.crypto.rsa import generate_keypair
from repro.crypto.signatures import DigestSigner, DigestVerifier, SignedDigest
from repro.exceptions import SignatureError, StaleKeyError

from tests.core.conftest import flip_bit, relabel


@pytest.fixture(scope="module")
def keypair():
    return generate_keypair(bits=512, seed=2024)


@pytest.fixture
def signer(keypair):
    return DigestSigner.from_keypair(keypair)


@pytest.fixture
def verifier(keypair):
    return DigestVerifier(keypair.public)


class TestSignVerify:
    def test_roundtrip(self, signer, verifier):
        signed = signer.sign(123456789)
        assert verifier.recover(signed) == 123456789
        assert verifier.verify_value(signed, 123456789)

    def test_wrong_value_rejected(self, signer, verifier):
        signed = signer.sign(42)
        assert not verifier.verify_value(signed, 43)

    def test_tampered_signature_rejected(self, signer, verifier):
        signed = signer.sign(42)
        assert not verifier.verify_value(flip_bit(signed), 42)

    def test_epoch_mismatch_detected(self, signer, verifier):
        signed = signer.sign(42)
        with pytest.raises(SignatureError, match="epoch mismatch"):
            verifier.recover(relabel(signed, signed.epoch + 1))

    def test_negative_value_rejected(self, signer):
        with pytest.raises(SignatureError):
            signer.sign(-1)

    def test_oversized_value_rejected(self, signer):
        with pytest.raises(SignatureError):
            signer.sign(signer.max_value + 1)

    def test_max_value_signable(self, signer, verifier):
        signed = signer.sign(signer.max_value)
        assert verifier.recover(signed) == signer.max_value

    def test_deterministic_signature(self, signer):
        assert signer.sign(7) == signer.sign(7)

    def test_distinct_epochs_distinct_signatures(self, keypair):
        s0 = DigestSigner.from_keypair(keypair, epoch=0)
        s1 = DigestSigner.from_keypair(keypair, epoch=1)
        assert s0.sign(7)[:-2] != s1.sign(7)[:-2]

    def test_invalid_epoch_rejected(self, keypair):
        with pytest.raises(SignatureError):
            DigestSigner.from_keypair(keypair, epoch=1 << 16)


class TestWireFormat:
    """A signed digest is its wire bytes: ``signature ‖ epoch``."""

    def test_is_signature_then_epoch(self, keypair, verifier):
        signer = DigestSigner.from_keypair(keypair, epoch=0x0102)
        signed = signer.sign(555)
        assert isinstance(signed, bytes)
        assert len(signed) == verifier.signature_len + 2
        assert signed[-2:] == b"\x01\x02" and signed.epoch == 0x0102
        assert pow(int.from_bytes(signed[:-2], "big"), keypair.public.e,
                   keypair.public.n) == 555 * (1 << 16) + 0x0102
        assert SignedDigest(bytes(signed)) == signed  # bytes in, same digest

    @pytest.mark.parametrize("width_change", [-1, 1, -10])
    def test_wrong_width_refused_before_any_pow(self, signer, keypair, width_change):
        meter = CostMeter()
        verifier = DigestVerifier(keypair.public, meter=meter)
        signed = signer.sign(555)
        odd = SignedDigest(
            signed[:-2][:width_change] if width_change < 0
            else b"\x00" * width_change + signed
        )
        with pytest.raises(SignatureError, match="must be"):
            verifier.recover(odd)
        assert meter.verifies == 0
        assert not verifier.verify_value(odd, 555)


class TestMetering:
    def test_counts(self, keypair):
        meter = CostMeter()
        signer = DigestSigner.from_keypair(keypair, meter=meter)
        verifier = DigestVerifier(keypair.public, meter=meter)
        signed = signer.sign(9)
        verifier.recover(signed)
        verifier.verify_value(signed, 9)
        assert meter.signs == 1
        assert meter.verifies == 2


class TestKeyRing:
    def test_register_and_lookup(self, keypair):
        ring = KeyRing()
        rec = ring.register(keypair.public)
        assert rec.epoch == 0
        assert ring.current_epoch == 0
        assert ring.public_key_for(0) is keypair.public

    def test_unknown_epoch(self, keypair):
        ring = KeyRing()
        ring.register(keypair.public)
        with pytest.raises(StaleKeyError):
            ring.public_key_for(5)

    def test_rotation_expires_old_epoch(self, keypair):
        k2 = generate_keypair(bits=512, seed=11)
        ring = KeyRing()
        ring.register(keypair.public)
        ring.register(k2.public)          # epoch 1; epoch 0 expires at t=0
        assert ring.is_valid(0)           # still within same tick
        ring.tick()
        assert not ring.is_valid(0)       # stale now
        assert ring.is_valid(1)

    def test_grace_window(self, keypair):
        k2 = generate_keypair(bits=512, seed=12)
        ring = KeyRing(grace=2)
        ring.register(keypair.public)
        ring.register(k2.public)
        ring.tick(2)
        assert ring.is_valid(0)           # within grace
        ring.tick(1)
        assert not ring.is_valid(0)       # beyond grace

    def test_no_epoch_registered(self):
        ring = KeyRing()
        with pytest.raises(StaleKeyError):
            _ = ring.current_epoch

    def test_time_cannot_reverse(self, keypair):
        ring = KeyRing()
        with pytest.raises(ValueError):
            ring.tick(-1)


class TestCostMeter:
    def test_snapshot_and_reset(self):
        meter = CostMeter()
        meter.count_hash(10)
        meter.count_bytes_sent(100)
        snap = meter.snapshot()
        assert snap["hashes"] == 1
        assert snap["bytes_sent"] == 100
        meter.reset()
        assert meter.hashes == 0
        assert meter.bytes_sent == 0

    def test_weighted_cost(self):
        from repro.crypto.meter import CostWeights

        meter = CostMeter()
        meter.count_hash()
        meter.count_combine(10)
        meter.count_verify(2)
        weights = CostWeights(cost_hash=1, cost_combine=0.1, cost_verify=10)
        assert meter.cost(weights) == pytest.approx(1 + 1 + 20)

    def test_null_meter_ignores(self):
        from repro.crypto.meter import NULL_METER

        NULL_METER.count_hash(5)
        NULL_METER.count_sign()
        assert NULL_METER.hashes == 0
        assert NULL_METER.signs == 0
