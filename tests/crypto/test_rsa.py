"""Tests for the textbook RSA primitive."""

import pytest

from repro.crypto.rsa import (
    PUBLIC_EXPONENT,
    RSAKeyPair,
    generate_keypair,
)
from repro.exceptions import KeyGenerationError, SignatureError


@pytest.fixture(scope="module")
def keypair() -> RSAKeyPair:
    return generate_keypair(bits=512, seed=1234)


class TestKeyGeneration:
    def test_modulus_bit_length(self, keypair):
        assert keypair.bits == 512
        assert keypair.public.n == keypair.private.n

    def test_default_public_exponent(self, keypair):
        assert keypair.public.e == PUBLIC_EXPONENT

    def test_deterministic_from_seed(self):
        k1 = generate_keypair(bits=256, seed=99)
        k2 = generate_keypair(bits=256, seed=99)
        assert k1.private.n == k2.private.n
        assert k1.private.d == k2.private.d

    def test_different_seeds_differ(self):
        k1 = generate_keypair(bits=256, seed=1)
        k2 = generate_keypair(bits=256, seed=2)
        assert k1.private.n != k2.private.n

    def test_rejects_odd_bit_sizes(self):
        with pytest.raises(KeyGenerationError):
            generate_keypair(bits=513)

    def test_rejects_tiny_keys(self):
        with pytest.raises(KeyGenerationError):
            generate_keypair(bits=64)

    def test_primes_multiply_to_modulus(self, keypair):
        priv = keypair.private
        assert priv.p * priv.q == priv.n
        assert priv.p != priv.q

    def test_d_is_inverse_of_e(self, keypair):
        priv = keypair.private
        phi = (priv.p - 1) * (priv.q - 1)
        assert (priv.e * priv.d) % phi == 1


class TestRawOperations:
    def test_sign_verify_roundtrip(self, keypair):
        for value in (0, 1, 2, 12345, 2**100, keypair.private.n - 1):
            signed = keypair.private.apply(value)
            assert keypair.public.apply(signed) == value

    def test_signing_is_deterministic(self, keypair):
        assert keypair.private.apply(777) == keypair.private.apply(777)

    def test_crt_matches_plain_exponentiation(self, keypair):
        priv = keypair.private
        value = 987654321
        assert priv.apply(value) == pow(value, priv.d, priv.n)

    def test_precomputed_crt_constants_on_seeded_vectors(self, keypair):
        import random

        priv = keypair.private
        assert priv.dp == priv.d % (priv.p - 1)
        assert priv.dq == priv.d % (priv.q - 1)
        assert (priv.q_inv * priv.q) % priv.p == 1
        rng = random.Random(20040330)
        vectors = [0, 1, priv.p, priv.q, priv.n - 1]
        vectors += [rng.randrange(priv.n) for _ in range(64)]
        for value in vectors:
            assert priv.apply(value) == pow(value, priv.d, priv.n)

    def test_crt_constants_stay_out_of_eq_and_repr(self, keypair):
        from repro.crypto.rsa import RSAPrivateKey

        priv = keypair.private
        twin = RSAPrivateKey(n=priv.n, e=priv.e, d=priv.d, p=priv.p, q=priv.q)
        assert twin == priv and hash(twin) == hash(priv)
        assert "dp=" not in repr(priv) and "q_inv=" not in repr(priv)

    def test_wrong_key_does_not_verify(self, keypair):
        other = generate_keypair(bits=512, seed=4321)
        signed = keypair.private.apply(42)
        assert other.public.apply(signed) != 42

    def test_value_out_of_range_rejected(self, keypair):
        with pytest.raises(SignatureError):
            keypair.private.apply(keypair.private.n)
        with pytest.raises(SignatureError):
            keypair.public.apply(-1)

    def test_signature_len(self, keypair):
        assert keypair.public.signature_len == 64  # 512 bits

    def test_public_key_fingerprint_stable(self, keypair):
        assert keypair.public.fingerprint() == keypair.public.fingerprint()
