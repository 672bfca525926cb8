"""The recovery memo is a function cache and nothing else (DESIGN.md §23).

A :class:`~repro.core.verify.ResultVerifier` remembers what every
signature it has decrypted recovered to.  These tests hold that memory
to the only thing it may be — a cache of the pure function
``(n, e, signed bytes) -> value`` — by showing that a verifier which
has seen a great deal and one which has seen nothing say the same thing
about every result, honest or hostile, and that nothing the key ring
decides is ever answered from memory.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core import verify as verify_module
from repro.core.digests import DigestEngine, DigestPolicy
from repro.core.verify import ResultVerifier
from repro.core.vo import VOFormat
from repro.crypto.keyring import KeyRing
from repro.crypto.meter import NULL_METER, CostMeter
from repro.crypto.signatures import DigestSigner
from repro.edge.adversary import (
    DropTuple,
    ResponseTamper,
    SpuriousTuple,
    ValueTamper,
)
from repro.edge.central import CentralServer
from repro.workloads.generator import TableSpec, generate_table

from tests.core.conftest import flip_bit, relabel

DB = "memodb"
ROWS = 240

#: Every (digest policy, VO format) pair the verifier accepts.
COMBOS = [
    (DigestPolicy.FLATTENED, VOFormat.FLAT_SET),
    (DigestPolicy.FLATTENED, VOFormat.STRUCTURED),
    (DigestPolicy.NESTED, VOFormat.STRUCTURED),
]
COMBO_IDS = [f"{policy.value}-{fmt.value}" for policy, fmt in COMBOS]


def deployment(policy, seed=5, **central_options):
    central = CentralServer(
        db_name=DB, rsa_bits=512, seed=seed, policy=policy, **central_options
    )
    schema, rows = generate_table(TableSpec(name="t", rows=ROWS, columns=5, seed=4))
    central.create_table(schema, rows, fanout_override=6)
    return central, central.spawn_edge_server("edge")


def verifier_for(central, keyring=None, meter=NULL_METER):
    return ResultVerifier(
        DigestEngine(DB, policy=central.policy),
        keyring=keyring if keyring is not None else central.keyring,
        meter=meter,
    )


def overlapping_queries(edge, vo_format, n, seed=11):
    """``n`` honest results over overlapping narrow and wide ranges,
    every third one projected."""
    rng = random.Random(seed)
    for i in range(n):
        low = rng.randrange(ROWS - 5)
        high = low + rng.choice((3, 7, 20, 60))
        columns = ("id", "a2") if i % 3 == 0 else None
        yield edge.range_query(
            "t", low=low, high=high, columns=columns, vo_format=vo_format
        ).result


def said(verdict):
    return verdict.ok, verdict.reason


@pytest.fixture(scope="module", params=COMBOS, ids=COMBO_IDS)
def warm(request):
    """A deployment and a verifier that has verified 200 honest
    overlapping results of it — each also shown to a fresh verifier."""
    policy, vo_format = request.param
    central, edge = deployment(policy)
    verifier = verifier_for(central)
    for result in overlapping_queries(edge, vo_format, 200):
        verdict = verifier.verify(result)
        assert verdict.ok
        assert said(verdict) == said(verifier_for(central).verify(result))
        assert (
            verdict.digests_decrypted + verdict.digests_recalled
            == result.vo.digest_count()
        )
    assert verifier._recovered
    return central, edge, verifier, vo_format


class TestWarmEqualsCold:
    """(a) Whatever a warm verifier says, a fresh one says."""

    def agree(self, warm, result, ok):
        central, _edge, verifier, _fmt = warm
        verdict = verifier.verify(result)
        assert said(verdict) == said(verifier_for(central).verify(result))
        assert verdict.ok is ok
        return verdict

    def test_honest_results_are_mostly_recalled(self, warm):
        _central, edge, _verifier, vo_format = warm
        decrypted = recalled = 0
        for result in overlapping_queries(edge, vo_format, 40, seed=12):
            verdict = self.agree(warm, result, ok=True)
            assert (
                verdict.digests_decrypted + verdict.digests_recalled
                == result.vo.digest_count()
            )
            decrypted += verdict.digests_decrypted
            recalled += verdict.digests_recalled
        assert recalled > 10 * decrypted

    @pytest.mark.parametrize("columns", [None, ("id", "a1")], ids=["full", "projected"])
    def test_every_interceptor(self, warm, columns):
        _central, edge, _verifier, vo_format = warm
        query = dict(low=100, high=130, columns=columns, vo_format=vo_format)
        adversaries = [
            (ResponseTamper(row_index=0, column_index=1, new_value="evil"), False),
            (DropTuple(table="t", index=2, cover=False), False),
        ]
        if vo_format is VOFormat.FLAT_SET:
            # The documented boundary (a STRUCTURED cover entry has no
            # position and does not leave the edge's encoder).
            adversaries.append((DropTuple(table="t", index=2, cover=True), True))
        for adversary, ok in adversaries:
            adversary.install(edge)
            try:
                self.agree(warm, edge.range_query("t", **query).result, ok)
            finally:
                edge.clear_interceptors()
        self.agree(warm, edge.range_query("t", **query).result, ok=True)

    def test_at_rest_tampering(self):
        # Own deployment: these adversaries rewrite the replica.
        central, edge = deployment(DigestPolicy.FLATTENED)
        verifier = verifier_for(central)
        for result in overlapping_queries(edge, None, 60):
            assert verifier.verify(result).ok
        ValueTamper(table="t", key=50, column="a1", new_value="evil").apply(edge)
        SpuriousTuple(table="t", row_values=(1000, "f", "a", "k", "e")).apply(edge)
        for low, high, ok in ((40, 60, False), (990, 1010, False), (80, 100, True)):
            result = edge.range_query("t", low=low, high=high).result
            verdict = verifier.verify(result)
            assert verdict.ok is ok
            assert said(verdict) == said(verifier_for(central).verify(result))

    @given(data=st.data())
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_mutated_vos(self, warm, data):
        """A ``D_S`` entry swapped for *another memoised* valid
        signature, a duplicated entry, ``D_N`` swapped for a memoised
        sibling, one flipped signature bit: remembered values are only
        ever the values the same signatures recover to, so no mutation
        verifies warm that does not verify cold."""
        central, edge, verifier, vo_format = warm
        vbt = central.vbtrees["t"]
        low = data.draw(st.integers(0, ROWS - 30), label="low")
        result = edge.range_query(
            "t", low=low, high=low + data.draw(st.sampled_from((4, 25))),
            vo_format=vo_format,
        ).result
        assert verifier.verify(result).ok  # now every signature in it is memoised
        entries = result.vo.selection_entries
        assume(entries)
        memoised = [
            *(e.signed for e in entries),
            *(vbt.tuple_auth(k) for k in result.keys),
        ]
        mutation = data.draw(
            st.sampled_from(("swap", "duplicate", "top", "flip_entry", "flip_top"))
        )
        at = data.draw(st.integers(0, len(entries) - 1), label="at")
        other = data.draw(st.sampled_from(memoised), label="other")
        bit = data.draw(st.integers(0, 500), label="bit")
        if mutation == "swap":
            entries[at] = replace(entries[at], signed=other)
        elif mutation == "duplicate":
            entries.append(entries[at])
        elif mutation == "top":
            result.vo.top_signed = other
        elif mutation == "flip_entry":
            entries[at] = replace(entries[at], signed=flip_bit(entries[at].signed, bit))
        else:
            result.vo.top_signed = flip_bit(result.vo.top_signed, bit)
        verdict = verifier.verify(result)
        assert said(verdict) == said(verifier_for(central).verify(result))
        if mutation.startswith("flip") or mutation == "duplicate":
            assert not verdict.ok


class CountingRing:
    """A key ring that counts how often it is asked."""

    def __init__(self, ring):
        self.ring, self.asked = ring, 0

    def public_key_for(self, epoch):
        self.asked += 1
        return self.ring.public_key_for(epoch)


class TestValidityIsPerUse:
    """(b) The memo holds arithmetic; the ring decides validity, every
    time, before the memo is read."""

    def test_ring_is_asked_once_per_digest_hit_or_miss(self):
        central, edge = deployment(DigestPolicy.FLATTENED)
        ring = CountingRing(central.keyring)
        verifier = verifier_for(central, keyring=ring)
        result = edge.range_query("t", low=10, high=20).result
        n = result.vo.digest_count()
        first = verifier.verify(result)
        assert first.ok and ring.asked == n
        assert (first.digests_decrypted, first.digests_recalled) == (n, 0)
        again = verifier.verify(result)
        assert again.ok and ring.asked == 2 * n
        assert (again.digests_decrypted, again.digests_recalled) == (0, n)

    def test_expired_epoch_is_refused_before_the_memo_is_read(self):
        central, edge = deployment(DigestPolicy.FLATTENED)
        central.keyring.grace = 2
        ring = CountingRing(central.keyring)
        verifier = verifier_for(central, keyring=ring)
        old = edge.range_query("t", low=10, high=20).result
        n = old.vo.digest_count()
        assert verifier.verify(old).ok  # the memo is warm
        central.rotate_key(seed=23)
        central.keyring.tick(2)  # inside the grace window: still valid
        within = verifier.verify(old)
        assert within.ok and within.digests_recalled == n
        central.keyring.tick()   # past it
        asked = ring.asked
        verdict = verifier.verify(old)
        assert not verdict.ok and verdict.reason.startswith("stale key epoch")
        assert (verdict.digests_decrypted, verdict.digests_recalled) == (0, 0)
        assert ring.asked == asked + 1  # refused at the first digest
        assert said(verdict) == said(verifier_for(central).verify(old))

    def test_unknown_epoch_is_refused_before_the_memo_is_read(self):
        central, edge = deployment(DigestPolicy.FLATTENED)
        verifier = verifier_for(central)
        result = edge.range_query("t", low=10, high=20).result
        assert verifier.verify(result).ok
        result.vo.top_signed = relabel(result.vo.top_signed, 77)
        result.vo.selection_entries[:] = [
            replace(e, signed=relabel(e.signed, 77))
            for e in result.vo.selection_entries
        ]
        verdict = verifier.verify(result)
        assert verdict.reason.startswith("stale key epoch: unknown key epoch 77")
        assert (verdict.digests_decrypted, verdict.digests_recalled) == (0, 0)


class TestRotation:
    """(c) A remembered value belongs to one modulus and one epoch."""

    def test_new_epoch_results_verify_and_are_decrypted_afresh(self):
        central, edge = deployment(DigestPolicy.FLATTENED)
        verifier = verifier_for(central)
        assert verifier.verify(edge.range_query("t", low=10, high=20).result).ok
        central.rotate_key(seed=23)
        central.propagate()
        result = edge.range_query("t", low=10, high=20).result
        assert result.vo.top_signed.epoch == 1
        verdict = verifier.verify(result)
        assert verdict.ok
        assert verdict.digests_decrypted == result.vo.digest_count()
        assert verifier.verify(result).digests_decrypted == 0

    def test_same_signature_under_another_epoch_is_a_miss(self):
        central, edge = deployment(DigestPolicy.FLATTENED)
        central.keyring.grace = 5
        verifier = verifier_for(central)
        result = edge.range_query("t", low=10, high=20).result
        assert verifier.verify(result).ok
        central.rotate_key(seed=23)  # epochs 0 and 1 both valid (grace)
        result.vo.top_signed = relabel(result.vo.top_signed, 1)
        for _ in range(2):
            verdict = verifier.verify(result)
            assert verdict.reason.startswith("bad signature")
            # D_S recalled; the relabelled D_N decrypted, never recalled.
            assert verdict.digests_decrypted == 1
            assert verdict.digests_recalled == len(result.vo.selection_entries)

    def test_same_epoch_number_under_another_modulus_is_a_miss(self):
        central, edge = deployment(DigestPolicy.FLATTENED)
        verifier = verifier_for(central)
        result = edge.range_query("t", low=10, high=20).result
        assert verifier.verify(result).ok
        other, _ = deployment(DigestPolicy.FLATTENED, seed=99)
        verifier.keyring = KeyRing.restore(other.keyring.export_records())
        verdict = verifier.verify(result)
        assert not verdict.ok and verdict.reason.startswith("bad signature")
        assert verdict.digests_recalled == 0 and verdict.digests_decrypted >= 1
        # ... and the first ring's values are still the first ring's.
        verifier.keyring = KeyRing.restore(central.keyring.export_records())
        back = verifier.verify(result)
        assert back.ok and back.digests_decrypted == 0


class TestFailuresAreNotStored:
    """(d) A signature that fails a check costs a ``pow`` and a REJECT
    every time it is shown."""

    @pytest.mark.parametrize("fault", ["epoch_mismatch", "too_wide"])
    def test_three_presentations_three_pows(self, fault):
        central, edge = deployment(DigestPolicy.FLATTENED)
        central.keyring.grace = 5
        meter = CostMeter()
        verifier = verifier_for(central, meter=meter)
        result = edge.range_query("t", low=10, high=20).result
        assert verifier.verify(result).ok
        if fault == "epoch_mismatch":
            central.rotate_key(seed=23)
            bad = relabel(result.vo.top_signed, 1)
        else:
            # A genuine central signature over a value no digest can take.
            bad = DigestSigner.from_keypair(central._keypair).sign(1 << 200)
        result.vo.top_signed = bad
        for _ in range(3):
            before = meter.verifies
            verdict = verifier.verify(result)
            assert not verdict.ok and verdict.reason.startswith("bad signature")
            assert verdict.digests_decrypted == 1 == meter.verifies - before
            assert verdict.digests_recalled == len(result.vo.selection_entries)


class TestBound:
    """(e) The memo never holds more than its cap, and forgetting
    changes no verdict."""

    def test_cap_plus_500_distinct_signatures(self, monkeypatch):
        cap = 300
        assert verify_module._RECOVERED_MAX >= 2079  # the e2e table fits
        monkeypatch.setattr(verify_module, "_RECOVERED_MAX", cap)
        central = CentralServer(db_name=DB, rsa_bits=512, seed=5)
        schema, rows = generate_table(TableSpec(name="t", rows=cap + 500, columns=3))
        central.create_table(schema, rows)
        edge = central.spawn_edge_server("edge")
        verifier = verifier_for(central)
        seen = set()
        # One row at a time: the envelope is the row's leaf, D_S its
        # other tuples — the walk shows the verifier every tuple
        # signature and every leaf's.
        for key in range(cap + 500):
            result = edge.range_query("t", low=key, high=key).result
            verdict = verifier.verify(result)
            assert verdict.ok and result.keys == [key]
            assert (
                verdict.digests_decrypted + verdict.digests_recalled
                == result.vo.digest_count()
            )
            assert len(verifier._recovered) <= cap
            seen.update(e.signed for e in result.vo.selection_entries)
        assert len(seen) >= cap + 500


class TestVerdictCountsWithoutAMeter:
    """``Verdict`` counts in the verifier, not through the meter: a
    verifier built without one used to report 0 decryptions for any VO."""

    @pytest.mark.parametrize("policy, vo_format", COMBOS, ids=COMBO_IDS)
    def test_decrypted_then_recalled(self, policy, vo_format):
        central, edge = deployment(policy)
        verifier = ResultVerifier(
            DigestEngine(DB, policy=policy), public_key=central._keypair.public
        )
        result = edge.range_query(
            "t", low=30, high=70, columns=("id", "a3"), vo_format=vo_format
        ).result
        n = result.vo.digest_count()
        first, again = verifier.verify(result), verifier.verify(result)
        assert first.ok and again.ok and n > 2
        assert (first.digests_decrypted, first.digests_recalled) == (n, 0)
        assert (again.digests_decrypted, again.digests_recalled) == (0, n)
