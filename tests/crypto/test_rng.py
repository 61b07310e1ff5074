"""HMAC-DRBG and the simulated TRNG."""

import pytest

from repro.crypto.ec import P256
from repro.crypto.rng import HmacDrbg, SimulatedTrng, device_drbg


class TestSimulatedTrng:
    def test_deterministic_per_seed(self):
        assert SimulatedTrng(b"s").read(32) == SimulatedTrng(b"s").read(32)

    def test_distinct_seeds_distinct_streams(self):
        assert SimulatedTrng(b"a").read(32) != SimulatedTrng(b"b").read(32)

    def test_ratchets_between_reads(self):
        trng = SimulatedTrng(b"s")
        assert trng.read(32) != trng.read(32)

    def test_rejects_empty_seed(self):
        with pytest.raises(ValueError):
            SimulatedTrng(b"")

    def test_arbitrary_lengths(self):
        assert len(SimulatedTrng(b"s").read(100)) == 100


class TestHmacDrbg:
    def test_reproducible(self):
        a = HmacDrbg(b"entropy", b"p").generate(48)
        b = HmacDrbg(b"entropy", b"p").generate(48)
        assert a == b

    def test_personalization_separates(self):
        assert HmacDrbg(b"e", b"p1").generate(32) != HmacDrbg(b"e", b"p2").generate(32)

    def test_sequential_outputs_differ(self):
        drbg = HmacDrbg(b"e")
        assert drbg.generate(32) != drbg.generate(32)

    def test_additional_input_changes_output(self):
        a = HmacDrbg(b"e").generate(32, additional=b"x")
        b = HmacDrbg(b"e").generate(32)
        assert a != b

    def test_reseed_changes_stream(self):
        d1 = HmacDrbg(b"e")
        d2 = HmacDrbg(b"e")
        d1.generate(16)
        d2.generate(16)
        d1.reseed(b"fresh")
        assert d1.generate(16) != d2.generate(16)

    def test_random_int_below_in_range(self):
        drbg = HmacDrbg(b"e")
        for bound in (1, 2, 255, 256, 10**9, 1 << 255):
            value = drbg.random_int_below(bound)
            assert 0 <= value < bound

    def test_random_int_below_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            HmacDrbg(b"e").random_int_below(0)

    def test_random_int_covers_small_range(self):
        drbg = HmacDrbg(b"cover")
        seen = {drbg.random_int_below(4) for _ in range(200)}
        assert seen == {0, 1, 2, 3}

    def test_random_int_below_curve_order_is_pinned(self):
        """Key and nonce draws (bound = the P-256 order) are pinned: the
        order's top bit is set, so the discard method keeps all 256 bits
        of each 32-byte draw."""
        drbg = HmacDrbg(b"pin")
        draws = [drbg.random_int_below(P256.n) for _ in range(3)]
        assert draws == [
            0x50bd186687a8ec0ada728db2e7721a5d04ae59311b5d283edfd55110ba060070,
            0x26311ef4ea33049d749ea862ac57fe1aa4f21be6eeeb04928c49fb28bdec595,
            0x7043d76aea1da05d60f8115f96f0d101007ad98363fdcd8ff8d9435bde8385ce,
        ]

    def test_small_bound_draws_only_the_bits_it_needs(self):
        """A bound of 4 draws 2 bits, so a draw is rejected with
        probability 0; whole-byte draws would reject 252 of 256."""
        drbg = HmacDrbg(b"cover")
        calls = 0
        generate = drbg.generate

        def counting(nbytes, additional=b""):
            nonlocal calls
            calls += 1
            return generate(nbytes, additional)

        drbg.generate = counting
        for _ in range(200):
            drbg.random_int_below(4)
        assert calls <= 200


def test_device_drbg_distinct_devices():
    assert device_drbg(b"dev-a").generate(16) != device_drbg(b"dev-b").generate(16)
