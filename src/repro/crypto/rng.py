"""Random number generation: HMAC-DRBG (SP 800-90A) + simulated TRNG.

The paper's device contains a true random number generator (Table I, "Key
Generation"). Real silicon feeds TRNG entropy into a DRBG; we reproduce
that structure with a deterministic, *seedable* entropy source so that
tests and experiments are reproducible, while the DRBG layer is the same
construction a real device would use.
"""

from __future__ import annotations

from repro.crypto.hmac import hmac_sha256
from repro.crypto.sha256 import sha256


class SimulatedTrng:
    """Deterministic stand-in for a hardware true RNG.

    Produces an entropy stream by iterating SHA-256 over a seed; distinct
    seeds model distinct physical devices. This is a *simulation
    substitution* (documented in ``docs/FIDELITY.md``): the downstream
    DRBG and all protocol logic are unchanged relative to a real TRNG.
    """

    def __init__(self, seed: bytes):
        if not seed:
            raise ValueError("TRNG seed must be non-empty")
        self._state = sha256(b"guardnn-trng" + seed)
        self._counter = 0

    def read(self, nbytes: int) -> bytes:
        out = bytearray()
        while len(out) < nbytes:
            block = sha256(self._state + self._counter.to_bytes(8, "big"))
            out.extend(block)
            self._counter += 1
        # ratchet state forward so earlier outputs cannot be recomputed
        self._state = sha256(self._state + b"ratchet")
        return bytes(out[:nbytes])


class HmacDrbg:
    """HMAC_DRBG per NIST SP 800-90A (SHA-256 variant).

    Supports instantiate (constructor), reseed, and generate with
    optional additional input. No reseed-counter enforcement is needed for
    our workloads but the counter is tracked for completeness.
    """

    RESEED_INTERVAL = 1 << 48

    def __init__(self, entropy: bytes, personalization: bytes = b""):
        self._k = bytes(32)
        self._v = bytes([0x01] * 32)
        self._update(entropy + personalization)
        self.reseed_counter = 1

    def _update(self, provided: bytes) -> None:
        self._k = hmac_sha256(self._k, self._v + b"\x00" + provided)
        self._v = hmac_sha256(self._k, self._v)
        if provided:
            self._k = hmac_sha256(self._k, self._v + b"\x01" + provided)
            self._v = hmac_sha256(self._k, self._v)

    def reseed(self, entropy: bytes, additional: bytes = b"") -> None:
        self._update(entropy + additional)
        self.reseed_counter = 1

    def generate(self, nbytes: int, additional: bytes = b"") -> bytes:
        if self.reseed_counter > self.RESEED_INTERVAL:
            raise RuntimeError("DRBG requires reseed")
        if additional:
            self._update(additional)
        out = bytearray()
        while len(out) < nbytes:
            self._v = hmac_sha256(self._k, self._v)
            out.extend(self._v)
        self._update(additional)
        self.reseed_counter += 1
        return bytes(out[:nbytes])

    def random_int_below(self, bound: int) -> int:
        """Uniform integer in [0, bound) by the simple discard method of
        SP 800-90A Rev. 1, Appendix A.5.1: draw ``(bound - 1).bit_length()``
        bits and reject a value >= bound, so each draw is kept with
        probability above 1/2. Used for nonce/key generation in the EC
        layer, where the bound is the P-256 order and no bit is dropped."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        nbits = (bound - 1).bit_length()
        nbytes = (nbits + 7) // 8
        while True:
            candidate = (int.from_bytes(self.generate(nbytes), "big")
                         >> (8 * nbytes - nbits))
            if candidate < bound:
                return candidate


def device_drbg(seed: bytes, personalization: bytes = b"guardnn-device") -> HmacDrbg:
    """Build the DRBG a device instantiates at power-on from its TRNG."""
    trng = SimulatedTrng(seed)
    return HmacDrbg(trng.read(48), personalization)
