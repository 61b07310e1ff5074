"""GMAC: the Carter-Wegman MAC of AES-GCM (NIST SP 800-38D).

Intel's MEE uses a Carter-Wegman-style MAC because the GHASH multiply
is cheap in hardware relative to a full AES pass per block. We provide
GMAC as an alternative to CMAC for the IV engine so the two MAC design
points the literature uses are both available (CMAC: one primitive,
serial; GMAC: parallelizable polynomial hash + one AES call per tag).

The implementation is standard GCM tag computation: ``H = AES_K(0)``;
``tag = GHASH_H(AAD || ciphertext || lengths) XOR AES_K(J0)`` with the
96-bit nonce form ``J0 = IV || 0^31 || 1``. Validated against the NIST
GCM known-answer vectors in the test suite.
"""

from __future__ import annotations

from repro.crypto.aes import AES128
from repro.crypto.gf128 import mul_fn


class AesGmac:
    """GMAC under one AES-128 key; fresh 96-bit IV per message."""

    def __init__(self, key: bytes):
        self._aes = AES128(key)
        self._h = int.from_bytes(self._aes.encrypt_block(bytes(16)), "big")

    def mac(self, iv: bytes, data: bytes, aad: bytes = b"") -> bytes:
        """Compute the 16-byte GMAC tag of ``data`` (treated as GCM
        ciphertext) with additional authenticated data ``aad``."""
        if len(iv) != 12:
            raise ValueError("GMAC requires a 96-bit IV")
        # GHASH over zero-padded AAD, then zero-padded data, then the
        # 64-bit bit-lengths block (SP 800-38D section 6.4). The
        # multiply against H goes through the per-key table on the fast
        # path, the bit-serial reference otherwise — same tags either
        # way (the table is derived from gf128_mul's own shift-reduce).
        mul = mul_fn(self._h)
        y = 0
        for chunk in (aad, data):
            if chunk:
                padded = chunk + bytes(-len(chunk) % 16)
                for i in range(0, len(padded), 16):
                    y = mul(y ^ int.from_bytes(padded[i : i + 16], "big"))
        lengths = (len(aad) * 8).to_bytes(8, "big") + (len(data) * 8).to_bytes(8, "big")
        y = mul(y ^ int.from_bytes(lengths, "big"))
        j0 = iv + b"\x00\x00\x00\x01"
        pad = self._aes.encrypt_block(j0)
        return bytes(a ^ b for a, b in zip(y.to_bytes(16, "big"), pad))

    def verify(self, iv: bytes, data: bytes, tag: bytes, aad: bytes = b"") -> bool:
        expected = self.mac(iv, data, aad)
        if len(tag) != len(expected):
            return False
        diff = 0
        for x, y in zip(expected, tag):
            diff |= x ^ y
        return diff == 0
