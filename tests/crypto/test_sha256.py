"""SHA-256 against FIPS 180-4 vectors plus incremental-interface checks."""

import pytest

from repro.crypto.sha256 import Sha256, sha256

VECTORS = [
    (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
    (
        b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
    ),
    (b"a" * 1_000_000, "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"),
]


@pytest.mark.parametrize("message,digest_hex", VECTORS,
                         ids=["empty", "abc", "448-bit", "million-a"])
def test_known_answers(message, digest_hex):
    assert sha256(message).hex() == digest_hex


class TestIncremental:
    def test_chunked_equals_oneshot(self):
        message = bytes(range(256)) * 5
        h = Sha256()
        for i in range(0, len(message), 37):
            h.update(message[i : i + 37])
        assert h.digest() == sha256(message)

    def test_digest_does_not_finalize(self):
        """The attestation engine samples the running hash (SignOutput)
        and keeps absorbing — digest() must not disturb the state."""
        h = Sha256(b"part one")
        mid = h.digest()
        assert mid == sha256(b"part one")
        h.update(b" part two")
        assert h.digest() == sha256(b"part one part two")

    def test_copy_is_independent(self):
        h = Sha256(b"shared prefix")
        clone = h.copy()
        h.update(b"A")
        clone.update(b"B")
        assert h.digest() == sha256(b"shared prefixA")
        assert clone.digest() == sha256(b"shared prefixB")

    def test_boundary_lengths(self):
        # pad-boundary cases: 55, 56, 63, 64, 65 bytes
        for n in (55, 56, 63, 64, 65):
            message = bytes([0xAB]) * n
            assert sha256(message) == Sha256(message).digest()

    def test_hexdigest(self):
        assert Sha256(b"abc").hexdigest() == VECTORS[1][1]
