"""AES-128 block cipher (FIPS-197), pure Python.

This models the pipelined AES engines inside GuardNN's memory protection
unit (the paper uses AES-128 engines with a 12-cycle pipeline on the FPGA
prototype). The implementation is a straightforward, table-free rendering
of the FIPS-197 specification: readable, easy to audit, and validated
against the FIPS-197 Appendix C known-answer vector in the test suite.

Only the 128-bit key size is supported because that is the only size the
paper uses.
"""

from __future__ import annotations

import functools

BLOCK_SIZE = 16
ROUNDS = 10
KEY_SIZE = 16


def _build_sbox():
    """Construct the AES S-box from first principles (GF(2^8) inverse
    followed by the affine transform), so no opaque constant tables need
    to be trusted."""
    # Multiplicative inverse in GF(2^8) via exponentiation chains is slow;
    # build log/antilog tables with generator 3 instead.
    exp = [0] * 512
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        # multiply x by generator 0x03 = x * 2 ^ x
        x ^= (x << 1) ^ (0x11B if x & 0x80 else 0)
        x &= 0xFF
    for i in range(255, 512):
        exp[i] = exp[i - 255]

    def inv(b):
        return 0 if b == 0 else exp[255 - log[b]]

    sbox = [0] * 256
    for b in range(256):
        i = inv(b)
        # affine transform: bit_j = i_j ^ i_{j+4} ^ i_{j+5} ^ i_{j+6} ^ i_{j+7} ^ c_j
        res = 0
        for bit in range(8):
            v = (
                (i >> bit)
                ^ (i >> ((bit + 4) % 8))
                ^ (i >> ((bit + 5) % 8))
                ^ (i >> ((bit + 6) % 8))
                ^ (i >> ((bit + 7) % 8))
                ^ (0x63 >> bit)
            ) & 1
            res |= v << bit
        sbox[b] = res
    return sbox, exp, log


_SBOX, _EXP, _LOG = _build_sbox()
_INV_SBOX = [0] * 256
for _i, _v in enumerate(_SBOX):
    _INV_SBOX[_v] = _i

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]


def _xtime(b):
    """Multiply by x (i.e. 2) in GF(2^8)."""
    b <<= 1
    if b & 0x100:
        b ^= 0x11B
    return b & 0xFF


def _gmul(a, b):
    """GF(2^8) multiplication via log tables."""
    if a == 0 or b == 0:
        return 0
    return _EXP[_LOG[a] + _LOG[b]]


class AES128:
    """AES-128 with encrypt and decrypt of single 16-byte blocks.

    >>> key = bytes(range(16))
    >>> aes = AES128(key)
    >>> block = bytes(16)
    >>> aes.decrypt_block(aes.encrypt_block(block)) == block
    True
    """

    def __init__(self, key: bytes):
        if len(key) != KEY_SIZE:
            raise ValueError(f"AES-128 requires a {KEY_SIZE}-byte key, got {len(key)}")
        self._key = key
        self._round_keys = self._expand_key(key)

    @staticmethod
    @functools.lru_cache(maxsize=256)
    def _expand_key(key: bytes):
        """FIPS-197 key schedule producing 11 round keys of 16 bytes.

        Cached per key: CTR/CMAC/GMAC construct fresh cipher objects for
        the same session keys over and over, and the schedule is pure.
        Round keys are immutable tuples so cache sharing is safe.
        """
        words = [list(key[4 * i : 4 * i + 4]) for i in range(4)]
        for i in range(4, 4 * (ROUNDS + 1)):
            temp = list(words[i - 1])
            if i % 4 == 0:
                temp = temp[1:] + temp[:1]  # RotWord
                temp = [_SBOX[b] for b in temp]  # SubWord
                temp[0] ^= _RCON[i // 4 - 1]
            words.append([words[i - 4][j] ^ temp[j] for j in range(4)])
        round_keys = []
        for r in range(ROUNDS + 1):
            rk = []
            for w in words[4 * r : 4 * r + 4]:
                rk.extend(w)
            round_keys.append(tuple(rk))
        return tuple(round_keys)

    # --- state helpers: state is a flat list of 16 bytes, column-major
    #     per FIPS-197 (state[r + 4c]) ---

    @staticmethod
    def _add_round_key(state, rk):
        for i in range(16):
            state[i] ^= rk[i]

    @staticmethod
    def _sub_bytes(state):
        for i in range(16):
            state[i] = _SBOX[state[i]]

    @staticmethod
    def _inv_sub_bytes(state):
        for i in range(16):
            state[i] = _INV_SBOX[state[i]]

    @staticmethod
    def _shift_rows(state):
        # bytes are laid out column-major: index = 4*col + row in our flat
        # input ordering (FIPS-197 loads input bytes down columns).
        s = state
        s[1], s[5], s[9], s[13] = s[5], s[9], s[13], s[1]
        s[2], s[6], s[10], s[14] = s[10], s[14], s[2], s[6]
        s[3], s[7], s[11], s[15] = s[15], s[3], s[7], s[11]

    @staticmethod
    def _inv_shift_rows(state):
        s = state
        s[5], s[9], s[13], s[1] = s[1], s[5], s[9], s[13]
        s[10], s[14], s[2], s[6] = s[2], s[6], s[10], s[14]
        s[15], s[3], s[7], s[11] = s[3], s[7], s[11], s[15]

    @staticmethod
    def _mix_columns(state):
        for c in range(4):
            i = 4 * c
            a0, a1, a2, a3 = state[i : i + 4]
            state[i + 0] = _xtime(a0) ^ (_xtime(a1) ^ a1) ^ a2 ^ a3
            state[i + 1] = a0 ^ _xtime(a1) ^ (_xtime(a2) ^ a2) ^ a3
            state[i + 2] = a0 ^ a1 ^ _xtime(a2) ^ (_xtime(a3) ^ a3)
            state[i + 3] = (_xtime(a0) ^ a0) ^ a1 ^ a2 ^ _xtime(a3)

    @staticmethod
    def _inv_mix_columns(state):
        for c in range(4):
            i = 4 * c
            a0, a1, a2, a3 = state[i : i + 4]
            state[i + 0] = _gmul(a0, 14) ^ _gmul(a1, 11) ^ _gmul(a2, 13) ^ _gmul(a3, 9)
            state[i + 1] = _gmul(a0, 9) ^ _gmul(a1, 14) ^ _gmul(a2, 11) ^ _gmul(a3, 13)
            state[i + 2] = _gmul(a0, 13) ^ _gmul(a1, 9) ^ _gmul(a2, 14) ^ _gmul(a3, 11)
            state[i + 3] = _gmul(a0, 11) ^ _gmul(a1, 13) ^ _gmul(a2, 9) ^ _gmul(a3, 14)

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt one 16-byte block."""
        if len(block) != BLOCK_SIZE:
            raise ValueError(f"block must be {BLOCK_SIZE} bytes, got {len(block)}")
        state = list(block)
        self._add_round_key(state, self._round_keys[0])
        for r in range(1, ROUNDS):
            self._sub_bytes(state)
            self._shift_rows(state)
            self._mix_columns(state)
            self._add_round_key(state, self._round_keys[r])
        self._sub_bytes(state)
        self._shift_rows(state)
        self._add_round_key(state, self._round_keys[ROUNDS])
        return bytes(state)

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt one 16-byte block."""
        if len(block) != BLOCK_SIZE:
            raise ValueError(f"block must be {BLOCK_SIZE} bytes, got {len(block)}")
        state = list(block)
        self._add_round_key(state, self._round_keys[ROUNDS])
        for r in range(ROUNDS - 1, 0, -1):
            self._inv_shift_rows(state)
            self._inv_sub_bytes(state)
            self._add_round_key(state, self._round_keys[r])
            self._inv_mix_columns(state)
        self._inv_shift_rows(state)
        self._inv_sub_bytes(state)
        self._add_round_key(state, self._round_keys[0])
        return bytes(state)
