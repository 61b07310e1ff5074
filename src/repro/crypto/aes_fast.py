"""Table-driven, batched AES-128 encryption (the fast path).

The scalar :class:`repro.crypto.aes.AES128` renders FIPS-197 operation
by operation — readable and auditable, but it pays ~300 Python-level
byte operations per block.  Hardware AES engines (the paper's pipelined
FPGA/ASIC cores) instead accept a block per cycle; this module is the
software analogue: the classic 32-bit T-table formulation, evaluated
over *many blocks at once* with numpy gathers when numpy is available
(one fancy-indexing pass per table per round services the whole batch)
and with a tight per-block loop otherwise.

Auditability is preserved: the T-tables are derived **at import time
from the first-principles S-box** in :mod:`repro.crypto.aes` (itself
built from the GF(2^8) inverse + affine transform), so no opaque
constants enter the TCB.  Bit-exactness against the scalar reference is
asserted by the NIST known-answer suite and the randomized equivalence
tests.

Only encryption is provided — CTR and GMAC (the memory-protection hot
paths) never run the inverse cipher.
"""

from __future__ import annotations

import functools
from typing import List, Tuple

from repro.crypto.aes import _SBOX, _RCON, _xtime, BLOCK_SIZE, KEY_SIZE, ROUNDS

try:  # numpy accelerates the batch kernel but is not required
    import numpy as _np
except ImportError:  # pragma: no cover - the image bakes numpy in
    _np = None


def _build_t_tables() -> Tuple[List[int], ...]:
    """Derive the four encryption T-tables from the first-principles
    S-box: ``T0[x]`` is the MixColumns column (02,01,01,03)*S[x] packed
    big-endian; T1..T3 are its byte rotations."""
    t0, t1, t2, t3 = [], [], [], []
    for x in range(256):
        s = _SBOX[x]
        s2 = _xtime(s)
        s3 = s2 ^ s
        w = (s2 << 24) | (s << 16) | (s << 8) | s3
        t0.append(w)
        t1.append(((w >> 8) | (w << 24)) & 0xFFFFFFFF)
        t2.append(((w >> 16) | (w << 16)) & 0xFFFFFFFF)
        t3.append(((w >> 24) | (w << 8)) & 0xFFFFFFFF)
    return t0, t1, t2, t3


_T0, _T1, _T2, _T3 = _build_t_tables()

if _np is not None:
    _NP_T0 = _np.array(_T0, dtype=_np.uint32)
    _NP_T1 = _np.array(_T1, dtype=_np.uint32)
    _NP_T2 = _np.array(_T2, dtype=_np.uint32)
    _NP_T3 = _np.array(_T3, dtype=_np.uint32)
    _NP_SBOX = _np.array(_SBOX, dtype=_np.uint32)


@functools.lru_cache(maxsize=256)
def expand_key_words(key: bytes) -> Tuple[int, ...]:
    """FIPS-197 key schedule as 44 big-endian 32-bit words, cached per
    key so CTR/GMAC over many blocks never re-expands the same key."""
    if len(key) != KEY_SIZE:
        raise ValueError(f"AES-128 requires a {KEY_SIZE}-byte key, got {len(key)}")
    words = [int.from_bytes(key[4 * i : 4 * i + 4], "big") for i in range(4)]
    for i in range(4, 4 * (ROUNDS + 1)):
        temp = words[i - 1]
        if i % 4 == 0:
            temp = ((temp << 8) | (temp >> 24)) & 0xFFFFFFFF  # RotWord
            temp = (  # SubWord
                (_SBOX[(temp >> 24) & 0xFF] << 24)
                | (_SBOX[(temp >> 16) & 0xFF] << 16)
                | (_SBOX[(temp >> 8) & 0xFF] << 8)
                | _SBOX[temp & 0xFF]
            )
            temp ^= _RCON[i // 4 - 1] << 24
        words.append(words[i - 4] ^ temp)
    return tuple(words)


def _encrypt_words_scalar(rk: Tuple[int, ...], w0: int, w1: int, w2: int, w3: int):
    """One block through the T-table rounds (pure-Python fallback)."""
    w0 ^= rk[0]
    w1 ^= rk[1]
    w2 ^= rk[2]
    w3 ^= rk[3]
    for r in range(1, ROUNDS):
        k = 4 * r
        e0 = (_T0[(w0 >> 24) & 0xFF] ^ _T1[(w1 >> 16) & 0xFF]
              ^ _T2[(w2 >> 8) & 0xFF] ^ _T3[w3 & 0xFF] ^ rk[k])
        e1 = (_T0[(w1 >> 24) & 0xFF] ^ _T1[(w2 >> 16) & 0xFF]
              ^ _T2[(w3 >> 8) & 0xFF] ^ _T3[w0 & 0xFF] ^ rk[k + 1])
        e2 = (_T0[(w2 >> 24) & 0xFF] ^ _T1[(w3 >> 16) & 0xFF]
              ^ _T2[(w0 >> 8) & 0xFF] ^ _T3[w1 & 0xFF] ^ rk[k + 2])
        e3 = (_T0[(w3 >> 24) & 0xFF] ^ _T1[(w0 >> 16) & 0xFF]
              ^ _T2[(w1 >> 8) & 0xFF] ^ _T3[w2 & 0xFF] ^ rk[k + 3])
        w0, w1, w2, w3 = e0, e1, e2, e3
    k = 4 * ROUNDS
    s = _SBOX
    e0 = ((s[(w0 >> 24) & 0xFF] << 24) | (s[(w1 >> 16) & 0xFF] << 16)
          | (s[(w2 >> 8) & 0xFF] << 8) | s[w3 & 0xFF]) ^ rk[k]
    e1 = ((s[(w1 >> 24) & 0xFF] << 24) | (s[(w2 >> 16) & 0xFF] << 16)
          | (s[(w3 >> 8) & 0xFF] << 8) | s[w0 & 0xFF]) ^ rk[k + 1]
    e2 = ((s[(w2 >> 24) & 0xFF] << 24) | (s[(w3 >> 16) & 0xFF] << 16)
          | (s[(w0 >> 8) & 0xFF] << 8) | s[w1 & 0xFF]) ^ rk[k + 2]
    e3 = ((s[(w3 >> 24) & 0xFF] << 24) | (s[(w0 >> 16) & 0xFF] << 16)
          | (s[(w1 >> 8) & 0xFF] << 8) | s[w2 & 0xFF]) ^ rk[k + 3]
    return e0, e1, e2, e3


def _encrypt_batch_numpy(rk: Tuple[int, ...], words):
    """All blocks through the rounds at once: ``words`` is an (n, 4)
    uint32 array of column words; each round is 16 table gathers over
    the whole batch."""
    keys = _np.array(rk, dtype=_np.uint32).reshape(ROUNDS + 1, 4)
    w = words ^ keys[0]
    c0, c1, c2, c3 = w[:, 0], w[:, 1], w[:, 2], w[:, 3]
    for r in range(1, ROUNDS):
        k = keys[r]
        e0 = (_NP_T0[(c0 >> 24) & 0xFF] ^ _NP_T1[(c1 >> 16) & 0xFF]
              ^ _NP_T2[(c2 >> 8) & 0xFF] ^ _NP_T3[c3 & 0xFF] ^ k[0])
        e1 = (_NP_T0[(c1 >> 24) & 0xFF] ^ _NP_T1[(c2 >> 16) & 0xFF]
              ^ _NP_T2[(c3 >> 8) & 0xFF] ^ _NP_T3[c0 & 0xFF] ^ k[1])
        e2 = (_NP_T0[(c2 >> 24) & 0xFF] ^ _NP_T1[(c3 >> 16) & 0xFF]
              ^ _NP_T2[(c0 >> 8) & 0xFF] ^ _NP_T3[c1 & 0xFF] ^ k[2])
        e3 = (_NP_T0[(c3 >> 24) & 0xFF] ^ _NP_T1[(c0 >> 16) & 0xFF]
              ^ _NP_T2[(c1 >> 8) & 0xFF] ^ _NP_T3[c2 & 0xFF] ^ k[3])
        c0, c1, c2, c3 = e0, e1, e2, e3
    k = keys[ROUNDS]
    e0 = ((_NP_SBOX[(c0 >> 24) & 0xFF] << 24) | (_NP_SBOX[(c1 >> 16) & 0xFF] << 16)
          | (_NP_SBOX[(c2 >> 8) & 0xFF] << 8) | _NP_SBOX[c3 & 0xFF]) ^ k[0]
    e1 = ((_NP_SBOX[(c1 >> 24) & 0xFF] << 24) | (_NP_SBOX[(c2 >> 16) & 0xFF] << 16)
          | (_NP_SBOX[(c3 >> 8) & 0xFF] << 8) | _NP_SBOX[c0 & 0xFF]) ^ k[1]
    e2 = ((_NP_SBOX[(c2 >> 24) & 0xFF] << 24) | (_NP_SBOX[(c3 >> 16) & 0xFF] << 16)
          | (_NP_SBOX[(c0 >> 8) & 0xFF] << 8) | _NP_SBOX[c1 & 0xFF]) ^ k[2]
    e3 = ((_NP_SBOX[(c3 >> 24) & 0xFF] << 24) | (_NP_SBOX[(c0 >> 16) & 0xFF] << 16)
          | (_NP_SBOX[(c1 >> 8) & 0xFF] << 8) | _NP_SBOX[c2 & 0xFF]) ^ k[3]
    return _np.stack([e0, e1, e2, e3], axis=1)


def encrypt_blocks(key: bytes, data: bytes) -> bytes:
    """ECB-encrypt a multiple of 16 bytes under ``key``; the multi-block
    primitive every batched mode builds on."""
    if len(data) % BLOCK_SIZE:
        raise ValueError("data must be a multiple of 16 bytes")
    rk = expand_key_words(key)
    n = len(data) // BLOCK_SIZE
    if _np is not None and n > 1:
        words = _np.frombuffer(data, dtype=">u4").astype(_np.uint32).reshape(n, 4)
        return _encrypt_batch_numpy(rk, words).astype(">u4").tobytes()
    out = bytearray()
    for i in range(0, len(data), BLOCK_SIZE):
        w = [int.from_bytes(data[i + 4 * j : i + 4 * j + 4], "big") for j in range(4)]
        for e in _encrypt_words_scalar(rk, *w):
            out.extend(e.to_bytes(4, "big"))
    return bytes(out)


def keystream(key: bytes, initial_counter_int: int, nblocks: int) -> bytes:
    """CTR keystream: encrypt ``nblocks`` consecutive big-endian counter
    values starting at ``initial_counter_int`` (mod 2^128)."""
    rk = expand_key_words(key)
    if _np is not None and nblocks > 1:
        hi = (initial_counter_int >> 64) & 0xFFFFFFFFFFFFFFFF
        lo = initial_counter_int & 0xFFFFFFFFFFFFFFFF
        idx = _np.arange(nblocks, dtype=_np.uint64)
        lo_arr = _np.uint64(lo) + idx  # wraps mod 2^64, matching CTR
        carry = (lo_arr < _np.uint64(lo)).astype(_np.uint64)
        hi_arr = _np.uint64(hi) + carry
        words = _np.empty((nblocks, 4), dtype=_np.uint32)
        words[:, 0] = (hi_arr >> _np.uint64(32)).astype(_np.uint32)
        words[:, 1] = (hi_arr & _np.uint64(0xFFFFFFFF)).astype(_np.uint32)
        words[:, 2] = (lo_arr >> _np.uint64(32)).astype(_np.uint32)
        words[:, 3] = (lo_arr & _np.uint64(0xFFFFFFFF)).astype(_np.uint32)
        return _encrypt_batch_numpy(rk, words).astype(">u4").tobytes()
    out = bytearray()
    counter = initial_counter_int
    for _ in range(nblocks):
        w0 = (counter >> 96) & 0xFFFFFFFF
        w1 = (counter >> 64) & 0xFFFFFFFF
        w2 = (counter >> 32) & 0xFFFFFFFF
        w3 = counter & 0xFFFFFFFF
        for e in _encrypt_words_scalar(rk, w0, w1, w2, w3):
            out.extend(e.to_bytes(4, "big"))
        counter = (counter + 1) % (1 << 128)
    return bytes(out)


def keystream_for_region(key: bytes, base_address: int, version_number: int,
                         nblocks: int) -> bytes:
    """GuardNN ``(address || VN)`` pads for a contiguous region.

    The memory-protection hot path: every 16-byte block at
    ``base_address + i`` is padded with the counter block
    ``(base_address + i) << 64 | VN``. The counter-block words are
    formed directly as numpy columns (structure-of-arrays) — no
    per-block 128-bit Python ints are ever materialized. One block, or
    any run without numpy, takes :func:`keystream_for_counters`."""
    rk = expand_key_words(key)
    if _np is not None and nblocks > 1:
        hi = _np.uint64(base_address) + _np.arange(nblocks, dtype=_np.uint64)
        words = _np.empty((nblocks, 4), dtype=_np.uint32)
        words[:, 0] = (hi >> _np.uint64(32)).astype(_np.uint32)
        words[:, 1] = (hi & _np.uint64(0xFFFFFFFF)).astype(_np.uint32)
        words[:, 2] = (version_number >> 32) & 0xFFFFFFFF
        words[:, 3] = version_number & 0xFFFFFFFF
        return _encrypt_batch_numpy(rk, words).astype(">u4").tobytes()
    return keystream_for_counters(
        key, (((base_address + i) << 64) | version_number for i in range(nblocks)))


def keystream_for_counters(key: bytes, counters) -> bytes:
    """Encrypt an explicit sequence of 128-bit counter-block ints (the
    GuardNN ``(address || VN)`` form, one per 16-byte memory block),
    block by block."""
    rk = expand_key_words(key)
    out = bytearray()
    for c in counters:
        w0 = (c >> 96) & 0xFFFFFFFF
        w1 = (c >> 64) & 0xFFFFFFFF
        w2 = (c >> 32) & 0xFFFFFFFF
        w3 = c & 0xFFFFFFFF
        for e in _encrypt_words_scalar(rk, w0, w1, w2, w3):
            out.extend(e.to_bytes(4, "big"))
    return bytes(out)


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length byte strings (vectorized when possible)."""
    if len(a) != len(b):
        raise ValueError("xor operands must have equal length")
    if _np is not None and len(a) >= 64:
        return (
            _np.frombuffer(a, dtype=_np.uint8) ^ _np.frombuffer(b, dtype=_np.uint8)
        ).tobytes()
    return bytes(x ^ y for x, y in zip(a, b))
