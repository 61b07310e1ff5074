"""GuardNN's on-chip counters and version-number construction.

Section II-D2 defines the counters:

* ``CTR_IN`` — incremented per new input (``SetInput``);
* ``CTR_F,W`` — reset on a new input, incremented after each compute
  instruction (``Forward``) that writes output features;
* ``CTR_F,R`` — supplied by the *untrusted host* per address range, used
  only for decryption ("the confidentiality is not broken even if the
  CTR_F,R value is incorrect");
* ``CTR_W`` — incremented per weight update (``SetWeight`` and, during
  training, weight-update steps).

A version number is ``(domain || counter fields)`` packed into 64 bits;
the AES-CTR counter block is ``(block address || VN)``. Confidentiality
requires that (address, VN) never repeats under one key: domains separate
the weight and feature spaces, and within the feature domain
(CTR_IN, CTR_F,W) is strictly increasing per write. The property-based
test suite checks this invariant over arbitrary instruction sequences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

DOMAIN_FEATURE = 0x01
DOMAIN_WEIGHT = 0x02
DOMAIN_INPUT = 0x03

_CTR_IN_BITS = 24
_CTR_FW_BITS = 32
_CTR_W_BITS = 56


@dataclass(frozen=True, slots=True)
class VersionNumber:
    """A packed 64-bit VN."""

    value: int

    def __post_init__(self):
        if not 0 <= self.value < (1 << 64):
            raise ValueError("VN must fit in 64 bits")

    @staticmethod
    def for_feature(ctr_in: int, ctr_fw: int) -> "VersionNumber":
        if not 0 <= ctr_in < (1 << _CTR_IN_BITS):
            raise ValueError("CTR_IN overflow — session must be re-initialized")
        if not 0 <= ctr_fw < (1 << _CTR_FW_BITS):
            raise ValueError("CTR_F,W overflow — session must be re-initialized")
        value = (DOMAIN_FEATURE << 56) | (ctr_in << _CTR_FW_BITS) | ctr_fw
        return VersionNumber(value)

    @staticmethod
    def for_weight(ctr_w: int) -> "VersionNumber":
        if not 0 <= ctr_w < (1 << _CTR_W_BITS):
            raise ValueError("CTR_W overflow — session must be re-initialized")
        return VersionNumber((DOMAIN_WEIGHT << 56) | ctr_w)

    @staticmethod
    def for_input(ctr_in: int) -> "VersionNumber":
        """VN for the input-import write itself. A separate domain keeps
        the imported input's pad distinct from every Forward output pad,
        even if a hostile host directs a Forward to overwrite the input
        region (same address, but a different VN, so no pad reuse)."""
        if not 0 <= ctr_in < (1 << _CTR_IN_BITS):
            raise ValueError("CTR_IN overflow — session must be re-initialized")
        return VersionNumber((DOMAIN_INPUT << 56) | ctr_in)

    @property
    def domain(self) -> int:
        return self.value >> 56


class CounterState:
    """The accelerator-resident counter file.

    The device consults this for every protected write (authoritative
    VNs) and for weight reads; feature reads use the host-supplied read
    counters (:meth:`set_read_ctr` / :meth:`read_vn_for`), which the host
    reconstructs from the DFG schedule.
    """

    __slots__ = ("ctr_in", "ctr_fw", "ctr_w", "_read_ctrs")

    def __init__(self):
        self.ctr_in = 0
        self.ctr_fw = 0
        self.ctr_w = 0
        # host-set read counters: list of (base, end, ctr_in, ctr_fw) in
        # declaration order; the most recent covering declaration wins
        # (a dict keyed by range would let an older, differently-sized
        # overlapping range shadow a newer one)
        self._read_ctrs: List[Tuple[int, int, int, int]] = []

    # --- instruction-driven transitions (Section II-E) ---

    def on_init_session(self) -> None:
        """InitSession "resets all counters to zero"."""
        self.ctr_in = 0
        self.ctr_fw = 0
        self.ctr_w = 0
        self._read_ctrs.clear()

    def on_set_input(self) -> None:
        """New input: bump CTR_IN, reset CTR_F,W."""
        self.ctr_in += 1
        self.ctr_fw = 0

    def next_forward_vn(self) -> VersionNumber:
        """Bump CTR_F,W and return the VN for the features the current
        Forward writes. Incrementing *before* the write means Forward
        outputs use CTR_F,W >= 1, so they can never collide with the
        input import (which lives in its own VN domain, see
        :meth:`VersionNumber.for_input`) nor with each other: a strictly
        increasing (CTR_IN, CTR_F,W) per feature write is exactly the
        uniqueness invariant counter-mode encryption needs."""
        self.ctr_fw += 1
        return VersionNumber.for_feature(self.ctr_in, self.ctr_fw)

    def on_set_weight(self) -> None:
        self.ctr_w += 1

    # --- VN queries ---

    def feature_write_vn(self) -> VersionNumber:
        """VN the most recent Forward used (current CTR_F,W)."""
        return VersionNumber.for_feature(self.ctr_in, self.ctr_fw)

    def weight_vn(self) -> VersionNumber:
        return VersionNumber.for_weight(self.ctr_w)

    def input_vn(self) -> VersionNumber:
        return VersionNumber.for_input(self.ctr_in)

    def set_read_ctr(self, base: int, size: int, ctr_fw: int, ctr_in: int = None) -> None:
        """SetReadCTR: the host declares which CTR_F,W (and optionally an
        older CTR_IN) to use when decrypting reads in [base, base+size).
        Wrong values yield garbage plaintext, never a leak."""
        if size <= 0:
            raise ValueError("range size must be positive")
        if ctr_fw < 0 or (ctr_in is not None and ctr_in < 0):
            raise ValueError("read counters must be non-negative")
        effective_in = self.ctr_in if ctr_in is None else ctr_in
        self._read_ctrs.append((base, base + size, effective_in, ctr_fw))
        # the table is small on-chip storage: keep only the most recent
        # declarations (a real device would have a fixed-entry CAM)
        if len(self._read_ctrs) > 64:
            del self._read_ctrs[0]

    def read_vn_for(self, address: int) -> VersionNumber:
        """VN used to decrypt a feature read at ``address``: the most
        recently declared covering range, else the current write
        counters."""
        for base, end, ctr_in, ctr_fw in reversed(self._read_ctrs):
            if base <= address < end:
                return VersionNumber.for_feature(ctr_in, ctr_fw)
        return VersionNumber.for_feature(self.ctr_in, self.ctr_fw)
