"""Merkle (hash) tree for the baseline's replay protection.

Section II-D1: "to defeat the replay attack, a Merkle tree is used to
verify the MACs hierarchically in a way that the root of the tree is
stored on-chip". GuardNN itself needs no tree (its VNs never leave the
chip); the tree is part of the BP baseline and of the test suite's
replay-attack demonstrations.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence, Tuple

from repro import perf
from repro.crypto.sha256 import sha256
from repro.crypto.sha256_fast import sha256_many


class MerkleTree:
    """Fixed-leaf-count binary hash tree with incremental updates.

    Leaves are byte strings (e.g. per-block MACs). The root models the
    on-chip register; everything else lives in (untrusted) memory, which
    is why :meth:`verify_leaf` recomputes the path and compares against
    the root only.
    """

    __slots__ = ("num_leaves", "_padded", "_levels")

    def __init__(self, num_leaves: int):
        if num_leaves <= 0:
            raise ValueError("tree needs at least one leaf")
        self.num_leaves = num_leaves
        self._padded = 1 << math.ceil(math.log2(num_leaves)) if num_leaves > 1 else 1
        empty = sha256(b"guardnn-merkle-empty-leaf")
        # levels[0] = leaf hashes, levels[-1] = [root]
        self._levels: List[List[bytes]] = [[empty] * self._padded]
        if perf.fast_enabled():
            # every node of a fresh level is sha256(below || below) of the
            # level's (single, repeated) node value: hash once per level
            node = empty
            width = self._padded
            while width > 1:
                width //= 2
                node = sha256(node + node)
                self._levels.append([node] * width)
            return
        while len(self._levels[-1]) > 1:
            below = self._levels[-1]
            self._levels.append(
                [sha256(below[2 * i] + below[2 * i + 1]) for i in range(len(below) // 2)]
            )

    @property
    def root(self) -> bytes:
        return self._levels[-1][0]

    def update_leaf(self, index: int, leaf_data: bytes) -> None:
        """Set a leaf and update the path to the root (what the engine
        does on a protected write).

        Incremental: sibling hashes are read from the cached levels (no
        recomputation of untouched subtrees), and a write that leaves
        the leaf hash unchanged short-circuits — the stored path is
        already consistent.
        """
        if not 0 <= index < self.num_leaves:
            raise IndexError("leaf index out of range")
        node = sha256(leaf_data)
        if self._levels[0][index] == node:
            return
        self._levels[0][index] = node
        i = index
        for level in range(1, len(self._levels)):
            i //= 2
            left = self._levels[level - 1][2 * i]
            right = self._levels[level - 1][2 * i + 1]
            self._levels[level][i] = sha256(left + right)

    def update_leaves(self, updates: Iterable[Tuple[int, bytes]]) -> None:
        """Apply many leaf writes in one pass: set every leaf hash, then
        rehash each dirty interior node exactly once per level. A
        sequential ``update_leaf`` loop hashes shared ancestors once per
        leaf (a K-leaf batch under one parent costs K path recomputes);
        this batched walk is what a write-combining protection engine
        does when it retires a whole tile, and it reaches the identical
        final tree state (later writes to the same leaf win)."""
        levels = self._levels
        # validate and hash everything before touching the tree, so a
        # bad index cannot abort mid-mutation and leave interior nodes
        # inconsistent with already-written leaves
        updates = list(updates)
        for index, _leaf_data in updates:
            if not 0 <= index < self.num_leaves:
                raise IndexError("leaf index out of range")
        leaf_hashes = sha256_many([leaf_data for _index, leaf_data in updates])
        dirty = set()
        for (index, _leaf_data), node in zip(updates, leaf_hashes):
            if levels[0][index] != node:
                levels[0][index] = node
                dirty.add(index // 2)
        self.hash_levels(dirty)

    def hash_levels(self, dirty: Sequence[int]) -> None:
        """Rehash the tree upward from a set of dirty level-1 node
        indices, one lane-parallel kernel call per level: all dirty
        nodes of a level are hashed in a single :func:`sha256_many`
        batch, so a K-update burst costs O(tree height) kernel calls
        instead of O(K * height) Python hashes. In scalar mode the same
        walk runs the reference hash node by node."""
        levels = self._levels
        dirty = set(dirty)
        for level in range(1, len(levels)):
            below = levels[level - 1]
            here = levels[level]
            ordered = sorted(dirty)
            hashes = sha256_many([below[2 * i] + below[2 * i + 1] for i in ordered])
            for i, node in zip(ordered, hashes):
                here[i] = node
            dirty = {i // 2 for i in ordered}

    def proof(self, index: int) -> List[bytes]:
        """Sibling path for a leaf (what a verifier fetches from DRAM)."""
        if not 0 <= index < self.num_leaves:
            raise IndexError("leaf index out of range")
        path = []
        i = index
        for level in range(len(self._levels) - 1):
            sibling = i ^ 1
            path.append(self._levels[level][sibling])
            i //= 2
        return path

    def verify_leaf(self, index: int, leaf_data: bytes, proof: List[bytes]) -> bool:
        """Check ``leaf_data`` at ``index`` against the on-chip root using
        an (untrusted) sibling path."""
        if not 0 <= index < self.num_leaves:
            return False
        if len(proof) != len(self._levels) - 1:
            return False
        node = sha256(leaf_data)
        i = index
        for sibling in proof:
            if i % 2 == 0:
                node = sha256(node + sibling)
            else:
                node = sha256(sibling + node)
            i //= 2
        return node == self.root
