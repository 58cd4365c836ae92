"""Append-only Merkle accumulator with a fixed depth.

The tree is born full of empty subtrees: per-level digests of all-empty
subtrees are precomputed, so the root is always defined and appending a
leaf touches exactly one node per level. Leaves and internal nodes hash
under distinct prefixes (0x00 / 0x01) to keep the two layers from ever
colliding. Membership paths list sibling digests from the leaf level up.

The tree owns its leaf index: each payload maps to the first position it
was appended at, so anyone who rebuilds the tree from the appended payloads
(a worker, an auditor) can look a leaf up without the party that appended
it. Readers may hold paths across later appends, but a path only verifies
against the root of the epoch it was issued in, which is exactly the
protocol's requirement (statements pin the root they were proven against).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapacityError
from .primitives import hash_bytes

DEFAULT_DEPTH = 20


def _leaf_hash(payload: bytes) -> bytes:
    return hash_bytes(b"\x00" + payload)


def _node_hash(left: bytes, right: bytes) -> bytes:
    return hash_bytes(b"\x01" + left + right)


def empty_digests(depth: int) -> list[bytes]:
    """digest of the all-empty subtree at each level, 0 (leaf) .. depth."""
    out = [_leaf_hash(b"")]
    for _ in range(depth):
        out.append(_node_hash(out[-1], out[-1]))
    return out


@dataclass(frozen=True)
class MerklePath:
    """Sibling digests from leaf level upward plus the leaf position."""

    position: int
    siblings: tuple[bytes, ...]


def verify_path(root: bytes, leaf_payload: bytes, path: MerklePath) -> bool:
    """Stateless check that leaf_payload sits at path.position under root."""
    if path.position < 0 or path.position >= 1 << len(path.siblings):
        return False
    node = _leaf_hash(leaf_payload)
    idx = path.position
    for sib in path.siblings:
        if len(sib) != 32:
            return False
        if idx & 1:
            node = _node_hash(sib, node)
        else:
            node = _node_hash(node, sib)
        idx >>= 1
    return node == root


class MerkleTree:
    """Fixed-depth append-only tree; capacity 2**depth leaves."""

    def __init__(self, depth: int = DEFAULT_DEPTH):
        if depth < 1:
            raise ValueError("depth must be at least 1")
        self.depth = depth
        self._empty = empty_digests(depth)
        # _levels[0] holds leaf digests, _levels[depth] holds the root
        self._levels: list[list[bytes]] = [[] for _ in range(depth + 1)]
        self._positions: dict[bytes, int] = {}

    @property
    def capacity(self) -> int:
        return 1 << self.depth

    def root(self) -> bytes:
        if not self._levels[self.depth]:
            return self._empty[self.depth]
        return self._levels[self.depth][0]

    def append(self, payload: bytes) -> int:
        position = len(self._levels[0])
        if position >= self.capacity:
            raise CapacityError(f"tree is full ({self.capacity} leaves)")
        self._set(0, position, _leaf_hash(payload))
        idx = position
        for lvl in range(self.depth):
            nodes = self._levels[lvl]
            if idx & 1:
                parent = _node_hash(nodes[idx - 1], nodes[idx])
            else:
                right = nodes[idx + 1] if idx + 1 < len(nodes) else self._empty[lvl]
                parent = _node_hash(nodes[idx], right)
            idx >>= 1
            self._set(lvl + 1, idx, parent)
        self._positions.setdefault(payload, position)
        return position

    def position_of(self, payload: bytes) -> int | None:
        """The first position payload was appended at, or None."""
        return self._positions.get(payload)

    def _set(self, level: int, idx: int, digest: bytes) -> None:
        nodes = self._levels[level]
        if idx < len(nodes):
            nodes[idx] = digest
        else:
            nodes.append(digest)

    def prove_membership(self, position: int) -> MerklePath:
        if not 0 <= position < len(self._levels[0]):
            raise ValueError(f"no leaf at position {position}")
        sibs = []
        idx = position
        for lvl in range(self.depth):
            nodes = self._levels[lvl]
            sib_idx = idx ^ 1
            sibs.append(nodes[sib_idx] if sib_idx < len(nodes) else self._empty[lvl])
            idx >>= 1
        return MerklePath(position, tuple(sibs))
