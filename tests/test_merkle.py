"""Accumulator behavior, checked against a from-scratch rebuild oracle."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anoncrowd.errors import CapacityError
from anoncrowd.merkle import MerklePath, MerkleTree, verify_path


def rebuild_root_oracle(depth: int, payloads: list[bytes]) -> bytes:
    """Recomputes the root non-incrementally, straight from the definition:
    pad the leaf layer to 2**depth empties and fold level by level. Shares
    only the hash function domain prefixes with the implementation."""
    dst = b"anoncrowd/v1/hash"

    def h(data: bytes) -> bytes:
        return hashlib.sha256(dst + data).digest()

    level = [h(b"\x00" + p) for p in payloads]
    level += [h(b"\x00")] * ((1 << depth) - len(level))
    for _ in range(depth):
        level = [h(b"\x01" + level[i] + level[i + 1]) for i in range(0, len(level), 2)]
    return level[0]


def payloads_upto(n: int) -> list[bytes]:
    return [f"leaf-{i}".encode() for i in range(n)]


class TestRootAgainstOracle:
    def test_every_fill_level_depth4(self):
        for n in range(0, 17):
            tree = MerkleTree(depth=4)
            for p in payloads_upto(n):
                tree.append(p)
            assert tree.root() == rebuild_root_oracle(4, payloads_upto(n)), f"n={n}"

    def test_incremental_matches_rebuild_depth20(self):
        tree = MerkleTree(depth=20)
        ps = payloads_upto(50)
        for p in ps:
            tree.append(p)
        assert tree.root() == rebuild_root_oracle(20, ps)

    def test_empty_tree_root_is_defined(self):
        assert MerkleTree(depth=4).root() == rebuild_root_oracle(4, [])


class TestPaths:
    def test_all_positions_verify_depth4(self):
        ps = payloads_upto(11)
        tree = MerkleTree(depth=4)
        for p in ps:
            tree.append(p)
        root = tree.root()
        for pos, payload in enumerate(ps):
            path = tree.prove_membership(pos)
            assert path.position == pos
            assert len(path.siblings) == 4
            assert verify_path(root, payload, path)

    def test_exhaustive_soundness_depth4(self):
        # every proven path rejects every other payload and every other
        # position, for every occupied slot of a partly filled tree
        ps = payloads_upto(6)
        tree = MerkleTree(depth=4)
        for p in ps:
            tree.append(p)
        root = tree.root()
        paths = [tree.prove_membership(i) for i in range(len(ps))]
        for pos, path in enumerate(paths):
            for other_pos, other_payload in enumerate(ps):
                ok = verify_path(root, other_payload, path)
                assert ok == (other_pos == pos)
            shifted = MerklePath((pos + 1) % 16, path.siblings)
            assert not verify_path(root, ps[pos], shifted)

    def test_path_invalid_after_root_moves(self):
        tree = MerkleTree(depth=4)
        tree.append(b"a")
        old_root = tree.root()
        path = tree.prove_membership(0)
        tree.append(b"b")
        assert verify_path(old_root, b"a", path)
        assert not verify_path(tree.root(), b"a", path)
        fresh = tree.prove_membership(0)
        assert verify_path(tree.root(), b"a", fresh)

    def test_tampered_sibling_rejected(self):
        tree = MerkleTree(depth=4)
        tree.append(b"x")
        path = tree.prove_membership(0)
        bad = MerklePath(0, (b"\x00" * 32,) + path.siblings[1:])
        assert not verify_path(tree.root(), b"x", bad)

    def test_unknown_position_errors(self):
        tree = MerkleTree(depth=4)
        with pytest.raises(ValueError):
            tree.prove_membership(0)
        tree.append(b"a")
        with pytest.raises(ValueError):
            tree.prove_membership(1)
        with pytest.raises(ValueError):
            tree.prove_membership(-1)


class TestCapacityAndDuplicates:
    def test_capacity_boundary(self):
        tree = MerkleTree(depth=2)
        for i in range(4):
            assert tree.append(bytes([i])) == i
        with pytest.raises(CapacityError):
            tree.append(b"overflow")

    def test_duplicate_payloads_get_distinct_positions(self):
        tree = MerkleTree(depth=3)
        a = tree.append(b"same")
        b = tree.append(b"same")
        assert (a, b) == (0, 1)
        root = tree.root()
        assert verify_path(root, b"same", tree.prove_membership(0))
        assert verify_path(root, b"same", tree.prove_membership(1))
        # the leaf index keeps a repeated payload's first position
        tree.append(b"other")
        assert tree.position_of(b"same") == 0
        assert tree.position_of(b"other") == 2
        assert tree.position_of(b"never") is None


@given(
    n=st.integers(min_value=0, max_value=24),
    salt=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=40, deadline=None)
def test_property_incremental_equals_rebuild(n, salt):
    ps = [f"{salt}:{i}".encode() for i in range(n)]
    tree = MerkleTree(depth=5)
    for p in ps:
        tree.append(p)
    assert tree.root() == rebuild_root_oracle(5, ps)
