"""Merkle trees: roots, historical roots, truncation, inclusion proofs."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.hashing import EMPTY_DIGEST, digest
from repro.errors import MerkleError
from repro.merkle import MerklePath, MerkleTree, path_root, verify_path


def leaves(n, tag=b""):
    return [digest(tag + bytes([i % 256, i // 256])) for i in range(n)]


class TestBasics:
    def test_empty_tree_root(self):
        assert MerkleTree().root() == EMPTY_DIGEST

    def test_single_leaf_root_is_leaf(self):
        leaf = digest(b"x")
        tree = MerkleTree([leaf])
        assert tree.root() == leaf

    def test_two_leaves(self):
        a, b = digest(b"a"), digest(b"b")
        tree = MerkleTree([a, b])
        assert tree.root() == digest(a + b)

    def test_append_returns_index(self):
        tree = MerkleTree()
        assert tree.append(digest(b"0")) == 0
        assert tree.append(digest(b"1")) == 1

    def test_len_and_leaf_access(self):
        ls = leaves(5)
        tree = MerkleTree(ls)
        assert len(tree) == 5
        assert tree.leaf(3) == ls[3]
        with pytest.raises(MerkleError):
            tree.leaf(5)

    def test_bad_leaf_size_rejected(self):
        with pytest.raises(MerkleError):
            MerkleTree().append(b"short")

    def test_equality(self):
        assert MerkleTree(leaves(4)) == MerkleTree(leaves(4))
        assert MerkleTree(leaves(4)) != MerkleTree(leaves(5))


class TestRoots:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33])
    def test_incremental_root_matches_batch(self, n):
        ls = leaves(n)
        incremental = MerkleTree()
        for leaf in ls:
            incremental.append(leaf)
        assert incremental.root() == MerkleTree(ls).root()

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 12, 20])
    def test_root_at_matches_smaller_tree(self, n):
        ls = leaves(n)
        tree = MerkleTree(ls)
        for size in range(n + 1):
            assert tree.root_at(size) == MerkleTree(ls[:size]).root()

    def test_root_at_out_of_range(self):
        with pytest.raises(MerkleError):
            MerkleTree(leaves(3)).root_at(4)

    def test_roots_distinguish_order(self):
        a, b = leaves(2)
        assert MerkleTree([a, b]).root() != MerkleTree([b, a]).root()


class TestTruncation:
    @pytest.mark.parametrize("n,size", [(5, 3), (8, 8), (8, 0), (17, 16), (9, 1)])
    def test_truncate_equals_rebuild(self, n, size):
        ls = leaves(n)
        tree = MerkleTree(ls)
        tree.truncate(size)
        assert tree == MerkleTree(ls[:size])
        assert tree.root() == MerkleTree(ls[:size]).root()

    def test_truncate_then_append_diverges(self):
        tree = MerkleTree(leaves(6))
        tree.truncate(4)
        tree.append(digest(b"new"))
        other = MerkleTree(leaves(6)[:4] + [digest(b"new")])
        assert tree.root() == other.root()

    def test_truncate_beyond_size_rejected(self):
        with pytest.raises(MerkleError):
            MerkleTree(leaves(3)).truncate(4)

    def test_copy_is_independent(self):
        tree = MerkleTree(leaves(4))
        clone = tree.copy()
        clone.append(digest(b"extra"))
        assert len(tree) == 4 and len(clone) == 5


class TestProofs:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 16, 21])
    def test_every_leaf_proves_inclusion(self, n):
        ls = leaves(n)
        tree = MerkleTree(ls)
        root = tree.root()
        for i, leaf in enumerate(ls):
            path = tree.path(i)
            assert verify_path(leaf, path, root)

    def test_historical_proof(self):
        ls = leaves(10)
        tree = MerkleTree(ls)
        path = tree.path(2, size=6)
        assert verify_path(ls[2], path, tree.root_at(6))

    def test_wrong_leaf_fails(self):
        ls = leaves(6)
        tree = MerkleTree(ls)
        path = tree.path(1)
        assert not verify_path(ls[2], path, tree.root())

    def test_wrong_root_fails(self):
        ls = leaves(6)
        tree = MerkleTree(ls)
        assert not verify_path(ls[1], tree.path(1), digest(b"other"))

    def test_path_length_is_logarithmic(self):
        tree = MerkleTree(leaves(300))
        assert len(tree.path(123)) <= 9  # ceil(log2(300)) == 9

    def test_path_wire_roundtrip(self):
        tree = MerkleTree(leaves(7))
        path = tree.path(3)
        again = MerklePath.from_wire(path.to_wire())
        assert again == path
        assert verify_path(tree.leaf(3), again, tree.root())

    def test_path_out_of_range(self):
        tree = MerkleTree(leaves(4))
        with pytest.raises(MerkleError):
            tree.path(4)


# -- property-based ---------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=64), st.data())
def test_property_inclusion_sound(n, data):
    ls = leaves(n, tag=b"prop")
    tree = MerkleTree(ls)
    index = data.draw(st.integers(min_value=0, max_value=n - 1))
    assert verify_path(ls[index], tree.path(index), tree.root())


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=48), st.data())
def test_property_truncate_root_matches(n, data):
    ls = leaves(n, tag=b"trunc")
    size = data.draw(st.integers(min_value=0, max_value=n))
    tree = MerkleTree(ls)
    tree.truncate(size)
    assert tree.root() == MerkleTree(ls[:size]).root()


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=40))
def test_property_root_at_consistent_with_append_history(n):
    ls = leaves(n, tag=b"hist")
    tree = MerkleTree()
    roots = [tree.root()]
    for leaf in ls:
        tree.append(leaf)
        roots.append(tree.root())
    for size, expected in enumerate(roots):
        assert tree.root_at(size) == expected


# -- incremental vs recomputed (seeded, deterministic) -----------------------


def test_incremental_root_matches_reference_recompute():
    """The memoized node cache must agree with the uncached reference
    implementation at every size of a randomized append sequence."""
    import random

    from repro.merkle.tree import _subtree_root

    rng = random.Random(1234)
    ls = [digest(rng.randbytes(24)) for _ in range(200)]
    tree = MerkleTree()
    for leaf in ls:
        tree.append(leaf)
    for size in [1, 2, 3, 5, 17, 63, 64, 65, 128, 199, 200]:
        assert tree.root_at(size) == _subtree_root(ls, 0, size)


def test_randomized_append_truncate_sequences_deterministic():
    """Random interleavings of append/truncate/root_at/path stay
    equivalent to a freshly-built (cache-cold) tree.  Seeded so failures
    reproduce."""
    import random

    rng = random.Random(20260729)
    for _ in range(15):
        tree = MerkleTree()
        reference: list = []
        for _step in range(60):
            op = rng.random()
            if op < 0.6 or not reference:
                leaf = digest(rng.randbytes(16))
                tree.append(leaf)
                reference.append(leaf)
            elif op < 0.75:
                size = rng.randint(0, len(reference))
                tree.truncate(size)
                del reference[size:]
            elif op < 0.9 and reference:
                size = rng.randint(0, len(reference))
                assert tree.root_at(size) == MerkleTree(reference[:size]).root()
            elif reference:
                index = rng.randint(0, len(reference) - 1)
                path = tree.path(index)
                assert verify_path(reference[index], path, tree.root())
        assert tree.root() == MerkleTree(reference).root()
        assert tree.leaves() == reference


def test_copy_shares_no_mutable_state():
    ls = leaves(9, tag=b"copy")
    tree = MerkleTree(ls)
    clone = tree.copy()
    clone.append(digest(b"extra"))
    assert len(tree) == 9 and len(clone) == 10
    assert tree.root() == MerkleTree(ls).root()
    clone.truncate(4)
    assert tree.root_at(9) == MerkleTree(ls).root()


# -- the node store against the reference, over every mutation -----------------------


def _stored_spans(tree):
    """Every ``(lo, hi, digest)`` the tree's node store holds."""
    for height, level in enumerate(tree._levels):
        first = tree._first(height)
        for position, node in enumerate(level):
            lo = (first + position) << height
            yield lo, lo + (1 << height), node
    for (lo, hi), node in tree._spans.items():
        yield lo, hi, node


def _check_against_reference(tree, reference):
    """``tree`` (possibly compacted, so it answers only at or above its
    base) agrees with ``_subtree_root`` over ``reference`` — every leaf
    ever appended, oldest first — and with a tree built fresh from it."""
    from repro.merkle.tree import _subtree_root

    size, base = len(tree), tree.base
    assert size == len(reference)
    fresh = MerkleTree(reference)
    assert tree.root() == fresh.root() == (_subtree_root(reference, 0, size) if size else EMPTY_DIGEST)
    assert tree.leaves() == reference[base:]
    for lo, hi, node in _stored_spans(tree):
        assert hi <= size and node == _subtree_root(reference, lo, hi)
    for k in range(max(base, 1), size + 1):
        assert tree.root_at(k) == fresh.root_at(k) == _subtree_root(reference, 0, k)
        assert tree.frontier_at(k) == fresh.frontier_at(k)
        for i in range(base, k):
            path = tree.path(i, k)
            assert path == fresh.path(i, k)
            assert verify_path(reference[i], path, fresh.root_at(k))


@pytest.mark.parametrize("seed", range(10))
def test_node_store_matches_reference_under_random_mutation(seed):
    """Random sequences of append, truncate, compact_below, from_frontier
    and copy, checked after every step at every legal size and index."""
    import random

    rng = random.Random(seed)
    tree, reference = MerkleTree(), []
    copies = []  # (copy, reference at copy time): later mutations must not reach them
    for _ in range(30):
        op = rng.random()
        base, size = tree.base, len(tree)
        if op < 0.45 or size == base:
            for _ in range(rng.randint(1, 6)):
                leaf = digest(rng.randbytes(8))
                tree.append(leaf)
                reference.append(leaf)
        elif op < 0.65:
            k = rng.randint(base, size)
            tree.truncate(k)
            del reference[k:]
        elif op < 0.8:
            assert tree.compact_below(rng.randint(base, size)) >= 0
        elif op < 0.9:
            k = rng.randint(base, size)
            tree = MerkleTree.from_frontier(tree.frontier_at(k))
            del reference[k:]
            assert tree.base == k
        else:
            copies.append((tree.copy(), list(reference)))
            tree, reference = copies[-1][0].copy(), list(reference)
        _check_against_reference(tree, reference)
    for clone, snapshot in copies:
        _check_against_reference(clone, snapshot)


def test_truncate_after_compact_and_path_after_truncate():
    ls = leaves(45, tag=b"store")
    tree = MerkleTree(ls[:37])
    tree.root_at(37), tree.path(36, 37), tree.path(33, 35)
    tree.compact_below(21)
    tree.truncate(29)
    assert max(hi for _, hi, _ in _stored_spans(tree)) <= 29
    _check_against_reference(tree, ls[:29])
    for leaf in ls[29:]:
        tree.append(leaf)
    _check_against_reference(tree, ls)
    tree.truncate(22)
    assert all(hi <= 22 for _, hi, _ in _stored_spans(tree))
    _check_against_reference(tree, ls[:22])
    assert tree.path(21) == MerkleTree(ls[:22]).path(21)


def test_from_frontier_rejects_heights_out_of_order():
    with pytest.raises(MerkleError):
        MerkleTree.from_frontier(((0, b"\x01" * 32), (1, b"\x02" * 32)))
