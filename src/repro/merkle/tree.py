"""Append-only Merkle tree with truncation and historical roots.

The tree structure matches CCF's: the root of ``n`` leaves splits at the
largest power of two strictly less than ``n`` (RFC 6962 shape), interior
nodes are ``SHA256(left || right)``, and the root of a single leaf is the
leaf digest itself.  This shape has the property that appending never
rewrites existing interior nodes, so an incremental binary-counter merge
gives O(log n) amortized appends, and rolling back (paper Lemma 1) is a
simple truncation of the leaf sequence.

Interior nodes are immutable once created, so the tree keeps them, by
position: ``_levels[h]`` holds the complete subtrees of height ``h`` —
node ``i`` covers leaves ``[i * 2^h, (i + 1) * 2^h)`` — and
``_levels[0]`` is the leaves.  :meth:`append` creates exactly these
nodes, and every left child in the RFC 6962 decomposition of any prefix
is one of them, so :meth:`root_at`, :meth:`frontier_at` and :meth:`path`
read stored nodes instead of re-hashing whole subtrees.  The few spans
that are not a power of two wide (the right spine under a path's tree
size) are hashed on demand and kept in ``_spans``; roots are cached per
size in ``_roots``.  Replicas call ``root()`` at every batch and auditors
call ``root_at()`` for every batch boundary, so this turns the ledger's
root maintenance from O(n) per query into amortized O(log n).

For ledger garbage collection the tree supports *prefix compaction*
(:meth:`compact_below`): the leaves below a boundary are dropped and
replaced by the boundary's frontier — the peak decomposition of the
pruned prefix.  The RFC 6962 split rule guarantees that any subtree
query for a size at or past the boundary decomposes the pruned region
into exactly those peaks, so :meth:`root_at`, :meth:`frontier_at`, and
:meth:`path` keep working for everything at or above the boundary while
the per-leaf storage of the prefix is reclaimed.  Queries that reach
below the boundary raise :class:`~repro.errors.MerkleError`.
"""

from __future__ import annotations

from ..crypto.hashing import Digest, digest_pair, EMPTY_DIGEST
from ..errors import MerkleError
from .proofs import MerklePath, frontier_root


class MerkleTree:
    """An append-only Merkle tree over caller-supplied leaf digests.

    Leaves are 32-byte digests; callers hash their entries before
    appending (``digest_value(entry)``).  The empty tree has the
    distinguished all-zero root.
    """

    __slots__ = ("_levels", "_spans", "_roots", "_base", "_size")

    def __init__(self, leaves: list[Digest] | None = None) -> None:
        # _levels[h][i - self._first(h)] is node i of height h; each level
        # is contiguous up to the last complete node below the size.
        self._levels: list[list[Digest]] = [[]]
        # Digests of spans whose width is not a power of two: (lo, hi) -> digest.
        self._spans: dict[tuple[int, int], Digest] = {}
        # Root frontier: _roots[size] (when present) is the root the tree
        # had at ``size`` leaves.  Filled by root()/root_at() on demand.
        self._roots: dict[int, Digest] = {}
        # Compaction boundary: leaves below _base were garbage-collected
        # and the pruned prefix survives only as its frontier peaks.
        self._base: int = 0
        self._size: int = 0
        if leaves:
            for leaf in leaves:
                self.append(leaf)

    def _first(self, height: int) -> int:
        """Index of the first node kept at ``height``.  Below the
        compaction boundary only its frontier peak at that height (when
        the boundary has that bit set) survives; nodes that end above the
        boundary are all kept."""
        return (self._base >> (height + 1)) << 1

    # -- basic container protocol -------------------------------------

    def __len__(self) -> int:
        return self._size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MerkleTree):
            return NotImplemented
        return self._base == other._base and self.leaves() == other.leaves()

    @property
    def base(self) -> int:
        """Absolute index of the first retained leaf (0 when uncompacted)."""
        return self._base

    def leaf(self, index: int) -> Digest:
        """The leaf digest at (absolute) ``index``."""
        if not self._base <= index < self._size:
            raise MerkleError(
                f"leaf index {index} out of retained range [{self._base}, {self._size})"
            )
        return self._levels[0][index - self._first(0)]

    def leaves(self) -> list[Digest]:
        """A copy of all retained leaf digests (oldest first)."""
        return self._levels[0][self._base - self._first(0) :]

    # -- mutation ------------------------------------------------------

    def append(self, leaf: Digest) -> int:
        """Append a leaf digest; returns its (absolute) index."""
        if len(leaf) != 32:
            raise MerkleError(f"leaf must be a 32-byte digest, got {len(leaf)} bytes")
        index = self._size
        levels = self._levels
        levels[0].append(leaf)
        self._size = index + 1
        # Binary-counter merge: while the new node is a right child, hash
        # it with its left sibling (the node before it on its level) into
        # their parent, which completes at this very append.
        node, height, position = leaf, 0, index
        while position & 1:
            node = digest_pair(levels[height][-2], node)
            height += 1
            position >>= 1
            if height == len(levels):
                levels.append([])
            levels[height].append(node)
        return index

    def truncate(self, size: int) -> None:
        """Roll the tree back to its first ``size`` leaves (Lemma 1).

        Only a suffix may be removed, and never one reaching below the
        compaction boundary — rollback only ever undoes uncommitted
        batches, which by the retention policy sit above every garbage-
        collected prefix.
        """
        if not self._base <= size <= self._size:
            raise MerkleError(
                f"cannot truncate to {size}, tree retains [{self._base}, {self._size})"
            )
        if size == self._size:
            return
        # A node survives iff it ends at or below the new size.
        for height, level in enumerate(self._levels):
            del level[(size >> height) - self._first(height) :]
        self._spans = {span: d for span, d in self._spans.items() if span[1] <= size}
        self._roots = {s: r for s, r in self._roots.items() if s <= size}
        self._size = size

    def compact_below(self, size: int) -> int:
        """Garbage-collect the leaves below (absolute) ``size``.

        The pruned prefix is replaced by its frontier peaks, which stay in
        their levels; every query for sizes/indices at or above ``size``
        keeps answering exactly as before (the RFC 6962 split of any
        larger tree decomposes the pruned region into these very peaks).
        Returns the number of leaves dropped.
        """
        if not self._base <= size <= self._size:
            raise MerkleError(
                f"cannot compact below {size}, tree retains [{self._base}, {self._size})"
            )
        if size == self._base:
            return 0
        for height, level in enumerate(self._levels):
            del level[: ((size >> (height + 1)) << 1) - self._first(height)]
        dropped = size - self._base
        self._base = size
        self._spans = {span: d for span, d in self._spans.items() if span[1] > size}
        self._roots = {s: r for s, r in self._roots.items() if s >= size}
        return dropped

    def copy(self) -> "MerkleTree":
        """An independent copy of this tree."""
        clone = MerkleTree()
        clone._levels = [list(level) for level in self._levels]
        clone._spans = dict(self._spans)
        clone._roots = dict(self._roots)
        clone._base = self._base
        clone._size = self._size
        return clone

    @staticmethod
    def from_frontier(peaks: tuple) -> "MerkleTree":
        """A tree seeded from a frontier (peak decomposition) instead of
        leaves: the implied prefix is treated as already compacted, so the
        tree starts at ``base == sum(2^h)`` and supports appends plus every
        query at or above that boundary.  Used to materialize suffix-rooted
        ledgers from a checkpoint's frontier."""
        heights = [height for height, _ in peaks]
        if any(high <= low for high, low in zip(heights, heights[1:])):
            raise MerkleError("frontier heights must be strictly decreasing")
        tree = MerkleTree()
        tree._levels = [[] for _ in range(heights[0] + 1 if heights else 1)]
        for height, node in peaks:
            if not isinstance(node, bytes) or len(node) != 32:
                raise MerkleError("malformed frontier peak digest")
            tree._levels[height].append(node)
            tree._base += 1 << height
        tree._size = tree._base
        return tree

    # -- roots ---------------------------------------------------------

    def root(self) -> Digest:
        """The current root (all-zero digest for the empty tree)."""
        return self.root_at(self._size)

    def root_at(self, size: int) -> Digest:
        """The root the tree had when it contained ``size`` leaves.

        Sizes below the compaction boundary raise — their leaves (and the
        cached roots over them) are gone."""
        if not 0 <= size <= self._size:
            raise MerkleError(f"size {size} out of range [0, {self._size}]")
        if size == 0:
            return EMPTY_DIGEST
        cached = self._roots.get(size)
        if cached is not None:
            return cached
        # Folding the peaks right-to-left is the recursive
        # split-at-largest-power-of-two definition.
        root = self._roots[size] = frontier_root(self.frontier_at(size))
        return root

    def _node(self, lo: int, hi: int) -> Digest:
        """Digest of the subtree over ``leaves[lo:hi]`` (a span the RFC
        6962 split of some prefix produces): a stored node when the width
        is a power of two, else hashed once into ``_spans``.  Spans below
        the compaction boundary resolve to its pinned peaks; any other
        compacted span raises (no query at or above the boundary asks)."""
        width = hi - lo
        if width & (width - 1):
            node = self._spans.get((lo, hi))
            if node is None:
                k = _largest_power_of_two_below(width)
                node = digest_pair(self._node(lo, lo + k), self._node(lo + k, hi))
                self._spans[(lo, hi)] = node
            return node
        height = width.bit_length() - 1
        position = (lo >> height) - self._first(height)
        if position < 0:
            raise MerkleError(
                f"span [{lo}, {hi}) was garbage-collected (compacted below {self._base})"
            )
        return self._levels[height][position]

    def frontier_at(self, size: int | None = None) -> tuple[tuple[int, Digest], ...]:
        """The peak decomposition of the tree at ``size`` leaves: a tuple
        of ``(height, digest)`` pairs, one per set bit of ``size``, left
        to right (strictly decreasing heights).

        The frontier is everything needed to keep *appending* to the tree
        without the underlying leaves: checkpoints ship it so a replica
        restoring from one can extend the ledger tree M and reproduce
        every subsequent root (see :class:`~repro.merkle.proofs.FrontierAccumulator`).
        ``size`` must be at or above the compaction boundary.
        """
        size = self._size if size is None else size
        if not 0 <= size <= self._size:
            raise MerkleError(f"size {size} out of range [0, {self._size}]")
        if size < self._base:
            raise MerkleError(
                f"frontier at size {size} was garbage-collected (compacted below {self._base})"
            )
        levels = self._levels
        return tuple(
            (height, levels[height][(size >> height) - 1 - self._first(height)])
            for height in reversed(range(size.bit_length()))
            if size >> height & 1
        )

    # -- proofs ----------------------------------------------------------

    def path(self, index: int, size: int | None = None) -> MerklePath:
        """Inclusion proof for leaf ``index`` in the tree of ``size`` leaves
        (default: current size).  Verifiable with :func:`verify_path`.
        ``index`` must be a retained leaf (at or above the compaction
        boundary)."""
        size = self._size if size is None else size
        if not 0 <= size <= self._size:
            raise MerkleError(f"size {size} out of range")
        if not 0 <= index < size:
            raise MerkleError(f"leaf index {index} out of range [0, {size})")
        if index < self._base:
            raise MerkleError(
                f"leaf {index} was garbage-collected (compacted below {self._base})"
            )
        steps: list[tuple[Digest, bool]] = []
        self._collect_path(0, size, index, steps)
        return MerklePath(leaf_index=index, tree_size=size, steps=tuple(steps))

    def _collect_path(
        self, lo: int, hi: int, index: int, steps: list[tuple[Digest, bool]]
    ) -> None:
        """Collect ``(sibling, sibling_on_left)`` steps from leaf to root
        (appended leaf-to-root), reading the stored nodes."""
        if hi - lo == 1:
            return
        k = _largest_power_of_two_below(hi - lo)
        if index < lo + k:
            self._collect_path(lo, lo + k, index, steps)
            steps.append((self._node(lo + k, hi), False))
        else:
            self._collect_path(lo + k, hi, index, steps)
            steps.append((self._node(lo, lo + k), True))


def _largest_power_of_two_below(n: int) -> int:
    """Largest power of two strictly less than n (n >= 2)."""
    k = 1
    while k * 2 < n:
        k *= 2
    return k


def _subtree_root(leaves: list[Digest], lo: int, hi: int) -> Digest:
    """Root of ``leaves[lo:hi]`` under the RFC 6962 split rule.

    Uncached reference implementation — kept for equivalence tests and
    benchmarks against the stored nodes of :class:`MerkleTree`."""
    n = hi - lo
    if n == 1:
        return leaves[lo]
    k = _largest_power_of_two_below(n)
    return digest_pair(_subtree_root(leaves, lo, lo + k), _subtree_root(leaves, lo + k, hi))
