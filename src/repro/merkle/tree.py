"""Append-only Merkle tree with truncation and historical roots.

The tree structure matches CCF's: the root of ``n`` leaves splits at the
largest power of two strictly less than ``n`` (RFC 6962 shape), interior
nodes are ``SHA256(left || right)``, and the root of a single leaf is the
leaf digest itself.  This shape has the property that appending never
rewrites existing interior nodes, so an incremental "peak stack" gives
O(log n) amortized appends, and rolling back (paper Lemma 1) is a simple
truncation of the leaf sequence.

Because interior nodes are immutable once created, the tree additionally
memoizes them (``_nodes``) and keeps an append-only frontier of historical
roots (``_roots``): :meth:`root` folds the peak stack once per size and
caches the result, and :meth:`root_at` / :meth:`path` answer from the node
cache instead of re-hashing whole subtrees.  Replicas call ``root()`` at
every batch and auditors call ``root_at()`` for every batch boundary, so
this turns the ledger's root maintenance from O(n) per query into
amortized O(log n).

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
from .proofs import MerklePath, PathStep


class MerkleTree:
    """An append-only Merkle tree over caller-supplied leaf digests.

    Leaves are 32-byte digests; callers hash their entries before
    appending (``digest_value(entry)``).  The empty tree has the
    distinguished all-zero root.
    """

    __slots__ = ("_leaves", "_peaks", "_nodes", "_roots", "_base")

    def __init__(self, leaves: list[Digest] | None = None) -> None:
        self._leaves: list[Digest] = []
        # Peaks: list of (height, digest) for complete subtrees, left to
        # right, strictly decreasing heights (binary-counter structure).
        self._peaks: list[tuple[int, Digest]] = []
        # Memoized interior nodes: (lo, hi) -> digest of leaves[lo:hi].
        # Append-only trees never invalidate a node below the current size.
        self._nodes: dict[tuple[int, int], Digest] = {}
        # Root frontier: _roots[size] (when present) is the root the tree
        # had at ``size`` leaves.  Filled by root()/root_at() on demand.
        self._roots: dict[int, Digest] = {}
        # Compaction boundary: leaves below _base were garbage-collected;
        # _leaves[0] is the leaf at absolute index _base, and the pruned
        # prefix survives only as its frontier peaks in _nodes.
        self._base: int = 0
        if leaves:
            for leaf in leaves:
                self.append(leaf)

    # -- basic container protocol -------------------------------------

    def __len__(self) -> int:
        return self._base + len(self._leaves)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MerkleTree):
            return NotImplemented
        return self._base == other._base and self._leaves == other._leaves

    @property
    def base(self) -> int:
        """Absolute index of the first retained leaf (0 when uncompacted)."""
        return self._base

    def leaf(self, index: int) -> Digest:
        """The leaf digest at (absolute) ``index``."""
        if not self._base <= index < len(self):
            raise MerkleError(
                f"leaf index {index} out of retained range [{self._base}, {len(self)})"
            )
        return self._leaves[index - self._base]

    def leaves(self) -> list[Digest]:
        """A copy of all retained leaf digests (oldest first)."""
        return list(self._leaves)

    # -- mutation ------------------------------------------------------

    def append(self, leaf: Digest) -> int:
        """Append a leaf digest; returns its (absolute) index."""
        if len(leaf) != 32:
            raise MerkleError(f"leaf must be a 32-byte digest, got {len(leaf)} bytes")
        index = len(self)
        self._leaves.append(leaf)
        # Binary-counter merge: combine equal-height peaks.  Merged peaks
        # are complete power-of-two subtrees — exactly the interior nodes
        # root_at/path need later, so record them in the node cache.
        self._peaks.append((0, leaf))
        end = index + 1
        while len(self._peaks) >= 2 and self._peaks[-1][0] == self._peaks[-2][0]:
            height, right = self._peaks.pop()
            _, left = self._peaks.pop()
            merged = digest_pair(left, right)
            self._peaks.append((height + 1, merged))
            self._nodes[(end - (1 << (height + 1)), end)] = merged
        return index

    def truncate(self, size: int) -> None:
        """Roll the tree back to its first ``size`` leaves (Lemma 1).

        Only a suffix may be removed, and never one reaching below the
        compaction boundary — rollback only ever undoes uncommitted
        batches, which by the retention policy sit above every garbage-
        collected prefix.
        """
        if not self._base <= size <= len(self):
            raise MerkleError(
                f"cannot truncate to {size}, tree retains [{self._base}, {len(self)})"
            )
        if size == len(self):
            return
        # Recompute the peak stack for the shorter tree from the node
        # cache *before* dropping anything (frontier_at only reads).
        new_peaks = list(self.frontier_at(size))
        del self._leaves[size - self._base :]
        self._nodes = {span: d for span, d in self._nodes.items() if span[1] <= size}
        self._roots = {s: r for s, r in self._roots.items() if s <= size}
        self._peaks = new_peaks

    def compact_below(self, size: int) -> int:
        """Garbage-collect the leaves below (absolute) ``size``.

        The pruned prefix is replaced by its frontier peaks, which are
        pinned in the node cache; every query for sizes/indices at or
        above ``size`` keeps answering exactly as before (the RFC 6962
        split of any larger tree decomposes the pruned region into these
        very peaks).  Returns the number of leaves dropped.
        """
        if not self._base <= size <= len(self):
            raise MerkleError(
                f"cannot compact below {size}, tree retains [{self._base}, {len(self)})"
            )
        if size == self._base:
            return 0
        # Pin the boundary frontier: peak spans (offset, offset + 2^h).
        peak_spans: set[tuple[int, int]] = set()
        offset = 0
        for height, node in self.frontier_at(size):
            span = (offset, offset + (1 << height))
            self._nodes[span] = node
            peak_spans.add(span)
            offset += 1 << height
        dropped = size - self._base
        del self._leaves[:dropped]
        self._nodes = {
            span: d
            for span, d in self._nodes.items()
            if span[1] > size or span in peak_spans
        }
        self._roots = {s: r for s, r in self._roots.items() if s >= size}
        self._base = size
        return dropped

    def copy(self) -> "MerkleTree":
        """An independent copy of this tree."""
        clone = MerkleTree()
        clone._leaves = list(self._leaves)
        clone._peaks = list(self._peaks)
        clone._nodes = dict(self._nodes)
        clone._roots = dict(self._roots)
        clone._base = self._base
        return clone

    @staticmethod
    def from_frontier(peaks: tuple) -> "MerkleTree":
        """A tree seeded from a frontier (peak decomposition) instead of
        leaves: the implied prefix is treated as already compacted, so the
        tree starts at ``base == sum(2^h)`` and supports appends plus every
        query at or above that boundary.  Used to materialize suffix-rooted
        ledgers from a checkpoint's frontier."""
        tree = MerkleTree()
        offset = 0
        for height, node in peaks:
            if not isinstance(node, bytes) or len(node) != 32:
                raise MerkleError("malformed frontier peak digest")
            span = 1 << height
            tree._nodes[(offset, offset + span)] = node
            offset += span
        tree._base = offset
        tree._peaks = [(h, d) for h, d in peaks]
        return tree

    # -- roots ---------------------------------------------------------

    def root(self) -> Digest:
        """The current root (all-zero digest for the empty tree)."""
        if not self._peaks:
            return EMPTY_DIGEST
        size = len(self)
        cached = self._roots.get(size)
        if cached is not None:
            return cached
        # Fold peaks right-to-left: matches the recursive
        # split-at-largest-power-of-two definition.
        acc = self._peaks[-1][1]
        for _, peak in reversed(self._peaks[:-1]):
            acc = digest_pair(peak, acc)
        self._roots[size] = acc
        return acc

    def root_at(self, size: int) -> Digest:
        """The root the tree had when it contained ``size`` leaves.

        Sizes below the compaction boundary raise — their leaves (and the
        cached roots over them) are gone."""
        if not 0 <= size <= len(self):
            raise MerkleError(f"size {size} out of range [0, {len(self)}]")
        if size == 0:
            return EMPTY_DIGEST
        cached = self._roots.get(size)
        if cached is not None:
            return cached
        if size < self._base:
            raise MerkleError(
                f"root at size {size} was garbage-collected (compacted below {self._base})"
            )
        root = self._node(0, size)
        self._roots[size] = root
        return root

    def _node(self, lo: int, hi: int) -> Digest:
        """Memoized digest of the subtree over ``leaves[lo:hi]``.

        Spans fully below the compaction boundary resolve from the pinned
        boundary peaks; any other compacted span raises (no query for a
        size/index at or above the boundary ever produces one)."""
        cached = self._nodes.get((lo, hi))
        if cached is not None:
            return cached
        if hi - lo == 1:
            if lo < self._base:
                raise MerkleError(f"leaf {lo} was garbage-collected (compacted below {self._base})")
            return self._leaves[lo - self._base]
        k = _largest_power_of_two_below(hi - lo)
        node = digest_pair(self._node(lo, lo + k), self._node(lo + k, hi))
        self._nodes[(lo, hi)] = node
        return node

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
        size = len(self) if size is None else size
        if not 0 <= size <= len(self):
            raise MerkleError(f"size {size} out of range [0, {len(self)}]")
        if size < self._base:
            raise MerkleError(
                f"frontier at size {size} was garbage-collected (compacted below {self._base})"
            )
        peaks: list[tuple[int, Digest]] = []
        offset = 0
        remaining = size
        height = remaining.bit_length() - 1
        while remaining:
            span = 1 << height
            if remaining >= span:
                peaks.append((height, self._node(offset, offset + span)))
                offset += span
                remaining -= span
            height -= 1
        return tuple(peaks)

    # -- proofs ----------------------------------------------------------

    def path(self, index: int, size: int | None = None) -> MerklePath:
        """Inclusion proof for leaf ``index`` in the tree of ``size`` leaves
        (default: current size).  Verifiable with :func:`verify_path`.
        ``index`` must be a retained leaf (at or above the compaction
        boundary)."""
        size = len(self) if size is None else size
        if not 0 <= size <= len(self):
            raise MerkleError(f"size {size} out of range")
        if not 0 <= index < size:
            raise MerkleError(f"leaf index {index} out of range [0, {size})")
        if index < self._base:
            raise MerkleError(
                f"leaf {index} was garbage-collected (compacted below {self._base})"
            )
        steps: list[PathStep] = []
        self._collect_path(0, size, index, steps)
        return MerklePath(leaf_index=index, tree_size=size, steps=tuple(steps))

    def _collect_path(self, lo: int, hi: int, index: int, steps: list[PathStep]) -> None:
        """Collect sibling digests from leaf to root (appended leaf-to-root),
        reading interior nodes from the memo cache."""
        if hi - lo == 1:
            return
        k = _largest_power_of_two_below(hi - lo)
        if index < lo + k:
            self._collect_path(lo, lo + k, index, steps)
            steps.append(PathStep(sibling=self._node(lo + k, hi), sibling_on_left=False))
        else:
            self._collect_path(lo + k, hi, index, steps)
            steps.append(PathStep(sibling=self._node(lo, lo + k), sibling_on_left=True))


def _largest_power_of_two_below(n: int) -> int:
    """Largest power of two strictly less than n (n >= 2)."""
    k = 1
    while k * 2 < n:
        k *= 2
    return k


def _subtree_root(leaves: list[Digest], lo: int, hi: int) -> Digest:
    """Root of ``leaves[lo:hi]`` under the RFC 6962 split rule.

    Uncached reference implementation — kept for equivalence tests and
    benchmarks against the memoized :meth:`MerkleTree._node` path."""
    n = hi - lo
    if n == 1:
        return leaves[lo]
    k = _largest_power_of_two_below(n)
    return digest_pair(_subtree_root(leaves, lo, lo + k), _subtree_root(leaves, lo + k, hi))
