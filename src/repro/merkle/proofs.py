"""Merkle inclusion proofs.

A :class:`MerklePath` is the list of sibling hashes from a leaf to the
root (paper §3.3: the ``S`` component of a receipt).  Verification
recomputes the root from the leaf digest and compares.
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import sha256

from .. import codec
from ..crypto.hashing import Digest, digest_pair
from ..errors import MerkleError


@dataclass(frozen=True, slots=True)
class MerklePath:
    """Inclusion proof for one leaf: leaf index, tree size, and the steps
    ordered leaf-to-root, each a sibling digest and the side it sits on.

    The steps are held packed: ``siblings`` is their 32-byte digests
    joined (32 bytes a step) and bit ``k`` of ``lefts`` is set when the
    sibling of step ``k`` is on the left.  A client keeps one path per
    receipt, so a path is one ``bytes`` object whatever its length;
    :attr:`steps` and :meth:`to_wire` give the ``(sibling, on_left)``
    pairs of the wire form."""

    leaf_index: int
    tree_size: int
    siblings: bytes
    lefts: int

    def __len__(self) -> int:
        return len(self.siblings) // 32

    @property
    def steps(self) -> tuple[tuple[Digest, bool], ...]:
        """The ``(sibling, sibling_on_left)`` pairs, leaf to root."""
        siblings, lefts = self.siblings, self.lefts
        return tuple([
            (siblings[offset : offset + 32], _SIDES[lefts >> (offset >> 5) & 1])
            for offset in range(0, len(siblings), 32)
        ])

    def to_wire(self) -> tuple:
        """Canonical tuple form for codec encoding."""
        return (self.leaf_index, self.tree_size, self.steps)

    def encoded_size(self) -> int:
        """``codec.encoded_size(self.to_wire())`` without encoding: every
        step is a 32-byte digest and a ``bool``, 37 bytes encoded."""
        steps = len(self)
        return codec.sequence_size(
            3,
            codec.encoded_size(self.leaf_index) + codec.encoded_size(self.tree_size)
            + codec.sequence_size(steps, _STEP_SIZE * steps),
        )

    @staticmethod
    def from_wire(raw: tuple) -> "MerklePath":
        return codec.parse(raw, None, 3, MerkleError, _path)


def _path(leaf_index: int, tree_size: int, steps: tuple) -> MerklePath:
    siblings, lefts = [], 0
    for k, (sibling, on_left) in enumerate(steps):
        if not isinstance(sibling, bytes) or len(sibling) != 32:
            raise MerkleError("malformed path step sibling")
        siblings.append(sibling)
        if on_left:
            lefts |= 1 << k
    return MerklePath(int(leaf_index), int(tree_size), b"".join(siblings), lefts)


_STEP_SIZE = codec.encoded_size((bytes(32), False))
_SIDES = (False, True)  # a direction bit as the wire form's ``on_left``


def frontier_root(peaks: tuple) -> Digest:
    """The root implied by a frontier (peak decomposition), folding peaks
    right-to-left — matches :meth:`MerkleTree.root` over the same leaves.
    ``peaks`` is a sequence of ``(height, digest)`` pairs as produced by
    :meth:`MerkleTree.frontier_at`."""
    from ..crypto.hashing import EMPTY_DIGEST

    if not peaks:
        return EMPTY_DIGEST
    acc = peaks[-1][1]
    for _, peak in reversed(tuple(peaks)[:-1]):
        acc = digest_pair(peak, acc)
    return acc


def frontier_from_wire(raw: tuple) -> tuple[tuple[int, Digest], ...]:
    """Validate and re-type a frontier received over the wire."""
    peaks = codec.parse(raw, None, None, MerkleError, lambda *peaks: tuple((int(h), s) for h, s in peaks))
    heights = [h for h, _ in peaks]
    if heights != sorted(heights, reverse=True) or len(set(heights)) != len(heights):
        raise MerkleError("frontier heights must be strictly decreasing")
    for h, sibling in peaks:
        # h is bounded so a hostile frontier cannot make `1 << h` (used
        # for size accounting) materialize astronomically large integers.
        if not 0 <= h <= 62 or not isinstance(sibling, bytes) or len(sibling) != 32:
            raise MerkleError("malformed frontier peak")
    return peaks


def path_root(leaf: Digest, path: MerklePath) -> Digest:
    """Recompute the root implied by ``leaf`` and ``path``."""
    acc, siblings, lefts = leaf, path.siblings, path.lefts
    for offset in range(0, len(siblings), 32):
        sibling = siblings[offset : offset + 32]
        acc = sha256(sibling + acc if lefts & 1 else acc + sibling).digest()
        lefts >>= 1
    return acc


def verify_path(leaf: Digest, path: MerklePath, root: Digest) -> bool:
    """True iff ``path`` proves ``leaf`` is in the tree with ``root``."""
    return path_root(leaf, path) == root
