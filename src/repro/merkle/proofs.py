"""Merkle inclusion proofs.

A :class:`MerklePath` is the list of sibling hashes from a leaf to the
root (paper §3.3: the ``S`` component of a receipt).  Verification
recomputes the root from the leaf digest and compares.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import codec
from ..crypto.hashing import Digest, digest_pair
from ..errors import MerkleError


@dataclass(frozen=True, slots=True)
class MerklePath:
    """Inclusion proof for one leaf: leaf index, tree size, and the steps
    ordered leaf-to-root, each a ``(sibling, sibling_on_left)`` pair.

    The steps are kept in their wire form: a tuple of ``(bytes, bool)``
    pairs holds nothing the cyclic collector needs to track, so a client
    keeping a receipt per transaction keeps no per-step objects."""

    leaf_index: int
    tree_size: int
    steps: tuple[tuple[Digest, bool], ...]

    def __len__(self) -> int:
        return len(self.steps)

    def to_wire(self) -> tuple:
        """Canonical tuple form for codec encoding."""
        return (self.leaf_index, self.tree_size, self.steps)

    def encoded_size(self) -> int:
        """``codec.encoded_size(self.to_wire())`` without encoding: both
        ways a path is built (``MerkleTree.path``, :meth:`from_wire`) make
        every step a 32-byte digest and a ``bool``, 37 bytes encoded."""
        steps = len(self.steps)
        return codec.sequence_size(
            3,
            codec.encoded_size(self.leaf_index) + codec.encoded_size(self.tree_size)
            + codec.sequence_size(steps, _STEP_SIZE * steps),
        )

    @staticmethod
    def from_wire(raw: tuple) -> "MerklePath":
        try:
            leaf_index, tree_size, steps = raw
            return MerklePath(
                leaf_index=int(leaf_index),
                tree_size=int(tree_size),
                steps=tuple(_step_from_wire(s) for s in steps),
            )
        except (TypeError, ValueError) as exc:
            raise MerkleError(f"malformed merkle path: {exc}") from exc


_STEP_SIZE = codec.encoded_size((bytes(32), False))


def _step_from_wire(raw: tuple) -> tuple[Digest, bool]:
    """Validate one ``(sibling, sibling_on_left)`` step."""
    sibling, on_left = raw
    if not isinstance(sibling, bytes) or len(sibling) != 32:
        raise MerkleError("malformed path step sibling")
    return (sibling, bool(on_left))


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
    try:
        peaks = tuple((int(h), s) for h, s in raw)
    except (TypeError, ValueError) as exc:
        raise MerkleError(f"malformed frontier: {exc}") from exc
    heights = [h for h, _ in peaks]
    if heights != sorted(heights, reverse=True) or len(set(heights)) != len(heights):
        raise MerkleError("frontier heights must be strictly decreasing")
    for h, sibling in peaks:
        # h is bounded so a hostile frontier cannot make `1 << h` (used
        # for size accounting) materialize astronomically large integers.
        if not 0 <= h <= 62 or not isinstance(sibling, bytes) or len(sibling) != 32:
            raise MerkleError("malformed frontier peak")
    return peaks


class FrontierAccumulator:
    """Append-only root tracker seeded from a historical frontier.

    Verifies a fetched ledger *suffix* against signed roots without the
    prefix leaves: seed with the checkpoint's frontier (whose
    :func:`frontier_root` must match the checkpoint's ledger root), then
    append each suffix entry digest; :meth:`root` reproduces what a full
    :class:`~repro.merkle.tree.MerkleTree` over prefix+suffix would report.
    """

    def __init__(self, peaks: tuple) -> None:
        self._peaks: list[tuple[int, Digest]] = list(peaks)
        self.size = sum(1 << h for h, _ in self._peaks)

    def append(self, leaf: Digest) -> None:
        if len(leaf) != 32:
            raise MerkleError(f"leaf must be a 32-byte digest, got {len(leaf)} bytes")
        self._peaks.append((0, leaf))
        while len(self._peaks) >= 2 and self._peaks[-1][0] == self._peaks[-2][0]:
            height, right = self._peaks.pop()
            _, left = self._peaks.pop()
            self._peaks.append((height + 1, digest_pair(left, right)))
        self.size += 1

    def root(self) -> Digest:
        return frontier_root(tuple(self._peaks))


def path_root(leaf: Digest, path: MerklePath) -> Digest:
    """Recompute the root implied by ``leaf`` and ``path``."""
    acc = leaf
    for sibling, on_left in path.steps:
        acc = digest_pair(sibling, acc) if on_left else digest_pair(acc, sibling)
    return acc


def verify_path(leaf: Digest, path: MerklePath, root: Digest) -> bool:
    """True iff ``path`` proves ``leaf`` is in the tree with ``root``."""
    return path_root(leaf, path) == root
