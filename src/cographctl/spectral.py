"""Closed-form Laplacian eigenstructure of a cograph, read off its cotree.

Every internal node v contributes one eigenvalue with multiplicity
(number of children of v) - 1:

  * locally it generates label(v) * leaf_count(v): a union node generates 0,
    a join node generates the size of the subgraph it merges;
  * each ancestor u on the walk to the root corrects the value by
    label(u) * (leaf_count(u) - leaf_count(previous step)), because joining
    extra vertices shifts the eigenvalues of an embedded subgraph.

The corrections of all nodes come from one top-down pass: a child's
accumulated correction is its parent's plus the parent's own term, so the
whole spectrum costs time linear in the node count and nothing walks to the
root once per node. The same ancestor sum taken at a leaf is that vertex's
degree, the Laplacian's diagonal entry: each join ancestor adds the vertices
outside the child on the path down, each union ancestor adds none. The pass
keeps it, and the degree partition reads it from there.

The matching eigenvectors are supported only on the node's descendant leaves
and are constant on each child's leaf block, which gives an integer matrix of
a fixed staircase pattern per node. Stacking the per-node blocks yields the
full n x (n-1) nontrivial modal matrix; the all-ones vector covers the
remaining trivial eigenvalue 0.

Everything is exact: eigenvalues are nonnegative integers and eigenvectors
are integer vectors, no floating point is involved anywhere.

The per-node statement assumes a connected cograph (root labeled 1). For a
0-labeled root this module extends it through the union composition rule: the
per-node multiset then already carries the extra zeros of the disconnected
Laplacian. That extension is a documented implementation choice; the
controllability operations never consume it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate

from .cotree import CoTree
from .errors import SizeCapError
from .graphs import IntMatrix

# Most vertices a dense n x (n-1) modal matrix is built for (9 * 10^6 entries).
MODAL_CAP = 3_000


@dataclass(frozen=True)
class Spectrum:
    """Aggregated Laplacian spectrum: ascending (eigenvalue, multiplicity)
    pairs, trivial 0 included, multiplicities summing to the graph size."""

    n: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        values = [v for v, _ in self.pairs]
        if values != sorted(set(values)):
            raise ValueError("eigenvalues must be strictly ascending")
        if any(v < 0 for v in values):
            raise ValueError("Laplacian eigenvalues are nonnegative")
        if any(m < 1 for _, m in self.pairs):
            raise ValueError("multiplicities must be positive")
        if sum(m for _, m in self.pairs) != self.n:
            raise ValueError("multiplicities must sum to n")

    @classmethod
    def from_counts(cls, n: int, counts: Counter) -> "Spectrum":
        return cls(n, tuple(sorted(counts.items())))


@dataclass(frozen=True)
class EigenBlock:
    """One internal node's contribution to the eigenstructure.

    ``block`` is the leaf_count x (children - 1) integer eigenvector pattern
    over the node's descendant leaves; row r of the block belongs to graph
    vertex ``row_vertices[r]``. All other rows of the full modal matrix are
    zero for these columns.
    """

    node: int
    eigenvalue: int
    block: IntMatrix
    row_vertices: tuple[int, ...]

    @property
    def multiplicity(self) -> int:
        return self.block.ncols


def _node_eigenvalues(t: CoTree) -> list[int]:
    """Eigenvalue of every internal node and degree of every leaf, in one
    preorder pass that hands each child its parent's accumulated ancestor
    correction; a leaf keeps the correction it receives, its degree."""
    values = [0] * t.node_count()  # a node's correction until the pass reaches it
    for v in t.internal_ids():
        label, size, correction = t.label(v), t.leaf_count(v), values[v]
        values[v] = label * size + correction
        for c in t.children(v):
            values[c] = correction + label * (size - t.leaf_count(c))
    return values


def _block(t: CoTree, v: int, eigenvalue: int) -> EigenBlock:
    """Integer eigenvector block of internal node v. With child leaf counts
    (n_1, ..., n_k), the leaves of child i > 0 (0-based) get the row of i - 1
    zeros, -(n_1 + ... + n_i), then n_{i+2}, ..., n_k; child 0 gets n_2, ...,
    n_k. So each column sums to zero and is constant on each child."""
    kids = t.children(v)
    sizes = [t.leaf_count(c) for c in kids]
    rows = []
    row_vertices: list[int] = []
    for i, (child, before) in enumerate(zip(kids, accumulate(sizes, initial=0))):
        row = [0] * i + sizes[i + 1:]
        if i:
            row[i - 1] = -before
        leaves = sorted(t.leaf_sequence(child))
        row_vertices += leaves
        rows += [tuple(row)] * len(leaves)
    return EigenBlock(v, eigenvalue, IntMatrix(tuple(rows), len(kids) - 1),
                      tuple(row_vertices))


def eigen_blocks(t: CoTree) -> list[EigenBlock]:
    """Blocks of all internal nodes in canonical (preorder) order.

    Raises SizeCapError, before any block is built, when the blocks hold more
    than ``MODAL_CAP * (MODAL_CAP - 1)`` entries (leaf_count x (children - 1)
    per node). Every tree ``modal_matrix`` accepts is within that, because
    the children - 1 sum to n - 1 and no node has more than n leaves."""
    ids = t.internal_ids()
    entries = sum(t.leaf_count(v) * (len(t.children(v)) - 1) for v in ids)
    if entries > MODAL_CAP * (MODAL_CAP - 1):
        raise SizeCapError(f"eigenvector blocks capped at {MODAL_CAP * (MODAL_CAP - 1)} "
                           f"entries, got {entries}")
    values = _node_eigenvalues(t)
    return [_block(t, v, values[v]) for v in ids]


def spectrum(t: CoTree) -> Spectrum:
    """Full Laplacian spectrum of the represented graph."""
    values = _node_eigenvalues(t)
    counts: Counter = Counter()
    for v in t.internal_ids():
        counts[values[v]] += len(t.children(v)) - 1
    counts[0] += 1
    return Spectrum.from_counts(t.n, counts)


def modal_matrix(t: CoTree) -> IntMatrix:
    """The n x (n-1) nontrivial modal matrix: every node's block, in
    canonical node order, written into its own columns at the rows of its
    vertices; all other entries are zero. Raises SizeCapError above
    ``MODAL_CAP`` vertices, before anything is allocated."""
    if t.n > MODAL_CAP:
        raise SizeCapError(f"modal matrix capped at n <= {MODAL_CAP}, got {t.n}")
    rows = [[0] * (t.n - 1) for _ in range(t.n)]
    col = 0
    for b in eigen_blocks(t):
        for v, entries in zip(b.row_vertices, b.block.entries):
            rows[v - 1][col:col + b.multiplicity] = entries
        col += b.multiplicity
    return IntMatrix(tuple(map(tuple, rows)), t.n - 1)
