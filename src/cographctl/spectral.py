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
root once per node.

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
from .graphs import IntMatrix


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


def local_eigenvalue(t: CoTree, v: int) -> int:
    """Eigenvalue generated at internal node v before ancestor corrections:
    0 for a union node, leaf_count(v) for a join node."""
    return t.label(v) * t.leaf_count(v)


def updated_eigenvalue(t: CoTree, v: int, ancestor: int | None = None) -> int:
    """Node v's eigenvalue after corrections along the path to ``ancestor``
    (the root by default)."""
    if t.is_leaf(v):
        raise ValueError("eigenvalues are generated by internal nodes only")
    target = t.root if ancestor is None else ancestor
    value = local_eigenvalue(t, v)
    path = t.path_to_root(v)
    if target not in path:
        raise ValueError(f"node {target} is not an ancestor of node {v}")
    prev = v
    for u in path[1:]:
        value += t.label(u) * (t.leaf_count(u) - t.leaf_count(prev))
        prev = u
        if u == target:
            break
    return value


def _node_eigenvalues(t: CoTree) -> list[int]:
    """Eigenvalue of every internal node (0 at leaves), in one preorder pass
    that hands each child its parent's accumulated ancestor correction."""
    correction = [0] * t.node_count()
    values = [0] * t.node_count()
    for v in t.internal_ids():
        label, size = t.label(v), t.leaf_count(v)
        values[v] = label * size + correction[v]
        for c in t.children(v):
            correction[c] = correction[v] + label * (size - t.leaf_count(c))
    return values


def modal_block(t: CoTree, v: int) -> EigenBlock:
    """Integer eigenvector block of internal node v.

    With child leaf counts (n_1, ..., n_k), column j (0-based) holds
    n_{j+2} on the leaves of children 0..j, -(n_1 + ... + n_{j+1}) on the
    leaves of child j+1, and 0 below. Each column sums to zero.
    """
    if t.is_leaf(v):
        raise ValueError("modal blocks belong to internal nodes only")
    return _block(t, v, updated_eigenvalue(t, v))


def _block(t: CoTree, v: int, eigenvalue: int) -> EigenBlock:
    kids = t.children(v)
    sizes = [t.leaf_count(c) for c in kids]
    prefix = [0] + list(accumulate(sizes))
    rows = []
    row_vertices: list[int] = []
    for ci, child in enumerate(kids):
        for vertex in sorted(t.leaf_sequence(child)):
            row_vertices.append(vertex)
            row = []
            for j in range(len(kids) - 1):
                if ci <= j:
                    row.append(sizes[j + 1])
                elif ci == j + 1:
                    row.append(-prefix[j + 1])
                else:
                    row.append(0)
            rows.append(row)
    return EigenBlock(
        node=v,
        eigenvalue=eigenvalue,
        block=IntMatrix.from_rows(rows, len(kids) - 1),
        row_vertices=tuple(row_vertices),
    )


def eigen_blocks(t: CoTree) -> list[EigenBlock]:
    """Blocks of all internal nodes in canonical (preorder) order."""
    values = _node_eigenvalues(t)
    return [_block(t, v, values[v]) for v in t.internal_ids()]


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
    vertices; all other entries are zero."""
    rows = [[0] * (t.n - 1) for _ in range(t.n)]
    col = 0
    for b in eigen_blocks(t):
        for v, entries in zip(b.row_vertices, b.block.entries):
            rows[v - 1][col:col + b.multiplicity] = entries
        col += b.multiplicity
    return IntMatrix(tuple(map(tuple, rows)), t.n - 1)
