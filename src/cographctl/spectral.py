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
and are constant on each child's leaf block. In the canonical leaf order
those blocks are contiguous, so each of node v's k - 1 eigenvectors is two
adjacent intervals of the tree's leaf sequence carrying two integers: column
j (0-based) gives the leaf count of child j + 1 to the leaves of children
0..j and minus their leaf count to the leaves of child j + 1, which makes it
sum to zero. The n - 1 columns of all nodes, in canonical node order, are
the nontrivial modal matrix in O(n) words; the all-ones vector covers the
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
from itertools import compress
from operator import ne, sub
from typing import Callable

from .cotree import CoTree
from .errors import SizeCapError

# Most vertices a dense n x (n-1) modal matrix is built for (9 * 10^6 entries).
MODAL_CAP = 3_000


def _node_eigenvalues(t: CoTree) -> list[int]:
    """Eigenvalue of every internal node and degree of every leaf, in one
    preorder pass: a node's value is its parent's minus the parent's label
    times its leaf count (a leaf's degree), plus its own label times that count."""
    parent, label = t._parent, t._label
    values: list[int] = []
    for p, lab, size in zip(parent, label, map(sub, t._end, t._start)):
        value = 0 if p is None else values[p] - label[p] * size
        values.append(value if lab is None else value + lab * size)
    return values


def degree_partition(t: CoTree) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The vertex ids 1..n grouped by degree, as ascending ``(degree, cell)``
    pairs, read off the cotree in O(n): a leaf's ancestor correction is its
    vertex's degree.

    In a threshold graph two vertices are siblings exactly when they have
    equal degree, so these cells are the sibling partition's and a minimum
    leader set takes all but one vertex of each degree class. For general
    cographs equal degree does not imply siblinghood."""
    values = _node_eigenvalues(t)
    by_degree: dict[int, list[int]] = {}
    for v, node in enumerate(t._leaf_node[1:], 1):
        by_degree.setdefault(values[node], []).append(v)
    return tuple((d, tuple(cell)) for d, cell in sorted(by_degree.items()))


def spectrum(t: CoTree) -> tuple[tuple[int, int], ...]:
    """Full Laplacian spectrum of the represented graph: ascending
    (eigenvalue, multiplicity) pairs, trivial 0 included, multiplicities
    summing to n."""
    values = _node_eigenvalues(t)
    # each child but its parent's first adds one copy of the parent's eigenvalue
    # (its modal column); a first child's parent is the node just before it
    later = t._parent[1:]
    counts = Counter(map(values.__getitem__, compress(later, map(ne, later, range(len(later))))))
    counts[0] += 1
    return tuple(sorted(counts.items()))


def modal_columns(t: CoTree) -> list[tuple[int, int, int, int, int, int, int]]:
    """The n - 1 nontrivial eigenvectors, in canonical node order and then
    child order. Column ``(node, eigenvalue, a, i0, i1, b, i2)`` is the vector
    equal to a on ``seq[i0:i1]``, to -b on ``seq[i1:i2]`` and to 0 elsewhere,
    where ``seq = t.leaf_sequence(t.root)``; a = i2 - i1 and b = i1 - i0."""
    values = _node_eigenvalues(t)
    leaves, start, end, leaf_node = t._leaves, t._start, t._end, t._leaf_node
    columns = []
    for v in t.internal_ids():
        value, i0, c = values[v], start[v], v + 1
        while end[c] != end[v]:  # c is not the last child; the next follows c's last leaf
            c = leaf_node[leaves[end[c] - 1]] + 1
            columns.append((v, value, end[c] - start[c], i0, start[c], start[c] - i0, end[c]))
    return columns


def modal_matrix(t: CoTree) -> tuple[tuple[int, ...], ...]:
    """The n x (n-1) nontrivial modal matrix as int rows: row u - 1 holds
    vertex u's entries of the ``modal_columns``. Raises SizeCapError above
    ``MODAL_CAP`` vertices, before anything is allocated."""
    return tuple(_modal_rows(t, tuple))


def _modal_rows(t: CoTree, part: Callable) -> list:
    """``modal_matrix``'s rows, each rendered by ``part``, which must turn
    ``a + b`` into ``part(a) + part(b)``. The leaves below child j of node v
    share their rows up to that child's columns: v's prefix, v's block row
    for child j (a, the sizes of children 1..k-1, for child 0; j - 1 zeros,
    -b for the leaves of children 0..j-1, and a[j:] for the others), and
    zeros over the L - 1 columns of each earlier child with L leaves."""
    if t.n > MODAL_CAP:
        raise SizeCapError(f"modal matrix capped at n <= {MODAL_CAP}, got {t.n}")
    zero, empty = part((0,)), part(())
    rows = [empty] * t.n  # kept only when n = 1: the root is the leaf
    prefixes = {t.root: empty}  # each popped, so freed, when its node's children get theirs
    end = 0  # one past v's last column
    for v in t.internal_ids():
        prefix, children, b, suffix = prefixes.pop(v), t.children(v), t.leaf_count(v), empty
        end += len(children) - 1
        for j, c in reversed(tuple(enumerate(children))):  # suffix is a[j:]
            b -= t.leaf_count(c)
            block = zero * (j - 1) + part((-b,)) + suffix if j else suffix
            suffix = part((t.leaf_count(c),)) + suffix
            if t.is_leaf(c):
                rows[t.leaf_vertex(c) - 1] = prefix + block + zero * (t.n - 1 - end)
            else:
                prefixes[c] = prefix + block + zero * (b - j)
    return rows
