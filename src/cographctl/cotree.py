"""Cotrees: construction, canonical form, recognition, and conversion.

A cotree is a rooted tree whose leaves are the graph's vertices (ids 1..n)
and whose internal nodes carry a label: 0 means its children are composed by
disjoint union, 1 means they are composed by join. Two vertices are adjacent
exactly when their lowest common ancestor is labeled 1.

The canonical form merges nested nodes of equal label and splices out unary
nodes, so labels alternate along every leaf-to-root path and every internal
node has at least two children. With children ordered by their smallest
descendant leaf, the canonical form is unique per graph, which makes tree
equality, serialization, and the modal-matrix column order deterministic.

Storage: ``CoTree`` is an arena of nodes numbered in preorder (the root is
node 0, children have larger ids than their parent). Beside the parent,
children and label of each node it keeps one sequence of all leaf vertex ids
in preorder; the leaves below node i are exactly the slice
``[start(i), end(i))`` of that sequence, so a subtree's size is
``end - start`` and no per-node leaf set is ever stored. Memory and build
time are linear in the node count, independent of depth.

Every traversal in this module is an explicit-stack loop or a single pass
over the preorder numbering; nothing recurses, so the depth of a tree is
bounded only by memory.

Nested form: a plain ``int`` is a leaf (its vertex id) and a pair
``(label, [children...])`` is an internal node.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence, Union

from .graphs import Graph, _bits

Nested = Union[int, tuple[int, list]]


@dataclass(frozen=True)
class P4Witness:
    """Four vertex ids (1-based, in path order) inducing a 3-edge path."""

    vertices: tuple[int, int, int, int]


class CoTree:
    """Immutable rooted tree over an arena of nodes; node ids index the arena
    in preorder, so the root is node 0 and children have larger ids."""

    def __init__(
        self,
        parents: Sequence[int | None],
        labels: Sequence[int | None],
        leaves: Sequence[int],
    ):
        """Arena from preorder columns: ``parents[i]`` (None for the root),
        ``labels[i]`` (None for a leaf), and the leaf vertex ids in preorder.
        Raises ValueError unless the leaf ids are 1..n, each exactly once."""
        count = len(parents)
        children: list[list[int]] = [[] for _ in range(count)]
        for i in range(1, count):
            children[parents[i]].append(i)  # type: ignore[index]
        start = [0] * count
        end = [0] * count
        seen = 0
        for i, label in enumerate(labels):
            start[i] = seen
            if label is None:
                seen += 1
        for i in range(count - 1, -1, -1):
            end[i] = start[i] + 1 if labels[i] is None else end[children[i][-1]]
        n = len(leaves)
        leaf_node = [-1] * (n + 1)
        for i, label in enumerate(labels):
            if label is None:
                v = leaves[start[i]]
                if not 1 <= v <= n or leaf_node[v] >= 0:
                    raise ValueError("leaf ids must be distinct and cover 1..n")
                leaf_node[v] = i
        self._parent = tuple(parents)
        self._label = tuple(labels)
        self._children = tuple(map(tuple, children))
        self._leaves = tuple(leaves)
        self._start = tuple(start)
        self._end = tuple(end)
        self._leaf_node = leaf_node

    @classmethod
    def from_nested(cls, nested: Nested) -> "CoTree":
        parents: list[int | None] = []
        labels: list[int | None] = []
        leaves: list[int] = []
        stack: list[tuple[Nested, int | None]] = [(nested, None)]
        while stack:
            node, parent = stack.pop()
            idx = len(parents)
            parents.append(parent)
            if isinstance(node, int):
                labels.append(None)
                leaves.append(node)
                continue
            label, children = node
            if label not in (0, 1):
                raise ValueError(f"internal label must be 0 or 1, got {label!r}")
            if not children:
                raise ValueError("internal node with no children")
            labels.append(label)
            stack.extend((c, idx) for c in reversed(children))
        return cls(parents, labels, leaves)

    def to_nested(self) -> Nested:
        built: list[Nested] = [0] * len(self._label)
        for i in range(len(built) - 1, -1, -1):
            label = self._label[i]
            if label is None:
                built[i] = self._leaves[self._start[i]]
            else:
                built[i] = (label, [built[c] for c in self._children[i]])
        return built[0]

    # -- structural queries -------------------------------------------------

    @property
    def root(self) -> int:
        return 0

    @property
    def n(self) -> int:
        return len(self._leaves)

    def node_count(self) -> int:
        return len(self._label)

    def is_leaf(self, i: int) -> bool:
        return self._label[i] is None

    def label(self, i: int) -> int:
        lab = self._label[i]
        if lab is None:
            raise ValueError(f"node {i} is a leaf")
        return lab

    def leaf_vertex(self, i: int) -> int:
        if self._label[i] is not None:
            raise ValueError(f"node {i} is internal")
        return self._leaves[self._start[i]]

    def leaf_id(self, vertex: int) -> int:
        """Node id of the leaf carrying the given vertex id."""
        if not 1 <= vertex <= self.n:
            raise KeyError(vertex)
        return self._leaf_node[vertex]

    def parent(self, i: int) -> int | None:
        return self._parent[i]

    def children(self, i: int) -> tuple[int, ...]:
        return self._children[i]

    def leaf_sequence(self, i: int) -> tuple[int, ...]:
        """Vertex ids of the leaves below node i, in preorder (a slice of the
        tree's single leaf sequence)."""
        return self._leaves[self._start[i]:self._end[i]]

    def leaves_below(self, i: int) -> frozenset[int]:
        """Vertex ids of all leaves descending from node i (i included if leaf)."""
        return frozenset(self.leaf_sequence(i))

    def leaf_count(self, i: int) -> int:
        return self._end[i] - self._start[i]

    def path_to_root(self, i: int) -> list[int]:
        path = [i]
        while (up := self._parent[path[-1]]) is not None:
            path.append(up)
        return path

    def internal_ids(self) -> tuple[int, ...]:
        """Internal node ids in preorder; the package-wide canonical order."""
        return tuple(i for i, lab in enumerate(self._label) if lab is not None)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CoTree) and (
            self._label == other._label
            and self._children == other._children
            and self._leaves == other._leaves
        )

    def __hash__(self) -> int:
        return hash((self._label, self._children, self._leaves))

    def __repr__(self) -> str:
        return f"CoTree(n={self.n}, nodes={self.node_count()})"


def _min_leaves(t: CoTree) -> list[int]:
    """Smallest vertex id below every node, in one bottom-up pass."""
    low = [0] * t.node_count()
    for i in range(len(low) - 1, -1, -1):
        kids = t._children[i]
        low[i] = min([low[c] for c in kids]) if kids else t._leaves[t._start[i]]
    return low


def canonicalize(t: CoTree) -> CoTree:
    """Equivalent canonical cotree: same graph, alternating labels, no unary
    nodes, children sorted by smallest leaf. Idempotent.

    A bottom-up pass finds, for every node, the node that stands for it once
    unary nodes are spliced out (``rep``) and how many children a surviving
    node keeps after absorbing same-label children (``width``); a top-down
    pass then lays the survivors out in preorder. Linear apart from the
    per-node child sort."""
    labels, children = t._label, t._children
    low = _min_leaves(t)
    rep = list(range(len(labels)))
    width = [0] * len(labels)
    for i in range(len(labels) - 1, -1, -1):
        label = labels[i]
        if label is None:
            continue
        kids = children[i]
        merged = sum([width[rep[c]] if labels[rep[c]] == label else 1 for c in kids])
        if merged == 1:
            rep[i] = rep[kids[0]]
        else:
            width[i] = merged

    parents: list[int | None] = []
    out_labels: list[int | None] = []
    leaves: list[int] = []
    stack: list[tuple[int, int | None]] = [(rep[0], None)]
    while stack:
        node, parent = stack.pop()
        idx = len(parents)
        parents.append(parent)
        label = labels[node]
        out_labels.append(label)
        if label is None:
            leaves.append(low[node])  # a leaf's smallest vertex is its own
            continue
        kids: list[int] = []
        pending = list(children[node])
        while pending:
            r = rep[pending.pop()]
            if labels[r] == label:
                pending.extend(children[r])
            else:
                kids.append(r)
        kids.sort(key=low.__getitem__, reverse=True)
        stack.extend([(c, idx) for c in kids])
    return CoTree(parents, out_labels, leaves)


def cotree_to_graph(t: CoTree) -> Graph:
    """The represented graph, one adjacency row per vertex.

    Vertex v's row is the OR, over v's join ancestors u, of u's leaf mask
    minus the mask of u's child on the path down to v. One bottom-up pass
    builds the leaf masks, one top-down pass carries that OR along every
    root-to-leaf path, and matrix row i belongs to vertex id i + 1."""
    count = t.node_count()
    mask = [0] * count
    for i in range(count - 1, -1, -1):
        if t.is_leaf(i):
            mask[i] = 1 << (t.leaf_vertex(i) - 1)
        else:
            for c in t.children(i):
                mask[i] |= mask[c]
    above = [0] * count  # neighbours every leaf below node i gets from its ancestors
    rows = [0] * t.n
    for i in range(count):
        if t.is_leaf(i):
            rows[t.leaf_vertex(i) - 1] = above[i]
            continue
        join = t.label(i) == 1
        for c in t.children(i):
            above[c] = above[i] | (mask[i] & ~mask[c]) if join else above[i]
    return Graph(t.n, tuple(rows))


def _components(rows: Sequence[int], mask: int) -> list[int]:
    comps = []
    rem = mask
    while rem:
        comp = rem & -rem
        frontier = comp
        while frontier:
            grown = 0
            for i in _bits(frontier):
                grown |= rows[i] & mask
            frontier = grown & ~comp
            comp |= frontier
        comps.append(comp)
        rem &= ~comp
    return comps


def _p4_in_subgraph(g: Graph, mask: int) -> P4Witness:
    # Runs only at the level where both the component and co-component splits
    # failed, so a search over this subgraph's 4-subsets must succeed.
    verts = list(_bits(mask))
    for quad in combinations(verts, 4):
        adj = [(a, b) for a, b in combinations(quad, 2) if g.has_edge(a, b)]
        if len(adj) != 3:
            continue
        deg = {v: 0 for v in quad}
        for a, b in adj:
            deg[a] += 1
            deg[b] += 1
        if sorted(deg.values()) != [1, 1, 2, 2]:
            continue
        start = min(v for v in quad if deg[v] == 1)
        order = [start]
        while len(order) < 4:
            order.append(next(v for v in quad
                              if v not in order and g.has_edge(order[-1], v)))
        return P4Witness(tuple(v + 1 for v in order))
    raise AssertionError("undecomposable subgraph without an induced P4")


def recognize(g: Graph) -> CoTree | P4Witness:
    """Decompose a graph into its canonical cotree, or produce an induced-P4
    witness if it is not a cograph.

    Single vertices are leaves; a disconnected (sub)graph splits into a
    0-labeled node over its components; a connected one with disconnected
    complement splits into a 1-labeled node over the complement's components.
    A graph stuck in both directions contains an induced P4. Disconnected
    inputs are accepted (the root comes out labeled 0); the controllability
    operations reject them downstream.

    The split runs as a preorder walk over an explicit stack of vertex
    masks and emits the arena directly. Its output is already canonical:
    parts come out ordered by their lowest vertex, and a part of one split
    can only split the other way (or be a single vertex).
    """
    full = (1 << g.n) - 1
    co_rows = [full & ~row & ~(1 << i) for i, row in enumerate(g.rows)]
    parents: list[int | None] = []
    labels: list[int | None] = []
    leaves: list[int] = []
    stack: list[tuple[int, int | None]] = [(full, None)]
    while stack:
        mask, parent = stack.pop()
        idx = len(parents)
        parents.append(parent)
        if mask & (mask - 1) == 0:
            labels.append(None)
            leaves.append(mask.bit_length())  # single vertex: leaf id = index + 1
            continue
        comps = _components(g.rows, mask)
        if len(comps) > 1:
            labels.append(0)
        else:
            comps = _components(co_rows, mask)
            if len(comps) == 1:
                return _p4_in_subgraph(g, mask)
            labels.append(1)
        stack.extend((sub, idx) for sub in reversed(comps))
    return CoTree(parents, labels, leaves)
