"""Cotrees: canonical construction, recognition, and conversion.

A cotree is a rooted tree whose leaves are the graph's vertices (ids 1..n)
and whose internal nodes carry a label: 0 means its children are composed by
disjoint union, 1 means they are composed by join. Two vertices are adjacent
exactly when their lowest common ancestor is labeled 1.

Every ``CoTree`` is canonical: labels alternate along every path, every
internal node has at least two children, and children are ordered by their
smallest descendant leaf. That form is unique per graph, which makes tree
equality, serialization, the sibling cells and the modal-matrix column order
deterministic. ``_canonical_columns`` is the one code that makes columns
canonical (it splices out unary nodes, merges nested nodes of equal label
and orders children), and it picks its algorithm from the leaf order alone:
leaves in increasing order take one splice-and-merge pass, any other order
an index pass and a top-down layout. The constructor checks the caller's
columns and hands them to it, as do ``parse_expr`` and ``parse_cotree``;
``parse_threshold``, ``recognize`` and ``random_cotree`` build canonical
columns themselves and store them through ``CoTree._trusted`` with no check.

Storage: ``CoTree`` is an arena of nodes numbered in preorder (the root is
node 0, children have larger ids than their parent). Beside the parent and
label of each node it keeps one sequence of all leaf vertex ids in preorder;
the leaves below node i are exactly the slice ``[start(i), end(i))`` of that
sequence, so a subtree's size is ``end - start`` and no per-node leaf set is
ever stored. Nor are child lists: a subtree ends at its last leaf, so node
i's children are i + 1 and then the node after each child's subtree. Memory
and build time are linear in the node count, independent of depth.

Every traversal in this module is an explicit-stack loop or a single pass
over the preorder numbering; nothing recurses, so the depth of a tree is
bounded only by memory.
"""

from __future__ import annotations

from collections import Counter
from functools import reduce
from itertools import compress, islice
from operator import and_, lt, or_
from typing import Iterator, Sequence

from .graphs import Graph, _bits


class CoTree:
    """Immutable rooted tree over an arena of nodes; node ids index the arena
    in preorder, so the root is node 0 and children have larger ids. A node id
    indexes the stored columns as a tuple position does: -1 is the last node,
    ``True`` is node 1 and a float raises ``TypeError``."""

    def __init__(
        self,
        parents: Sequence[int | None],
        labels: Sequence[int | None],
        leaves: Sequence[int],
    ):
        """Canonical arena from the preorder columns of any cotree:
        ``parents[i]`` (None for the root), ``labels[i]`` (0 or 1, None for a
        leaf), and the leaf vertex ids in preorder. Raises ValueError unless
        the columns describe a tree numbered in preorder, the leaf ids are
        1..n, each exactly once, every label is 0 or 1, every internal node
        has a child and no leaf has one. Ids, parents and labels must be
        exact ints: a bool or a float is rejected.

        One forward pass checks the tree; ``_canonical_columns`` then makes
        it canonical, by its splice pass when the leaves increase and by its
        layout otherwise."""
        count, n = len(parents), len(leaves)
        if (set(map(type, leaves)) != {int} or labels.count(None) != n or min(leaves) < 1
                or max(leaves) > n or len(set(leaves)) != n):
            raise ValueError("leaf ids must be distinct and cover 1..n")
        if len(labels) != count or parents[0] is not None:
            raise ValueError("nodes must form a tree numbered in preorder")
        path = [0]  # node i - 1 and its ancestors
        for i in range(1, count):
            up = parents[i]
            if type(up) is not int or not 0 <= up < i:
                raise ValueError("nodes must form a tree numbered in preorder")
            while path[-1] > up:
                path.pop()
            if path[-1] != up:  # in preorder a parent is node i - 1 or one of its ancestors
                raise ValueError("nodes must form a tree numbered in preorder")
            label = labels[up]
            if type(label) is not int or label not in (0, 1):
                raise ValueError("leaf with children" if label is None
                                 else f"internal label must be 0 or 1, got {label!r}")
            path.append(i)
        if len(set(parents)) != count - n + 1:  # None and each node with a child
            raise ValueError("internal node with no children")
        self._store(*_canonical_columns(parents, labels, leaves))

    @classmethod
    def _trusted(cls, parents: Sequence[int | None], labels: Sequence[int | None],
                 leaves: Sequence[int]) -> CoTree:
        """The tree of columns that are canonical by construction, stored as
        given with no check; the counterpart of ``Graph._trusted``."""
        tree = cls.__new__(cls)
        tree._store(parents, labels, leaves)
        return tree

    def _store(self, parents: Sequence[int | None], labels: Sequence[int | None],
               leaves: Sequence[int]) -> None:
        """Store canonical columns and derive the leaf intervals in one
        bottom-up pass: a node starts after the leaves before it, a leaf ends
        one later, and an internal node ends where its last child ends."""
        count, n = len(parents), len(leaves)
        start = [0] * count
        end = [0] * count
        leaf_node = [-1] * (n + 1)
        k = n  # leaves before node i in preorder, once i is reached
        for i in range(count - 1, 0, -1):
            if labels[i] is None:
                k -= 1
                leaf_node[leaves[k]] = i
                end[i] = k + 1
            start[i] = k
            up = parents[i]
            if not end[up]:  # siblings arrive last to first
                end[up] = end[i]
        if count == 1:  # a single leaf
            leaf_node[leaves[0]], end[0] = 0, 1
        self._parent = tuple(parents)
        self._label = tuple(labels)
        self._leaves = tuple(leaves)
        self._start = tuple(start)
        self._end = tuple(end)
        self._leaf_node = leaf_node

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
        """Node id of the leaf carrying the given vertex id, an exact int."""
        if type(vertex) is not int or not 1 <= vertex <= self.n:
            raise KeyError(vertex)
        return self._leaf_node[vertex]

    def parent(self, i: int) -> int | None:
        return self._parent[i]

    def children(self, i: int) -> tuple[int, ...]:
        """Child ids in order: in preorder a subtree ends at its last leaf, so
        they are i + 1 and then the node after each child's subtree, up to i's."""
        leaves, end, leaf_node = self._leaves, self._end, self._leaf_node
        kids, c = [], range(len(end))[i] + 1  # a negative i counts from the end
        while c <= leaf_node[leaves[end[i] - 1]]:
            kids.append(c)
            c = leaf_node[leaves[end[c] - 1]] + 1
        return tuple(kids)

    def leaf_sequence(self, i: int) -> tuple[int, ...]:
        """Vertex ids of the leaves below node i, in preorder (a slice of the
        tree's single leaf sequence)."""
        return self._leaves[self._start[i]:self._end[i]]

    def leaf_count(self, i: int) -> int:
        return self._end[i] - self._start[i]

    def internal_ids(self) -> tuple[int, ...]:
        """Internal node ids in preorder; the package-wide canonical order."""
        return tuple(i for i, lab in enumerate(self._label) if lab is not None)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CoTree) and (
            self._label == other._label
            and self._parent == other._parent
            and self._leaves == other._leaves
        )

    def __hash__(self) -> int:
        return hash((self._label, self._parent, self._leaves))

    def __repr__(self) -> str:
        return f"CoTree(n={self.n}, nodes={self.node_count()})"


def _canonical_columns(
    parents: Sequence[int | None], labels: Sequence[int | None], leaves: Sequence[int]
) -> tuple[Sequence[int | None], Sequence[int | None], Sequence[int]]:
    """Canonical columns of a tree's preorder columns, whose labels must be
    0 or 1 and leaf ids 1..n, each once: unary nodes spliced out, a child
    with its parent's label merged into it, children sorted by smallest leaf.
    Leaves in increasing order, as in every expression, stay in that order,
    so one preorder pass splices and merges; any other order takes one
    bottom-up index pass and one top-down layout."""
    if leaves == range(1, len(leaves) + 1) or all(map(lt, leaves, islice(leaves, 1, None))):
        kids = Counter(parents)
        into: list[int | None] = [None] * len(parents)  # where each node's children go
        out_parents: list[int | None] = []
        out_labels: list[int | None] = []
        for i, up in enumerate(parents):
            if up is not None:
                up = into[up]
            label = labels[i]
            if label is not None and (kids[i] == 1 or up is not None and out_labels[up] == label):
                into[i] = up  # spliced out, or merged into that node
            else:
                into[i] = len(out_parents)
                out_parents.append(up)
                out_labels.append(label)
        return out_parents, out_labels, leaves
    count = len(parents)  # over two or more leaves: a single leaf is in order
    last = list(range(count))  # largest node id in each subtree
    low = [len(leaves) + 1] * count  # smallest vertex id below each node
    k = len(leaves)  # leaves before node i in preorder, once i is reached
    for i in range(count - 1, 0, -1):
        up = parents[i]
        if labels[i] is None:
            k -= 1
            v = low[i] = leaves[k]
        else:
            v = low[i]
        if last[up] == up:  # siblings arrive last to first: the youngest ends the subtree
            last[up] = last[i]
        if v < low[up]:
            low[up] = v
    root = 0
    while labels[root] is not None and last[root + 1] == last[root]:  # a unary root
        root += 1
    out_parents = []
    out_labels = []
    out_leaves: list[int] = []
    out_parent: list[int | None] = [None] * count  # each kept node's, once its parent is placed
    stack = [root]
    while stack:
        node = stack.pop()
        idx = len(out_parents)
        out_parents.append(out_parent[node])
        label = labels[node]
        out_labels.append(label)
        if label is None:
            out_leaves.append(low[node])
            continue
        # the scan enters a descendant that is merged into node (same
        # label) or spliced out (unary), and keeps each other child
        merged: list[int] = []
        c = node + 1
        while c <= last[node]:
            lab = labels[c]
            if lab == label or lab is not None and last[c + 1] == last[c]:
                c += 1
            else:
                merged.append(c)
                out_parent[c] = idx
                c = last[c] + 1
        merged.sort(key=low.__getitem__, reverse=True)
        stack += merged
    return out_parents, out_labels, out_leaves


def cotree_to_graph(t: CoTree) -> Graph:
    """The represented graph, one adjacency row per vertex.

    Vertex v's row is the OR, over v's join ancestors u, of u's leaf mask
    minus the mask of u's child on the path down to v. One bottom-up pass
    builds the leaf masks, one top-down pass carries that OR along every
    root-to-leaf path, and matrix row i belongs to vertex id i + 1."""
    parent, label, leaf_node = t._parent, t._label, t._leaf_node
    mask = [0] * len(parent)
    for v, node in enumerate(leaf_node[1:]):
        mask[node] = 1 << v
    for i in range(len(parent) - 1, 0, -1):  # a node's children all come after it
        mask[parent[i]] |= mask[i]
    above = [0] * len(parent)  # neighbours every leaf below node i gets from its ancestors
    for c in range(1, len(parent)):
        p = parent[c]
        above[c] = above[p] | (mask[p] & ~mask[c]) if label[p] else above[p]
    return Graph._trusted(t.n, tuple([above[node] for node in leaf_node[1:]]))


_FLAGS = bytes.maketrans(b"01", b"\0\1")


def _selected(rows: Sequence[int], frontier: int) -> Iterator[int]:
    """The rows of the vertices in ``frontier``: its bits, lowest first,
    become a 0/1 byte string that ``compress`` applies to a slice of
    ``rows``, so no Python-level loop runs per vertex."""
    low = (frontier & -frontier).bit_length() - 1
    flags = format(frontier >> low, "b")[::-1].encode().translate(_FLAGS)
    return compress(rows[low:low + len(flags)], flags)


def _components(rows: Sequence[int], mask: int, flip: int = 0) -> list[int]:
    """Components of the subgraph induced on ``mask``, in order of their
    smallest vertex; with ``flip=mask``, of its complement, which is never
    built. Each BFS level is one C-level reduction over the rows its
    frontier selects: the OR of those rows, or for the complement
    ``rem & ~AND``, since ``(rows[i] ^ mask) & rem == rem & ~rows[i]``
    for ``rem`` (the vertices not reached yet) inside ``mask``. The start
    vertex's row is read directly, and a component stops growing as soon
    as every vertex is reached.

    The start is the lowest vertex left. When its row neither isolates it
    nor reaches everything left, the highest vertex's row is read before
    any BFS level: a top with no (co-)neighbour left, start included, is a
    singleton component, and the next top is asked; a top that reaches
    every other vertex left joins them all to start's component. A graph
    numbered in its construction order, as a threshold sequence numbers
    it, has its deep part at the low ids and its last vertex on top, so
    each split costs a few rows instead of a pass over the deep part. A
    top singleton lies above every vertex still left, so appending those
    singletons last, highest last, keeps the order with no sort."""
    comps = []
    tops = []  # singletons split off at the top, highest first
    rem = mask
    while rem:
        start = (rem & -rem).bit_length() - 1
        comp = 1 << start
        rem ^= comp
        frontier = rem & ~rows[start] if flip else rem & rows[start]
        while frontier and frontier != rem:  # start's row decides nothing yet
            top = rem.bit_length() - 1
            bit = 1 << top
            near = rem & rows[top]  # in the complement top reaches others & ~near
            others = rem ^ bit
            if near == (0 if flip else others):  # top reaches all of others: one component
                frontier = rem
            elif near != (others if flip else 0) or frontier & bit:  # some of them, or start
                break
            else:  # top reaches none of them, nor start: a singleton
                tops.append(bit)
                rem = others
        while frontier:
            rem ^= frontier
            comp |= frontier
            if not rem:
                break
            if flip:
                frontier = rem & ~reduce(and_, _selected(rows, frontier))
            else:
                frontier = rem & reduce(or_, _selected(rows, frontier))
        comps.append(comp)
    if tops:  # list += reversed() costs more than the test on the common empty list
        comps += reversed(tops)
    return comps


def _p4_in_subgraph(g: Graph, mask: int) -> tuple[int, int, int, int]:
    """The lexicographically first induced P4 {x < y < z < d} on ``mask``.

    Runs only where both the component and the co-component split failed,
    so one exists (Corneil, Lerchs & Stewart Burlingham, 1981). A filter
    walks x up the part, which then holds only the vertices >= x: an x on
    no induced P4 of the part is dropped, and the first x on one hands what
    is left to ``_first_p4_from``. No P4 has a smaller least vertex, so the
    witness is the unfiltered scan's. With near = N(x) and far the part
    outside N[x], x ends a P4 x-u-v-w iff a vertex u of near is adjacent to
    some but not all of a component C of G[far], ``OR_C & ~AND_C & near``
    over C's rows; the P4 is self-complementary, so x is a middle vertex
    iff a co-component of G[near] has the same expression meet far.
    Singletons cannot qualify, so the isolated vertices of far (one OR) and
    the vertices of near adjacent to all of near (one AND over the closed
    rows) are dropped first. Each x costs a few C-level reductions over the
    part, plus two per component that is left."""
    rows = g.rows
    closed = None
    part = mask
    while part:
        bit = part & -part
        near = rows[bit.bit_length() - 1] & part
        far = part & ~(near | bit)
        if near and far:
            ends = far & reduce(or_, _selected(rows, far))
            if _splits(rows, _components(rows, ends), near):
                return _first_p4_from(g, part)
            if closed is None:
                closed = [r | 1 << v for v, r in enumerate(rows)]
            middles = near & ~reduce(and_, _selected(closed, near))
            if _splits(rows, _components(rows, middles, flip=middles), far):
                return _first_p4_from(g, part)
        part ^= bit
    raise AssertionError("undecomposable subgraph without an induced P4")


def _splits(rows: Sequence[int], comps: list[int], other: int) -> bool:
    """Whether a vertex of ``other`` is adjacent to some but not all of one
    of ``comps``."""
    for comp in comps:
        selected = list(_selected(rows, comp))
        if reduce(or_, selected) & ~reduce(and_, selected) & other:
            return True
    return False


def _first_p4_from(g: Graph, mask: int) -> tuple[int, int, int, int]:
    """The unfiltered scan behind ``_p4_in_subgraph``. Every 3-subset of a
    P4 induces a path p-m-q or an edge u-v beside a lone w; the fourth
    vertices that complete {x, y, z} are then ``(r_p ^ r_q) & ~r_m`` or
    ``r_w & (r_u ^ r_v)`` over the adjacency rows, and a triangle or three
    lone vertices have none. For each pair x < y the later z are scanned by
    their adjacency to x and y, each class reading its candidates as
    ``(p ^ r_z) & q``: at most O(k^3) big-int steps for k vertices, and
    O(k^2) when the least vertex lies on a P4."""
    rows = g.rows
    for x in _bits(mask):
        rx = rows[x]
        after_x = mask >> (x + 1) << (x + 1)
        for y in _bits(after_x):
            ry = rows[y]
            later = after_x >> (y + 1) << (y + 1)
            one_of = (rx ^ ry) & mask
            if ry >> x & 1:  # z ~ x only, z ~ y only, z ~ neither; no triangles
                classes = ((later & rx & ~ry, ry, mask & ~rx),  # path y-x-z
                           (later & ry & ~rx, rx, mask & ~ry),  # path x-y-z
                           (later & ~(rx | ry), 0, one_of))  # edge x-y beside z
            else:  # z ~ both, z ~ x only, z ~ y only; no three lone vertices
                classes = ((later & rx & ry, -1, one_of),  # path x-z-y
                           (later & rx & ~ry, rx, ry & mask),  # edge x-z beside y
                           (later & ry & ~rx, ry, rx & mask))  # edge y-z beside x
            hit = None  # (z, d) with the smallest z so far
            for zs, p, q in classes:
                for z in _bits(zs):
                    if hit and z > hit[0]:
                        break
                    ds = ((p ^ rows[z]) & q) >> (z + 1)
                    if ds:
                        hit = (z, z + (ds & -ds).bit_length())
                        break
            if hit:
                return _path_order(rows, (x, y, *hit))
    raise AssertionError("undecomposable subgraph without an induced P4")


def _path_order(rows: Sequence[int], quad: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    """The induced path on ``quad`` (0-based), walked from its smaller end,
    as 1-based ids."""
    ends = [v for v in quad if sum(rows[v] >> u & 1 for u in quad) == 1]
    order = [min(ends)]
    while len(order) < 4:
        order.append(next(v for v in quad
                          if v not in order and rows[order[-1]] >> v & 1))
    return tuple(v + 1 for v in order)


def recognize(g: Graph) -> CoTree | tuple[int, int, int, int]:
    """Decompose a graph into its cotree, or, if it is not a cograph, return
    an induced P4: four 1-based vertex ids in path order.

    Single vertices are leaves; a disconnected (sub)graph splits into a
    0-labeled node over its components; a connected one with disconnected
    complement splits into a 1-labeled node over the complement's components.
    A graph stuck in both directions contains an induced P4 (Corneil,
    Lerchs & Stewart Burlingham, 1981), and the witness is the
    lexicographically first one on the stuck part: ``_p4_in_subgraph``
    skips, a few row reductions each, the part's least vertices while they
    lie on none, then scans triples. The complement's components are read
    from the graph's own rows, so the complement is never built. Disconnected
    inputs are accepted (the root comes out labeled 0); the controllability
    operations reject them downstream.

    The split runs as a preorder walk over an explicit stack of vertex
    masks and emits the arena directly. Only the root tries both splits: a
    component is connected and a co-component co-connected, so below a
    union node only the co-component split can succeed, and below a join
    node only the component split. A split reads its part's lowest and
    highest vertices' rows before any BFS level (``_components``), so a
    graph numbered in its construction order, deepest vertex lowest, costs
    a few rows per level; a deep cotree under an arbitrary numbering still
    costs O(n * depth) row reads.
    """
    full = (1 << g.n) - 1
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
        label = 0 if parent is None else 1 - labels[parent]
        comps = _components(g.rows, mask, flip=mask if label else 0)
        if len(comps) == 1 and parent is None:
            label = 1
            comps = _components(g.rows, mask, flip=mask)
        if len(comps) == 1:
            return _p4_in_subgraph(g, mask)
        labels.append(label)
        stack.extend((sub, idx) for sub in reversed(comps))
    return CoTree._trusted(parents, labels, leaves)
