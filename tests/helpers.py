"""Shared corpus builders for the test suite."""

from __future__ import annotations

import random
from collections import Counter
from typing import Mapping, Sequence

from cographctl import (
    CoTree,
    Graph,
    IntMatrix,
    Spectrum,
    eigen_blocks,
    parse_cotree,
    random_cotree,
)
from cographctl.graphs import _bits

# An 8-vertex cograph whose sibling cells are {1,2},{3},{4},{5},{6,7,8},
# with 6,7,8 mutually non-adjacent; any cotree with those cells reproduces
# the golden minimum control sets exactly.
EIGHT_NODE_TEXT = "1(0(1(0(1(1,2),5),4),6,7,8),3)"

THRESHOLD_EXAMPLE = "0101001"


def eight_node_tree() -> CoTree:
    return parse_cotree(EIGHT_NODE_TEXT)


def random_graph(n: int, rng: random.Random, p: float = 0.5) -> Graph:
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def cotree_corpus(
    count: int, max_n: int, seed: int, mixed_roots: bool = False
) -> list[CoTree]:
    """Deterministic corpus of random canonical cotrees with 2 <= n <= max_n."""
    rng = random.Random(seed)
    trees = []
    for _ in range(count):
        n = rng.randint(2, max_n)
        label = rng.randint(0, 1) if mixed_roots else 1
        trees.append(random_cotree(n, rng, root_label=label))
    return trees


# -- reference constructions --------------------------------------------------
#
# Plain-function versions of graph composition, matrix algebra and cotree and
# spectrum queries. The package has no use for them; the tests use them as
# independent references for what it computes.


def single() -> Graph:
    return Graph(1, (0,))


def union_of(parts: Sequence[Graph]) -> Graph:
    """Disjoint union; part i's vertices are indexed after all parts before it."""
    if not parts:
        raise ValueError("union_of requires a nonempty part list")
    rows: list[int] = []
    offset = 0
    for g in parts:
        rows.extend(r << offset for r in g.rows)
        offset += g.n
    return Graph(offset, tuple(rows))


def join_of(parts: Sequence[Graph]) -> Graph:
    """Union plus every edge between distinct parts."""
    if not parts:
        raise ValueError("join_of requires a nonempty part list")
    base = union_of(parts)
    full = (1 << base.n) - 1
    rows = list(base.rows)
    offset = 0
    for g in parts:
        cross = full & ~(((1 << g.n) - 1) << offset)
        for i in range(offset, offset + g.n):
            rows[i] |= cross
        offset += g.n
    return Graph(base.n, tuple(rows))


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph(g.n, tuple(full & ~row & ~(1 << i) for i, row in enumerate(g.rows)))


def is_connected(g: Graph) -> bool:
    full = (1 << g.n) - 1
    seen = frontier = 1
    while frontier:
        grown = 0
        for i in _bits(frontier):
            grown |= g.rows[i]
        frontier = grown & ~seen
        seen |= frontier
    return seen == full


def degree_sequence(g: Graph) -> list[int]:
    return [g.degree(i) for i in range(g.n)]


def diagonal(values: Sequence[int]) -> IntMatrix:
    n = len(values)
    return IntMatrix(tuple(tuple(values[i] if i == j else 0 for j in range(n)) for i in range(n)), n)


def matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a.ncols != b.nrows:
        raise ValueError("inner dimensions differ")
    cols = list(zip(*b.entries))
    return IntMatrix(tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols)
                           for row in a.entries), b.ncols)


def transpose(m: IntMatrix) -> IntMatrix:
    return IntMatrix(tuple(zip(*m.entries)), m.nrows)


def column(m: IntMatrix, j: int) -> tuple[int, ...]:
    return tuple(row[j] for row in m.entries)


def lca(t: CoTree, u: int, v: int) -> int:
    """Lowest common ancestor of the leaves carrying vertex ids u and v."""
    above = set(t.path_to_root(t.leaf_id(u)))
    return next(node for node in t.path_to_root(t.leaf_id(v)) if node in above)


def is_canonical(t: CoTree) -> bool:
    """Labels alternate, every internal node has two or more children, and
    children are ordered by their smallest leaf."""
    for i in t.internal_ids():
        kids = t.children(i)
        if len(kids) < 2:
            return False
        if any(not t.is_leaf(c) and t.label(c) == t.label(i) for c in kids):
            return False
        mins = [min(t.leaf_sequence(c)) for c in kids]
        if mins != sorted(mins):
            return False
    return True


def choose_block_rows(t: CoTree, v: int, choice: Mapping[int, int]) -> frozenset[int]:
    """Row selection making an internal node's eigenvector block invertible:
    pick all children of v but one, and one descendant leaf of each.

    ``choice`` maps the child node id to the chosen vertex; it must cover
    exactly (children of v) - 1 distinct children. Returns the vertex set.
    """
    if t.is_leaf(v):
        raise ValueError("row choices apply to internal nodes only")
    kids = set(t.children(v))
    needed = len(kids) - 1
    if len(choice) != needed:
        raise ValueError(f"choice must cover exactly {needed} children, got {len(choice)}")
    for child, vertex in choice.items():
        if child not in kids:
            raise ValueError(f"node {child} is not a child of node {v}")
        if vertex not in t.leaves_below(child):
            raise ValueError(f"vertex {vertex} is not a leaf below child {child}")
    return frozenset(choice.values())


def column_eigenvalues(t: CoTree) -> tuple[int, ...]:
    """Eigenvalue of each modal-matrix column, in column order."""
    return tuple(b.eigenvalue for b in eigen_blocks(t) for _ in range(b.multiplicity))


def nontrivial(spec: Spectrum) -> Counter:
    """Eigenvalue multiset with one copy of the trivial 0 removed."""
    counts = Counter(dict(spec.pairs))
    counts[0] -= 1
    return +counts


def compose_spectrum(op: str, parts: Sequence[Spectrum]) -> Spectrum:
    """Spectrum of a union or join of graphs from their spectra.

    Union: keep every part's nontrivial eigenvalues and add p-1 extra zeros.
    Join on n total vertices: shift part i's nontrivial eigenvalues up by
    n - n_i and add p-1 copies of n. The single trivial 0 is appended last.
    """
    if op not in ("union", "join"):
        raise ValueError(f"op must be 'union' or 'join', got {op!r}")
    if not parts:
        raise ValueError("compose_spectrum requires at least one part")
    n = sum(p.n for p in parts)
    counts: Counter = Counter()
    if op == "union":
        for part in parts:
            counts.update(nontrivial(part))
        counts[0] += len(parts) - 1
    else:
        for part in parts:
            for value, mult in nontrivial(part).items():
                counts[value + n - part.n] += mult
        counts[n] += len(parts) - 1
    counts[0] += 1
    return Spectrum.from_counts(n, counts)
