"""Shared corpus builders for the test suite."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import accumulate, combinations
from math import isqrt
from typing import Iterable, Mapping, Sequence

from cographctl import (
    CoTree,
    Graph,
    NonIntegerRootError,
    laplacian,
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
    return from_edges(n, edges)


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


def scrambled(nested, rng: random.Random):
    """A non-canonical nested form of the same graph: children shuffled,
    some pairs of children moved into an extra node with their parent's
    label, and some nodes wrapped in unary nodes of either label."""
    if isinstance(nested, int):
        node = nested
    else:
        label, kids = nested
        kids = [scrambled(c, rng) for c in kids]
        rng.shuffle(kids)
        if len(kids) >= 3 and rng.random() < 0.5:
            kids = [(label, kids[:2])] + kids[2:]
        node = (label, kids)
    while rng.random() < 0.3:
        node = (rng.randint(0, 1), [node])
    return node


def nested_text(nested) -> str:
    """Cotree text of a nested form, written exactly as nested."""
    if isinstance(nested, int):
        return str(nested)
    label, kids = nested
    return f"{label}(" + ",".join(nested_text(c) for c in kids) + ")"


def reversed_text(t: CoTree) -> str:
    """Cotree text of the same graph that no ``CoTree`` stores as written:
    every node's children in reverse order, under a unary root labelled 0.
    Built bottom-up, each child's text dropped once its parent's holds it."""
    built = [""] * t.node_count()
    for i in range(t.node_count() - 1, -1, -1):
        if t.is_leaf(i):
            built[i] = str(t.leaf_vertex(i))
            continue
        kids = t.children(i)
        built[i] = f"{t.label(i)}(" + ",".join(built[c] for c in reversed(kids)) + ")"
        for c in kids:
            built[c] = ""
    return f"0({built[0]})"


def stored(t: CoTree) -> tuple:
    """Every column a tree stores, and each node's children."""
    return (t._parent, t._label, [t.children(i) for i in range(t.node_count())],
            t._leaves, t._start, t._end, t._leaf_node)


def trusted_columns(monkeypatch) -> list[tuple]:
    """The list of the columns that each later call of ``CoTree._trusted``
    gets, in call order; the calls still build their trees."""
    built = []
    real = CoTree._trusted
    monkeypatch.setattr(CoTree, "_trusted",
                        classmethod(lambda cls, *columns: built.append(columns) or real(*columns)))
    return built


def columns_graph(parents: Sequence[int | None], labels: Sequence[int | None],
                  leaves: Sequence[int]) -> Graph:
    """The graph that the preorder columns of any cotree describe, pair by
    pair: vertices u and v are adjacent exactly when the lowest common
    ancestor of their leaves is labelled 1. Unary nodes and nodes that share
    their parent's label are read as they stand."""
    paths = {}  # vertex id -> its leaf and each of that leaf's ancestors
    for node, v in zip((i for i, lab in enumerate(labels) if lab is None), leaves):
        path = [node]
        while parents[path[-1]] is not None:
            path.append(parents[path[-1]])
        paths[v] = path
    edges = []
    for u in range(1, len(leaves)):
        above = set(paths[u])
        edges += [(u - 1, v - 1) for v in range(u + 1, len(leaves) + 1)
                  if labels[next(a for a in paths[v] if a in above)] == 1]
    return from_edges(len(leaves), edges)


def expr_text(t: CoTree, i: int = 0) -> str:
    """Expression text of the subtree at node i of a cotree whose leaves are
    1..n in preorder, which is the expression's reading order: a leaf is
    '.', and an internal node its children's texts in parentheses, joined
    by '+' (union) or '*' (join)."""
    if t.is_leaf(i):
        return "."
    return "(" + "+*"[t.label(i)].join(expr_text(t, c) for c in t.children(i)) + ")"


def threshold_bits(t: CoTree) -> tuple[str, list[int]] | None:
    """The construction bits of a cotree whose internal nodes form one path
    (a threshold graph), with its vertex ids in construction order; None for
    any other cotree. The lowest node's leaves come first, the first of them
    with bit 0, then each node's own leaves, with its label as their bit."""
    if t.n == 1:
        return "0", [1]
    path = [t.root]
    while True:
        inner = [c for c in t.children(path[-1]) if not t.is_leaf(c)]
        if len(inner) > 1:
            return None
        if not inner:
            break
        path.append(inner[0])
    bits, order = "", []
    for node in reversed(path):
        own = [t.leaf_vertex(c) for c in t.children(node) if t.is_leaf(c)]
        bits += str(t.label(node)) * len(own)
        order += own
    return "0" + bits[1:], order


def cotree_shapes(n: int) -> list[tuple[list, list, list]]:
    """Every cograph on n unlabelled vertices once, as the canonical preorder
    columns (parents, labels, leaves) of its cotree shape. A shape with n >= 2
    leaves is a root label over a multiset of two or more children, each a
    leaf or a shape of the other root label; its leaves are numbered 1..n in
    preorder, which orders every node's children by smallest leaf."""
    shapes: list = [None, None]  # shapes[m][label]: on m >= 2 leaves, under that root label
    for m in range(2, n + 1):
        by_label = []
        for label in (0, 1):
            # a child is a leaf (size 1, shape None) or a smaller shape of the other label
            pool = [(1, None)] + [(k, s) for k in range(2, m) for s in shapes[k][1 - label]]
            by_label.append([(label, kids) for kids in _multisets(pool, m)])
        shapes.append(by_label)
    return [_shape_columns(shape) for shape in ([None] if n == 1 else shapes[n][0] + shapes[n][1])]


def _multisets(pool: list[tuple[int, object]], total: int, first: int = 0):
    """The multisets of ``pool``'s (size, shape) items from index ``first`` on
    whose sizes sum to ``total``, each as a tuple of shapes in pool order."""
    if total == 0:
        yield ()
        return
    for i in range(first, len(pool)):
        size, shape = pool[i]
        if size <= total:
            for rest in _multisets(pool, total - size, i):
                yield (shape, *rest)


def _shape_columns(shape) -> tuple[list, list, list]:
    """Preorder columns of a shape, its leaves numbered 1..n in preorder."""
    parents: list = []
    labels: list = []
    leaves: list = []
    stack = [(shape, None)]
    while stack:
        node, up = stack.pop()
        parents.append(up)
        if node is None:
            labels.append(None)
            leaves.append(len(leaves) + 1)
        else:
            labels.append(node[0])
            stack.extend((c, len(parents) - 1) for c in reversed(node[1]))
    return parents, labels, leaves


# -- reference constructions --------------------------------------------------
#
# Plain-function versions of graph composition, matrix algebra and cotree and
# spectrum queries. The package has no use for them; the tests use them as
# independent references for what it computes.


def single() -> Graph:
    return Graph(1, (0,))


def from_edges(n: int, edges) -> Graph:
    """The graph on vertices 0..n-1 with the given 0-based endpoint pairs,
    through the checked ``Graph`` constructor."""
    rows = [0] * n
    for i, j in edges:
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return Graph(n, tuple(rows))


@cache
def labelled_graphs(n: int) -> tuple[Graph, ...]:
    """All 2^(n(n-1)/2) labelled graphs on n vertices, through the checked
    constructor: each graph on the first m vertices with every neighbourhood
    of vertex m among them, m = 0, ..., n - 1. Cached, as two exhaustive
    tests walk the same graphs."""
    graphs = [()]
    for m in range(n):
        graphs = [tuple(row | (mask >> i & 1) << m for i, row in enumerate(rows)) + (mask,)
                  for rows in graphs for mask in range(1 << m)]
    return tuple(Graph(n, rows) for rows in graphs)


def threshold_to_graph(bits: str) -> Graph:
    """Adjacency straight from the attachment rule: the vertex added at step j
    by a join is adjacent to every earlier vertex, so {i, j} with i < j is an
    edge exactly when bit j of the 0/1 string is 1."""
    n = len(bits)
    rows = [0] * n
    for j in range(n):
        if bits[j] == "1":
            for i in range(j):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph(n, tuple(rows))


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


def expr_reference(text: str) -> Graph:
    """The graph of a well-formed cograph expression, by recursive descent
    over its characters: '+' is union_of, '*' is join_of and binds tighter,
    '.' is one vertex and an integer k is k isolated vertices. Raises
    ValueError on anything else."""
    tokens = []
    i = 0
    while i < len(text):
        j = i + 1
        if text[i].isdecimal():
            while j < len(text) and text[j].isdecimal():
                j += 1
        if not text[i].isspace():
            tokens.append(text[i:j])
        i = j
    tokens.append("")
    pos = 0

    def take() -> str:
        nonlocal pos
        pos += 1
        return tokens[pos - 1]

    def expr() -> Graph:
        parts = [term()]
        while tokens[pos] == "+":
            take()
            parts.append(term())
        return union_of(parts)

    def term() -> Graph:
        parts = [factor()]
        while tokens[pos] == "*":
            take()
            parts.append(factor())
        return join_of(parts)

    def factor() -> Graph:
        tok = take()
        if tok == "(":
            inner = expr()
            if take() != ")":
                raise ValueError("unbalanced parenthesis")
            return inner
        if tok == ".":
            return single()
        if tok.isdecimal() and int(tok) > 0:
            return union_of([single()] * int(tok))
        raise ValueError(f"unexpected token {tok!r}")

    g = expr()
    if take() != "":
        raise ValueError("stray token")
    return g


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph(g.n, tuple(full & ~row & ~(1 << i) for i, row in enumerate(g.rows)))


def components_reference(rows: Sequence[int], mask: int, flip: int = 0) -> list[int]:
    """Components of the subgraph induced on ``mask`` (of its complement with
    ``flip=mask``), in order of their smallest vertex, by a BFS that ORs
    ``rows[i] ^ flip`` one frontier vertex at a time."""
    comps = []
    rem = mask
    while rem:
        comp = rem & -rem
        rem ^= comp
        frontier = comp
        while frontier:
            grown = 0
            for i in _bits(frontier):
                grown |= rows[i] ^ flip
            frontier = grown & rem
            rem ^= frontier
            comp |= frontier
        comps.append(comp)
    return comps


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


# Matrices are tuples of int rows, the form ``laplacian`` and
# ``modal_matrix`` return; a spectrum is ``spectrum``'s ascending
# (eigenvalue, multiplicity) pairs.
Matrix = tuple[tuple[int, ...], ...]
Pairs = tuple[tuple[int, int], ...]


def diagonal(values: Sequence[int]) -> Matrix:
    n = len(values)
    return tuple(tuple(values[i] if i == j else 0 for j in range(n)) for i in range(n))


def matmul(a: Matrix, b: Matrix) -> Matrix:
    if any(len(row) != len(b) for row in a):
        raise ValueError("inner dimensions differ")
    cols = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m))


def column(m: Matrix, j: int) -> tuple[int, ...]:
    return tuple(row[j] for row in m)


def to_nested(t: CoTree):
    """Nested form of the tree: a leaf is its vertex id, an internal node is
    ``(label, [children...])``; built bottom-up, without recursion."""
    built: list = [0] * t.node_count()
    for i in range(t.node_count() - 1, -1, -1):
        if t.is_leaf(i):
            built[i] = t.leaf_vertex(i)
        else:
            built[i] = (t.label(i), [built[c] for c in t.children(i)])
    return built[0]


def leaves_below(t: CoTree, i: int) -> frozenset[int]:
    """Vertex ids of all leaves descending from node i (i included if leaf)."""
    return frozenset(t.leaf_sequence(i))


def path_to_root(t: CoTree, i: int) -> list[int]:
    """Node i followed by each of its ancestors, up to the root."""
    path = [i]
    while (up := t.parent(path[-1])) is not None:
        path.append(up)
    return path


def lca(t: CoTree, u: int, v: int) -> int:
    """Lowest common ancestor of the leaves carrying vertex ids u and v."""
    above = set(path_to_root(t, t.leaf_id(u)))
    return next(node for node in path_to_root(t, t.leaf_id(v)) if node in above)


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
        if vertex not in leaves_below(t, child):
            raise ValueError(f"vertex {vertex} is not a leaf below child {child}")
    return frozenset(choice.values())


def p4_reference(g: Graph, mask: int) -> tuple[int, int, int, int] | None:
    """The first induced P4 on the vertices of ``mask`` (0-based bits) by a
    search over their 4-subsets in lexicographic order, in path order from
    its smaller end as 1-based ids; None when there is none. Visits up to
    k^4 / 24 quads, so it is only for small k."""
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
        return tuple(v + 1 for v in order)
    return None


def pbh_reference(t: CoTree, control) -> bool:
    """PBH test by elimination: for every distinct eigenvalue, stack the
    ``block_reference`` blocks of the nodes that carry it, zero-padded to the
    union of their columns, and ask for full column rank of the rows at the
    control vertices. The empty set sees no eigenvector, not even the
    all-ones one."""
    vertices = sorted(control)
    if not vertices:
        return False
    groups: dict[int, list] = {}
    for v in t.internal_ids():
        block, row_vertices = block_reference(t, v)
        row_of = {u: r for r, u in enumerate(row_vertices)}
        groups.setdefault(eigenvalue_reference(t, v), []).append((block, row_of))
    for blocks in groups.values():
        rows = []
        for v in vertices:
            row: list[int] = []
            for block, row_of in blocks:
                r = row_of.get(v)
                row.extend(block[r] if r is not None else [0] * len(block[0]))
            rows.append(row)
        ncols = sum(len(b[0]) for b, _ in blocks)
        if _rank_fraction_free(rows) < ncols:
            return False
    return True


def _rank_fraction_free(rows: list[list[int]]) -> int:
    """Integer-preserving (fraction-free) elimination rank; every division is
    exact by the standard two-step determinant identity."""
    m = [list(r) for r in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    denom = 1
    for col in range(ncols):
        pivot = next((i for i in range(rank, nrows) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        head = m[rank][col]
        for i in range(rank + 1, nrows):
            factor = m[i][col]
            for j in range(col + 1, ncols):
                m[i][j] = (head * m[i][j] - factor * m[rank][j]) // denom
            m[i][col] = 0
        denom = head
        rank += 1
        if rank == nrows:
            break
    return rank


KALMAN_REFERENCE_CAP = 16


def kalman_reference(g: Graph, control: Iterable[int]) -> int:
    """Rank of [B, AB, ..., A^(n-1)B] with A = -L(g), the textbook way: build
    the whole n x n.|S| matrix power by power and eliminate over exact
    rationals. Its integers grow with every power, so it is capped at small n."""
    if g.n > KALMAN_REFERENCE_CAP:
        raise ValueError(f"kalman_reference capped at n <= {KALMAN_REFERENCE_CAP}")
    vertices = list(control)
    if not vertices:
        return 0
    n = g.n
    a = [[-x for x in row] for row in laplacian(g)]
    block = [[1 if i == v - 1 else 0 for v in vertices] for i in range(n)]
    kalman = [list(row) for row in block]
    for _ in range(n - 1):
        block = [[sum(a[i][k] * block[k][j] for k in range(n)) for j in range(len(vertices))]
                 for i in range(n)]
        for row, more in zip(kalman, block):
            row.extend(more)
    return rank_rational(kalman)


def exhaustive_reference(g: Graph) -> tuple[int, list[tuple[int, ...]]]:
    """Smallest controllable-set size and every set of that size, in
    ``combinations`` order: one ``kalman_reference`` per vertex subset."""
    vertices = range(1, g.n + 1)
    for k in range(g.n + 1):
        hits = [c for c in combinations(vertices, k) if kalman_reference(g, c) == g.n]
        if hits:
            return k, hits
    raise AssertionError("full actuation is always controllable")


def rank_rational(rows: Sequence[Sequence[int]]) -> int:
    """Rank via plain Gaussian elimination over exact rationals."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, nrows) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(nrows):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


def eigenvalue_reference(t: CoTree, v: int) -> int:
    """Eigenvalue of internal node v by the walk to the root: label(v) times
    its leaf count, plus label(u) * (leaf_count(u) - leaf_count(w)) for each
    ancestor u entered from its child w."""
    path = path_to_root(t, v)
    value = t.label(v) * t.leaf_count(v)
    for w, u in zip(path, path[1:]):
        value += t.label(u) * (t.leaf_count(u) - t.leaf_count(w))
    return value


def column_eigenvalues(t: CoTree) -> tuple[int, ...]:
    """Eigenvalue of each modal-matrix column, in column order."""
    return tuple(eigenvalue_reference(t, v) for v in t.internal_ids()
                 for _ in range(len(t.children(v)) - 1))


def nontrivial(spec: Pairs) -> Counter:
    """Eigenvalue multiset with one copy of the trivial 0 removed."""
    counts = Counter(dict(spec))
    counts[0] -= 1
    return +counts


def compose_spectrum(op: str, parts: Sequence[Pairs]) -> Pairs:
    """Spectrum pairs of a union or join of graphs from their spectra; a
    part's vertex count is the sum of its multiplicities.

    Union: keep every part's nontrivial eigenvalues and add p-1 extra zeros.
    Join on n total vertices: shift part i's nontrivial eigenvalues up by
    n - n_i and add p-1 copies of n. The single trivial 0 is appended last.
    """
    if op not in ("union", "join"):
        raise ValueError(f"op must be 'union' or 'join', got {op!r}")
    if not parts:
        raise ValueError("compose_spectrum requires at least one part")
    sizes = [sum(m for _, m in part) for part in parts]
    n = sum(sizes)
    counts: Counter = Counter()
    if op == "union":
        for part in parts:
            counts.update(nontrivial(part))
        counts[0] += len(parts) - 1
    else:
        for part, size in zip(parts, sizes):
            for value, mult in nontrivial(part).items():
                counts[value + n - size] += mult
        counts[n] += len(parts) - 1
    counts[0] += 1
    return tuple(sorted(counts.items()))


def char_poly_reference(m: Matrix) -> list[int]:
    """det(xI - M), highest degree first, by Berkowitz's recurrence written as
    a recursion on the trailing principal submatrix (one frame per row)."""
    return _berkowitz([list(r) for r in m])


def _berkowitz(a: list[list[int]]) -> list[int]:
    n = len(a)
    if n == 0:
        return [1]
    if n == 1:
        return [1, -a[0][0]]
    head = a[0][0]
    row = a[0][1:]
    col = [r[0] for r in a[1:]]
    rest = [r[1:] for r in a[1:]]
    q = _berkowitz(rest)
    t = [1, -head]
    w = col
    for _ in range(n - 1):
        t.append(-sum(x * y for x, y in zip(row, w)))
        w = [sum(rest[i][k] * w[k] for k in range(n - 1)) for i in range(n - 1)]
    return [
        sum(t[i - j] * q[j] for j in range(len(q)) if 0 <= i - j < len(t))
        for i in range(n + 1)
    ]


def integer_roots_reference(coeffs: Sequence[int]) -> Counter:
    """Integer roots of a monic integer polynomial by the rational root test:
    try every divisor of the constant term, smallest first, deflate by the
    first root found and start again. The divisor search is exponential in
    the degree of a Laplacian's polynomial, so keep its inputs small."""
    if not coeffs or coeffs[0] != 1:
        raise ValueError("polynomial must be monic with leading coefficient 1")
    poly = list(coeffs)
    roots: Counter = Counter()
    while len(poly) > 1:
        if poly[-1] == 0:
            roots[0] += 1
            poly.pop()
            continue
        for mag in _divisors(poly[-1]):
            for r in (mag, -mag):
                if _eval_poly(poly, r) == 0:
                    poly = _deflate(poly, r)
                    roots[r] += 1
                    break
            else:
                continue
            break
        else:
            raise NonIntegerRootError(f"no integer root divides constant term {poly[-1]}")
    return roots


def _divisors(value: int) -> list[int]:
    value = abs(value)
    small, large = [], []
    for d in range(1, isqrt(value) + 1):
        if value % d == 0:
            small.append(d)
            large.append(value // d)
    return small + large[::-1]


def _eval_poly(poly: Sequence[int], x: int) -> int:
    acc = 0
    for c in poly:
        acc = acc * x + c
    return acc


def _deflate(poly: Sequence[int], root: int) -> list[int]:
    out = [poly[0]]
    for c in poly[1:-1]:
        out.append(c + root * out[-1])
    if poly[-1] + root * out[-1] != 0:
        raise ArithmeticError("deflation by a non-root")
    return out


def block_reference(t: CoTree, v: int) -> tuple[Matrix, tuple[int, ...]]:
    """Eigenvector block of internal node v and its row vertices, entry by
    entry: with child leaf counts (n_1, ..., n_k), column j (0-based) holds
    n_{j+2} on the leaves of children 0..j, -(n_1 + ... + n_{j+1}) on the
    leaves of child j+1, and 0 below."""
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
    return tuple(map(tuple, rows)), tuple(row_vertices)


def modal_reference(t: CoTree) -> Matrix:
    """The n x (n-1) modal matrix assembled from ``block_reference``, node by
    node in preorder, each block in its own columns at its vertices' rows."""
    rows = [[0] * (t.n - 1) for _ in range(t.n)]
    col = 0
    for v in t.internal_ids():
        block, vertices = block_reference(t, v)
        width = len(t.children(v)) - 1
        for vertex, entries in zip(vertices, block):
            rows[vertex - 1][col:col + width] = entries
        col += width
    return tuple(map(tuple, rows))


def column_vector(t: CoTree, column) -> list[int]:
    """A ``modal_columns`` entry as a dense vector, entry u - 1 for vertex u."""
    _, _, a, i0, i1, b, i2 = column
    seq = t.leaf_sequence(t.root)
    w = [0] * t.n
    for u in seq[i0:i1]:
        w[u - 1] = a
    for u in seq[i1:i2]:
        w[u - 1] = -b
    return w


def columns_to_matrix(t: CoTree, columns) -> Matrix:
    """The n x len(columns) matrix whose column j is ``columns[j]``."""
    vectors = [column_vector(t, c) for c in columns]
    return tuple(zip(*vectors)) if vectors else ((),) * t.n


def is_eigenpair_on_adjacency(g: Graph, t: CoTree, column) -> bool:
    """L w = lambda w, w != 0 and sum(w) = 0 for one ``modal_columns`` entry,
    checked on the bitset adjacency of ``g``: w is a on the vertex mask A and
    -b on the mask B, so (L w)_x = deg(x) w_x - a |N(x) & A| + b |N(x) & B|
    costs two popcounts per vertex."""
    _, value, a, i0, i1, b, i2 = column
    seq = t.leaf_sequence(t.root)
    on_a = sum(1 << (u - 1) for u in seq[i0:i1])
    on_b = sum(1 << (u - 1) for u in seq[i1:i2])
    if a == 0 or on_a == 0 or a * on_a.bit_count() != b * on_b.bit_count():
        return False
    for x, row in enumerate(g.rows):
        w = a if on_a >> x & 1 else -b if on_b >> x & 1 else 0
        lw = row.bit_count() * w - a * (row & on_a).bit_count() + b * (row & on_b).bit_count()
        if lw != value * w:
            return False
    return True
