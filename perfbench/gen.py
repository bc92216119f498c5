"""Seeded input generators and text writers, independent of cographctl.

Nothing here imports the program: the benchmark builds its own cotrees,
renders its own expression, cotree, threshold and edge-list text, and derives
the expected answers (adjacency, canonical cotree text, spectrum, twin
classes) from its own structures. A later change to the program therefore
cannot alter a workload or the answers it is checked against.

A nested cotree is a leaf ``int`` (vertex id, 1-based) or a list
``[label, [children...]]`` with label 0 (union) or 1 (join). Every tree built
here is canonical: labels alternate, internal nodes have at least two
children, and leaf ids run 1..n in left-to-right order, so children are
already sorted by their smallest leaf. All traversals use explicit stacks,
because the deep families go past the interpreter's recursion limit.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict
from itertools import product


def _postorder(tree):
    """Internal nodes of a nested tree, every child before its parent."""
    out, stack = [], [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, list):
            out.append(node)
            stack.extend(node[1])
    out.reverse()
    return out


def _number_leaves(tree):
    """Give the leaf placeholders ids 1..n in left-to-right order."""
    counter = 0
    stack = [(tree, 0)]
    while stack:
        node, i = stack.pop()
        kids = node[1]
        while i < len(kids) and not isinstance(kids[i], list):
            counter += 1
            kids[i] = counter
            i += 1
        if i < len(kids):
            stack.append((node, i + 1))
            stack.append((kids[i], 0))
    return tree


# -- shapes ---------------------------------------------------------------------


def random_cotree(n: int, rng: random.Random):
    """Canonical cotree on n leaves under a join root: each internal node
    splits its leaf count into 2..6 random parts, with labels alternating
    downwards."""
    if n == 1:
        return 1
    root = [1, []]
    stack = [(root, n)]
    while stack:
        node, size = stack.pop()
        k = rng.randint(2, min(size, 6))
        cuts = sorted(rng.sample(range(1, size), k - 1))
        for part in (b - a for a, b in zip([0] + cuts, cuts + [size])):
            if part == 1:
                node[1].append(0)
            else:
                child = [1 - node[0], []]
                node[1].append(child)
                stack.append((child, part))
    return _number_leaves(root)


def multipartite(sizes):
    """Complete multipartite graph: a join of unions; parts of size 1 are
    single leaves. ``[1, n - 1]`` is the star."""
    parts = [0 if s == 1 else [0, [0] * s] for s in sizes]
    return _number_leaves([1, parts])


def alternating_bits(depth: int, rng: random.Random, doubles: int = 0) -> str:
    """Threshold construction bits whose cotree has ``depth`` internal levels:
    alternating runs, ``doubles`` of them two bits long, ending in 1 so the
    graph is connected. The first run includes vertex 1's leading 0."""
    runs = [1] * depth
    for i in rng.sample(range(depth), min(doubles, depth)):
        runs[i] = 2
    bits = ["0"]
    label = depth % 2  # runs alternate, so this makes the last run a join
    for length in runs:
        bits.append(str(label) * length)
        label = 1 - label
    return "".join(bits)


def threshold_cotree(bits: str):
    """Canonical cotree of a threshold construction sequence: maximal runs of
    equal bits (vertex 1 joins the first run) become one node each, and each
    node hangs the previous one first, then the run's new vertices."""
    n = len(bits)
    if n == 1:
        return 1
    node = None
    i = 1
    while i < n:
        j = i
        while j < n and bits[j] == bits[i]:
            j += 1
        kids = [] if node is None else [node]
        if node is None:
            kids.append(1)
        kids.extend(range(i + 1, j + 1))
        node = [int(bits[i]), kids]
        i = j
    return node


# -- text writers ---------------------------------------------------------------


def to_cotree_text(tree, rng: random.Random | None = None) -> str:
    """Cotree text. With ``rng``, the text is a non-canonical form of the same
    graph: children come in shuffled order and some pairs of children sit in
    an extra node carrying their parent's label, which the program must undo."""
    if not isinstance(tree, list):
        return str(tree)
    text = {}
    for node in _postorder(tree):
        parts = [text.pop(id(c)) if isinstance(c, list) else str(c) for c in node[1]]
        if rng is not None:
            rng.shuffle(parts)
            if len(parts) >= 3 and rng.random() < 0.3:
                grouped = f"{node[0]}({parts[0]},{parts[1]})"
                parts = [grouped] + parts[2:]
        text[id(node)] = f"{node[0]}(" + ",".join(parts) + ")"
    return text[id(tree)]


def to_expr_text(tree, compact: bool = True) -> str:
    """Cograph expression with vertices numbered left to right. With
    ``compact``, a union of k single vertices is written as the integer k."""
    if not isinstance(tree, list):
        return "."
    text = {}
    for node in _postorder(tree):
        kids = node[1]
        if node[0] == 0:
            if compact and all(not isinstance(c, list) for c in kids):
                body = str(len(kids))
            else:
                body = "+".join(text.pop(id(c)) if isinstance(c, list) else "." for c in kids)
            text[id(node)] = body
        else:
            parts = []
            for c in kids:
                if not isinstance(c, list):
                    parts.append(".")
                else:
                    inner = text.pop(id(c))
                    parts.append(inner if inner.isdigit() else f"({inner})")
            text[id(node)] = "*".join(parts)
    return text[id(tree)]


def edge_list_text(n: int, rows, rng: random.Random) -> str:
    """Edge-list file: a comment, the 'n m' header, then every edge once in
    shuffled order with random endpoint order."""
    edges = []
    for i in range(n):
        higher = rows[i] >> (i + 1) << (i + 1)
        while higher:
            low = higher & -higher
            j = low.bit_length()
            edges.append((i + 1, j) if rng.random() < 0.5 else (j, i + 1))
            higher ^= low
    rng.shuffle(edges)
    lines = ["# generated by perfbench", f"{n} {len(edges)}"]
    lines.extend(f"{a} {b}" for a, b in edges)
    return "\n".join(lines) + "\n"


# -- expected answers ----------------------------------------------------------


def leaf_count(tree) -> int:
    if not isinstance(tree, list):
        return 1
    return sum(1 for node in _postorder(tree) for c in node[1] if not isinstance(c, list))


def cotree_rows(tree):
    """Adjacency bitmask rows (row v-1 for vertex v) of a nested cotree: two
    leaves are adjacent when their lowest common ancestor is a join. Each
    child of a join sees the join's other leaves as external neighbours."""
    n = leaf_count(tree)
    if not isinstance(tree, list):
        return [0]
    mask = {}
    for node in _postorder(tree):
        m = 0
        for c in node[1]:
            m |= mask[id(c)] if isinstance(c, list) else 1 << (c - 1)
        mask[id(node)] = m
    rows = [0] * n
    stack = [(tree, 0)]
    while stack:
        node, ext = stack.pop()
        full = mask[id(node)]
        for c in node[1]:
            cm = mask[id(c)] if isinstance(c, list) else 1 << (c - 1)
            inner = ext | (full & ~cm) if node[0] == 1 else ext
            if isinstance(c, list):
                stack.append((c, inner))
            else:
                rows[c - 1] = inner
    return rows


def threshold_rows(bits: str):
    """Adjacency straight from the attachment rule: vertex j with bit 1 is
    adjacent to every earlier vertex."""
    n = len(bits)
    rows = [0] * n
    for j in range(n):
        if bits[j] == "1":
            rows[j] |= (1 << j) - 1
            for i in range(j):
                rows[i] |= 1 << j
    return rows


def composed_spectrum(tree):
    """Laplacian spectrum by the composition rules, applied bottom-up: a
    union keeps every part's eigenvalues; a join on N vertices shifts part
    i's nontrivial eigenvalues by N - n_i and adds k-1 copies of N."""
    if not isinstance(tree, list):
        return Counter({0: 1})
    done = {}
    for node in _postorder(tree):
        parts = [done.pop(id(c)) if isinstance(c, list) else (1, Counter({0: 1}))
                 for c in node[1]]
        total = sum(size for size, _ in parts)
        counts = Counter()
        if node[0] == 0:
            for _, part in parts:
                counts.update(part)
        else:
            counts[0] = 1
            counts[total] += len(parts) - 1
            for size, part in parts:
                for value, mult in part.items():
                    if value == 0:
                        mult -= 1
                    if mult:
                        counts[value + total - size] += mult
        done[id(node)] = (total, counts)
    return done[id(tree)][1]


def conjugate_spectrum(degrees):
    """Merris: a threshold graph's Laplacian spectrum is the conjugate of its
    degree sequence, d*_i = #{j : d_j >= i} for i = 1..n."""
    n = len(degrees)
    counts = Counter(degrees)
    at_least = 0
    out = Counter()
    for i in range(n, 0, -1):
        at_least += counts.get(i, 0)
        out[at_least] += 1
    return out


def degrees(rows):
    return [r.bit_count() for r in rows]


def twin_classes(rows):
    """Vertices with equal open neighbourhoods (false twins) or equal closed
    neighbourhoods (true twins), sorted. In a cograph these are exactly the
    sibling cells of the canonical cotree."""
    by_open, by_closed = defaultdict(list), defaultdict(list)
    for i, row in enumerate(rows):
        by_open[row].append(i + 1)
        by_closed[row | 1 << i].append(i + 1)
    cells, seen = [], set()
    for i, row in enumerate(rows):
        if i + 1 in seen:
            continue
        cell = by_open[row]
        if len(cell) == 1:
            cell = by_closed[row | 1 << i]
        cells.append(list(cell))
        seen.update(cell)
    return cells


def min_sets(cells):
    """Every minimum control set (all but one vertex of every cell), sorted
    lexicographically."""
    choices = [[[v for v in cell if v != drop] for drop in cell] for cell in cells]
    return sorted(sorted(v for part in combo for v in part) for combo in product(*choices))


def planted_random_graph(n: int, rng: random.Random):
    """G(n, 1/2) with an induced P4 planted on four random vertices, so the
    graph is certainly not a cograph."""
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    a, b, c, d = rng.sample(range(n), 4)
    for u, v, edge in ((a, b, 1), (b, c, 1), (c, d, 1), (a, c, 0), (b, d, 0), (a, d, 0)):
        if edge:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        else:
            rows[u] &= ~(1 << v)
            rows[v] &= ~(1 << u)
    return rows


def adversarial_rows(n: int):
    """A clique K on vertices 1..n-4 joined to b and c of the P4 a-b-c-d,
    which sits on the four highest ids. Every proper split fails below the
    top level, so recognition must search for the P4."""
    k = n - 4
    a, b, c, d = k, k + 1, k + 2, k + 3
    rows = [0] * n
    for i in range(k):
        rows[i] = ((1 << k) - 1) & ~(1 << i) | 1 << b | 1 << c
    rows[b] |= (1 << k) - 1
    rows[c] |= (1 << k) - 1
    for u, v in ((a, b), (b, c), (c, d)):
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows
