"""Leader selection and controllability checks for cograph consensus networks.

Vertices whose leaves share a cotree parent are interchangeable siblings: they
see the rest of the graph identically, so leaving two of them unactuated
leaves a symmetry no input can break. Grouping leaves by parent yields the
sibling partition; with p cells on n vertices the minimum number of control
nodes is n - p, achieved exactly by taking all but one vertex from every cell.

Two checks guard each other here, both O(n): ``is_controllable`` runs the
cell test, while ``control_rank`` reads the exact Kalman rank off the
eigenvector (PBH) test one cotree node at a time, from how many of its
children the controls reach. The set is controllable iff that rank is n.
"""

from __future__ import annotations

from math import prod
from typing import Callable, Iterable, Iterator

from .cotree import CoTree
from .errors import NotConnectedError


def _control_vertices(control: Iterable[int], n: int | None = None) -> tuple[int, ...]:
    """The control vertices as a tuple, checked to be distinct int ids
    (a bool is not one) of at least 1 and, when n is given, at most n."""
    vertices = tuple(control)
    if any(type(v) is not int or v < 1 for v in vertices):
        raise ValueError("control vertices are 1-based ids")
    if len(set(vertices)) != len(vertices):
        raise ValueError("control vertices must be distinct")
    if n is not None:
        for v in vertices:
            if v > n:
                raise ValueError(f"control vertex {v} out of range 1..{n}")
    return vertices


def _require_controllable_setting(t: CoTree, op: str) -> None:
    if t.n == 1:
        raise ValueError(f"{op} requires more than one vertex")
    if t.label(t.root) != 1:
        raise NotConnectedError(f"{op} requires a connected graph (root label 1)")


def sibling_partition(t: CoTree) -> tuple[tuple[int, ...], ...]:
    """Group leaves by their cotree parent: disjoint cells covering 1..n,
    ordered by smallest member, a singleton for a vertex with no sibling.
    Every ``CoTree`` is canonical, so these are the graph's twin classes.
    Vertex v's cell is keyed by its leaf's stored parent; v ascends, so the
    cells come sorted and in order of their smallest member."""
    parent = t._parent
    cells: dict[int | None, list[int]] = {}
    for v, node in enumerate(t._leaf_node[1:], 1):
        cells.setdefault(parent[node], []).append(v)
    return tuple(map(tuple, cells.values()))


def min_control_size(t: CoTree) -> int:
    """Minimum number of control nodes rendering the network controllable:
    n minus the number of sibling cells."""
    _require_controllable_setting(t, "min_control_size")
    return t.n - len(sibling_partition(t))


def select_min_control_set(t: CoTree, tie_rule: str = "lowest-ids") -> tuple[int, ...]:
    """One minimum control set: all but one vertex from every sibling cell.
    ``tie_rule`` picks which vertices stay (lowest-ids keeps the smallest)."""
    _require_controllable_setting(t, "select_min_control_set")
    return _min_set(sibling_partition(t), tie_rule)


def _min_set(cells: tuple[tuple[int, ...], ...], tie_rule: str) -> tuple[int, ...]:
    """``select_min_control_set`` on the given sibling cells."""
    if tie_rule not in ("lowest-ids", "highest-ids"):
        raise ValueError(f"tie_rule must be 'lowest-ids' or 'highest-ids', got {tie_rule!r}")
    chosen = [v for cell in cells for v in (cell[:-1] if tie_rule == "lowest-ids" else cell[1:])]
    return tuple(sorted(chosen))


def count_min_control_sets(t: CoTree) -> int:
    """Number of distinct minimum control sets: the product of cell sizes."""
    _require_controllable_setting(t, "count_min_control_sets")
    return prod(map(len, sibling_partition(t)))


def enumerate_min_control_sets(t: CoTree) -> Iterator[tuple[int, ...]]:
    """All minimum control sets, one dropped vertex per cell, emitted lazily
    in lexicographic order of the sorted vertex tuple. After a setup linear
    in n, each set costs one tuple concatenation of its length."""
    _require_controllable_setting(t, "enumerate_min_control_sets")
    yield from _min_sets(sibling_partition(t))


# Most vertex slots (sets times set length) the table of tail sets may hold:
# about the square root of 2**400 sets would not fit in any memory.
_TAIL_CAP = 1 << 14


def _min_sets(cells: tuple[tuple[int, ...], ...], part: Callable = tuple) -> Iterator:
    """``enumerate_min_control_sets`` on the given cells, each set rendered by ``part``.

    A singleton cell drops its vertex in every set, so only the cells with
    two or more members matter. Where every such cell before a cut ends
    below every one after it, each set is a head part (the same length in
    every set, all below the tail) followed by a tail part, so
    lexicographic order is head order, then tail order. The tail sets are
    rendered once, as a table of at most ``_TAIL_CAP`` slots holding about
    the square root of the set count, and each head set is joined to each of
    them with one concatenation. With no such cut the table is ``[part(())]``."""
    cells = [cell for cell in cells if len(cell) > 1]
    count = prod(map(len, cells))
    cut, cost = len(cells), count  # no cut: head sets times one empty tail
    tail_count, tail_size = count, sum(map(len, cells)) - len(cells)
    top = 0  # the largest vertex before the cut
    for k, cell in enumerate(cells):
        balance = max(tail_count, count // tail_count)  # table size or head sets
        if top < cell[0] and tail_count * tail_size <= _TAIL_CAP and balance < cost:
            cut, cost = k, balance
        top = max(top, cell[-1])
        tail_count //= len(cell)
        tail_size -= len(cell) - 1
    tails = list(_walk(cells[cut:], part))
    for head in _walk(cells[:cut], part):
        yield from map(head.__add__, tails)


def _walk(cells: list[tuple[int, ...]], part: Callable) -> Iterator:
    """The minimum sets of ``cells``, none a singleton, in lexicographic order.

    A depth-first walk over their vertices in increasing order tries "keep
    v" before "drop v", which is exactly lexicographic order. v may be kept
    only while its cell still has a later vertex to drop, and dropped only
    while its cell has no drop yet, so the walk never dead-ends. After one
    sort of the vertices, each set costs the vertices walked since the
    branch it came back to."""
    order = sorted((v, c) for c, cell in enumerate(cells) for v in cell)
    last = {cell[-1] for cell in cells}
    dropped = [False] * len(cells)
    drops: list[int] = []  # positions in order of the dropped vertices
    kept: list[int] = []
    # positions kept while their cell could still drop them, with len(kept) before each
    branches: list[tuple[int, int]] = []
    i, end = 0, len(order)
    while True:
        while i < end:
            v, c = order[i]
            if dropped[c]:
                kept.append(v)
            elif v in last:
                dropped[c] = True
                drops.append(i)
            else:
                branches.append((i, len(kept)))
                kept.append(v)
            i += 1
        yield part(kept)
        if not branches:
            return
        i, size = branches.pop()
        while drops and drops[-1] > i:
            dropped[order[drops.pop()][1]] = False
        del kept[size:]
        dropped[order[i][1]] = True
        drops.append(i)
        i += 1


def is_controllable(t: CoTree, control: Iterable[int]) -> bool:
    """Cell test: controllable iff every sibling cell has at most one vertex
    outside the control set."""
    _require_controllable_setting(t, "is_controllable")
    chosen = set(_control_vertices(control, t.n))
    return all(
        sum(1 for v in cell if v not in chosen) <= 1
        for cell in sibling_partition(t)
    )


def control_rank(t: CoTree, control: Iterable[int]) -> int:
    """Exact Kalman rank of the dynamics driven at the control vertices, n
    iff they control the network: n minus, over the internal nodes,
    max(0, missed - 1), where missed counts the children no control reaches.

    Internal node v with k children carries k - 1 eigenvectors. They take
    the same row at every leaf below one child, and any k - 1 of the k child
    rows are independent, so the block's rank at the control rows is
    min(children hit, k - 1) = k - 1 - max(0, missed - 1). Blocks that share
    an eigenvalue live on disjoint leaf sets, so their stacked ranks add up.
    Any control sees the all-ones vector, alone at eigenvalue 0 under a join
    root; the empty set sees nothing. One reverse-preorder pass, O(n)."""
    _require_controllable_setting(t, "control_rank")
    vertices = _control_vertices(control, t.n)
    parent = t._parent
    hit = [False] * len(parent)
    for v in vertices:
        hit[t._leaf_node[v]] = True
    missed = [0] * len(parent)  # children of each node that no control reaches
    for i in range(len(parent) - 1, 0, -1):
        if hit[i]:
            hit[parent[i]] = True
        else:
            missed[parent[i]] += 1
    return t.n - sum(m - 1 for m in missed if m > 1) if vertices else 0
