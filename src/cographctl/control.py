"""Leader selection and controllability checks for cograph consensus networks.

Vertices whose leaves share a cotree parent are interchangeable siblings: they
see the rest of the graph identically, so leaving two of them unactuated
leaves a symmetry no input can break. Grouping leaves by parent yields the
sibling partition; with p cells on n vertices the minimum number of control
nodes is n - p, achieved exactly by taking all but one vertex from every cell.

Two checks guard each other here, both O(n): ``is_controllable`` runs the
cell test, while ``pbh_check`` runs the eigenvector (PBH) test one cotree
node at a time, reading each node's eigenvector block's rank at the control
rows off how many of its children the controls reach. They must agree on
every input.
"""

from __future__ import annotations

from math import prod
from typing import Iterable, Iterator

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
    Every ``CoTree`` is canonical, so these are the graph's twin classes."""
    by_parent: dict[int | None, list[int]] = {}
    for v in range(1, t.n + 1):
        by_parent.setdefault(t.parent(t.leaf_id(v)), []).append(v)
    return tuple(sorted(map(tuple, by_parent.values())))


def min_control_size(t: CoTree) -> int:
    """Minimum number of control nodes rendering the network controllable:
    n minus the number of sibling cells."""
    _require_controllable_setting(t, "min_control_size")
    return t.n - len(sibling_partition(t))


def select_min_control_set(t: CoTree, tie_rule: str = "lowest-ids") -> tuple[int, ...]:
    """One minimum control set: all but one vertex from every sibling cell.
    ``tie_rule`` picks which vertices stay (lowest-ids keeps the smallest)."""
    _require_controllable_setting(t, "select_min_control_set")
    if tie_rule not in ("lowest-ids", "highest-ids"):
        raise ValueError(f"tie_rule must be 'lowest-ids' or 'highest-ids', got {tie_rule!r}")
    chosen = [v for cell in sibling_partition(t)
              for v in (cell[:-1] if tie_rule == "lowest-ids" else cell[1:])]
    return tuple(sorted(chosen))


def count_min_control_sets(t: CoTree) -> int:
    """Number of distinct minimum control sets: the product of cell sizes."""
    _require_controllable_setting(t, "count_min_control_sets")
    return prod(map(len, sibling_partition(t)))


def enumerate_min_control_sets(t: CoTree) -> Iterator[tuple[int, ...]]:
    """All minimum control sets, one dropped vertex per cell, emitted in
    lexicographic order of the sorted vertex tuple.

    A depth-first walk over the vertex ids in increasing order tries "keep
    v" before "drop v", which is exactly lexicographic order. v may be kept
    only while its cell still has a later vertex to drop, and dropped only
    while its cell has no drop yet, so the walk never dead-ends: the first
    set costs O(n) and nothing is built or sorted ahead of time."""
    _require_controllable_setting(t, "enumerate_min_control_sets")
    cells = sibling_partition(t)
    n = t.n
    cell_of = [0] * (n + 1)
    for idx, cell in enumerate(cells):
        for v in cell:
            cell_of[v] = idx
    last = {cell[-1] for cell in cells}
    dropped = [False] * len(cells)
    drops: list[int] = []  # dropped vertices, in walk order
    kept: list[int] = []
    # vertices kept while their cell could still drop them, with len(kept) before each
    branches: list[tuple[int, int]] = []
    v = 1
    while True:
        while v <= n:
            c = cell_of[v]
            if dropped[c]:
                kept.append(v)
            elif v in last:
                dropped[c] = True
                drops.append(v)
            else:
                branches.append((v, len(kept)))
                kept.append(v)
            v += 1
        yield tuple(kept)
        if not branches:
            return
        v, size = branches.pop()
        while drops and drops[-1] > v:
            dropped[cell_of[drops.pop()]] = False
        del kept[size:]
        dropped[cell_of[v]] = True
        drops.append(v)
        v += 1


def is_controllable(t: CoTree, control: Iterable[int]) -> bool:
    """Cell test: controllable iff every sibling cell has at most one vertex
    outside the control set."""
    _require_controllable_setting(t, "is_controllable")
    chosen = set(_control_vertices(control, t.n))
    return all(
        sum(1 for v in cell if v not in chosen) <= 1
        for cell in sibling_partition(t)
    )


def pbh_check(t: CoTree, control: Iterable[int]) -> bool:
    """Eigenvector (PBH) test: True iff every internal node has at most one
    child whose leaves no control vertex reaches.

    Internal node v with k children carries k - 1 eigenvectors. They take
    the same row at every leaf below one child, and any k - 1 of the k child
    rows are independent, so the block's rank at the control rows is
    min(children hit, k - 1). Blocks that share an eigenvalue live on
    disjoint leaf sets, so their stacked rank is the sum of the block ranks.
    The all-ones eigenvector needs one control, which the root's two or more
    children already demand. One reverse-preorder pass: O(node count).
    """
    _require_controllable_setting(t, "pbh_check")
    count = t.node_count()
    hit = [False] * count
    for v in _control_vertices(control, t.n):
        hit[t.leaf_id(v)] = True
    missed = [0] * count  # children of each node that no control reaches
    for i in range(count - 1, 0, -1):
        if hit[i]:
            hit[t.parent(i)] = True
        else:
            missed[t.parent(i)] += 1
    return max(missed) <= 1
