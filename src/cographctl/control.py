"""Leader selection and controllability checks for cograph consensus networks.

Vertices whose leaves share a cotree parent are interchangeable siblings: they
see the rest of the graph identically, so leaving two of them unactuated
leaves a symmetry no input can break. Grouping leaves by parent yields the
sibling partition; with p cells on n vertices the minimum number of control
nodes is n - p, achieved exactly by taking all but one vertex from every cell.

Two independent checks guard each other here: ``is_controllable`` runs the
O(n) cell test, while ``pbh_check`` stacks the eigenvector blocks per distinct
eigenvalue and verifies full column rank of the controlled rows over exact
rationals. They must agree on every input.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Iterable, Iterator

from .cotree import CoTree
from .errors import NotConnectedError
from .spectral import EigenBlock, eigen_blocks


@dataclass(frozen=True)
class SiblingPartition:
    """Disjoint cells of mutually sibling vertices covering 1..n, ordered by
    smallest member; singleton cells hold vertices with no sibling."""

    cells: tuple[tuple[int, ...], ...]

    @property
    def p(self) -> int:
        return len(self.cells)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.cells)


@dataclass(frozen=True)
class ControlSet:
    """Ordered distinct vertex ids; the input matrix takes the matching
    columns of the identity."""

    vertices: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("control vertices must be distinct")
        if any(v < 1 for v in self.vertices):
            raise ValueError("control vertices are 1-based ids")

    def __len__(self) -> int:
        return len(self.vertices)


def _control_vertices(t: CoTree, control: ControlSet | Iterable[int]) -> tuple[int, ...]:
    """The control vertices, checked to be distinct ids in 1..n."""
    if not isinstance(control, ControlSet):
        control = ControlSet(tuple(control))
    for v in control.vertices:
        if v > t.n:
            raise ValueError(f"control vertex {v} out of range 1..{t.n}")
    return control.vertices


def _all_but_one_per_cell(cells: Iterable[tuple[int, ...]], tie_rule: str) -> ControlSet:
    """Every vertex but one from each cell; ``tie_rule`` picks which one
    stays out (lowest-ids keeps the smallest ids in the set)."""
    if tie_rule not in ("lowest-ids", "highest-ids"):
        raise ValueError(f"tie_rule must be 'lowest-ids' or 'highest-ids', got {tie_rule!r}")
    chosen = [v for cell in cells
              for v in (cell[:-1] if tie_rule == "lowest-ids" else cell[1:])]
    return ControlSet(tuple(sorted(chosen)))


def _require_controllable_setting(t: CoTree, op: str) -> None:
    if t.n == 1:
        raise ValueError(f"{op} requires more than one vertex")
    if t.label(t.root) != 1:
        raise NotConnectedError(f"{op} requires a connected graph (root label 1)")


def sibling_partition(t: CoTree) -> SiblingPartition:
    """Group leaves by their cotree parent; requires a canonical cotree."""
    if t.n == 1:
        return SiblingPartition(((1,),))
    by_parent: dict[int | None, list[int]] = {}
    for v in range(1, t.n + 1):
        by_parent.setdefault(t.parent(t.leaf_id(v)), []).append(v)
    return SiblingPartition(tuple(sorted(map(tuple, by_parent.values()))))


def min_control_size(t: CoTree) -> int:
    """Minimum number of control nodes rendering the network controllable:
    n minus the number of sibling cells."""
    _require_controllable_setting(t, "min_control_size")
    return t.n - sibling_partition(t).p


def select_min_control_set(t: CoTree, tie_rule: str = "lowest-ids") -> ControlSet:
    """One minimum control set: all but one vertex from every sibling cell.
    ``tie_rule`` picks which vertices stay (lowest-ids keeps the smallest)."""
    _require_controllable_setting(t, "select_min_control_set")
    return _all_but_one_per_cell(sibling_partition(t).cells, tie_rule)


def count_min_control_sets(t: CoTree) -> int:
    """Number of distinct minimum control sets: the product of cell sizes."""
    _require_controllable_setting(t, "count_min_control_sets")
    return prod(sibling_partition(t).sizes)


def enumerate_min_control_sets(t: CoTree) -> Iterator[ControlSet]:
    """All minimum control sets, one dropped vertex per cell, emitted in
    lexicographic order of the sorted vertex tuple.

    A depth-first walk over the vertex ids in increasing order tries "keep
    v" before "drop v", which is exactly lexicographic order. v may be kept
    only while its cell still has a later vertex to drop, and dropped only
    while its cell has no drop yet, so the walk never dead-ends: the first
    set costs O(n) and nothing is built or sorted ahead of time."""
    _require_controllable_setting(t, "enumerate_min_control_sets")
    cells = sibling_partition(t).cells
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
        yield ControlSet(tuple(kept))
        if not branches:
            return
        v, size = branches.pop()
        while drops and drops[-1] > v:
            dropped[cell_of[drops.pop()]] = False
        del kept[size:]
        dropped[cell_of[v]] = True
        drops.append(v)
        v += 1


def is_controllable(t: CoTree, control: ControlSet | Iterable[int]) -> bool:
    """Cell test: controllable iff every sibling cell has at most one vertex
    outside the control set."""
    _require_controllable_setting(t, "is_controllable")
    chosen = set(_control_vertices(t, control))
    return all(
        sum(1 for v in cell if v not in chosen) <= 1
        for cell in sibling_partition(t).cells
    )


def pbh_check(t: CoTree, control: ControlSet | Iterable[int]) -> bool:
    """Eigenvector test: for every distinct eigenvalue, the rows of its
    stacked eigenvector blocks at the control vertices must have full column
    rank, so no eigenvector vanishes on every control node.

    Blocks sharing an eigenvalue live on disjoint leaf sets, which makes the
    stacking valid. Must agree with ``is_controllable`` on every input.
    """
    _require_controllable_setting(t, "pbh_check")
    vertices = sorted(_control_vertices(t, control))
    if not vertices:
        return False  # the trivial all-ones eigenvector sees no input
    groups: dict[int, list[tuple[EigenBlock, dict[int, int]]]] = {}
    for block in eigen_blocks(t):
        row_of = {v: r for r, v in enumerate(block.row_vertices)}
        groups.setdefault(block.eigenvalue, []).append((block, row_of))
    for blocks in groups.values():
        rows = []
        for v in vertices:
            row: list[int] = []
            for block, row_of in blocks:
                r = row_of.get(v)
                row.extend(block.block.entries[r] if r is not None else [0] * block.multiplicity)
            rows.append(row)
        ncols = sum(b.multiplicity for b, _ in blocks)
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
