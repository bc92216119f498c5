"""Degree partitions, the threshold-graph view of the sibling cells.

In a threshold graph two vertices are siblings exactly when they have equal
degree, so the degree partition coincides with the sibling partition and a
minimum leader set takes all but one vertex of each degree class. The
equivalence is specific to threshold graphs; for general cographs equal
degree does not imply siblinghood.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cotree import CoTree
from .spectral import _node_eigenvalues


@dataclass(frozen=True)
class DegreePartition:
    """Vertex cells of equal degree, ordered by increasing degree."""

    cells: tuple[tuple[int, ...], ...]
    degrees: tuple[int, ...]

    @property
    def p(self) -> int:
        return len(self.cells)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.cells)


def degree_partition(t: CoTree) -> DegreePartition:
    """Cells of the vertex ids 1..n by degree, read off the cotree in O(n):
    a leaf's ancestor correction is its vertex's degree."""
    values = _node_eigenvalues(t)
    by_degree: dict[int, list[int]] = {}
    for v in range(1, t.n + 1):
        by_degree.setdefault(values[t.leaf_id(v)], []).append(v)
    ordered = sorted(by_degree)
    return DegreePartition(
        cells=tuple(tuple(by_degree[d]) for d in ordered),
        degrees=tuple(ordered),
    )
