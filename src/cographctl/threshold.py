"""Threshold-graph shortcuts.

In a threshold graph two vertices are siblings exactly when they have equal
degree, so the degree partition coincides with the sibling partition and
leader selection reduces to counting degree classes. The equivalence is
specific to threshold graphs; for general cographs equal degree does not
imply siblinghood.
"""

from __future__ import annotations

from dataclasses import dataclass

from .control import _all_but_one_per_cell
from .cotree import CoTree
from .errors import NotConnectedError
from .parsing import ThresholdSequence, threshold_to_cotree
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


def threshold_min_control(
    seq: ThresholdSequence, tie_rule: str = "lowest-ids"
) -> tuple[int, tuple[int, ...]]:
    """Minimum control-set size and one such set for a connected threshold
    graph, read directly off the degree partition.

    A threshold graph is connected exactly when its last bit is 1 (the final
    vertex joins everything); anything else is rejected.
    """
    if seq.n < 2 or seq.bits[-1] != 1:
        raise NotConnectedError(
            "threshold graph is connected only when the final bit is 1"
        )
    partition = degree_partition(threshold_to_cotree(seq))
    return seq.n - partition.p, _all_but_one_per_cell(partition.cells, tie_rule)
