"""Threshold-graph shortcuts.

In a threshold graph two vertices are siblings exactly when they have equal
degree, so the degree partition coincides with the sibling partition and
leader selection reduces to counting degree classes. The equivalence is
specific to threshold graphs; for general cographs equal degree does not
imply siblinghood.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

from .control import ControlSet, _all_but_one_per_cell
from .errors import NotConnectedError
from .graphs import Graph
from .parsing import ThresholdSequence


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


def degree_partition(g: Graph) -> DegreePartition:
    return _by_degree([g.degree(i) for i in range(g.n)])


def _by_degree(degrees: Sequence[int]) -> DegreePartition:
    """Cells of the vertex ids 1..n by their entry in ``degrees``."""
    by_degree: dict[int, list[int]] = {}
    for v, d in enumerate(degrees, start=1):
        by_degree.setdefault(d, []).append(v)
    ordered = sorted(by_degree)
    return DegreePartition(
        cells=tuple(tuple(by_degree[d]) for d in ordered),
        degrees=tuple(ordered),
    )


def threshold_min_control(
    seq: ThresholdSequence, tie_rule: str = "lowest-ids"
) -> tuple[int, ControlSet]:
    """Minimum control-set size and one such set for a connected threshold
    graph, read directly off the degree partition.

    A threshold graph is connected exactly when its last bit is 1 (the final
    vertex joins everything); anything else is rejected. Vertex i is adjacent
    to the i - 1 earlier vertices when its bit is 1 and to every later vertex
    whose bit is 1, so the degrees come straight off the bits in O(n).
    """
    if seq.n < 2 or seq.bits[-1] != 1:
        raise NotConnectedError(
            "threshold graph is connected only when the final bit is 1"
        )
    joins_from = list(accumulate(reversed(seq.bits)))[::-1]  # 1-bits at or after i
    partition = _by_degree([bit * (i - 1) + joins
                            for i, (bit, joins) in enumerate(zip(seq.bits, joins_from))])
    return seq.n - partition.p, _all_but_one_per_cell(partition.cells, tie_rule)
