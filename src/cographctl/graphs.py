"""Undirected simple graphs with exact integer matrices.

Vertices are indexed 0..n-1 internally; user-facing layers (parsers, control
sets, cotree leaves) present them as 1..n. Adjacency is stored as one bitmask
per vertex, which keeps neighbourhood and component queries exact and fast at
the few-thousand-vertex scale this package targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


@dataclass(frozen=True)
class IntMatrix:
    """Immutable dense matrix of arbitrary-precision integers."""

    entries: tuple[tuple[int, ...], ...]
    ncols: int

    def __post_init__(self):
        for row in self.entries:
            if len(row) != self.ncols:
                raise ValueError("row length does not match column count")

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]], ncols: int | None = None) -> "IntMatrix":
        entries = tuple(tuple(int(x) for x in row) for row in rows)
        if ncols is None:
            if not entries:
                raise ValueError("column count required for a matrix with no rows")
            ncols = len(entries[0])
        return cls(entries, ncols)


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph over vertices 0..n-1.

    ``rows[i]`` is a bitmask; bit j is set iff {i, j} is an edge. The mask is
    symmetric and the diagonal is empty.
    """

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        if len(self.rows) != self.n:
            raise ValueError("adjacency row count does not match n")
        full = (1 << self.n) - 1
        for i, row in enumerate(self.rows):
            if row & ~full:
                raise ValueError("adjacency bit outside vertex range")
            if row >> i & 1:
                raise ValueError("self-loop in adjacency")
        for i, row in enumerate(self.rows):
            for j in _bits(row):
                if not self.rows[j] >> i & 1:
                    raise ValueError("adjacency not symmetric")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build from 0-based endpoint pairs."""
        rows = [0] * n
        for i, j in edges:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge endpoint out of range: ({i}, {j})")
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        return cls(n, tuple(rows))

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.rows[i] >> j & 1)

    def degree(self, i: int) -> int:
        return self.rows[i].bit_count()

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield 0-based edges (i, j) with i < j, in sorted order."""
        for i in range(self.n):
            higher = self.rows[i] >> (i + 1) << (i + 1)
            for j in _bits(higher):
                yield (i, j)

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def laplacian(g: Graph) -> IntMatrix:
    """Degree matrix minus adjacency; symmetric, zero row sums."""
    rows = []
    for i in range(g.n):
        row = [0] * g.n
        for j in _bits(g.rows[i]):
            row[j] = -1
        row[i] = g.degree(i)
        rows.append(tuple(row))
    return IntMatrix(tuple(rows), g.n)
