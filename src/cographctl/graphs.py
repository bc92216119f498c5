"""Undirected simple graphs with exact integer matrices.

Vertices are indexed 0..n-1 internally; user-facing layers (parsers, control
sets, cotree leaves) present them as 1..n. Adjacency is stored as one bitmask
per vertex, which keeps neighbourhood and component queries exact and fast at
the few-thousand-vertex scale this package targets.
"""

from __future__ import annotations

from typing import Iterator


class Graph:
    """Undirected simple graph over vertices 0..n-1.

    ``rows[i]`` is a bitmask; bit j is set iff {i, j} is an edge. The mask is
    symmetric and the diagonal is empty. ``Graph(n, rows)`` checks all of
    this, symmetry of dense rows as one n x n text against its transpose and
    of sparse rows bit by bit; the package's own builders, whose rows hold
    it by construction, go through ``_trusted`` and skip the checks.
    """

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: tuple[int, ...]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)
        self.__post_init__()

    def __post_init__(self):  # the checks; perfbench's tracer wraps them under this name
        if type(self.n) is not int or self.n < 1:
            raise ValueError("graph needs a positive int vertex count")
        if len(self.rows) != self.n:
            raise ValueError("adjacency row count does not match n")
        full = (1 << self.n) - 1
        for i, row in enumerate(self.rows):
            if type(row) is not int:
                raise ValueError("adjacency rows must be int bitmasks")
            if row & ~full:
                raise ValueError("adjacency bit outside vertex range")
            if row >> i & 1:
                raise ValueError("self-loop in adjacency")
        n = self.n
        if n * n <= 8 * sum(map(int.bit_count, self.rows)):
            # dense rows: the n x n 0/1 text, bit j of row i at i * n + j,
            # must equal its transpose; n^2 bytes, all of it C-level work
            matrix = "".join([format(row, f"0{n}b")[::-1] for row in self.rows])
            if "".join([matrix[i::n] for i in range(n)]) != matrix:
                raise ValueError("adjacency not symmetric")
            return
        for i, row in enumerate(self.rows):
            for j in _bits(row):
                if not self.rows[j] >> i & 1:
                    raise ValueError("adjacency not symmetric")

    @classmethod
    def _trusted(cls, n: int, rows: tuple[int, ...]) -> "Graph":
        """A graph over rows that are in range, loop-free and symmetric by
        construction, built without ``__post_init__``."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "rows", rows)
        return g

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set or delete {name!r}: a Graph is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        same = type(other) is Graph
        return (self.n, self.rows) == (other.n, other.rows) if same else NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"Graph(n={self.n!r}, rows={self.rows!r})"

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


def laplacian(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Degree matrix minus adjacency, as int rows; symmetric, zero row sums."""
    rows = []
    for i in range(g.n):
        row = [0] * g.n
        for j in _bits(g.rows[i]):
            row[j] = -1
        row[i] = g.degree(i)
        rows.append(tuple(row))
    return tuple(rows)
