"""Independent brute-force ground truth.

Everything here is deliberately written against the raw adjacency and with its
own linear algebra (a fraction-free integer Krylov basis, division-free
characteristic polynomial) so that it shares no code with the fast closed-form
paths it validates.
"""

from __future__ import annotations

from collections import Counter, deque
from itertools import combinations
from math import gcd, isqrt
from typing import Iterable, Sequence

from .cotree import P4Witness
from .errors import NonIntegerRootError, SizeCapError
from .graphs import Graph, IntMatrix

EXHAUSTIVE_CAP = 10


def kalman_rank(g: Graph, control: Iterable[int]) -> int:
    """Exact rank of [B, AB, ..., A^(n-1)B] with A = -L(g).

    ``control`` holds 1-based vertex ids; B stacks the matching unit columns.
    Rank n certifies controllability.

    That column space is the smallest L-invariant subspace holding B's
    columns: it holds them, L maps each A^k B into the next block and A^n B
    back into the span (Cayley-Hamilton), and an L-invariant space holding B
    holds every A^k B. The loop grows exactly that span from e_v for each
    control: a vector off the work list that is not in the span joins the
    basis and queues L.w. So every basis vector lies in the subspace, and
    once the list is empty L maps the span into itself.

    The basis holds primitive integer vectors in echelon form, each with a
    pivot where every later one is 0. Reduction is fraction-free,
    w <- b[p].w - w[p].b and then w / gcd(w); L.w is deg(i).w_i minus the sum
    of w_j over the neighbours j of i, read off the raw adjacency. That is at
    most |S| + n reductions of O(n.rank) integer operations each.
    """
    vertices = list(control)
    n = g.n
    for v in vertices:
        if not isinstance(v, int):
            raise ValueError(f"control vertex {v!r} is not an int id")
        if not (1 <= v <= n):
            raise ValueError(f"control vertex {v} out of range 1..{n}")
    if len(set(vertices)) != len(vertices):
        raise ValueError("control vertices must be distinct")
    neighbours = [[j for j in range(n) if g.has_edge(i, j)] for i in range(n)]
    work = deque([1 if i == v - 1 else 0 for i in range(n)] for v in vertices)
    basis: list[tuple[int, list[int]]] = []
    while work and len(basis) < n:
        w = work.popleft()
        for p, b in basis:
            c, d = w[p], b[p]
            if c:
                w = _primitive([d * x - c * y for x, y in zip(w, b)])
        if any(w):
            # the smallest entry as pivot keeps the multipliers b[p] small
            pivot = min((i for i, x in enumerate(w) if x), key=lambda i: abs(w[i]))
            basis.append((pivot, w))
            work.append(_primitive([len(near) * w[i] - sum(w[j] for j in near)
                                    for i, near in enumerate(neighbours)]))
    return len(basis)


def _primitive(w: list[int]) -> list[int]:
    """w divided by the gcd of its entries (w itself when that is 0 or 1)."""
    k = gcd(*w)
    return [x // k for x in w] if k > 1 else w


def char_poly(m: IntMatrix) -> list[int]:
    """Coefficients of det(xI - M), highest degree first, by a division-free
    recursion on trailing principal submatrices."""
    if m.nrows != m.ncols:
        raise ValueError("characteristic polynomial needs a square matrix")
    return _berkowitz([list(r) for r in m.entries])


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


def _divisors(value: int) -> list[int]:
    value = abs(value)
    small, large = [], []
    for d in range(1, isqrt(value) + 1):
        if value % d == 0:
            small.append(d)
            large.append(value // d)
    return small + large[::-1]


def integer_roots(coeffs: Sequence[int]) -> Counter:
    """Integer roots (with multiplicity) of a monic integer polynomial.

    Raises NonIntegerRootError if the polynomial does not split over the
    integers, which for a cograph Laplacian would signal a bug upstream.
    """
    if not coeffs or coeffs[0] != 1:
        raise ValueError("polynomial must be monic with leading coefficient 1")
    poly = [int(c) for c in coeffs]
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
            raise NonIntegerRootError(
                f"no integer root divides constant term {poly[-1]}"
            )
    return roots


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


def find_p4(g: Graph) -> P4Witness | None:
    """Search all 4-subsets for an induced path; None when the graph is P4-free."""
    for quad in combinations(range(g.n), 4):
        witness = _path_order(g, quad)
        if witness is not None:
            return witness
    return None


def is_p4_free(g: Graph) -> bool:
    return find_p4(g) is None


def _path_order(g: Graph, quad: tuple[int, ...]) -> P4Witness | None:
    pairs = [(i, j) for i, j in combinations(quad, 2) if g.has_edge(i, j)]
    if len(pairs) != 3:
        return None
    deg = Counter()
    for i, j in pairs:
        deg[i] += 1
        deg[j] += 1
    if sorted(deg[v] for v in quad) != [1, 1, 2, 2]:
        return None
    ends = sorted(v for v in quad if deg[v] == 1)
    order = [ends[0]]
    while len(order) < 4:
        order.append(next(v for v in quad
                          if v not in order and g.has_edge(order[-1], v)))
    return P4Witness(tuple(v + 1 for v in order))


def exhaustive_min_sets(g: Graph) -> tuple[int, list[tuple[int, ...]]]:
    """Smallest controllable-set size and every set of that size, by
    Kalman-rank search over all vertex subsets. Capped at n <= 10."""
    if g.n > EXHAUSTIVE_CAP:
        raise SizeCapError(f"exhaustive search capped at n <= {EXHAUSTIVE_CAP}, got {g.n}")
    vertices = range(1, g.n + 1)
    for k in range(g.n + 1):
        hits = [c for c in combinations(vertices, k) if kalman_rank(g, c) == g.n]
        if hits:
            return k, hits
    raise AssertionError("full actuation is always controllable")
