"""Independent brute-force ground truth.

Everything here is deliberately written against the raw adjacency and with its
own linear algebra (a fraction-free integer Krylov basis, division-free
characteristic polynomial) so that it shares no code with the fast closed-form
paths it validates.
"""

from __future__ import annotations

from collections import Counter, deque
from itertools import combinations, product
from math import gcd
from operator import mul
from typing import Iterable, Sequence

from .errors import NonIntegerRootError, SizeCapError
from .graphs import Graph

EXHAUSTIVE_CAP = 10


def kalman_rank(g: Graph, control: Iterable[int]) -> int:
    """Exact rank of [B, AB, ..., A^(n-1)B] with A = -L(g).

    ``control`` holds 1-based vertex ids; B stacks the matching unit columns.
    Rank n certifies controllability.

    That column space K(S) is the smallest L-invariant subspace holding B's
    columns: it holds them, L maps each A^k B into the next block and A^n B
    back into the span (Cayley-Hamilton), and an L-invariant space holding B
    holds every A^k B.

    Let Q zero the control coordinates. Then K(S) = span(e_S) + W, with W the
    smallest QL-invariant subspace holding each Q.L.e_v, v in S; the sum is
    direct, as W is 0 on S, so the rank is |S| + dim W. W lies in K(S), as
    Q.L.x differs from L.x by control unit vectors; and span(e_S) + W is
    L-invariant, as L.x = Q.L.x + (I - Q).L.x for x = e_v or x in W. On the
    free coordinates F, Q.L is L's principal submatrix L_FF and Q.L.e_v is
    minus v's adjacency column, so ``_close`` grows W from those 0/1
    vectors in n - |S| coordinates: at most n reductions (|S| generators, one
    L_FF.w per basis vector), each against at most dim W vectors.
    """
    vertices = list(control)
    n = g.n
    for v in vertices:
        if type(v) is not int:  # a bool is not a vertex id
            raise ValueError(f"control vertex {v!r} is not an int id")
        if not (1 <= v <= n):
            raise ValueError(f"control vertex {v} out of range 1..{n}")
    if len(set(vertices)) != len(vertices):
        raise ValueError("control vertices must be distinct")
    fixed = {v - 1 for v in vertices}
    free = [i for i in range(n) if i not in fixed]
    work = deque([g.rows[v - 1] >> i & 1 for i in free] for v in vertices)
    return len(vertices) + len(_close(work, _laplacian_rows(g, free)))


def _laplacian_rows(g: Graph, keep: list[int]) -> list[tuple[int, list[int]]]:
    """L's principal submatrix on the vertices ``keep``, row by row: each
    vertex's degree in g and the positions in ``keep`` of its neighbours."""
    at = {v: k for k, v in enumerate(keep)}
    rows = []
    for i in keep:
        row = g.rows[i]
        rows.append((row.bit_count(), [k for j, k in at.items() if row >> j & 1]))
    return rows


def _close(work: deque, rows: list[tuple[int, list[int]]]) -> list[tuple[int, list[int]]]:
    """A basis of the smallest M-invariant span holding ``work``, with M the
    matrix ``rows`` from ``_laplacian_rows``. A vector off the work list
    that joins the basis queues M.w, whose entry i is deg(i).w_i minus the
    sum of w over i's neighbours.
    """
    basis: list[tuple[int, list[int]]] = []
    while work and len(basis) < len(rows):
        w = _join(basis, work.popleft())
        if w is not None:
            work.append(_primitive([deg * x - sum(map(w.__getitem__, near))
                                    for x, (deg, near) in zip(w, rows)]))
    return basis


def _join(basis: list[tuple[int, list[int]]], w: list[int]) -> list[int] | None:
    """Reduce w against ``basis``, whose primitive integer vectors are in
    echelon form (each has a pivot where every later one is 0), and append
    and return what is left, or return None when that is 0. Reduction is
    fraction-free, w <- b[p].w - w[p].b and then w / gcd(w)."""
    for p, b in basis:
        c, d = w[p], b[p]
        if c:
            w = _primitive([d * x - c * y for x, y in zip(w, b)])
    if not any(w):
        return None
    # the smallest entry as pivot keeps the multipliers b[p] small
    pivot = min((i for i, x in enumerate(w) if x), key=lambda i: abs(w[i]))
    basis.append((pivot, w))
    return w


def _primitive(w: list[int]) -> list[int]:
    """w divided by the gcd of its entries (w itself when that is 0 or 1)."""
    k = gcd(*w)
    return [x // k for x in w] if k > 1 else w


def char_poly(m: Iterable[Iterable[int]]) -> list[int]:
    """Coefficients of det(xI - M) for the int rows ``m``, highest degree
    first, by Berkowitz's division-free recurrence from the last row up: head
    a_kk, row r, column c and block S below give the Toeplitz column
    [1, -a_kk, -r.c, -r.S.c, ...]. Raises ValueError unless each row is as
    long as the matrix has rows and every entry is an int."""
    a = tuple(map(tuple, m))
    if any(len(row) != len(a) for row in a):
        raise ValueError("characteristic polynomial needs a square matrix")
    if not all(isinstance(x, int) for row in a for x in row):
        raise ValueError("matrix entries must be ints")
    poly = [1]
    for k in reversed(range(len(a))):
        row = a[k][k + 1:]
        rest = [r[k + 1:] for r in a[k + 1:]]
        t = [1, -a[k][k]]
        w = [r[k] for r in a[k + 1:]]
        for _ in rest:  # one entry per row of S
            t.append(-sum(map(mul, row, w)))
            w = [sum(map(mul, r, w)) for r in rest]
        poly = [sum(map(mul, t[i::-1], poly)) for i in range(len(t))]
    return poly


def integer_roots(coeffs: Sequence[int]) -> Counter:
    """Integer roots (with multiplicity) of a monic integer polynomial.

    Divides out 0, 1, -1, 2, -2, ... by Horner's scheme, each as often as it
    divides; the d roots left after magnitude m all exceed m and multiply to
    the constant term c, so they are not all integers once m^d > |c|. Raises
    ValueError on a non-int coefficient and NonIntegerRootError if the
    polynomial does not split, which for a Laplacian means a bug upstream.
    """
    if not all(isinstance(c, int) for c in coeffs):
        raise ValueError("polynomial coefficients must be ints")
    if not coeffs or coeffs[0] != 1:
        raise ValueError("polynomial must be monic with leading coefficient 1")
    poly = list(coeffs)
    roots: Counter = Counter()
    m = 0
    while len(poly) > 2:
        if m ** (len(poly) - 1) > abs(poly[-1]):
            raise NonIntegerRootError(f"no integer roots of magnitude >= {m} "
                                      f"multiply to constant term {poly[-1]}")
        for r in (m, -m) if m else (0,):
            while len(poly) > 1:
                quotient = [1]
                for c in poly[1:]:
                    quotient.append(c + r * quotient[-1])
                if quotient.pop():
                    break
                poly = quotient
                roots[r] += 1
        m += 1
    if len(poly) == 2:
        roots[-poly[1]] += 1
    return roots


def find_p4(g: Graph) -> tuple[int, int, int, int] | None:
    """The lexicographically first induced P4, as 1-based ids in path order
    from its smaller end; None when the graph is P4-free. Four vertices
    induce a path iff their degrees among themselves are 1, 1, 2, 2 (three
    edges on four vertices form a path, a triangle and a lone vertex, or a star)."""
    rows = g.rows
    for quad in combinations(range(g.n), 4):
        a, b, c, d = quad
        inside = 1 << a | 1 << b | 1 << c | 1 << d
        deg = [(rows[v] & inside).bit_count() for v in quad]
        if sorted(deg) == [1, 1, 2, 2]:
            order = [quad[deg.index(1)]]
            while len(order) < 4:
                order.append(next(v for v in quad
                                  if v not in order and rows[order[-1]] >> v & 1))
            return tuple(v + 1 for v in order)
    return None


def _twin_classes(g: Graph) -> tuple[tuple[int, ...], ...]:
    """The twin classes of g as 1-based ids, ordered by smallest member:
    vertices with equal open rows (false twins, pairwise non-adjacent) or
    equal closed rows, row | own bit (true twins, pairwise adjacent). No
    vertex x has both kinds: a true twin z of x lies in N(x), so in N(y) for
    a false twin y, and then y lies in N[z] = N[x], which false twins do
    not. So each vertex takes its false-twin group when that has two
    members and its true-twin group otherwise, and the groups partition
    1..n."""
    false_twins: dict[int, list[int]] = {}
    true_twins: dict[int, list[int]] = {}
    for v, row in enumerate(g.rows):
        false_twins.setdefault(row, []).append(v + 1)
        true_twins.setdefault(row | 1 << v, []).append(v + 1)
    classes: dict[int, list[int]] = {}
    for v, row in enumerate(g.rows):
        group = false_twins[row]
        if len(group) == 1:
            group = true_twins[row | 1 << v]
        classes[group[0]] = group
    return tuple(map(tuple, classes.values()))


def exhaustive_min_sets(g: Graph) -> tuple[int, list[tuple[int, ...]]]:
    """Smallest controllable-set size and every set of that size, in
    ``combinations`` order, by Kalman-rank search over the vertex subsets no
    twin pair rules out. Capped at n <= 10.

    Twins x, y have L.(e_x - e_y) = (deg x + [x ~ y]).(e_x - e_y), an
    eigenvector that is 0 on S exactly when x, y are not in S; so by PBH a
    subset leaving two vertices of one twin class outside is uncontrollable.
    With p classes every subset of fewer than n - p vertices leaves two of
    one class outside, so the search starts at size n - p (1 at least) and
    ranks only the subsets whose outside holds at most one vertex per class:
    n - k classes, one vertex from each."""
    if g.n > EXHAUSTIVE_CAP:
        raise SizeCapError(f"exhaustive search capped at n <= {EXHAUSTIVE_CAP}, got {g.n}")
    n = g.n
    classes = _twin_classes(g)
    for k in range(max(1, n - len(classes)), n + 1):
        candidates = sorted(tuple(v for v in range(1, n + 1) if v not in out)
                            for chosen in combinations(classes, n - k)
                            for out in product(*chosen))
        hits = [c for c in candidates if kalman_rank(g, c) == n]
        if hits:
            return k, hits
    raise AssertionError("full actuation is always controllable")
