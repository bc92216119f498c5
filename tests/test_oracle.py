"""The brute-force ground-truth routines themselves."""

import inspect
import random
import sys
import time
from collections import Counter
from itertools import combinations

import pytest

import cographctl.oracle as oracle
from cographctl import (
    CoTree,
    NonIntegerRootError,
    SizeCapError,
    char_poly,
    control_rank,
    cotree_to_graph,
    exhaustive_min_sets,
    find_p4,
    integer_roots,
    kalman_rank,
    laplacian,
    parse_cotree,
    parse_expr,
    parse_threshold,
    random_cotree,
    sibling_partition,
    spectrum,
)
from cographctl.oracle import _twin_classes

from helpers import (
    EIGHT_NODE_TEXT,
    char_poly_reference,
    cotree_corpus,
    cotree_shapes,
    exhaustive_reference,
    from_edges,
    integer_roots_reference,
    is_connected,
    join_of,
    kalman_reference,
    labelled_graphs,
    p4_reference,
    random_graph,
    rank_rational,
    single,
    union_of,
)

K1 = single()


def test_kalman_rank_k2():
    assert kalman_rank(join_of([K1, K1]), (1,)) == 2


def test_kalman_rank_eight_node_sets():
    g = cotree_to_graph(parse_cotree(EIGHT_NODE_TEXT))
    assert kalman_rank(g, (1, 6, 7)) == 8
    assert kalman_rank(g, (3, 4, 5)) < 8


def test_kalman_rank_full_actuation():
    rng = random.Random(17)
    for _ in range(25):
        g = random_graph(rng.randint(1, 7), rng)
        if is_connected(g):
            assert kalman_rank(g, range(1, g.n + 1)) == g.n


def test_kalman_rank_rejects_bool_ids():
    # the oracle checks its input itself, apart from the control module
    g = join_of([K1, K1])
    for ids in ((True,), (False,), (2, True)):
        with pytest.raises(ValueError, match="is not an int id"):
            kalman_rank(g, ids)
    assert kalman_rank(g, (1,)) == 2


def test_kalman_rank_validation():
    g = join_of([K1, K1])
    with pytest.raises(ValueError):
        kalman_rank(g, (0,))
    with pytest.raises(ValueError):
        kalman_rank(g, (3,))
    with pytest.raises(ValueError):
        kalman_rank(g, (1, 1))
    with pytest.raises(ValueError):
        kalman_rank(g, (1.5,))
    with pytest.raises(ValueError):
        kalman_rank(g, (2.0, 3))
    assert kalman_rank(g, ()) == 0


def test_kalman_rank_matches_reference():
    # 2,100 (graph, set) pairs: cographs of both root labels and arbitrary
    # graphs with n <= 12, each with the empty set, full actuation and a
    # random set
    rng = random.Random(41)
    for i in range(700):
        n = rng.randint(1, 12)
        if i % 2 or n == 1:
            g = random_graph(n, rng, p=rng.uniform(0.2, 0.8))
        else:
            g = cotree_to_graph(random_cotree(n, rng, root_label=rng.randint(0, 1)))
        for size in (0, n, rng.randint(1, n)):
            control = rng.sample(range(1, n + 1), size)
            assert kalman_rank(g, control) == kalman_reference(g, control), (g, control)


def test_kalman_rank_matches_reference_with_few_free_vertices():
    # the cross-check's shapes: all vertices but two, all but one, all of
    # them; 200 graphs with n <= 12, cographs of both root labels and not
    rng = random.Random(45)
    for i in range(200):
        n = rng.randint(1, 12)
        if i % 2 or n == 1:
            g = random_graph(n, rng, p=rng.uniform(0.1, 0.9))
        else:
            g = cotree_to_graph(random_cotree(n, rng, root_label=rng.randint(0, 1)))
        for size in sorted({max(n - 2, 0), n - 1, n}):
            control = rng.sample(range(1, n + 1), size)
            assert kalman_rank(g, control) == kalman_reference(g, control), (g, control)


def test_kalman_rank_matches_closed_form_up_to_n_100():
    rng = random.Random(43)
    trees = []
    for n in (12, 40, 100):
        trees.append(random_cotree(n, rng))
        trees.append(parse_expr(f".*{n - 1}"))  # the star K_{1,n-1}
        trees.append(parse_threshold("01" * (n // 2)))
    for t in trees:
        g = cotree_to_graph(t)
        for size in (1, 2, t.n // 2):
            control = rng.sample(range(1, t.n + 1), size)
            assert kalman_rank(g, control) == control_rank(t, control), (t, control)


def test_char_poly_k2_k3():
    assert char_poly(laplacian(join_of([K1, K1]))) == [1, -2, 0]
    roots = integer_roots(char_poly(laplacian(join_of([K1] * 3))))
    assert sorted(roots.elements()) == [0, 3, 3]


def test_char_poly_trace_identity():
    # the second coefficient is minus the trace
    rng = random.Random(23)
    for _ in range(25):
        n = rng.randint(1, 6)
        m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        coeffs = char_poly(m)
        assert len(coeffs) == n + 1 and coeffs[0] == 1
        trace = sum(m[i][i] for i in range(n))
        assert coeffs[1] == -trace


def test_char_poly_matches_recursive_reference():
    # 2,000 non-symmetric integer matrices with negative entries, n = 0..9
    rng = random.Random(71)
    for i in range(2000):
        n = i % 10
        m = tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(n))
        assert char_poly(m) == char_poly_reference(m), m


def test_char_poly_uses_no_recursion():
    # a Laplacian with 40 rows under a recursion limit 20 frames above the
    # current depth: a recursion with one frame per row cannot finish
    t = random_cotree(40, random.Random(72))
    lap = laplacian(cotree_to_graph(t))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 20)
    try:
        coeffs = char_poly(lap)
    finally:
        sys.setrecursionlimit(limit)
    assert integer_roots(coeffs) == Counter(dict(spectrum(t)))


def test_char_poly_requires_square():
    """Every row needs one entry per row: a wide, a tall and a ragged
    matrix are all rejected."""
    for bad in ([[1, 2]], [[1, 2, 3], [4, 5, 6]], [[1], [2]], ((1, 2), (3,)), [[1], [2, 3]]):
        with pytest.raises(ValueError, match="square matrix"):
            char_poly(bad)
    assert char_poly([]) == [1]


def test_char_poly_rejects_non_int_entries():
    """The matrix comes from the caller; the exact arithmetic must not run
    on floats, strings or anything else that is not an int."""
    for bad in (((1.5, 0), (0, 2)), ((1, 0), (0, 2.0)), [[1.7]], [[1, 2.0], [3, 4]], [["1"]]):
        with pytest.raises(ValueError, match="must be ints"):
            char_poly(bad)
    assert char_poly(((1, 0), (0, 2))) == [1, -3, 2]


def test_integer_roots_extraction():
    # (x - 2)^2 (x + 3) x = x^4 - x^3 - 8x^2 + 12x
    assert integer_roots([1, -1, -8, 12, 0]) == Counter({2: 2, -3: 1, 0: 1})
    assert integer_roots([1]) == Counter()


def test_integer_roots_fails_loudly():
    with pytest.raises(NonIntegerRootError):
        integer_roots([1, 0, -2])  # x^2 - 2
    with pytest.raises(NonIntegerRootError):
        integer_roots([1, 0, 1])  # x^2 + 1
    with pytest.raises(ValueError):
        integer_roots([2, 1])  # not monic
    with pytest.raises(ValueError):
        integer_roots([1, -2.5])  # x - 2.5 has no integer root
    with pytest.raises(ValueError):
        integer_roots([1.0, 2])


def _roots_outcome(find, coeffs):
    try:
        return find(coeffs)
    except (NonIntegerRootError, ValueError) as error:
        return type(error)


def test_integer_roots_matches_divisor_reference():
    # 21,000 polynomials: split ones with roots in -15..15, the same with the
    # constant term moved by +-1, and random monic ones
    rng = random.Random(73)
    polys = []
    for _ in range(7000):
        poly = [1]
        for _ in range(rng.randint(1, 6)):
            r = rng.randint(-15, 15)
            poly = [a - r * b for a, b in zip(poly + [0], [0] + poly)]  # times (x - r)
        moved = poly[:-1] + [poly[-1] + rng.choice((-1, 1))]
        monic = [1] + [rng.randint(-20, 20) for _ in range(rng.randint(0, 6))]
        polys += [poly, moved, monic]
    outcomes = Counter()
    for poly in polys:
        got = _roots_outcome(integer_roots, poly)
        assert got == _roots_outcome(integer_roots_reference, poly), poly
        outcomes[got is NonIntegerRootError] += 1
    assert outcomes[True] > 5000 and outcomes[False] > 5000


def test_is_p4_free_examples():
    """No cograph has a P4; on random graphs with 7 <= n <= 12 of every
    density the witness is the reference search's first P4 on the whole
    graph, in path order from its smaller end."""
    p4 = from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert find_p4(p4) == (1, 2, 3, 4)
    for t in cotree_corpus(25, 8, seed=31, mixed_roots=True):
        assert find_p4(cotree_to_graph(t)) is None
    rng = random.Random(3131)
    witnesses = []
    for _ in range(300):
        g = random_graph(rng.randint(7, 12), rng, rng.random())
        witnesses.append(find_p4(g))
        assert witnesses[-1] == p4_reference(g, (1 << g.n) - 1)
    assert 30 < witnesses.count(None) < 270


def test_exhaustive_min_sets_eight_node():
    g = cotree_to_graph(parse_cotree(EIGHT_NODE_TEXT))
    size, sets = exhaustive_min_sets(g)
    assert size == 3
    assert set(sets) == {
        (1, 6, 7), (2, 6, 7), (1, 6, 8), (2, 6, 8), (1, 7, 8), (2, 7, 8),
    }


def test_exhaustive_min_sets_disconnected():
    size, sets = exhaustive_min_sets(union_of([K1, K1]))
    assert size == 2 and sets == [(1, 2)]


def test_exhaustive_min_sets_matches_per_subset_reference():
    # 1,019 graphs with n <= 8: the edgeless and the complete graph of each
    # size, random densities, every fifth a union of two random graphs;
    # most are small, as the reference's cost triples with each vertex
    rng = random.Random(47)
    graphs = []
    for n, count in enumerate((60, 120, 300, 380, 100, 30, 10, 3), start=1):
        graphs += [union_of([K1] * n), join_of([K1] * n)]
        for i in range(count):
            if i % 5 == 0 and n > 1:
                a = rng.randint(1, n - 1)
                parts = [random_graph(k, rng, p=rng.uniform(0.1, 0.9)) for k in (a, n - a)]
                graphs.append(union_of(parts))
            else:
                graphs.append(random_graph(n, rng, p=rng.uniform(0.05, 0.95)))
    assert len(graphs) == 1019
    for g in graphs:
        assert exhaustive_min_sets(g) == exhaustive_reference(g), g


@pytest.fixture
def ranked(monkeypatch):
    """The control sets passed to ``oracle.kalman_rank``, in call order."""
    sets = []
    real = oracle.kalman_rank
    monkeypatch.setattr(oracle, "kalman_rank", lambda g, c: sets.append(c) or real(g, c))
    return sets


@pytest.mark.parametrize("expr, size, count", [
    (".*9", 8, 9),
    ("(.+.)*(.+.)*(.+.)*(.+.)*(.+.)", 5, 32),
])
def test_exhaustive_min_sets_ranks_only_the_minimum_sets(ranked, expr, size, count):
    """The star K_{1,9} and the 5-pair chain K_{2,2,2,2,2}: every subset a
    twin pair leaves uncertified at size n - p is a minimum set, so the
    search ranks exactly the sets it returns and nothing smaller."""
    assert exhaustive_min_sets(cotree_to_graph(parse_expr(expr))) == (size, ranked)
    assert len(ranked) == count


def test_exhaustive_min_sets_never_ranks_a_certified_subset(ranked):
    """On every cotree shape with n <= 7 and on random graphs with n <= 8,
    no ranked subset is smaller than n - p or leaves two vertices of one
    twin class outside."""
    rng = random.Random(29)
    graphs = [cotree_to_graph(CoTree(*columns)) for n in range(1, 8) for columns in cotree_shapes(n)]
    graphs += [random_graph(rng.randint(2, 8), rng, rng.random()) for _ in range(200)]
    for g in graphs:
        ranked.clear()
        _, sets = exhaustive_min_sets(g)
        classes = _twin_classes(g)
        assert set(sets) <= set(ranked)
        for c in ranked:
            assert len(c) >= g.n - len(classes)
            assert all(len(set(cell) - set(c)) <= 1 for cell in classes), (g, c)


def test_twin_classes_are_the_sibling_cells_on_every_shape():
    for n in range(1, 9):
        for columns in cotree_shapes(n):
            t = CoTree(*columns)
            assert _twin_classes(cotree_to_graph(t)) == sibling_partition(t), columns


def test_twin_classes_certify_on_every_labelled_graph_up_to_six_vertices():
    """On all 33,867 labelled graphs with n <= 6 the twin classes partition
    1..n in order of smallest member; two vertices share a class iff their
    open rows or their closed rows are equal; no vertex has both a false and
    a true twin; and each pair x, y in a class has L.(e_x - e_y) =
    (deg x + [x ~ y]).(e_x - e_y) on laplacian(g)."""
    count = 0
    for n in range(1, 7):
        for g in labelled_graphs(n):
            count += 1
            classes = _twin_classes(g)
            assert list(classes) == sorted(tuple(sorted(cell)) for cell in classes)
            assert sorted(v for cell in classes for v in cell) == list(range(1, n + 1))
            cell_of = {v - 1: cell for cell in classes for v in cell}
            rows, lap = g.rows, None
            false_twin, true_twin = set(), set()
            for x, y in combinations(range(n), 2):
                false = rows[x] == rows[y]
                true = rows[x] | 1 << x == rows[y] | 1 << y
                if false:
                    false_twin.update((x, y))
                if true:
                    true_twin.update((x, y))
                assert (cell_of[x] is cell_of[y]) == (false or true), (g, x, y)
                if false or true:
                    eigenvalue = rows[x].bit_count() + true
                    lap = lap or laplacian(g)
                    image = [r[x] - r[y] for r in lap]
                    assert image == [eigenvalue * ((i == x) - (i == y)) for i in range(n)], (g, x, y)
            assert not false_twin & true_twin, g
    assert count == 33867


def test_exhaustive_size_cap():
    with pytest.raises(SizeCapError):
        exhaustive_min_sets(join_of([K1] * 11))


def test_oracle_spectrum_matches_closed_form():
    for t in cotree_corpus(30, 7, seed=37, mixed_roots=True):
        roots = integer_roots(char_poly(laplacian(cotree_to_graph(t))))
        assert roots == Counter(dict(spectrum(t)))


def test_oracle_spectrum_matches_closed_form_at_n_12_to_40():
    # random_cotree(16, Random(2)) alone took about 90 s under a divisor search
    rng = random.Random(74)
    trees = [random_cotree(16, random.Random(2))]
    trees += [random_cotree(rng.randint(12, 40), rng, root_label=rng.randint(0, 1))
              for _ in range(15)]
    for t in trees:
        lap = laplacian(cotree_to_graph(t))
        start = time.perf_counter()
        roots = integer_roots(char_poly(lap))
        assert time.perf_counter() - start < 10.0
        assert roots == Counter(dict(spectrum(t))), t


def test_rational_rank_basics():
    assert rank_rational([]) == 0
    assert rank_rational([[0, 0]]) == 0
    assert rank_rational([[1, 2], [2, 4]]) == 1
    assert rank_rational([[1, 0], [0, 1], [1, 1]]) == 2
