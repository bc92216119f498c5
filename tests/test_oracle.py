"""The brute-force ground-truth routines themselves."""

import random
from collections import Counter

import pytest

from cographctl import (
    Graph,
    NonIntegerRootError,
    SizeCapError,
    char_poly,
    cotree_to_graph,
    exhaustive_min_sets,
    find_p4,
    integer_roots,
    is_p4_free,
    kalman_rank,
    laplacian,
    parse_cotree,
    spectrum,
)
from cographctl.graphs import IntMatrix
from cographctl.oracle import _rank_rational

from helpers import (
    EIGHT_NODE_TEXT,
    cotree_corpus,
    is_connected,
    join_of,
    random_graph,
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


def test_kalman_rank_validation():
    g = join_of([K1, K1])
    with pytest.raises(ValueError):
        kalman_rank(g, (0,))
    with pytest.raises(ValueError):
        kalman_rank(g, (3,))
    with pytest.raises(ValueError):
        kalman_rank(g, (1, 1))
    assert kalman_rank(g, ()) == 0


def test_char_poly_k2_k3():
    assert char_poly(laplacian(join_of([K1, K1]))) == [1, -2, 0]
    roots = integer_roots(char_poly(laplacian(join_of([K1] * 3))))
    assert sorted(roots.elements()) == [0, 3, 3]


def test_char_poly_trace_identity():
    # the second coefficient is minus the trace
    rng = random.Random(23)
    for _ in range(25):
        n = rng.randint(1, 6)
        m = IntMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        )
        coeffs = char_poly(m)
        assert len(coeffs) == n + 1 and coeffs[0] == 1
        trace = sum(m.entries[i][i] for i in range(n))
        assert coeffs[1] == -trace


def test_char_poly_requires_square():
    with pytest.raises(ValueError):
        char_poly(IntMatrix.from_rows([[1, 2]]))


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


def test_is_p4_free_examples():
    p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    witness = find_p4(p4)
    assert witness is not None and witness.vertices == (1, 2, 3, 4)
    assert not is_p4_free(p4)
    for t in cotree_corpus(25, 8, seed=31, mixed_roots=True):
        assert is_p4_free(cotree_to_graph(t))


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


def test_exhaustive_size_cap():
    with pytest.raises(SizeCapError):
        exhaustive_min_sets(join_of([K1] * 11))


def test_oracle_spectrum_matches_closed_form():
    for t in cotree_corpus(30, 7, seed=37, mixed_roots=True):
        roots = integer_roots(char_poly(laplacian(cotree_to_graph(t))))
        assert roots == Counter(dict(spectrum(t).pairs))


def test_rational_rank_basics():
    assert _rank_rational([]) == 0
    assert _rank_rational([[0, 0]]) == 0
    assert _rank_rational([[1, 2], [2, 4]]) == 1
    assert _rank_rational([[1, 0], [0, 1], [1, 1]]) == 2
