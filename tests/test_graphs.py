"""Core graph composition, Laplacians, and the integer matrix type."""

import random

import pytest

from cographctl import (
    Graph,
    IntMatrix,
    char_poly,
    integer_roots,
    laplacian,
    parse_threshold,
    threshold_to_graph,
)

from helpers import (
    THRESHOLD_EXAMPLE,
    complement,
    degree_sequence,
    diagonal,
    is_connected,
    join_of,
    matmul,
    random_graph,
    single,
    transpose,
    union_of,
)

K1 = single()


def k(n):
    return join_of([K1] * n)


def test_union_examples():
    g = union_of([K1, K1])
    assert g.n == 2 and g.edge_count() == 0

    g = union_of([k(2), K1])
    assert g.n == 3 and g.edge_count() == 1
    assert g.has_edge(0, 1) and not g.has_edge(0, 2)


def test_union_of_two_k2_eigenvalues_via_eigensolve_oracle():
    g = union_of([k(2), k(2)])
    roots = integer_roots(char_poly(laplacian(g)))
    assert sorted(roots.elements()) == [0, 0, 2, 2]


def test_join_examples():
    assert join_of([K1, K1]).edge_count() == 1

    star = join_of([K1, union_of([K1, K1])])
    assert star.n == 3 and star.edge_count() == 2
    assert star.degree(0) == 2

    for n in range(2, 7):
        assert k(n).edge_count() == n * (n - 1) // 2


def test_empty_part_list_rejected():
    with pytest.raises(ValueError):
        union_of([])
    with pytest.raises(ValueError):
        join_of([])


def test_laplacian_k2_k3():
    assert laplacian(k(2)).entries == ((1, -1), (-1, 1))
    L3 = laplacian(k(3)).entries
    assert all(L3[i][i] == 2 for i in range(3))
    assert all(L3[i][j] == -1 for i in range(3) for j in range(3) if i != j)


def test_laplacian_threshold_degree_diagonal():
    # oracle: rebuild the same adjacency by folding the construction sequence
    seq = parse_threshold(THRESHOLD_EXAMPLE)
    g = threshold_to_graph(seq)
    folded = K1
    for bit in seq.bits[1:]:
        folded = (join_of if bit else union_of)([folded, K1])
    assert folded == g
    L = laplacian(g)
    assert tuple(L.entries[i][i] for i in range(7)) == (3, 3, 2, 4, 1, 1, 6)


def test_laplacian_rows_sum_to_zero_and_symmetric():
    rng = random.Random(7)
    for _ in range(30):
        g = random_graph(rng.randint(1, 9), rng, rng.random())
        L = laplacian(g)
        assert all(sum(row) == 0 for row in L.entries)
        assert L.entries == transpose(L).entries


def test_complement_and_connectivity():
    assert complement(k(3)).edge_count() == 0
    assert not is_connected(union_of([K1, K1]))
    assert is_connected(join_of([union_of([K1, K1]), k(3)]))
    assert is_connected(K1)


def test_degree_sequence_order():
    g = threshold_to_graph(parse_threshold(THRESHOLD_EXAMPLE))
    assert degree_sequence(g) == [3, 3, 2, 4, 1, 1, 6]


def test_composition_associative_up_to_indexing():
    rng = random.Random(11)
    for _ in range(20):
        parts = [random_graph(rng.randint(1, 4), rng) for _ in range(rng.randint(2, 4))]
        for compose in (union_of, join_of):
            folded = parts[0]
            for nxt in parts[1:]:
                folded = compose([folded, nxt])
            assert folded == compose(parts)


def test_complement_involution_and_de_morgan():
    rng = random.Random(13)
    for _ in range(20):
        g = random_graph(rng.randint(1, 8), rng)
        assert complement(complement(g)) == g
    for _ in range(20):
        parts = [random_graph(rng.randint(1, 4), rng) for _ in range(rng.randint(2, 3))]
        assert join_of(parts) == complement(union_of([complement(p) for p in parts]))


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(2, (1, 0))  # asymmetric
    with pytest.raises(ValueError):
        Graph(1, (1,))  # self-loop
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 5)])


def test_intmatrix_ops():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    assert matmul(a, diagonal([1, 1])).entries == a.entries
    assert transpose(a).entries == ((1, 3), (2, 4))
    assert diagonal([5, 7]).entries == ((5, 0), (0, 7))
    with pytest.raises(ValueError):
        matmul(a, IntMatrix.from_rows([[1, 2, 3]]))
    with pytest.raises(ValueError):
        IntMatrix(((1, 2), (3,)), 2)
