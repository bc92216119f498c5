"""Closed-form eigenstructure against the exact characteristic polynomial."""

import random
from collections import Counter
from itertools import combinations

import pytest

from cographctl import (
    CoTree,
    SizeCapError,
    char_poly,
    cotree_to_graph,
    integer_roots,
    laplacian,
    modal_columns,
    modal_matrix,
    parse_cotree,
    parse_expr,
    parse_threshold,
    random_cotree,
    spectrum,
)
from cographctl.spectral import MODAL_CAP

from helpers import (
    THRESHOLD_EXAMPLE,
    block_reference,
    column,
    column_eigenvalues,
    column_vector,
    columns_to_matrix,
    compose_spectrum,
    cotree_corpus,
    cotree_shapes,
    degree_sequence,
    diagonal,
    is_eigenpair_on_adjacency,
    matmul,
    modal_reference,
    nontrivial,
    path_to_root,
    rank_rational,
)


def example_threshold_tree():
    return parse_threshold(THRESHOLD_EXAMPLE)


def node_eigenvalues(t):
    return {node: value for node, value, *_ in modal_columns(t)}


def test_local_eigenvalue():
    t = parse_expr(".*.*.*.")  # K4
    assert node_eigenvalues(t) == {t.root: 4}
    t2 = example_threshold_tree()  # 1(0(1(0(1(1,2),3),4),5,6),7)
    assert node_eigenvalues(t2) == {0: 7, 1: 1, 2: 5, 3: 2, 4: 4}


def test_updated_eigenvalue_at_root_is_local_for_root():
    for t in cotree_corpus(20, 8, seed=50):
        node, value, *_ = modal_columns(t)[0]
        assert node == t.root
        assert value == t.label(t.root) * t.leaf_count(t.root)


def test_example_threshold_spectrum_frozen_and_oracle_checked():
    t = example_threshold_tree()
    spec = spectrum(t)
    assert spec == ((0, 1), (1, 2), (2, 1), (4, 1), (5, 1), (7, 1))
    roots = integer_roots(char_poly(laplacian(cotree_to_graph(t))))
    assert roots == Counter(dict(spec))


def test_updated_eigenvalue_strict_bound_below_ancestor():
    # a strict internal descendant's value at ancestor v stays inside (0, l(v));
    # it is w's eigenvalue less the corrections v itself receives
    for t in cotree_corpus(40, 9, seed=60, mixed_roots=True):
        values = node_eigenvalues(t)
        for v in t.internal_ids():
            for w in t.internal_ids():
                if w == v or v not in path_to_root(t, w):
                    continue
                val = values[w] - values[v] + t.label(v) * t.leaf_count(v)
                assert 0 < val < t.leaf_count(v)


def test_ancestor_pairs_have_distinct_eigenvalues():
    for t in cotree_corpus(60, 9, seed=61, mixed_roots=True):
        values = node_eigenvalues(t)
        for w in t.internal_ids():
            for v in path_to_root(t, w)[1:]:
                assert values[v] != values[w]


def root_block(t):
    """The root's columns as a block over its leaves, rows in vertex order."""
    return columns_to_matrix(t, [c for c in modal_columns(t) if c[0] == t.root])


def test_modal_block_two_children():
    t = parse_cotree("1(0(1,2),3)")
    # the root's one column: child sizes (2, 1), 1 on the first child's two
    # leaves and -2 on the second's one
    assert modal_columns(t)[0] == (t.root, 3, 1, 0, 2, 2, 3)
    assert root_block(t) == ((1,), (1,), (-2,))
    block, row_vertices = block_reference(t, t.root)
    assert (block, row_vertices) == (root_block(t), (1, 2, 3))


def test_modal_block_k3_root():
    t = parse_expr(".*.*.")
    assert [c[0] for c in modal_columns(t)] == [t.root, t.root]
    assert root_block(t) == ((1, 1), (-1, 1), (0, -2))
    assert [c[1] for c in modal_columns(t)] == [3, 3]


def test_blocks_and_modal_matrix_match_entrywise_reference():
    rng = random.Random(65)
    trees = cotree_corpus(200, 14, seed=65, mixed_roots=True)
    trees += [parse_expr(f".*{k}") for k in (2, 30)]  # stars
    trees += [parse_expr("+".join(["."] * 30)), parse_expr("*".join(["."] * 30))]
    bits = ["01" * 60, "0" + "01" * 59 + "1", "0" * 40 + "1" * 40]
    bits += ["0" + "".join(rng.choice("01") for _ in range(rng.randint(1, 120)))
             for _ in range(10)]
    trees += [parse_threshold(b) for b in bits]
    for t in trees:
        columns = modal_columns(t)
        assert [c[0] for c in columns] == [v for v in t.internal_ids()
                                           for _ in range(len(t.children(v)) - 1)]
        for v in t.internal_ids():
            block, row_vertices = block_reference(t, v)
            vectors = [column_vector(t, c) for c in columns if c[0] == v]
            assert [[w[u - 1] for u in row_vertices] for w in vectors] == [
                list(column(block, j)) for j in range(len(t.children(v)) - 1)], t
            outside = set(range(1, t.n + 1)) - set(row_vertices)
            assert all(w[u - 1] == 0 for w in vectors for u in outside), t
        assert modal_matrix(t) == modal_reference(t), t


def test_block_columns_sum_to_zero():
    for t in cotree_corpus(40, 9, seed=62, mixed_roots=True):
        for c in modal_columns(t):
            assert sum(column_vector(t, c)) == 0


def test_spectrum_complete_and_bipartite():
    for n in range(2, 8):
        t = parse_expr("*".join(["."] * n))
        assert spectrum(t) == ((0, 1), (n, n - 1))
    t = parse_expr("(.+.)*(.+.+.)")
    assert spectrum(t) == ((0, 1), (2, 2), (3, 1), (5, 1))


def test_modal_matrix_is_exact_eigenbasis():
    for t in cotree_corpus(50, 8, seed=63, mixed_roots=True):
        L = laplacian(cotree_to_graph(t))
        V = modal_matrix(t)
        D = diagonal(column_eigenvalues(t))
        assert matmul(L, V) == matmul(V, D)
        assert all(len(row) == t.n - 1 for row in V) and len(V) == t.n
        assert all(sum(column(V, j)) == 0 for j in range(t.n - 1))
        assert rank_rational(V) == t.n - 1


def test_blocks_with_equal_eigenvalue_have_disjoint_support():
    for t in cotree_corpus(60, 9, seed=64, mixed_roots=True):
        support: dict = {}
        for node, value, _, i0, _, _, i2 in modal_columns(t):
            support.setdefault((value, node), set()).update(t.leaf_sequence(t.root)[i0:i2])
        for (value, node), vertices in support.items():
            assert vertices == set(t.leaf_sequence(node))
            for (other_value, other), others in support.items():
                if other != node and other_value == value:
                    assert not vertices & others


def test_spectrum_counts_and_trace():
    for t in cotree_corpus(60, 9, seed=65, mixed_roots=True):
        spec = spectrum(t)
        values = [v for v, _ in spec]
        assert values == sorted(set(values)) and values[0] == 0
        assert all(m >= 1 for _, m in spec)
        assert sum(m for _, m in spec) == t.n
        degrees = degree_sequence(cotree_to_graph(t))
        assert sum(v * m for v, m in spec) == sum(degrees)


def test_compose_spectrum_examples():
    k1 = ((0, 1),)
    two_k1 = compose_spectrum("union", [k1, k1])
    assert two_k1 == ((0, 2),)
    k2 = compose_spectrum("join", [k1, k1])
    k3 = compose_spectrum("join", [k2, k1])
    assert k3 == ((0, 1), (3, 2))
    with pytest.raises(ValueError):
        compose_spectrum("meet", [k1])
    with pytest.raises(ValueError):
        compose_spectrum("union", [])


def test_compose_spectrum_threshold_fold_steps():
    # nontrivial multisets after each attachment of the Fig 2 sequence
    expected = [
        [2],
        [0, 2],
        [1, 3, 4],
        [0, 1, 3, 4],
        [0, 0, 1, 3, 4],
        [1, 1, 2, 4, 5, 7],
    ]
    k1 = ((0, 1),)
    acc = k1
    for step, bit in enumerate(THRESHOLD_EXAMPLE[1:]):
        acc = compose_spectrum("join" if bit == "1" else "union", [acc, k1])
        assert sorted(nontrivial(acc).elements()) == expected[step]
    assert acc == spectrum(example_threshold_tree())


def test_spectrum_matches_bottom_up_composition():
    def fold(t, node):
        if t.is_leaf(node):
            return ((0, 1),)
        parts = [fold(t, c) for c in t.children(node)]
        op = "join" if t.label(node) == 1 else "union"
        return compose_spectrum(op, parts)

    for t in cotree_corpus(60, 8, seed=66, mixed_roots=True):
        assert fold(t, t.root) == spectrum(t)


def test_spectrum_matches_char_poly_roots():
    for t in cotree_corpus(80, 8, seed=67, mixed_roots=True):
        roots = integer_roots(char_poly(laplacian(cotree_to_graph(t))))
        assert roots == Counter(dict(spectrum(t)))


def test_spectrum_single_vertex():
    t = parse_cotree("1")
    assert spectrum(t) == ((0, 1),)
    assert modal_matrix(t) == ((),)
    assert modal_columns(t) == []


def test_modal_columns_have_no_size_cap():
    """The columns take O(n) words, so the inputs whose dense blocks held
    about 10^10 (the edgeless graph on 10^5 vertices) and 9.7 * 10^6 entries
    (a 4400-vertex caterpillar) get all their n - 1 columns; only the dense
    ``modal_matrix`` stays capped."""
    columns = modal_columns(parse_expr("100000"))
    assert len(columns) == 99_999
    assert columns[0] == (0, 0, 1, 0, 1, 1, 2)
    assert columns[-1] == (0, 0, 1, 0, 99_999, 99_999, 100_000)
    t = parse_threshold("01" * 2200)
    columns = modal_columns(t)
    assert len(columns) == t.n - 1 == 4399
    assert sorted(c[0] for c in columns) == list(t.internal_ids())
    with pytest.raises(SizeCapError, match="modal matrix capped"):
        modal_matrix(parse_expr(str(MODAL_CAP + 1)))
    rows = modal_matrix(parse_expr(str(MODAL_CAP)))
    assert (len(rows), {len(row) for row in rows}) == (MODAL_CAP, {MODAL_CAP - 1})


def seeded_families(seed):
    """Mixed-root random cotrees, stars, paths of unions and joins, and
    threshold caterpillars (random bits and alternating ones)."""
    rng = random.Random(seed)
    trees = cotree_corpus(1400, 24, seed=seed, mixed_roots=True)
    trees += [random_cotree(rng.randint(25, 60), rng) for _ in range(200)]
    for k in range(1, 41):
        trees.append(parse_expr(f".*{k}"))
        trees.append(parse_expr(f".+{k}"))
        trees.append(parse_expr("+".join(["."] * (k + 1))))
        trees.append(parse_expr("*".join(["."] * (k + 1))))
    for _ in range(300):
        n = rng.randint(1, 50)
        trees.append(parse_threshold("0" + "".join(rng.choice("01") for _ in range(n - 1))))
    trees += [parse_threshold(("01" * 30)[:n]) for n in range(1, 61)]
    return trees


def test_modal_columns_match_dense_reference_on_seeded_families():
    trees = seeded_families(70)
    assert len(trees) >= 2000
    for t in trees:
        columns = modal_columns(t)
        assert columns_to_matrix(t, columns) == modal_reference(t), t
        assert [c[1] for c in columns] == list(column_eigenvalues(t)), t
        assert all(c[2] == c[6] - c[4] and c[5] == c[4] - c[3] for c in columns), t


def test_modal_columns_are_eigenpairs_of_the_adjacency():
    """Each column checked on the bitset adjacency of the graph the cotree
    represents: L w = lambda w and sum(w) = 0, up to n = 300."""
    rng = random.Random(71)
    trees = cotree_corpus(150, 20, seed=71, mixed_roots=True)
    trees += [random_cotree(n, rng) for n in (100, 200, 300)]
    trees += [parse_expr(".*299"), parse_expr("(.+.)*" * 99 + ".")]
    trees += [parse_threshold("01" * 150),
              parse_threshold("0" + "".join(rng.choice("01") for _ in range(299)))]
    for t in trees:
        g = cotree_to_graph(t)
        columns = modal_columns(t)
        assert len(columns) == t.n - 1
        assert all(is_eigenpair_on_adjacency(g, t, c) for c in columns), t


def test_modal_columns_are_an_orthogonal_eigenbasis_on_every_shape():
    """On every cotree shape with 2 <= n <= 8, each column is an eigenpair on
    the adjacency, and the columns are pairwise orthogonal and orthogonal to
    the all-ones vector."""
    for n in range(2, 9):
        for shape in cotree_shapes(n):
            t = CoTree(*shape)
            g = cotree_to_graph(t)
            columns = modal_columns(t)
            assert len(columns) == n - 1
            assert all(is_eigenpair_on_adjacency(g, t, c) for c in columns), shape
            vectors = [column_vector(t, c) for c in columns]
            assert all(sum(w) == 0 for w in vectors), shape
            assert all(sum(map(int.__mul__, v, w)) == 0
                       for v, w in combinations(vectors, 2)), shape
