"""Closed-form eigenstructure against the exact characteristic polynomial."""

import random
from collections import Counter

import pytest

from cographctl import (
    SizeCapError,
    Spectrum,
    char_poly,
    cotree_to_graph,
    eigen_blocks,
    integer_roots,
    laplacian,
    modal_matrix,
    parse_cotree,
    parse_expr,
    parse_threshold,
    spectrum,
    threshold_to_cotree,
)
from cographctl.spectral import MODAL_CAP

from helpers import (
    THRESHOLD_EXAMPLE,
    block_reference,
    column,
    column_eigenvalues,
    compose_spectrum,
    cotree_corpus,
    degree_sequence,
    diagonal,
    matmul,
    modal_reference,
    nontrivial,
    path_to_root,
    rank_rational,
)


def example_threshold_tree():
    return threshold_to_cotree(parse_threshold(THRESHOLD_EXAMPLE))


def node_eigenvalues(t):
    return {b.node: b.eigenvalue for b in eigen_blocks(t)}


def test_local_eigenvalue():
    t = parse_expr(".*.*.*.")  # K4
    assert node_eigenvalues(t) == {t.root: 4}
    t2 = example_threshold_tree()  # 1(0(1(0(1(1,2),3),4),5,6),7)
    assert node_eigenvalues(t2) == {0: 7, 1: 1, 2: 5, 3: 2, 4: 4}


def test_updated_eigenvalue_at_root_is_local_for_root():
    for t in cotree_corpus(20, 8, seed=50):
        root = eigen_blocks(t)[0]
        assert root.node == t.root
        assert root.eigenvalue == t.label(t.root) * t.leaf_count(t.root)


def test_example_threshold_spectrum_frozen_and_oracle_checked():
    t = example_threshold_tree()
    spec = spectrum(t)
    assert spec.pairs == ((0, 1), (1, 2), (2, 1), (4, 1), (5, 1), (7, 1))
    roots = integer_roots(char_poly(laplacian(cotree_to_graph(t))))
    assert roots == Counter(dict(spec.pairs))


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


def test_modal_block_two_children():
    t = parse_cotree("1(0(1,2),3)")
    block = eigen_blocks(t)[0]  # the root's; child sizes (2, 1)
    assert block.node == t.root
    assert block.block.entries == ((1,), (1,), (-2,))
    assert block.row_vertices == (1, 2, 3)


def test_modal_block_k3_root():
    t = parse_expr(".*.*.")
    block = eigen_blocks(t)[0]
    assert block.node == t.root
    assert block.block.entries == ((1, 1), (-1, 1), (0, -2))
    assert block.eigenvalue == 3


def test_blocks_and_modal_matrix_match_entrywise_reference():
    rng = random.Random(65)
    trees = cotree_corpus(200, 14, seed=65, mixed_roots=True)
    trees += [parse_expr(f".*{k}") for k in (2, 30)]  # stars
    trees += [parse_expr("+".join(["."] * 30)), parse_expr("*".join(["."] * 30))]
    bits = ["01" * 60, "0" + "01" * 59 + "1", "0" * 40 + "1" * 40]
    bits += ["0" + "".join(rng.choice("01") for _ in range(rng.randint(1, 120)))
             for _ in range(10)]
    trees += [threshold_to_cotree(parse_threshold(b)) for b in bits]
    for t in trees:
        expected = [(v, *block_reference(t, v)) for v in t.internal_ids()]
        assert [(b.node, b.block, b.row_vertices) for b in eigen_blocks(t)] == expected, t
        assert modal_matrix(t) == modal_reference(t), t


def test_block_columns_sum_to_zero():
    for t in cotree_corpus(40, 9, seed=62, mixed_roots=True):
        for b in eigen_blocks(t):
            for j in range(b.block.ncols):
                assert sum(column(b.block, j)) == 0


def test_spectrum_complete_and_bipartite():
    for n in range(2, 8):
        t = parse_expr("*".join(["."] * n))
        assert spectrum(t).pairs == ((0, 1), (n, n - 1))
    t = parse_expr("(.+.)*(.+.+.)")
    assert spectrum(t).pairs == ((0, 1), (2, 2), (3, 1), (5, 1))


def test_modal_matrix_is_exact_eigenbasis():
    for t in cotree_corpus(50, 8, seed=63, mixed_roots=True):
        L = laplacian(cotree_to_graph(t))
        V = modal_matrix(t)
        D = diagonal(column_eigenvalues(t))
        assert matmul(L, V) == matmul(V, D)
        assert all(sum(column(V, j)) == 0 for j in range(V.ncols))
        assert rank_rational(V.entries) == t.n - 1


def test_blocks_with_equal_eigenvalue_have_disjoint_support():
    for t in cotree_corpus(60, 9, seed=64, mixed_roots=True):
        by_value = {}
        for b in eigen_blocks(t):
            for other in by_value.get(b.eigenvalue, []):
                assert not set(b.row_vertices) & set(other.row_vertices)
            by_value.setdefault(b.eigenvalue, []).append(b)


def test_spectrum_counts_and_trace():
    for t in cotree_corpus(60, 9, seed=65, mixed_roots=True):
        spec = spectrum(t)
        assert sum(m for _, m in spec.pairs) == t.n
        degrees = degree_sequence(cotree_to_graph(t))
        assert sum(v * m for v, m in spec.pairs) == sum(degrees)


def test_compose_spectrum_examples():
    k1 = Spectrum(1, ((0, 1),))
    two_k1 = compose_spectrum("union", [k1, k1])
    assert two_k1.pairs == ((0, 2),)
    k2 = compose_spectrum("join", [k1, k1])
    k3 = compose_spectrum("join", [k2, k1])
    assert k3.pairs == ((0, 1), (3, 2))
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
    k1 = Spectrum(1, ((0, 1),))
    acc = k1
    seq = parse_threshold(THRESHOLD_EXAMPLE)
    for step, bit in enumerate(seq.bits[1:]):
        acc = compose_spectrum("join" if bit else "union", [acc, k1])
        assert sorted(nontrivial(acc).elements()) == expected[step]
    assert acc.pairs == spectrum(example_threshold_tree()).pairs


def test_spectrum_matches_bottom_up_composition():
    def fold(t, node):
        if t.is_leaf(node):
            return Spectrum(1, ((0, 1),))
        parts = [fold(t, c) for c in t.children(node)]
        op = "join" if t.label(node) == 1 else "union"
        return compose_spectrum(op, parts)

    for t in cotree_corpus(60, 8, seed=66, mixed_roots=True):
        assert fold(t, t.root) == spectrum(t)


def test_spectrum_matches_char_poly_roots():
    for t in cotree_corpus(80, 8, seed=67, mixed_roots=True):
        roots = integer_roots(char_poly(laplacian(cotree_to_graph(t))))
        assert roots == Counter(dict(spectrum(t).pairs))


def test_spectrum_single_vertex():
    t = parse_cotree("1")
    assert spectrum(t).pairs == ((0, 1),)
    assert modal_matrix(t).shape == (1, 0)
    assert eigen_blocks(t) == []


def test_eigen_blocks_size_cap():
    """A node with k children over L leaves has an L x (k - 1) block; the
    total is capped before any block is built, at a bound that the largest
    tree ``modal_matrix`` accepts reaches exactly (an edgeless graph on
    MODAL_CAP vertices)."""
    with pytest.raises(SizeCapError, match="eigenvector blocks capped"):
        eigen_blocks(parse_expr("100000"))
    with pytest.raises(SizeCapError, match="eigenvector blocks capped"):
        eigen_blocks(parse_expr(str(MODAL_CAP + 1)))
    blocks = eigen_blocks(parse_expr(str(MODAL_CAP)))
    assert [b.block.shape for b in blocks] == [(MODAL_CAP, MODAL_CAP - 1)]
    # a deep caterpillar: one column per node, but a row for every leaf
    # below it, about n^2 / 2 entries in all (n = 4400)
    with pytest.raises(SizeCapError, match="got 9682199"):
        eigen_blocks(threshold_to_cotree(parse_threshold("01" * 2200)))
