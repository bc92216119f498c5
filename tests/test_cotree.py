"""Cotree recognition, canonical form, and structural queries."""

import random

import pytest

from cographctl import (
    CoTree,
    Graph,
    P4Witness,
    canonicalize,
    cotree_to_graph,
    is_p4_free,
    parse_cotree,
    parse_threshold,
    recognize,
    serialize_cotree,
    threshold_to_cotree,
    threshold_to_graph,
)

from helpers import (
    EIGHT_NODE_TEXT,
    THRESHOLD_EXAMPLE,
    cotree_corpus,
    is_canonical,
    join_of,
    lca,
    random_graph,
    single,
    union_of,
)

K1 = single()


def test_recognize_p4_gives_witness():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    result = recognize(g)
    assert isinstance(result, P4Witness)
    assert result.vertices == (1, 2, 3, 4)


def test_recognize_complete_graph_single_join_node():
    for n in range(2, 7):
        g = join_of([K1] * n)
        t = recognize(g)
        assert isinstance(t, CoTree)
        assert t.internal_ids() == (0,)
        assert t.label(0) == 1
        assert len(t.children(0)) == n


def test_recognize_threshold_fold_roundtrip():
    seq = parse_threshold(THRESHOLD_EXAMPLE)
    g = threshold_to_graph(seq)
    t = recognize(g)
    assert isinstance(t, CoTree)
    assert is_canonical(t)
    assert cotree_to_graph(t) == g
    assert t == threshold_to_cotree(seq)
    # the unique canonical cotree of this graph has five internal nodes
    assert len(t.internal_ids()) == 5


def test_recognize_single_vertex_and_disconnected():
    t = recognize(K1)
    assert isinstance(t, CoTree) and t.n == 1 and t.is_leaf(t.root)
    t = recognize(union_of([K1, K1]))
    assert isinstance(t, CoTree) and t.label(t.root) == 0


def test_canonicalize_hoists_same_label_children():
    t = CoTree.from_nested((1, [(1, [1, 2]), 3]))
    c = canonicalize(t)
    assert serialize_cotree(c) == "1(1,2,3)"
    assert cotree_to_graph(c) == cotree_to_graph(t)


def test_canonicalize_splices_unary_nodes():
    # unary node over a leaf disappears
    t = CoTree.from_nested((1, [(0, [1]), 2]))
    assert serialize_cotree(canonicalize(t)) == "1(1,2)"
    # unary root - the single child takes over
    t = CoTree.from_nested((1, [(0, [1, 2])]))
    assert serialize_cotree(canonicalize(t)) == "0(1,2)"
    # splice and then hoist when labels collide afterwards
    t = CoTree.from_nested((1, [(0, [(1, [1, 2])]), 3]))
    c = canonicalize(t)
    assert serialize_cotree(c) == "1(1,2,3)"
    assert cotree_to_graph(c) == cotree_to_graph(t)


def test_canonicalize_threshold_fold_and_idempotence():
    seq = parse_threshold(THRESHOLD_EXAMPLE)
    nested = 1
    for i in range(2, seq.n + 1):
        nested = (seq.bits[i - 1], [nested, i])
    raw = CoTree.from_nested(nested)
    canon = canonicalize(raw)
    assert cotree_to_graph(raw) == cotree_to_graph(canon) == threshold_to_graph(seq)
    assert is_canonical(canon)
    assert canonicalize(canon) == canon


def test_cotree_to_graph_examples():
    assert cotree_to_graph(parse_cotree("1")).n == 1
    k3 = cotree_to_graph(parse_cotree("1(1,2,3)"))
    assert k3.edge_count() == 3
    # sibling leaves under a 1-node are adjacent, under a 0-node non-adjacent
    t = parse_cotree(EIGHT_NODE_TEXT)
    g = cotree_to_graph(t)
    assert g.has_edge(0, 1)  # vertices 1,2 under a join node
    assert not g.has_edge(5, 6) and not g.has_edge(6, 7)  # 6,7,8 under a union


def test_structural_queries():
    t = parse_cotree(EIGHT_NODE_TEXT)
    assert t.leaf_count(t.root) == t.n == 8
    assert t.leaves_below(t.root) == frozenset(range(1, 9))
    # lca of two leaf children of the same node is that node, and its label
    # decides adjacency: 6,7 are non-adjacent siblings here
    lca67 = lca(t, 6, 7)
    assert t.parent(t.leaf_id(6)) == t.parent(t.leaf_id(7)) == lca67
    assert t.label(lca67) == 0
    assert not cotree_to_graph(t).has_edge(5, 6)
    # Fig 2 cotree: 6,7 are non-adjacent siblings, so their lca is a union node
    t2 = threshold_to_cotree(parse_threshold(THRESHOLD_EXAMPLE))
    g2 = cotree_to_graph(t2)
    lca56 = lca(t2, 5, 6)
    assert t2.label(lca56) == 0
    assert not g2.has_edge(4, 5)
    root_path = t2.path_to_root(lca(t2, 1, 2))
    assert root_path[0] == lca(t2, 1, 2) and root_path[-1] == t2.root


def test_lca_label_matches_adjacency():
    for t in cotree_corpus(25, 8, seed=101, mixed_roots=True):
        g = cotree_to_graph(t)
        for u in range(1, t.n + 1):
            for v in range(u + 1, t.n + 1):
                assert g.has_edge(u - 1, v - 1) == (t.label(lca(t, u, v)) == 1)


def test_roundtrip_recognize_of_cotree_graph():
    for t in cotree_corpus(60, 8, seed=42, mixed_roots=True):
        again = recognize(cotree_to_graph(t))
        assert again == canonicalize(t) == t


def test_children_count_identity():
    # leaves minus one equals the sum over internal nodes of (children - 1)
    for t in cotree_corpus(60, 9, seed=4242, mixed_roots=True):
        total = sum(len(t.children(v)) - 1 for v in t.internal_ids())
        assert total == t.n - 1


def test_some_pair_of_siblings_exists():
    for t in cotree_corpus(60, 9, seed=77, mixed_roots=True):
        parents = [t.parent(i) for i in range(t.node_count()) if t.is_leaf(i)]
        with_leaf_parent = [p for p in parents if p is not None]
        assert t.n == 1 or len(with_leaf_parent) != len(set(with_leaf_parent))


def test_leaf_sets_intersect_iff_ancestor_related():
    for t in cotree_corpus(40, 8, seed=900, mixed_roots=True):
        internals = t.internal_ids()
        for a in internals:
            for b in internals:
                if a == b:
                    continue
                related = a in t.path_to_root(b) or b in t.path_to_root(a)
                overlaps = bool(t.leaves_below(a) & t.leaves_below(b))
                assert overlaps == related


def test_recognize_agrees_with_p4_search():
    rng = random.Random(5150)
    hits = 0
    for _ in range(300):
        g = random_graph(rng.randint(1, 8), rng, rng.random())
        result = recognize(g)
        if isinstance(result, CoTree):
            hits += 1
            assert is_p4_free(g)
            assert cotree_to_graph(result) == g
        else:
            assert not is_p4_free(g)
            a, b, c, d = (v - 1 for v in result.vertices)
            assert g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(c, d)
            assert not g.has_edge(a, c) and not g.has_edge(a, d) and not g.has_edge(b, d)
    assert hits > 10  # sanity: the sample includes real cographs


def test_from_nested_validates_leaf_ids():
    with pytest.raises(ValueError):
        CoTree.from_nested((1, [1, 1]))  # duplicate
    with pytest.raises(ValueError):
        CoTree.from_nested((1, [1, 3]))  # gap
    with pytest.raises(ValueError):
        CoTree.from_nested((2, [1, 2]))  # bad label
    with pytest.raises(ValueError):
        CoTree.from_nested((1, []))  # childless internal node
