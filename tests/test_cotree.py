"""Cotree recognition, canonical form, and structural queries."""

import random

import pytest

import cographctl.cotree as cotree

from cographctl import (
    CoTree,
    cotree_to_graph,
    find_p4,
    is_controllable,
    kalman_rank,
    min_control_size,
    parse_cotree,
    parse_expr,
    parse_threshold,
    pbh_check,
    random_cotree,
    recognize,
    serialize_cotree,
    sibling_partition,
)

from helpers import (
    EIGHT_NODE_TEXT,
    THRESHOLD_EXAMPLE,
    components_reference,
    cotree_corpus,
    from_edges,
    is_canonical,
    join_of,
    lca,
    leaves_below,
    nested_text,
    p4_reference,
    path_to_root,
    random_graph,
    scrambled,
    single,
    threshold_to_graph,
    to_nested,
    union_of,
)

K1 = single()


def test_recognize_p4_gives_witness():
    g = from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert recognize(g) == (1, 2, 3, 4)


def test_recognize_complete_graph_single_join_node():
    for n in range(2, 7):
        g = join_of([K1] * n)
        t = recognize(g)
        assert isinstance(t, CoTree)
        assert t.internal_ids() == (0,)
        assert t.label(0) == 1
        assert len(t.children(0)) == n


def test_recognize_threshold_fold_roundtrip():
    g = threshold_to_graph(THRESHOLD_EXAMPLE)
    t = recognize(g)
    assert isinstance(t, CoTree)
    assert is_canonical(t)
    assert cotree_to_graph(t) == g
    assert t == parse_threshold(THRESHOLD_EXAMPLE)
    # the unique canonical cotree of this graph has five internal nodes
    assert len(t.internal_ids()) == 5


def test_recognize_single_vertex_and_disconnected():
    t = recognize(K1)
    assert isinstance(t, CoTree) and t.n == 1 and t.is_leaf(t.root)
    t = recognize(union_of([K1, K1]))
    assert isinstance(t, CoTree) and t.label(t.root) == 0


def test_canonicalize_hoists_same_label_children():
    t = parse_cotree(nested_text((1, [(1, [1, 2]), 3])))
    assert serialize_cotree(t) == "1(1,2,3)"
    assert cotree_to_graph(t) == join_of([K1] * 3)


def test_canonicalize_splices_unary_nodes():
    # unary node over a leaf disappears
    t = parse_cotree(nested_text((1, [(0, [1]), 2])))
    assert serialize_cotree(t) == "1(1,2)"
    # unary root - the single child takes over
    t = parse_cotree(nested_text((1, [(0, [1, 2])])))
    assert serialize_cotree(t) == "0(1,2)"
    # splice and then hoist when labels collide afterwards
    t = parse_cotree(nested_text((1, [(0, [(1, [1, 2])]), 3])))
    assert serialize_cotree(t) == "1(1,2,3)"
    assert cotree_to_graph(t) == join_of([K1] * 3)


def test_canonicalize_threshold_fold_and_idempotence():
    bits = THRESHOLD_EXAMPLE
    nested = 1
    for i in range(2, len(bits) + 1):
        nested = (int(bits[i - 1]), [nested, i])
    canon = parse_cotree(nested_text(nested))
    assert cotree_to_graph(canon) == threshold_to_graph(bits)
    assert is_canonical(canon)
    assert parse_cotree(nested_text(to_nested(canon))) == canon
    assert canon == parse_threshold(bits)


def test_every_cotree_is_canonical():
    # non-canonical text of corpus trees comes back as the corpus tree itself
    rng = random.Random(2718)
    for t in cotree_corpus(80, 12, seed=31, mixed_roots=True):
        for _ in range(4):
            again = parse_cotree(nested_text(scrambled(to_nested(t), rng)))
            assert again == t
            assert is_canonical(again)


def _stored(t: CoTree):
    return (t._parent, t._label, t._children, t._leaves, t._start, t._end, t._leaf_node)


def _answers(t: CoTree):
    """Every accessor at every node and vertex."""
    nodes = [(t.is_leaf(i), t.leaf_vertex(i) if t.is_leaf(i) else t.label(i), t.parent(i),
              t.children(i), t.leaf_sequence(i), t.leaf_count(i))
             for i in range(t.node_count())]
    return (t.n, t.node_count(), t.root, t.internal_ids(), nodes,
            [t.leaf_id(v) for v in range(1, t.n + 1)], hash(t))


def _columns(nested):
    """Preorder columns (parents, labels, leaves) of a nested form, exactly
    as nested: no node spliced, merged or reordered."""
    parents, labels, leaves = [], [], []
    stack = [(nested, None)]
    while stack:
        node, up = stack.pop()
        parents.append(up)
        if isinstance(node, int):
            labels.append(None)
            leaves.append(node)
        else:
            labels.append(node[0])
            stack.extend((c, len(parents) - 1) for c in reversed(node[1]))
    return parents, labels, leaves


def test_layout_writes_what_the_checking_pass_would_index():
    """A tree built from non-canonical columns, whose stored columns the
    top-down layout wrote, equals in every stored column and every accessor
    the same tree built from its canonical columns, which only the checking
    pass indexes."""
    rng = random.Random(4242)
    cases = []  # (tree from non-canonical columns, the tree it must equal)
    for t in cotree_corpus(60, 300, seed=4243, mixed_roots=True):
        for _ in range(2):
            nested = scrambled(to_nested(t), rng)
            assert nested != to_nested(t)
            cases.append((parse_cotree(nested_text(nested)), t))
    # wide expressions and threshold trees with long runs of equal bits, whose
    # parsers emit canonical columns: their trees shuffled, under a unary
    # node of the root's label and a unary root of the other label
    wide = [parse_expr(text) for text in ("3000", "(.+.)*3000", "2*(3+(4*(1000)))", "((.))*.*(2000)")]
    wide += [parse_threshold(bits) for bits in ("0" + "1" * 800, "0" * 500 + "1" * 700 + "0" * 3 + "1",
                                                "0" + "01" * 50 + "1" * 900)]
    for t in wide:
        label = t.label(t.root)
        columns = _columns((1 - label, [(label, [scrambled(to_nested(t), rng)])]))
        laid_out = CoTree(*columns)
        assert (list(laid_out._parent), list(laid_out._label)) != columns[:2]
        cases.append((laid_out, t))
    for laid_out, expected in cases:
        assert is_canonical(laid_out)
        again = CoTree(laid_out._parent, laid_out._label, laid_out._leaves)
        assert _stored(again) == _stored(laid_out)
        assert _answers(again) == _answers(laid_out)
        assert _stored(laid_out) == _stored(expected)
    assert _answers(parse_expr("3000"))[:4] == (3000, 3001, 0, (0,))


def test_noncanonical_k3_gets_the_k3_answers():
    t = parse_cotree("1(1(1,2),3)")
    assert t == CoTree([None, 0, 1, 1, 0], [1, 1, None, None, None], [1, 2, 3])
    assert sibling_partition(t) == ((1, 2, 3),)
    assert min_control_size(t) == 2
    assert is_controllable(t, [1]) is False
    assert pbh_check(t, [1]) is False
    assert kalman_rank(join_of([K1] * 3), [1]) == kalman_rank(cotree_to_graph(t), [1]) == 2


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
    assert leaves_below(t, t.root) == frozenset(range(1, 9))
    # lca of two leaf children of the same node is that node, and its label
    # decides adjacency: 6,7 are non-adjacent siblings here
    lca67 = lca(t, 6, 7)
    assert t.parent(t.leaf_id(6)) == t.parent(t.leaf_id(7)) == lca67
    assert t.label(lca67) == 0
    assert not cotree_to_graph(t).has_edge(5, 6)
    # Fig 2 cotree: 6,7 are non-adjacent siblings, so their lca is a union node
    t2 = parse_threshold(THRESHOLD_EXAMPLE)
    g2 = cotree_to_graph(t2)
    lca56 = lca(t2, 5, 6)
    assert t2.label(lca56) == 0
    assert not g2.has_edge(4, 5)
    root_path = path_to_root(t2, lca(t2, 1, 2))
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
        assert again == parse_cotree(nested_text(to_nested(t))) == t
        assert is_canonical(t)


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
                related = a in path_to_root(t, b) or b in path_to_root(t, a)
                overlaps = bool(leaves_below(t, a) & leaves_below(t, b))
                assert overlaps == related


def test_recognize_agrees_with_p4_search():
    rng = random.Random(5150)
    hits = 0
    for _ in range(300):
        g = random_graph(rng.randint(1, 8), rng, rng.random())
        result = recognize(g)
        if isinstance(result, CoTree):
            hits += 1
            assert find_p4(g) is None
            assert cotree_to_graph(result) == g
        else:
            assert find_p4(g) is not None
            a, b, c, d = (v - 1 for v in result)
            assert g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(c, d)
            assert not g.has_edge(a, c) and not g.has_edge(a, d) and not g.has_edge(b, d)
    assert hits > 10  # sanity: the sample includes real cographs


def test_p4_search_matches_reference(monkeypatch):
    """The triple scan returns the witness of the 4-subset search on random
    graphs of every density, on their full vertex set, on random subsets,
    and on the masks where recognition gets stuck; where the reference finds
    no P4 the scan raises."""
    rng = random.Random(9090)
    stuck = []
    real = cotree._p4_in_subgraph
    monkeypatch.setattr(cotree, "_p4_in_subgraph",
                        lambda g, mask: stuck.append((g, mask)) or real(g, mask))
    pairs = []
    for _ in range(1200):
        n = rng.randint(4, 14)
        g = random_graph(n, rng, rng.random())
        pairs += [(g, (1 << n) - 1), (g, rng.getrandbits(n))]
        recognize(g)
    pairs += stuck
    assert len(pairs) >= 3000 and len(stuck) > 300
    found = 0
    for g, mask in pairs:
        expected = p4_reference(g, mask)
        if expected is None:
            with pytest.raises(AssertionError):
                real(g, mask)
        else:
            found += 1
            assert real(g, mask) == expected
    assert found > 1000


def component_cases(rng: random.Random, count: int):
    """(rows, mask) pairs on random graphs of every density, with full and
    random submasks: a third as drawn, a third with a random set of isolated
    vertices, a third whose mask's lowest vertex is adjacent to every other
    vertex in the mask, so its row reaches the whole mask at once."""
    for k in range(count):
        n = rng.randint(1, 40)
        rows = list(random_graph(n, rng, rng.random()).rows)
        mask = rng.getrandbits(n) if rng.random() < 0.6 else (1 << n) - 1
        if k % 3 == 1:
            lone = rng.getrandbits(n)
            rows = [0 if lone >> i & 1 else row & ~lone for i, row in enumerate(rows)]
        elif k % 3 == 2 and mask:
            s = (mask & -mask).bit_length() - 1
            others = mask & ~(1 << s)
            rows = [row | others if i == s else row | (others >> i & 1) << s
                    for i, row in enumerate(rows)]
        yield rows, mask


def test_components_match_per_bit_reference():
    """One reduction per BFS level gives the per-bit BFS's components, in
    the same order, on the graph and on its complement inside the mask."""
    rng = random.Random(1313)
    shapes = {0: set(), 1: set()}
    for rows, mask in component_cases(rng, 3000):
        for direction, flip in enumerate((0, mask)):
            comps = cotree._components(rows, mask, flip)
            assert comps == components_reference(rows, mask, flip), (rows, mask, flip)
            shapes[direction].add(min(len(comps), 3))
    assert shapes[0] == shapes[1] == {0, 1, 2, 3}  # empty, one, two, many
    assert cotree._components((0, 0, 0), 0b101) == [0b001, 0b100]
    assert cotree._components((0, 0, 0), 0b101, flip=0b101) == [0b101]


def test_recognize_matches_per_bit_reference(monkeypatch):
    """recognize returns the same cotree or the same witness when its
    component search is the per-bit reference."""
    rng = random.Random(2424)
    graphs = [random_graph(rng.randint(1, 24), rng, rng.random()) for _ in range(4000)]
    graphs += [cotree_to_graph(t) for t in cotree_corpus(1000, 24, 2425, mixed_roots=True)]
    fast = [recognize(g) for g in graphs]
    monkeypatch.setattr(cotree, "_components", components_reference)
    assert [recognize(g) for g in graphs] == fast
    trees = sum(isinstance(r, CoTree) for r in fast)
    assert trees > 1500 and len(graphs) - trees > 1500


def test_one_split_per_node_below_the_root(monkeypatch):
    """A component is connected and a co-component co-connected, so every
    internal node costs one split; only a join root pays for the component
    split that finds it connected first."""
    calls = []
    real = cotree._components
    monkeypatch.setattr(cotree, "_components",
                        lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs))
    graphs = [threshold_to_graph("0" + "01" * k) for k in (1, 2, 7, 60)]
    graphs += [cotree_to_graph(random_cotree(n, random.Random(n), root_label=label))
               for n, label in ((2, 0), (40, 0), (40, 1), (300, 1))]
    for g in graphs:
        calls.clear()
        t = recognize(g)
        assert isinstance(t, CoTree)
        assert len(calls) == len(t.internal_ids()) + t.label(t.root)


def test_random_cotree_root_label_is_an_exact_0_or_1():
    for label in (2, -1, None, True, 1.0):
        with pytest.raises(ValueError, match="root label must be 0 or 1"):
            random_cotree(5, random.Random(1), root_label=label)
    for label in (0, 1):
        assert random_cotree(5, random.Random(1), root_label=label).label(0) == label


@pytest.mark.parametrize("parents, labels, leaves", [
    # node 1's children are numbered 3, 4 although leaf 2 comes first
    ([None, 0, 0, 1, 1], [1, 0, None, None, None], [3, 1, 2]),
    ([None, -1, 0], [1, None, None], [1, 2]),  # a parent below 0
    ([None, 2, 0], [1, None, None], [1, 2]),  # a parent after its child
    ([None, None, 0], [1, None, None], [1, 2]),  # a second root
    ([0, 0, 0], [1, None, None], [1, 2]),  # a root with a parent
    ([None, 0, 1], [1, None, None], [1, 2]),  # a leaf with a child
    ([None, 0], [1, None, None], [1, 2]),  # columns of unequal length
    ([None, 0, 0], [1, None, None], ["1", 2]),  # a text leaf id
    ([None, 0, 0], [1, None, None], [1.0, 2]),  # a float leaf id
    ([None, 0, 0], [True, None, None], [1, 2]),  # a bool label
    ([None, 0, 0], [1.0, None, None], [1, 2]),  # a float label
    ([None, 0, 0], [1, None, None], [True, 2]),  # a bool leaf id
    ([None, False, 0], [1, None, None], [1, 2]),  # a bool parent
    ([None, 0, 0], [1, None, None], [1, 1]),  # a duplicate leaf id
    ([None, 0, 0], [1, None, None], [1, 3]),  # a gap: leaves 1 and 3 with n = 2
    ([None, 0, 0], [2, None, None], [1, 2]),  # label 2
    ([None, 0, 0, 0], [1, None, None, 0], [1, 2]),  # an internal node with no children
], ids=["late-children", "negative-parent", "later-parent", "none-parent",
        "root-parent", "leaf-parent", "short-parents", "text-leaf", "float-leaf",
        "bool-label", "float-label", "bool-leaf", "bool-parent", "duplicate-leaf",
        "leaf-gap", "label-2", "childless-internal"])
def test_constructor_rejects_columns_that_are_not_a_preorder_tree(parents, labels, leaves):
    with pytest.raises(ValueError):
        CoTree(parents, labels, leaves)

