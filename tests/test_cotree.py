"""Cotree recognition, canonical form, and structural queries."""

import random
import tracemalloc

import pytest

import cographctl.cotree as cotree

from cographctl import (
    CoTree,
    Graph,
    char_poly,
    control_rank,
    cotree_to_graph,
    find_p4,
    integer_roots,
    is_controllable,
    kalman_rank,
    laplacian,
    min_control_size,
    parse_cotree,
    parse_expr,
    parse_threshold,
    random_cotree,
    random_threshold_sequence,
    recognize,
    serialize_cotree,
    sibling_partition,
    spectrum,
)

from helpers import (
    EIGHT_NODE_TEXT,
    THRESHOLD_EXAMPLE,
    components_reference,
    cotree_corpus,
    columns_graph,
    cotree_shapes,
    from_edges,
    is_canonical,
    join_of,
    labelled_graphs,
    lca,
    leaves_below,
    nested_text,
    p4_reference,
    path_to_root,
    random_graph,
    reversed_text,
    scrambled,
    single,
    stored,
    threshold_to_graph,
    to_nested,
    trusted_columns,
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
    """A tree built from non-canonical columns, which the top-down layout
    wrote, equals in every stored column and every accessor the same tree
    built from its canonical columns, which are stored as given."""
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
        assert stored(again) == stored(laid_out)
        assert _answers(again) == _answers(laid_out)
        assert stored(laid_out) == stored(expected)
    assert _answers(parse_expr("3000"))[:4] == (3000, 3001, 0, (0,))


def test_every_shape_up_to_nine_leaves():
    """Every canonical cotree shape on n <= 9 leaves, as many as OEIS A000084
    counts cographs on n unlabelled vertices: each is stored as its canonical
    columns give it, by the checked constructor and the trusted builder
    alike, and as the layout writes it from a reversed text, its children
    are those its parent column names, and up to n = 8 its spectrum is the
    characteristic polynomial's integer roots."""
    counts = []
    for n in range(1, 10):
        shapes = cotree_shapes(n)
        counts.append(len(shapes))
        for parents, labels, leaves in shapes:
            t = CoTree(parents, labels, leaves)
            assert (list(t._parent), list(t._label), list(t._leaves)) == (parents, labels, leaves)
            assert stored(CoTree._trusted(parents, labels, leaves)) == stored(t)
            assert stored(parse_cotree(reversed_text(t))) == stored(t)
            kids = [[] for _ in parents]
            for c, up in enumerate(parents[1:], 1):
                kids[up].append(c)
            assert [t.children(i) for i in range(len(parents))] == list(map(tuple, kids))
            if n <= 8:
                roots = integer_roots(char_poly(laplacian(cotree_to_graph(t))))
                assert spectrum(t) == tuple(sorted(roots.items()))
    assert counts == [1, 2, 4, 10, 24, 66, 180, 522, 1532]


def _edited(nested, rng: random.Random):
    """Every form of a nested tree with one of the two edits that perfbench's
    non-canonical cotree text makes, leaves kept in place: a unary node of a
    random label above one node, or two adjacent children of a node
    regrouped under a new node with that node's label."""
    forms = [(rng.randint(0, 1), [nested])]
    if isinstance(nested, tuple):
        label, kids = nested
        if len(kids) >= 3:
            forms += [(label, kids[:j] + [(label, kids[j:j + 2])] + kids[j + 2:])
                      for j in range(len(kids) - 1)]
        forms += [(label, kids[:j] + [form] + kids[j + 1:])
                  for j, kid in enumerate(kids) for form in _edited(kid, rng)]
    return forms


def _raw_tree(n: int, rng: random.Random) -> tuple[list, list]:
    """Parents and labels of a random tree on n leaves in preorder, with
    labels drawn independently (so a child may share its parent's) and
    unary chains above some nodes."""
    parents: list = []
    labels: list = []
    stack = [(n, None)]
    while stack:
        size, up = stack.pop()
        while rng.random() < 0.25:  # a unary node above this one
            parents.append(up)
            labels.append(rng.randint(0, 1))
            up = len(parents) - 1
        parents.append(up)
        if size == 1:
            labels.append(None)
            continue
        labels.append(rng.randint(0, 1))
        cuts = [0, *sorted(rng.sample(range(1, size), rng.randint(1, size - 1))), size]
        stack += [(cuts[j + 1] - cuts[j], len(parents) - 1) for j in range(len(cuts) - 2, -1, -1)]
    return parents, labels


def test_both_canonicalizer_branches_on_noncanonical_columns():
    """Non-canonical columns give the canonical tree of the graph they
    describe, read pair by pair from lowest common ancestors, in both of
    ``_canonical_columns``' branches: leaves in increasing order (the splice
    pass) and in any other order (the layout). The columns are every shape
    on n <= 7 leaves with one of perfbench's two edits, and seeded raw trees
    on n <= 12 leaves with unary chains and labels that need not alternate;
    each with its leaf ids as numbered in preorder and reversed."""
    rng = random.Random(3030)
    cases = []
    for n in range(1, 8):
        for shape in cotree_shapes(n):
            cases += [_columns(form)[:2] for form in _edited(to_nested(CoTree(*shape)), rng)]
    cases += [_raw_tree(rng.randint(1, 12), rng) for _ in range(400)]
    for parents, labels in cases:
        n = labels.count(None)
        for leaves in (list(range(1, n + 1)), list(range(n, 0, -1))):
            assert CoTree(parents, labels, leaves) == recognize(columns_graph(parents, labels, leaves))


def test_constructor_and_layout_peaks():
    """Peak traced memory of the constructor on the canonical columns of the
    10^5-leaf tree that `random --nodes 100000 --seed 1` prints, whose
    leaves are not in increasing order (the layout), and on those of a
    10^5-bit threshold tree, whose leaves are (the splice pass), and of
    parse_cotree on a reversed text of a 2 x 10^4-leaf random tree (the
    layout; tracemalloc slows it about 25-fold, so the 10^5 text would cost
    the suite several seconds). They read 20.2, 21.3 and 5.6 MiB. The first
    read 17.0 MiB when canonical columns were stored as given, 23.5 MiB
    when one pass checked and indexed and the layout wrote the leaf ranges
    too, and 37.1 MiB with a child list per node; the last 7.7 and 10.0 MiB.
    The second read 17.5 MiB when canonical columns were stored as given;
    it reads 21.3 MiB too with a byte per node in place of the splice pass's
    child ``Counter``, as the pass's output lists set it."""
    big = random_cotree(100_000, random.Random(1))
    columns = (list(big._parent), list(big._label), list(big._leaves))
    bits = parse_threshold(random_threshold_sequence(100_000, random.Random(1)))
    ordered = (list(bits._parent), list(bits._label), list(bits._leaves))
    del big, bits
    t = random_cotree(20_000, random.Random(1))
    text = reversed_text(t)
    tracemalloc.start()
    try:
        CoTree(*columns)
        canonical = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        CoTree(*ordered)
        spliced = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        assert parse_cotree(text) == t
        laid_out = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert canonical < 30 * 2**20
    assert spliced < 30 * 2**20
    assert laid_out < 8.8 * 2**20


def test_noncanonical_k3_gets_the_k3_answers():
    t = parse_cotree("1(1(1,2),3)")
    assert t == CoTree([None, 0, 1, 1, 0], [1, 1, None, None, None], [1, 2, 3])
    assert sibling_partition(t) == ((1, 2, 3),)
    assert min_control_size(t) == 2
    assert is_controllable(t, [1]) is False
    assert control_rank(t, [1]) == 2
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
    # a vertex id is an exact int in 1..n: a bool or a float is no id
    for bad in (0, t.n + 1, True, 1.0):
        with pytest.raises(KeyError):
            t.leaf_id(bad)


def test_node_ids_index_as_tuple_positions():
    """A node id indexes the stored columns as a tuple position does: a
    negative id counts from the end, ``True`` is node 1 and a float raises
    ``TypeError``. Vertex ids are checked instead (``leaf_id`` above)."""
    t = parse_cotree("1(0(1,2),3,0(4,5))")
    last = t.node_count() - 1
    assert (last, t.leaf_vertex(last), t.label(1)) == (7, 5, 0)
    for get in (t.parent, t.is_leaf, t.leaf_sequence, t.leaf_count, t.children):
        assert get(-1) == get(last) and get(-last - 1) == get(0)
        assert get(True) == get(1) and get(False) == get(0)
        with pytest.raises(TypeError):
            get(1.0)
    assert t.leaf_vertex(-1) == 5 and t.label(True) == 0 and t.label(-3) == 0
    for get, node in ((t.label, 1.0), (t.leaf_vertex, 7.0)):
        with pytest.raises(TypeError):
            get(node)
    with pytest.raises(ValueError, match="node -1 is a leaf"):
        t.label(-1)
    with pytest.raises(ValueError, match="node 1 is internal"):
        t.leaf_vertex(1)
    assert repr(t) == "CoTree(n=5, nodes=8)"


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


def with_p4_on_top(h: Graph) -> Graph:
    """The cograph ``h`` beside the path a-b-c-d on four new top ids, with b
    and c joined to all of ``h``. ``h`` is then a module, so a-b-c-d is the
    only induced P4 and no vertex of ``h`` lies on one."""
    k = h.n
    a, b, c, d = k, k + 1, k + 2, k + 3
    every = (1 << k) - 1
    rows = [r | 1 << b | 1 << c for r in h.rows]
    rows += [1 << b, every | 1 << a | 1 << c, every | 1 << b | 1 << d, 1 << c]
    return Graph(k + 4, tuple(rows))


def relabelled(g: Graph, rng: random.Random) -> Graph:
    """``g`` with its vertex ids shuffled."""
    new = list(range(g.n))
    rng.shuffle(new)
    return from_edges(g.n, [(new[u], new[v]) for u in range(g.n)
                            for v in range(u) if g.has_edge(u, v)])


def test_filtered_p4_search_matches_the_unfiltered_scan(monkeypatch):
    """The filtered search returns the unfiltered scan's witness, or raises
    with it, on seeded non-cographs with 7 <= n <= 120, sizes where the
    4-subset reference is too slow: random graphs, cographs with one pair
    toggled, random cographs under a P4 on the top ids, and the "many
    components" family, a clique joined to disjoint edges under that P4,
    where every edge vertex's non-neighbours split into many two-vertex
    components yet it lies on no P4. Some graphs are relabelled. Each runs
    on its full vertex set, on random subsets, and on the masks where
    recognition gets stuck."""
    rng = random.Random(3434)
    stuck = []
    real = cotree._p4_in_subgraph
    monkeypatch.setattr(cotree, "_p4_in_subgraph",
                        lambda g, mask: stuck.append((g, mask)) or real(g, mask))
    edge = join_of([K1, K1])
    graphs = []
    for _ in range(40):
        n = rng.randint(7, 120)
        graphs.append(random_graph(n, rng, rng.random()))
        rows = list(cotree_to_graph(random_cotree(n, rng)).rows)
        u, v = rng.sample(range(n), 2)
        rows[u] ^= 1 << v
        rows[v] ^= 1 << u
        graphs.append(Graph(n, tuple(rows)))
        graphs.append(with_p4_on_top(cotree_to_graph(random_cotree(rng.randint(3, 56), rng))))
        clique = join_of([K1] * rng.randint(1, 40))
        matching = union_of([edge] * rng.randint(2, 38))
        many = with_p4_on_top(join_of([clique, matching][::rng.choice((1, -1))]))
        graphs.append(many if rng.random() < 0.5 else relabelled(many, rng))
    graphs = [g for g in graphs if not isinstance(recognize(g), CoTree)]
    assert len(graphs) == len(stuck) > 120
    pairs = [(g, mask) for g in graphs
             for mask in ((1 << g.n) - 1, rng.getrandbits(g.n), rng.getrandbits(g.n))]
    pairs = list(dict.fromkeys(pairs + stuck))
    found = raised = 0
    for g, mask in pairs:
        try:
            expected = cotree._first_p4_from(g, mask)
        except AssertionError:
            raised += 1
            with pytest.raises(AssertionError):
                real(g, mask)
        else:
            found += 1
            assert real(g, mask) == expected
    assert found > 200 and raised > 100


def test_recognize_on_every_labelled_graph_up_to_six_vertices(monkeypatch):
    """All 2^(n(n-1)/2) labelled graphs for each n <= 6: the cographs number
    1, 2, 8, 52, 472, 5504 (OEIS A006351) and each one's cotree rebuilds the
    graph; every other graph's witness is the 4-subset search's first P4 on
    the part where both splits failed, and the oracle's witness is its first
    P4 on the whole graph."""
    stuck = []
    real = cotree._p4_in_subgraph
    monkeypatch.setattr(cotree, "_p4_in_subgraph",
                        lambda g, mask: stuck.append(mask) or real(g, mask))
    counts = []
    for n in range(1, 7):
        cographs = 0
        for g in labelled_graphs(n):
            result = recognize(g)
            if isinstance(result, CoTree):
                cographs += 1
                assert cotree_to_graph(result) == g
            else:
                assert result == p4_reference(g, stuck.pop())
            assert find_p4(g) == p4_reference(g, (1 << n) - 1)
        counts.append(cographs)
    assert counts == [1, 2, 8, 52, 472, 5504] and not stuck


def component_cases(rng: random.Random, count: int):
    """(rows, mask) pairs on random graphs of every density, with full and
    random submasks, in five shapes: as drawn; with a random set of isolated
    vertices; with the mask's lowest vertex adjacent to every other vertex
    in the mask, so its row reaches the whole mask at once; with the mask's
    highest one to three vertices adjacent to every other vertex in the
    mask; and with them isolated in the mask. In the complement the last
    two shapes trade places."""
    for k in range(count):
        n = rng.randint(1, 40)
        rows = list(random_graph(n, rng, rng.random()).rows)
        mask = rng.getrandbits(n) if rng.random() < 0.6 else (1 << n) - 1
        shape = k % 5
        if shape == 1:
            lone = rng.getrandbits(n)
            rows = [0 if lone >> i & 1 else row & ~lone for i, row in enumerate(rows)]
        elif shape > 1 and mask:
            ids = [v for v in range(n) if mask >> v & 1]
            for s in ids[:1] if shape == 2 else ids[-rng.randint(1, 3):]:
                for i in ids:
                    if i == s:
                        continue
                    if shape == 4:  # s isolated in the mask
                        rows[i] &= ~(1 << s)
                        rows[s] &= ~(1 << i)
                    else:  # s adjacent to all of it
                        rows[i] |= 1 << s
                        rows[s] |= 1 << i
        yield rows, mask


def top_end_rule(rows: list[int], mask: int, flip: int) -> str | None:
    """Which rule of the top end decides first in ``_components``, read off
    the graph: none when the lowest vertex's own row isolates it or reaches
    the whole mask; else "singleton" when the highest vertex has no
    (co-)neighbour in the mask, "closes" when it reaches every other vertex
    of the mask, the lowest perhaps excepted, and "bfs" otherwise."""
    def reach(bit: int) -> int:
        return (rows[bit.bit_length() - 1] ^ flip) & mask & ~bit

    if mask & (mask - 1) == 0:
        return None
    low, top = mask & -mask, 1 << mask.bit_length() - 1
    first = reach(low)
    if not first or first == mask ^ low:
        return None
    if not reach(top):
        return "singleton"
    return "closes" if reach(top) | low == mask ^ top else "bfs"


def test_components_match_per_bit_reference():
    """One reduction per BFS level, and the top end's rules, give the
    per-bit BFS's components, in the same order, on the graph and on its
    complement inside the mask; each rule decides some first split in both
    directions."""
    rng = random.Random(1313)
    shapes = {0: set(), 1: set()}
    rules = {0: set(), 1: set()}
    for rows, mask in component_cases(rng, 3000):
        for direction, flip in enumerate((0, mask)):
            comps = cotree._components(rows, mask, flip)
            assert comps == components_reference(rows, mask, flip), (rows, mask, flip)
            shapes[direction].add(min(len(comps), 3))
            rules[direction].add(top_end_rule(rows, mask, flip))
    assert shapes[0] == shapes[1] == {0, 1, 2, 3}  # empty, one, two, many
    assert rules[0] == rules[1] == {None, "singleton", "closes", "bfs"}
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


def test_recognize_and_random_cotree_emit_canonical_columns(monkeypatch):
    """The columns recognize and random_cotree hand to the trusted builder
    are canonical: the checked constructor stores the same tree from them,
    in every column. Recognized trees give their graph back."""
    built = trusted_columns(monkeypatch)
    rng = random.Random(5151)
    trees = [random_cotree(n, rng, root_label=rng.randint(0, 1) if n > 1 else 1)
             for n in [1, 2, 3] + [rng.randint(2, 60) for _ in range(300)] + [2000]]
    made = built.copy()
    graphs = [cotree_to_graph(t) for t in trees[:-1]]
    graphs += [random_graph(rng.randint(1, 9), rng, rng.random()) for _ in range(600)]
    for g in graphs:
        built.clear()
        t = recognize(g)
        if isinstance(t, CoTree):
            made += built
            assert cotree_to_graph(t) == g
    assert len(made) > len(trees) + 300
    for columns in made:
        t = CoTree._trusted(*columns)
        assert stored(CoTree(*columns)) == stored(t)
        assert is_canonical(t)


def test_random_cotree_root_label_is_an_exact_0_or_1():
    """Root label 0 needs two leaves, and neither generator takes an empty
    graph."""
    for label in (2, -1, None, True, 1.0):
        with pytest.raises(ValueError, match="root label must be 0 or 1"):
            random_cotree(5, random.Random(1), root_label=label)
    for label in (0, 1):
        assert random_cotree(5, random.Random(1), root_label=label).label(0) == label
    with pytest.raises(ValueError, match="root label 0 needs n >= 2"):
        random_cotree(1, random.Random(1), root_label=0)
    with pytest.raises(ValueError, match="need at least one leaf"):
        random_cotree(0, random.Random(1))
    with pytest.raises(ValueError, match="need at least one vertex"):
        random_threshold_sequence(0, random.Random(1))


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

