"""Sibling partitions, minimum control sets, and the controllability checks."""

import random
import re
import tracemalloc
from itertools import combinations, islice, product

import pytest

from cographctl import (
    CoTree,
    NotConnectedError,
    control_rank,
    cotree_to_graph,
    count_min_control_sets,
    enumerate_min_control_sets,
    is_controllable,
    kalman_rank,
    min_control_size,
    parse_cotree,
    parse_expr,
    parse_threshold,
    random_cotree,
    random_threshold_sequence,
    select_min_control_set,
    serialize_cotree,
    sibling_partition,
)
from cographctl import control

from helpers import (
    THRESHOLD_EXAMPLE,
    _rank_fraction_free,
    block_reference,
    choose_block_rows,
    cotree_corpus,
    cotree_shapes,
    eight_node_tree,
    lca,
    leaves_below,
    nested_text,
    pbh_reference,
    rank_rational,
    to_nested,
)


def threshold_example_tree():
    return parse_threshold(THRESHOLD_EXAMPLE)


def complete(n):
    return parse_expr("*".join(["."] * n))


def test_sibling_partition_eight_node():
    assert sibling_partition(eight_node_tree()) == ((1, 2), (3,), (4,), (5,), (6, 7, 8))


def test_sibling_partition_complete_and_bipartite():
    for n in range(2, 7):
        assert sibling_partition(complete(n)) == (tuple(range(1, n + 1)),)
    t = parse_expr("(.+.)*(.+.+.)")
    assert sibling_partition(t) == ((1, 2), (3, 4, 5))


def test_sibling_partition_matches_twin_condition():
    # two vertices share a cell iff their neighborhoods agree off the pair
    for t in cotree_corpus(40, 9, seed=210):
        g = cotree_to_graph(t)
        cells = sibling_partition(t)
        cell_of = {v: idx for idx, cell in enumerate(cells) for v in cell}
        for u in range(1, t.n + 1):
            for v in range(u + 1, t.n + 1):
                twins = (g.rows[u - 1] & ~(1 << (v - 1))) == (g.rows[v - 1] & ~(1 << (u - 1)))
                assert twins == (cell_of[u] == cell_of[v])


def test_min_control_size_examples():
    assert min_control_size(eight_node_tree()) == 3
    for n in range(2, 8):
        assert min_control_size(complete(n)) == n - 1
    t = parse_expr("(.+.)*(.+.+.)")
    assert min_control_size(t) == 3


def test_min_control_size_rejects_bad_inputs():
    with pytest.raises(NotConnectedError):
        min_control_size(parse_expr(".+."))
    with pytest.raises(ValueError):
        min_control_size(parse_cotree("1"))


def test_select_min_control_set():
    assert select_min_control_set(eight_node_tree()) == (1, 6, 7)
    assert select_min_control_set(eight_node_tree(), "highest-ids") == (2, 7, 8)
    assert select_min_control_set(complete(3)) == (1, 2)
    assert select_min_control_set(threshold_example_tree()) == (1, 5)
    assert kalman_rank(cotree_to_graph(threshold_example_tree()), (1, 5)) == 7
    with pytest.raises(ValueError):
        select_min_control_set(eight_node_tree(), "random-ids")


def test_enumerate_min_control_sets_eight_node():
    sets = list(enumerate_min_control_sets(eight_node_tree()))
    assert sets == sorted(sets)  # lexicographic emission
    assert set(sets) == {
        (1, 6, 7), (2, 6, 7), (1, 6, 8), (2, 6, 8), (1, 7, 8), (2, 7, 8),
    }
    assert count_min_control_sets(eight_node_tree()) == 6


def test_enumeration_counts():
    for n in range(2, 7):
        assert count_min_control_sets(complete(n)) == n
        assert len(list(enumerate_min_control_sets(complete(n)))) == n
    assert count_min_control_sets(threshold_example_tree()) == 4
    assert len(list(enumerate_min_control_sets(threshold_example_tree()))) == 4


def test_is_controllable_examples():
    t = eight_node_tree()
    assert is_controllable(t, (1, 6, 7))
    assert not is_controllable(t, (6, 7))
    assert is_controllable(t, range(1, 9))
    with pytest.raises(ValueError):
        is_controllable(t, (0, 3))
    with pytest.raises(ValueError):
        is_controllable(t, (1, 99))


def full_rank(t, control):
    """The eigenvector (PBH) verdict: ``control_rank`` reaches n."""
    return control_rank(t, control) == t.n


def test_pbh_examples():
    assert control_rank(eight_node_tree(), (2, 7, 8)) == 8
    assert control_rank(eight_node_tree(), ()) == 0
    t = parse_expr("(.+.)*(.+.+.)")
    assert control_rank(t, (1, 3, 4)) == kalman_rank(cotree_to_graph(t), (1, 3, 4)) == 5
    assert control_rank(t, (1, 3)) == kalman_rank(cotree_to_graph(t), (1, 3)) == 4


def test_triple_agreement_exhaustive_small():
    """On every subset, the empty set included, of the random-numbered trees
    of the corpus and of every connected cograph shape with 2 <= n <= 7
    (14,116 shape pairs), ``control_rank`` is the Kalman rank, and it is n
    exactly when the cell test passes."""
    shapes = [CoTree(*columns) for n in range(2, 8) for columns in cotree_shapes(n)
              if columns[1][0] == 1]
    assert sum(2 ** t.n for t in shapes) == 14_116  # (shape, subset) pairs
    for t in [*cotree_corpus(25, 5, seed=300), *shapes]:
        g = cotree_to_graph(t)
        for size in range(t.n + 1):
            for subset in combinations(range(1, t.n + 1), size):
                rank = kalman_rank(g, subset)
                assert control_rank(t, subset) == rank, (serialize_cotree(t), subset)
                assert (rank == t.n) == is_controllable(t, subset), (serialize_cotree(t), subset)


def mixed_shape_tree(rng):
    """A connected cotree on 2-25 vertices: a random cotree, a threshold
    caterpillar, or a join of unions (wide nodes with many leaf children)."""
    n = rng.randint(2, 25)
    shape = rng.randrange(3)
    if shape == 0:
        return random_cotree(n, rng)
    if shape == 1:
        return parse_threshold(random_threshold_sequence(n, rng)[:-1] + "1")
    sizes = [rng.randint(1, 6) for _ in range(rng.randint(2, 5))]
    return parse_expr("*".join("(" + "+".join("." * k) + ")" for k in sizes))


def test_control_rank_matches_stacked_elimination():
    rng = random.Random(6060)
    pairs = 0
    for _ in range(150):
        t = mixed_shape_tree(rng)
        vertices = range(1, t.n + 1)
        chosen = select_min_control_set(t)
        sets = [(), tuple(vertices), chosen]
        sets += [chosen[:i] + chosen[i + 1:] for i in range(len(chosen))]
        while len(sets) < 20:
            sets.append(tuple(v for v in vertices if rng.random() < rng.random()))
        for subset in sets:
            assert full_rank(t, subset) == pbh_reference(t, subset) == is_controllable(t, subset)
            pairs += 1
    assert pairs >= 3000


def test_procedure_sets_are_minimal():
    for t in cotree_corpus(20, 7, seed=301):
        for cset in enumerate_min_control_sets(t):
            assert is_controllable(t, cset)
            for v in cset:
                rest = tuple(u for u in cset if u != v)
                assert not is_controllable(t, rest)


def test_no_smaller_set_is_controllable():
    for t in cotree_corpus(15, 6, seed=302):
        size = min_control_size(t)
        g = cotree_to_graph(t)
        for smaller in range(size):
            for subset in combinations(range(1, t.n + 1), smaller):
                assert not is_controllable(t, subset)
                assert kalman_rank(g, subset) < t.n


def test_enumeration_is_complete():
    for t in cotree_corpus(15, 6, seed=303):
        size = min_control_size(t)
        expected = set(enumerate_min_control_sets(t))
        found = {
            subset
            for subset in combinations(range(1, t.n + 1), size)
            if is_controllable(t, subset)
        }
        assert found == expected


def test_choose_block_rows_and_block_invertibility():
    # valid choices make the block rows invertible, any repeat child does not
    for t in cotree_corpus(25, 7, seed=304, mixed_roots=True):
        for v in t.internal_ids():
            block, row_vertices = block_reference(t, v)
            kids = t.children(v)
            index_of = {u: r for r, u in enumerate(row_vertices)}
            child_of = {
                u: c for c in kids for u in leaves_below(t, c)
            }
            size = len(kids) - 1
            for rows in combinations(row_vertices, size):
                fine = len({child_of[u] for u in rows}) == size
                sub = [block[index_of[u]] for u in rows]
                assert (rank_rational(sub) == size) == fine


def test_choose_block_rows_validation():
    t = eight_node_tree()
    v = lca(t, 6, 7)  # union node: children are an internal subtree and 6,7,8
    kids = t.children(v)
    internal_kid = next(c for c in kids if not t.is_leaf(c))
    leaf_kids = [c for c in kids if t.is_leaf(c)]
    choice = {internal_kid: 1, leaf_kids[0]: 6, leaf_kids[1]: 7}
    assert choose_block_rows(t, v, choice) == frozenset({1, 6, 7})
    with pytest.raises(ValueError):
        choose_block_rows(t, v, {leaf_kids[0]: 6})  # too few children
    with pytest.raises(ValueError):
        # vertex 6 does not live under the internal child
        choose_block_rows(t, v, {internal_kid: 6, leaf_kids[0]: 7, leaf_kids[1]: 8})
    with pytest.raises(ValueError):
        choose_block_rows(t, t.root, choice)  # those are not the root's children
    deepest = lca(t, 1, 2)
    one, _ = t.children(deepest)
    assert choose_block_rows(t, deepest, {one: t.leaf_vertex(one)}) == frozenset(
        {t.leaf_vertex(one)}
    )


def test_all_procedure_row_choices_are_invertible():
    for t in cotree_corpus(20, 7, seed=305, mixed_roots=True):
        for v in t.internal_ids():
            block, row_vertices = block_reference(t, v)
            kids = t.children(v)
            index_of = {u: r for r, u in enumerate(row_vertices)}
            for skipped in range(len(kids)):
                chosen_kids = [c for i, c in enumerate(kids) if i != skipped]
                pools = [sorted(leaves_below(t, c)) for c in chosen_kids]
                for leaves in product(*pools):
                    choice = dict(zip(chosen_kids, leaves))
                    rows = choose_block_rows(t, v, choice)
                    sub = [block[index_of[u]] for u in sorted(rows)]
                    assert rank_rational(sub) == len(kids) - 1


def test_fraction_free_rank_matches_rational_rank():
    rng = random.Random(999)
    for _ in range(60):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        m = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)]
        assert _rank_fraction_free(m) == rank_rational(m)
    assert _rank_fraction_free([]) == 0
    assert _rank_fraction_free([[0, 0], [0, 0]]) == 0


def test_control_set_validation():
    t = parse_expr(".*.*.*.")
    for ids, message in (
        ((1, 1), "must be distinct"),
        ((0,), "1-based ids"),
        ((1.5, 2, 3, 4), "1-based ids"),
        (("1",), "1-based ids"),
        (([1],), "1-based ids"),
        ((5, 1), "control vertex 5 out of range 1..4"),
    ):
        for check in (is_controllable, control_rank):
            with pytest.raises(ValueError, match=message):
                check(t, ids)
    # any order of distinct ids is a set
    assert is_controllable(t, (3, 1)) is full_rank(t, (3, 1)) is False
    assert is_controllable(t, (3, 1, 2)) is full_rank(t, (3, 1, 2)) is True


def test_bool_is_not_a_vertex_id():
    # True == 1, but a flag is not a vertex
    t = parse_expr(".*.")
    for ids in ((True,), (False,), (2, True)):
        for check in (is_controllable, control_rank):
            with pytest.raises(ValueError, match="1-based ids"):
                check(t, ids)
    assert is_controllable(t, [1]) and full_rank(t, [1])


def test_checks_take_any_iterable_of_ids():
    for t in cotree_corpus(40, 8, seed=316):
        for ids in ((), select_min_control_set(t), tuple(range(2, t.n + 1))):
            for check in (is_controllable, full_rank):
                verdict = check(t, ids)
                assert check(t, list(ids)) is verdict
                assert check(t, (v for v in ids)) is verdict
            rank = control_rank(t, ids)
            assert control_rank(t, list(ids)) == control_rank(t, (v for v in ids)) == rank


def test_package_built_sets_are_tuples_of_ints():
    for t in cotree_corpus(40, 8, seed=317):
        sets = [select_min_control_set(t), select_min_control_set(t, "highest-ids")]
        sets += enumerate_min_control_sets(t)
        for cset in sets:
            assert type(cset) is tuple
            assert all(type(v) is int for v in cset)


def test_disconnected_rejected_by_all_ops():
    t = parse_expr(".+.")
    for op in (
        min_control_size,
        select_min_control_set,
        count_min_control_sets,
        lambda tt: list(enumerate_min_control_sets(tt)),
        lambda tt: is_controllable(tt, (1,)),
        lambda tt: control_rank(tt, (1,)),
    ):
        with pytest.raises(NotConnectedError):
            op(t)



def relabelled(t, rng):
    """The same graph shape with its vertex ids shuffled, so that sibling
    cells interleave."""
    ids = list(range(1, t.n + 1))
    rng.shuffle(ids)
    text = nested_text(to_nested(t))
    return parse_cotree(re.sub(r"\d+(?!\()", lambda m: str(ids[int(m[0]) - 1]), text))


def caterpillar_bits(runs):
    """Threshold bits: vertex 1, then alternating runs of the given lengths,
    the last of 1s so that the graph is connected. The cells are the runs
    (vertex 1 joins the first), so runs of one bit are singleton cells."""
    return "0" + "".join("01"[(len(runs) - i) % 2] * length for i, length in enumerate(runs))


def has_cut(cells):
    """Whether the cells of two or more members split into a nonempty head
    and tail with every head vertex below every tail vertex."""
    cells = [cell for cell in cells if len(cell) > 1]
    return any(max(map(max, cells[:k])) < cells[k][0] for k in range(1, len(cells)))


def test_enumeration_order_matches_sorted_product():
    rng = random.Random(515)
    trees = cotree_corpus(80, 9, seed=515)
    trees += [relabelled(random_cotree(rng.randint(2, 14), rng), rng) for _ in range(150)]
    trees += [relabelled(parse_expr("*".join("(" + "+".join("." * rng.randint(1, 4)) + ")"
                                             for _ in range(rng.randint(2, 6)))), rng)
              for _ in range(100)]
    for _ in range(60):  # long singleton runs with a few doubled or tripled ones
        runs = [1] * rng.randint(2, 120)
        for i in rng.sample(range(len(runs)), min(len(runs), rng.randint(1, 9))):
            runs[i] = rng.randint(2, 3)
        trees.append(parse_threshold(caterpillar_bits(runs)))
    trees += [parse_expr("*".join(["(.+.)"] * k)) for k in range(2, 13)]
    # more sets than the tail table holds slots
    trees += [parse_expr("(.+.+.)*" * 8 + "(.+.+.+.)"), parse_expr("(.+.)*" * 7 + "(.+.)*.")]
    cut = uncut = over_cap = 0
    for t in trees:
        cells = sibling_partition(t)
        expected = sorted(
            tuple(sorted(v for cell, drop in zip(cells, drops) for v in cell if v != drop))
            for drops in product(*cells)
        )
        assert list(enumerate_min_control_sets(t)) == expected, serialize_cotree(t)
        cut += has_cut(cells)
        uncut += not has_cut(cells) and len([c for c in cells if len(c) > 1]) > 1
        over_cap += len(expected) * len(expected[0]) > control._TAIL_CAP
    assert cut >= 100 and uncut >= 100 and over_cap >= 10, (cut, uncut, over_cap)


def test_enumeration_is_lazy_on_long_pair_chains():
    k = 400  # cells {1,2},{3,4},...: 2**400 minimum sets
    t = parse_expr("*".join(["(.+.)"] * k))
    first = list(islice(enumerate_min_control_sets(t), 3))
    odd = tuple(range(1, 2 * k, 2))
    assert first == [
        odd,
        odd[:-1] + (2 * k,),
        odd[:-2] + (2 * k - 2, 2 * k - 1),
    ]


def test_first_sets_take_memory_independent_of_n_and_count():
    """Neither the 10^5 vertices of a caterpillar, almost all in singleton
    cells, nor the 2^400 sets of a pair chain may size what is built before
    the first sets: the walk skips singletons and the tail table is capped."""
    rng = random.Random(7)
    runs = [1] * 99_980
    for i in rng.sample(range(len(runs)), 8):
        runs[i] = 2
    chain = parse_expr("*".join(["(.+.)"] * 400))
    caterpillar = parse_threshold(caterpillar_bits(runs))
    for t in (chain, caterpillar):
        cells = sibling_partition(t)
        tracemalloc.start()
        try:
            first = list(islice(control._min_sets(cells), 3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, (t.n, peak)
    doubled = [cell for cell in cells if len(cell) > 1]
    assert len(doubled) >= 8 and first[0] == tuple(cell[0] for cell in doubled)
    assert first[1:] == [first[0][:-1] + (doubled[-1][1],),
                         first[0][:-2] + (doubled[-2][1], doubled[-1][0])]
