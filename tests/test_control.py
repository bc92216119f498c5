"""Sibling partitions, minimum control sets, and the controllability checks."""

import random
from itertools import combinations, islice, product

import pytest

from cographctl import (
    ControlSet,
    NotConnectedError,
    cotree_to_graph,
    count_min_control_sets,
    enumerate_min_control_sets,
    is_controllable,
    kalman_rank,
    min_control_size,
    modal_block,
    parse_cotree,
    parse_expr,
    parse_threshold,
    pbh_check,
    select_min_control_set,
    sibling_partition,
    threshold_to_cotree,
)
from cographctl.control import _rank_fraction_free
from cographctl.oracle import _rank_rational

from helpers import THRESHOLD_EXAMPLE, choose_block_rows, cotree_corpus, eight_node_tree, lca


def threshold_example_tree():
    return threshold_to_cotree(parse_threshold(THRESHOLD_EXAMPLE))


def complete(n):
    return parse_expr("*".join(["."] * n))


def test_sibling_partition_eight_node():
    assert sibling_partition(eight_node_tree()).cells == ((1, 2), (3,), (4,), (5,), (6, 7, 8))


def test_sibling_partition_complete_and_bipartite():
    for n in range(2, 7):
        assert sibling_partition(complete(n)).cells == (tuple(range(1, n + 1)),)
    t = parse_expr("(.+.)*(.+.+.)")
    assert sibling_partition(t).cells == ((1, 2), (3, 4, 5))


def test_sibling_partition_matches_twin_condition():
    # two vertices share a cell iff their neighborhoods agree off the pair
    for t in cotree_corpus(40, 9, seed=210):
        g = cotree_to_graph(t)
        cells = sibling_partition(t).cells
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
    assert select_min_control_set(eight_node_tree()).vertices == (1, 6, 7)
    assert select_min_control_set(eight_node_tree(), "highest-ids").vertices == (2, 7, 8)
    assert select_min_control_set(complete(3)).vertices == (1, 2)
    assert select_min_control_set(threshold_example_tree()).vertices == (1, 5)
    assert kalman_rank(cotree_to_graph(threshold_example_tree()), (1, 5)) == 7
    with pytest.raises(ValueError):
        select_min_control_set(eight_node_tree(), "random-ids")


def test_enumerate_min_control_sets_eight_node():
    sets = [s.vertices for s in enumerate_min_control_sets(eight_node_tree())]
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


def test_pbh_examples():
    assert pbh_check(eight_node_tree(), (2, 7, 8))
    assert not pbh_check(eight_node_tree(), ())
    t = parse_expr("(.+.)*(.+.+.)")
    assert pbh_check(t, (1, 3, 4))
    assert kalman_rank(cotree_to_graph(t), (1, 3, 4)) == 5


def test_triple_agreement_exhaustive_small():
    for t in cotree_corpus(25, 5, seed=300):
        g = cotree_to_graph(t)
        vertices = range(1, t.n + 1)
        for size in range(t.n + 1):
            for subset in combinations(vertices, size):
                cell = is_controllable(t, subset)
                assert pbh_check(t, subset) == cell
                assert (kalman_rank(g, subset) == t.n) == cell


def test_procedure_sets_are_minimal():
    for t in cotree_corpus(20, 7, seed=301):
        for cset in enumerate_min_control_sets(t):
            assert is_controllable(t, cset)
            for v in cset.vertices:
                rest = tuple(u for u in cset.vertices if u != v)
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
        expected = {s.vertices for s in enumerate_min_control_sets(t)}
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
            block = modal_block(t, v)
            kids = t.children(v)
            index_of = {u: r for r, u in enumerate(block.row_vertices)}
            child_of = {
                u: c for c in kids for u in t.leaves_below(c)
            }
            size = len(kids) - 1
            for rows in combinations(block.row_vertices, size):
                fine = len({child_of[u] for u in rows}) == size
                sub = [block.block.entries[index_of[u]] for u in rows]
                assert (_rank_rational(sub) == size) == fine


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
            block = modal_block(t, v)
            kids = t.children(v)
            index_of = {u: r for r, u in enumerate(block.row_vertices)}
            for skipped in range(len(kids)):
                chosen_kids = [c for i, c in enumerate(kids) if i != skipped]
                pools = [sorted(t.leaves_below(c)) for c in chosen_kids]
                for leaves in product(*pools):
                    choice = dict(zip(chosen_kids, leaves))
                    rows = choose_block_rows(t, v, choice)
                    sub = [block.block.entries[index_of[u]] for u in sorted(rows)]
                    assert _rank_rational(sub) == len(kids) - 1


def test_fraction_free_rank_matches_rational_rank():
    rng = random.Random(999)
    for _ in range(60):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        m = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)]
        assert _rank_fraction_free(m) == _rank_rational(m)
    assert _rank_fraction_free([]) == 0
    assert _rank_fraction_free([[0, 0], [0, 0]]) == 0


def test_control_set_validation():
    with pytest.raises(ValueError):
        ControlSet((1, 1))
    with pytest.raises(ValueError):
        ControlSet((0,))
    assert len(ControlSet((3, 1))) == 2


def test_disconnected_rejected_by_all_ops():
    t = parse_expr(".+.")
    for op in (
        min_control_size,
        select_min_control_set,
        count_min_control_sets,
        lambda tt: list(enumerate_min_control_sets(tt)),
        lambda tt: is_controllable(tt, (1,)),
        lambda tt: pbh_check(tt, (1,)),
    ):
        with pytest.raises(NotConnectedError):
            op(t)



def test_enumeration_order_matches_sorted_product():
    for t in cotree_corpus(80, 9, seed=515):
        cells = sibling_partition(t).cells
        expected = sorted(
            tuple(sorted(v for cell, drop in zip(cells, drops) for v in cell if v != drop))
            for drops in product(*cells)
        )
        assert [s.vertices for s in enumerate_min_control_sets(t)] == expected


def test_enumeration_is_lazy_on_long_pair_chains():
    k = 400  # cells {1,2},{3,4},...: 2**400 minimum sets
    t = parse_expr("*".join(["(.+.)"] * k))
    first = [s.vertices for s in islice(enumerate_min_control_sets(t), 3)]
    odd = tuple(range(1, 2 * k, 2))
    assert first == [
        odd,
        odd[:-1] + (2 * k,),
        odd[:-2] + (2 * k - 2, 2 * k - 1),
    ]
