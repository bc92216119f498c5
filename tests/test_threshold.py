"""Degree partitions and the threshold-graph leader shortcut."""

import random

import pytest

from cographctl import (
    CoTree,
    NotConnectedError,
    cotree_to_graph,
    degree_partition,
    min_control_size,
    parse_expr,
    parse_threshold,
    recognize,
    select_min_control_set,
    sibling_partition,
    threshold_min_control,
    threshold_to_cotree,
    threshold_to_graph,
)
from cographctl.generate import random_threshold_sequence
from cographctl.graphs import Graph
from cographctl.oracle import exhaustive_min_sets, find_p4

from helpers import THRESHOLD_EXAMPLE, is_connected, join_of, single

K1 = single()


def test_degree_partition_complete():
    assert degree_partition(join_of([K1] * 5)).cells == ((1, 2, 3, 4, 5),)


def test_degree_partition_example_threshold():
    part = degree_partition(threshold_to_graph(parse_threshold(THRESHOLD_EXAMPLE)))
    assert part.cells == ((5, 6), (3,), (1, 2), (4,), (7,))
    assert part.degrees == (1, 2, 3, 4, 6)


def test_degree_partition_star():
    star = join_of([K1, Graph.from_edges(3, [])])
    part = degree_partition(star)
    assert part.cells == ((2, 3, 4), (1,))
    assert part.degrees == (1, 3)


def test_threshold_min_control_example():
    size, cset = threshold_min_control(parse_threshold(THRESHOLD_EXAMPLE))
    assert size == 2 and cset.vertices == (1, 5)
    # oracle: exhaustive Kalman search finds the same minimum
    g = threshold_to_graph(parse_threshold(THRESHOLD_EXAMPLE))
    best, sets = exhaustive_min_sets(g)
    assert best == 2 and (1, 5) in sets


def test_threshold_min_control_k2_and_tie_rule():
    size, cset = threshold_min_control(parse_threshold("01"))
    assert size == 1 and cset.vertices == (1,)
    _, highest = threshold_min_control(parse_threshold(THRESHOLD_EXAMPLE), "highest-ids")
    assert highest.vertices == (2, 6)
    with pytest.raises(ValueError):
        threshold_min_control(parse_threshold("01"), "middle")


def test_anti_regular_single_control_node():
    # all degrees distinct except one tie: one control node suffices
    seq = parse_threshold("0101")
    degs = sorted(threshold_to_graph(seq).degree(i) for i in range(4))
    assert degs == [1, 2, 2, 3]
    size, cset = threshold_min_control(seq)
    assert size == 1 and len(cset.vertices) == 1


def test_threshold_min_control_rejects_disconnected():
    with pytest.raises(NotConnectedError):
        threshold_min_control(parse_threshold("010"))
    with pytest.raises(NotConnectedError):
        threshold_min_control(parse_threshold("0"))


def test_threshold_connectivity_rule_matches_search():
    rng = random.Random(808)
    for _ in range(60):
        seq = random_threshold_sequence(rng.randint(2, 10), rng)
        g = threshold_to_graph(seq)
        assert is_connected(g) == (seq.bits[-1] == 1)


def test_degree_partition_equals_sibling_partition_on_thresholds():
    rng = random.Random(809)
    for _ in range(60):
        seq = random_threshold_sequence(rng.randint(1, 12), rng)
        g = threshold_to_graph(seq)
        deg_cells = {frozenset(c) for c in degree_partition(g).cells}
        sib_cells = {frozenset(c) for c in sibling_partition(threshold_to_cotree(seq)).cells}
        assert deg_cells == sib_cells


def test_degree_partition_differs_from_siblings_off_thresholds():
    # regular cograph that is not complete: equal degrees, not all siblings
    t = parse_expr("(.*.)+(.*.)")  # two disjoint edges, all degrees 1
    g = cotree_to_graph(t)
    assert degree_partition(g).p == 1
    assert sibling_partition(t).p == 2


def test_threshold_graphs_are_cographs():
    rng = random.Random(810)
    for _ in range(60):
        seq = random_threshold_sequence(rng.randint(1, 12), rng)
        g = threshold_to_graph(seq)
        assert find_p4(g) is None
        t = recognize(g)
        assert isinstance(t, CoTree)
        assert t == threshold_to_cotree(seq)


def test_threshold_shortcut_matches_cotree_route():
    rng = random.Random(811)
    for _ in range(40):
        seq = random_threshold_sequence(rng.randint(2, 12), rng)
        if seq.bits[-1] != 1:
            continue
        size, cset = threshold_min_control(seq)
        t = threshold_to_cotree(seq)
        assert size == min_control_size(t)
        assert cset == select_min_control_set(t)
