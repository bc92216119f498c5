"""Degree partitions, and the paper's threshold result: on threshold input
the degree cells are the sibling cells, so minimum leader sets can be read
off the degrees."""

import random

import pytest

from cographctl import (
    CoTree,
    NotConnectedError,
    cotree_to_graph,
    degree_partition,
    min_control_size,
    parse_cotree,
    parse_expr,
    parse_threshold,
    recognize,
    select_min_control_set,
    sibling_partition,
)
from cographctl.generate import random_threshold_sequence
from cographctl.oracle import exhaustive_min_sets, find_p4

from helpers import (
    THRESHOLD_EXAMPLE,
    cotree_corpus,
    from_edges,
    is_connected,
    join_of,
    single,
    threshold_to_graph,
)

K1 = single()


def test_degree_partition_complete():
    assert degree_partition(recognize(join_of([K1] * 5))) == ((4, (1, 2, 3, 4, 5)),)


def test_degree_partition_example_threshold():
    part = degree_partition(parse_threshold(THRESHOLD_EXAMPLE))
    assert part == ((1, (5, 6)), (2, (3,)), (3, (1, 2)), (4, (4,)), (6, (7,)))


def test_degree_partition_star():
    star = join_of([K1, from_edges(3, [])])
    part = degree_partition(recognize(star))
    assert part == ((1, (2, 3, 4)), (3, (1,)))


def degree_shortcut(t, tie_rule="lowest-ids"):
    """Minimum size and set read off the degree cells alone: n minus the
    cell count, and all but one vertex of each cell."""
    cells = [cell for _, cell in degree_partition(t)]
    keep = slice(None, -1) if tie_rule == "lowest-ids" else slice(1, None)
    return t.n - len(cells), tuple(sorted(v for cell in cells for v in cell[keep]))


def test_threshold_min_control_example():
    t = parse_threshold(THRESHOLD_EXAMPLE)
    assert tuple(sorted(cell for _, cell in degree_partition(t))) == sibling_partition(t)
    cset = select_min_control_set(t)
    assert min_control_size(t) == 2 and type(cset) is tuple and cset == (1, 5)
    assert degree_shortcut(t) == (2, cset)
    # oracle: exhaustive Kalman search finds the same minimum
    g = threshold_to_graph(THRESHOLD_EXAMPLE)
    best, sets = exhaustive_min_sets(g)
    assert best == 2 and (1, 5) in sets


def test_threshold_min_control_k2_and_tie_rule():
    t = parse_threshold("01")
    assert min_control_size(t) == 1 and select_min_control_set(t) == (1,)
    assert degree_shortcut(t) == (1, (1,))
    example = parse_threshold(THRESHOLD_EXAMPLE)
    highest = select_min_control_set(example, "highest-ids")
    assert highest == (2, 6) == degree_shortcut(example, "highest-ids")[1]
    with pytest.raises(ValueError):
        select_min_control_set(t, "middle")


def test_anti_regular_single_control_node():
    # all degrees distinct except one tie: one control node suffices
    degs = sorted(threshold_to_graph("0101").rows[i].bit_count() for i in range(4))
    assert degs == [1, 2, 2, 3]
    t = parse_threshold("0101")
    cset = select_min_control_set(t)
    assert min_control_size(t) == 1 and len(cset) == 1
    assert degree_shortcut(t) == (1, cset)


def test_threshold_min_control_rejects_disconnected():
    with pytest.raises(NotConnectedError):
        select_min_control_set(parse_threshold("010"))
    # one vertex is connected, but has no control problem
    with pytest.raises(ValueError, match="requires more than one vertex"):
        select_min_control_set(parse_threshold("0"))


def test_threshold_connectivity_rule_matches_search():
    rng = random.Random(808)
    for _ in range(60):
        bits = random_threshold_sequence(rng.randint(2, 10), rng)
        g = threshold_to_graph(bits)
        assert is_connected(g) == (bits[-1] == "1")


def test_degree_partition_equals_sibling_partition_on_thresholds():
    rng = random.Random(809)
    for _ in range(60):
        bits = random_threshold_sequence(rng.randint(1, 12), rng)
        g = threshold_to_graph(bits)
        deg_cells = {frozenset(c) for _, c in degree_partition(recognize(g))}
        sib_cells = {frozenset(c) for c in sibling_partition(parse_threshold(bits))}
        assert deg_cells == sib_cells


def test_degree_partition_reads_graph_degrees():
    trees = cotree_corpus(80, 12, seed=812, mixed_roots=True) + [parse_cotree("1")]
    for t in trees:
        g = cotree_to_graph(t)
        part = degree_partition(t)
        assert sorted(v for _, c in part for v in c) == list(range(1, t.n + 1))
        assert [d for d, _ in part] == sorted({d for d, _ in part})
        for d, cell in part:
            assert all(g.rows[v - 1].bit_count() == d for v in cell)


def test_degree_partition_differs_from_siblings_off_thresholds():
    # regular cograph that is not complete: equal degrees, not all siblings
    t = parse_expr("(.*.)+(.*.)")  # two disjoint edges, all degrees 1
    assert len(degree_partition(t)) == 1
    assert len(sibling_partition(t)) == 2


def test_threshold_graphs_are_cographs():
    rng = random.Random(810)
    for _ in range(60):
        bits = random_threshold_sequence(rng.randint(1, 12), rng)
        g = threshold_to_graph(bits)
        assert find_p4(g) is None
        t = recognize(g)
        assert isinstance(t, CoTree)
        assert t == parse_threshold(bits)


def test_threshold_shortcut_matches_cotree_route():
    rng = random.Random(811)
    for _ in range(40):
        bits = random_threshold_sequence(rng.randint(2, 12), rng)
        if bits[-1] != "1":
            continue
        t = parse_threshold(bits)
        assert tuple(sorted(cell for _, cell in degree_partition(t))) == sibling_partition(t)
        for tie in ("lowest-ids", "highest-ids"):
            assert degree_shortcut(t, tie) == (min_control_size(t),
                                               select_min_control_set(t, tie))


def test_threshold_shortcut_at_three_thousand_vertices():
    # the degrees come off the cotree in O(n), not off the O(n^2) adjacency,
    # so the shortcut stays fast at this size
    rng = random.Random(3001)
    bits = "".join(rng.choice("01") for _ in range(2999))
    for t in (parse_threshold("0" + "01" * 1500), parse_threshold("0" + bits + "1")):
        assert t.n == 3001
        assert tuple(sorted(cell for _, cell in degree_partition(t))) == sibling_partition(t)
        for tie in ("lowest-ids", "highest-ids"):
            size, cset = degree_shortcut(t, tie)
            assert cset == select_min_control_set(t, tie)
            assert size == min_control_size(t) == len(cset)
