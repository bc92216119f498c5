"""Deep inputs at the default recursion limit, and a guard against recursion.

Alternating threshold sequences give caterpillar cotrees as deep as they are
wide, and nested expression or cotree text gives arbitrarily deep raw trees;
every traversal must handle both without touching the recursion limit.
"""

import json
import random
import sys
import tracemalloc
from itertools import accumulate

import pytest

import cographctl.cotree as cotree

from cographctl import (
    Graph,
    control_rank,
    cotree_to_graph,
    is_controllable,
    parse_cotree,
    parse_threshold,
    random_cotree,
    read_edge_list,
    recognize,
    select_min_control_set,
    serialize_cotree,
)
from cographctl.cli import main

from helpers import threshold_to_graph


def alternating(bits: int) -> str:
    return ("01" * (bits // 2 + 1))[:bits]


def run_json(capsys, *argv):
    code = main([*argv, "--json"])
    out, err = capsys.readouterr()
    assert code == 0, err
    return json.loads(out)


def threshold_degrees(bits: str) -> list[int]:
    """Vertex i + 1 of a threshold graph is joined to the i earlier vertices
    when its bit is 1, and to every later vertex whose bit is 1."""
    n = len(bits)
    joins_after = list(accumulate(int(b) for b in reversed(bits)))[::-1] + [0]
    return [joins_after[i + 1] + (i if bits[i] == "1" else 0) for i in range(n)]


def conjugate(degrees: list[int]) -> list[list[int]]:
    """Merris: a threshold graph's Laplacian spectrum is the conjugate of its
    degree sequence; as (eigenvalue, multiplicity) pairs, O(n)."""
    n = len(degrees)
    at_least = [0] * (n + 1)
    for d in degrees:
        at_least[d] += 1
    for k in range(n - 1, -1, -1):
        at_least[k] += at_least[k + 1]
    counts: dict[int, int] = {}
    for k in range(1, n + 1):
        counts[at_least[k]] = counts.get(at_least[k], 0) + 1
    return sorted([v, m] for v, m in counts.items())


def threshold_spectrum(bits: str) -> list[list[int]]:
    """The spectrum by Merris' rule, independent of the cotree."""
    return conjugate(threshold_degrees(bits))


def test_hundred_thousand_bit_threshold(capsys):
    bits = alternating(10**5)
    n = len(bits)
    spec = run_json(capsys, "spectrum", "--threshold", bits)
    assert spec["spectrum"] == threshold_spectrum(bits)
    cells = run_json(capsys, "partition", "--threshold", bits)["cells"]
    assert cells == [[1, 2]] + [[v] for v in range(3, n + 1)]
    leaders = run_json(capsys, "leaders", "--threshold", bits)
    assert leaders["min_size"] == 1 and leaders["sets"] == [[1]]


def test_degree_partition_of_hundred_thousand_bits_builds_no_graph(capsys, monkeypatch):
    import cographctl.cli as cli

    def refuse(tree):
        raise AssertionError("partition --degree built the adjacency")

    monkeypatch.setattr(cli, "cotree_to_graph", refuse)
    bits = alternating(10**5)
    payload = run_json(capsys, "partition", "--threshold", bits, "--degree")
    degrees = [0] * len(bits)
    for cell, d in zip(payload["degree_cells"], payload["degrees"]):
        for v in cell:
            degrees[v - 1] = d
    assert degrees == threshold_degrees(bits)
    # the leaf entries and the internal entries of the one pass agree by Merris
    assert conjugate(degrees) == run_json(capsys, "spectrum", "--threshold", bits)["spectrum"]


def test_deep_expression_and_cotree_text(capsys):
    depth = 2000
    expr = ".*(.+" * (depth // 2) + "." + ")" * (depth // 2)
    by_expr = run_json(capsys, "spectrum", "--expr", expr)
    assert by_expr["n"] == depth + 1
    deep_text = by_expr["cotree"]
    assert deep_text.count("(") == depth
    by_cotree = run_json(capsys, "spectrum", "--cotree", deep_text)
    assert by_cotree == by_expr
    # raw nesting that canonicalizes away: 2000 unary joins over one pair
    nested = "1(" * depth + "1,2" + ")" * depth
    assert run_json(capsys, "recognize", "--cotree", nested)["cotree"] == "1(1,2)"
    grouped = "(" * depth + ".*." + ")" * depth
    assert run_json(capsys, "recognize", "--expr", grouped)["cotree"] == "1(1,2)"


def threshold_edge_list(bits: str) -> str:
    """Edge-list text of a threshold graph: vertex j joined to every earlier
    vertex exactly when bit j is 1."""
    edges = [f"{i} {j}" for j in range(2, len(bits) + 1) if bits[j - 1] == "1"
             for i in range(1, j)]
    return f"{len(bits)} {len(edges)}\n" + "\n".join(edges) + "\n"


def test_recognize_deep_threshold_edge_list(capsys, tmp_path):
    bits = alternating(2000)
    path = tmp_path / "deep.txt"
    path.write_text(threshold_edge_list(bits))
    payload = run_json(capsys, "recognize", "--edges", str(path))
    assert payload["cotree"] == serialize_cotree(parse_threshold(bits))


@pytest.mark.parametrize("order", ["construction", "reversed"])
def test_deep_threshold_splits_read_about_one_row_per_vertex(order, monkeypatch):
    """In construction order vertex i is bit i, so every part's lowest
    vertex is its deepest one, and a BFS from it alone reads the rows of
    the whole deep part at each of the 2000 levels: 2,000,000 rows at
    n = 2001. Each split is decided from the rows of the part's two end
    vertices instead, in either numbering, so the BFS levels, which read
    their rows through ``_selected``, read at most about n rows in all."""
    bits = alternating(2001)
    n = len(bits)
    g = threshold_to_graph(bits)
    if order == "reversed":
        g = Graph(n, tuple(int(format(row, f"0{n}b")[::-1], 2) for row in reversed(g.rows)))
    read = []
    real = cotree._selected
    monkeypatch.setattr(cotree, "_selected",
                        lambda rows, frontier: read.append(frontier.bit_count()) or real(rows, frontier))
    tree = recognize(g)
    assert sum(read) <= n
    assert tree.node_count() == 2 * n - 1 and cotree_to_graph(tree) == g
    if order == "construction":
        assert tree == parse_threshold(bits)


def test_recognize_builds_no_complement():
    """A 10^4-vertex perfect matching: the graph's own rows take about n^2/16
    bytes, and a copy of its complement would take n^2/8 more. Recognition
    must stay under that."""
    n = 10**4
    rows = [1 << (i ^ 1) for i in range(n)]
    g = Graph(n, tuple(rows))
    tracemalloc.start()
    try:
        tree = recognize(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n // 8, peak
    assert tree.label(0) == 0 and len(tree.children(0)) == n // 2
    assert all(tree.label(c) == 1 and tree.leaf_count(c) == 2 for c in tree.children(0))


def adversarial(n: int) -> Graph:
    """A clique on 1..n-4 joined to b and c of the path a-b-c-d on the four
    highest ids: both splits fail on the whole graph, whose only induced P4
    is a-b-c-d, and it comes last among the 4-subsets."""
    k = n - 4
    clique = (1 << k) - 1
    a, b, c, d = k, k + 1, k + 2, k + 3
    rows = [clique & ~(1 << i) | 1 << b | 1 << c for i in range(k)]
    rows += [1 << b, clique | 1 << a | 1 << c, clique | 1 << b | 1 << d, 1 << c]
    return Graph(n, tuple(rows))


@pytest.mark.parametrize("n", [120, 200])
def test_recognize_finds_the_last_p4_of_a_large_graph(n):
    """A search over 4-subsets visits about n^4 / 24 of them here (about 20 s
    at n = 120), and the unfiltered triple scan about n^2 / 2 pairs; the
    filtered search drops each clique vertex, which lies on no induced P4,
    after a few reductions over the rows."""
    assert recognize(adversarial(n)) == (n - 3, n - 2, n - 1, n)


@pytest.mark.parametrize("n", [120, 2000])
def test_filtered_p4_search_scans_only_the_last_four_vertices(n, monkeypatch):
    """The filter drops every clique vertex, so ``recognize`` runs the
    unfiltered scan once, on the four vertices of the only P4. The witness
    is checked by its six pairs on the raw rows, where the 4-subset
    reference could not run."""
    parts = []
    real = cotree._first_p4_from
    monkeypatch.setattr(cotree, "_first_p4_from",
                        lambda g, part: parts.append(part) or real(g, part))
    g = adversarial(n)
    result = recognize(g)
    assert parts == [0b1111 << (n - 4)]
    assert result == (n - 3, n - 2, n - 1, n)
    a, b, c, d = (v - 1 for v in result)
    pairs = ((a, b), (b, c), (c, d), (a, c), (a, d), (b, d))
    assert [g.rows[u] >> v & 1 for u, v in pairs] == [1, 1, 1, 0, 0, 0]


def test_serialize_parse_roundtrip_deep():
    tree = parse_threshold(alternating(2001))
    assert tree.node_count() == 4001
    text = serialize_cotree(tree)
    assert text.count("(") == 2000
    again = parse_cotree(text)
    assert again == tree


@pytest.mark.parametrize("n, seed", [(500, 2), (10**5, 3)], ids=["wide-root", "hundred-thousand"])
def test_control_rank_on_large_trees(n, seed):
    """The n = 500, seed-2 tree has 491 children at its root; a stacked
    elimination over the root's block alone is 490 x 490 there."""
    t = random_cotree(n, random.Random(seed))
    if n == 500:
        assert len(t.children(t.root)) == 491
    chosen = select_min_control_set(t)
    assert (control_rank(t, chosen) == t.n) is is_controllable(t, chosen) is True
    short = chosen[1:]
    assert (control_rank(t, short) == t.n) is is_controllable(t, short) is False


def _stack_depth() -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


GUARD_BITS = alternating(400)
GUARD_PAIR = "1(" * 400 + "1,2" + ")" * 400  # 400 levels, canonically K2


@pytest.mark.parametrize("argv", [
    ["recognize", "--threshold", GUARD_BITS],
    ["recognize", "--cotree", GUARD_PAIR],
    ["recognize", "--expr", ".*(.+" * 200 + "." + ")" * 200],
    ["spectrum", "--threshold", GUARD_BITS, "--modal"],
    ["partition", "--threshold", GUARD_BITS, "--degree"],
    ["leaders", "--threshold", GUARD_BITS, "--all"],
    ["verify", "--threshold", GUARD_BITS, "--set", "1"],
    ["verify", "--cotree", GUARD_PAIR, "--set", "1", "--cross-check"],
    ["oracle", "--cotree", GUARD_PAIR],
    ["oracle", "--threshold", GUARD_BITS],
    ["random", "--nodes", "400", "--seed", "1"],
])
def test_commands_do_not_recurse(capsys, tmp_path, argv):
    """Each command on a 400-level input with the recursion limit only a
    little above the current depth: any traversal that recurses per level
    raises RecursionError here."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        code = main(argv)
    finally:
        sys.setrecursionlimit(limit)
    out, err = capsys.readouterr()
    capped = argv[0] == "oracle" and argv[1] == "--threshold"
    assert code == (1 if capped else 0), err
    assert "Traceback" not in err


def test_edge_list_input_does_not_recurse(capsys, tmp_path):
    text = threshold_edge_list(GUARD_BITS)
    assert read_edge_list(text) == threshold_to_graph(GUARD_BITS)
    path = tmp_path / "deep.txt"
    path.write_text(text)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        code = main(["leaders", "--edges", str(path), "--json"])
    finally:
        sys.setrecursionlimit(limit)
    out, err = capsys.readouterr()
    assert code == 0, err
    assert json.loads(out)["min_size"] == 1
