"""Parsers and serializers: expressions, threshold bits, cotrees, edge lists."""

import random

import pytest

from cographctl import (
    ParseError,
    cotree_to_graph,
    parse_cotree,
    parse_expr,
    parse_threshold,
    read_edge_list,
    recognize,
    serialize_cotree,
    threshold_to_graph,
    write_edge_list,
)
from cographctl.generate import random_cotree, random_threshold_sequence

from helpers import THRESHOLD_EXAMPLE, join_of, single, union_of

K1 = single()


def test_parse_expr_k2():
    g = cotree_to_graph(parse_expr(".*."))
    assert g.n == 2 and g.edge_count() == 1


def test_parse_expr_k4_two_spellings():
    a = cotree_to_graph(parse_expr(".*.*.*."))
    b = cotree_to_graph(parse_expr("1*1*1*1"))
    assert a == b == join_of([K1] * 4)
    assert a.edge_count() == 6


def test_parse_expr_complete_bipartite():
    g = cotree_to_graph(parse_expr("(.+.)*(.+.+.)"))
    assert g.n == 5 and g.edge_count() == 6
    assert not g.has_edge(0, 1) and not g.has_edge(2, 3)
    assert g.has_edge(0, 2) and g.has_edge(1, 4)


def test_parse_expr_integer_shorthand():
    assert cotree_to_graph(parse_expr("3")) == union_of([K1] * 3)
    assert cotree_to_graph(parse_expr(".*3")) == join_of([K1, union_of([K1] * 3)])


def test_parse_expr_precedence_and_parens():
    # '*' binds tighter: .+.*. is one vertex unioned with K2
    g = cotree_to_graph(parse_expr(".+.*."))
    assert g.edge_count() == 1 and not g.has_edge(0, 1)
    h = cotree_to_graph(parse_expr("(.+.)*."))
    assert h.edge_count() == 2


def test_parse_expr_matches_direct_fold():
    g = cotree_to_graph(parse_expr("(.+.*(.+.))*(.+2)"))
    left = union_of([K1, join_of([K1, union_of([K1, K1])])])
    right = union_of([K1, union_of([K1, K1])])
    assert g == join_of([left, right])


def test_parse_expr_errors():
    for bad in ["", "   ", "(.+.", ".+.)", ". .", "0", ".+", "*.", "(.+.))", ".x."]:
        with pytest.raises(ParseError):
            parse_expr(bad)


def test_parse_threshold_basics():
    assert parse_threshold("0").n == 1
    assert threshold_to_graph(parse_threshold("0")).n == 1
    k2 = threshold_to_graph(parse_threshold("01"))
    assert k2.edge_count() == 1
    seq = parse_threshold("0, 1 0 (1) 0;0,1")
    assert str(seq) == THRESHOLD_EXAMPLE


def test_parse_threshold_errors():
    for bad in ["", "1", "10", "02", "0a1"]:
        with pytest.raises(ParseError):
            parse_threshold(bad)


def test_threshold_neighborhood_rule_matches_composition_fold():
    rng = random.Random(321)
    for _ in range(40):
        seq = random_threshold_sequence(rng.randint(1, 12), rng)
        direct = threshold_to_graph(seq)
        folded = K1
        for bit in seq.bits[1:]:
            folded = (join_of if bit else union_of)([folded, K1])
        assert direct == folded


def test_example_threshold_graph():
    g = threshold_to_graph(parse_threshold(THRESHOLD_EXAMPLE))
    assert [g.degree(i) for i in range(7)] == [3, 3, 2, 4, 1, 1, 6]


def test_parse_cotree_examples():
    k2 = cotree_to_graph(parse_cotree("1(1,2)"))
    assert k2.edge_count() == 1
    assert serialize_cotree(parse_cotree("1(0(1,2),3)")) == "1(0(1,2),3)"


def test_cotree_roundtrip_on_random_canonical_trees():
    rng = random.Random(777)
    for _ in range(50):
        t = random_cotree(rng.randint(1, 10), rng)
        assert parse_cotree(serialize_cotree(t)) == t


def test_parse_cotree_errors():
    for bad in ["", "1(", "1(1,2", "2(1,2)", "1(1,1)", "1(1,3)", "1(1,2)x", "0", "1()"]:
        with pytest.raises(ParseError):
            parse_cotree(bad)


def test_edge_list_roundtrip_and_recognition():
    g = read_edge_list("3 2\n1 2\n2 3\n")
    assert g.n == 3 and g.edge_count() == 2
    t = recognize(g)
    assert serialize_cotree(t) == "1(0(1,3),2)"
    assert read_edge_list(write_edge_list(g)) == g


def test_edge_list_comments_and_whitespace():
    text = "# a path\n3 2\n\n1 2  # first\n 2 3\n"
    assert read_edge_list(text).edge_count() == 2


def test_edge_list_errors():
    cases = [
        "",  # empty
        "2\n",  # bad header
        "2 1\n",  # missing edge line
        "2 1\n1 2\n2 1\n",  # extra line
        "2 1\n1 3\n",  # endpoint out of range
        "2 1\n1 1\n",  # self loop
        "3 2\n1 2\n2 1\n",  # duplicate edge
        "0 0\n",  # no vertices
        "2 1\n1 x\n",  # non-integer endpoint
    ]
    for bad in cases:
        with pytest.raises(ParseError):
            read_edge_list(bad)
