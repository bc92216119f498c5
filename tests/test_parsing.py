"""Parsers and serializers: expressions, threshold bits, cotrees, edge lists."""

import random

import pytest

from cographctl import (
    ParseError,
    SizeCapError,
    cotree_to_graph,
    parse_cotree,
    parse_expr,
    parse_threshold,
    read_edge_list,
    recognize,
    serialize_cotree,
    write_edge_list,
)
from cographctl import parsing
from cographctl.generate import random_cotree, random_threshold_sequence

from test_fuzz import DEEP, random_expr as parenthesized_expr
from helpers import (
    THRESHOLD_EXAMPLE,
    expr_reference,
    is_canonical,
    join_of,
    nested_text,
    single,
    threshold_to_graph,
    union_of,
)

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
    cases = [
        ("", "empty expression (line 1, column 1)"),
        ("   ", "empty expression (line 1, column 4)"),
        ("(.+.", "unbalanced parenthesis (line 1, column 5)"),
        (".+.)", "stray token after expression (line 1, column 4)"),
        (". .", "stray token after expression (line 1, column 3)"),
        ("0", "atom must be a positive vertex count (line 1, column 1)"),
        (".+", "unexpected token EOF (line 1, column 3)"),
        ("*.", "unexpected token STAR (line 1, column 1)"),
        ("(.+.))", "stray token after expression (line 1, column 6)"),
        (".x.", "unexpected character 'x' (line 1, column 2)"),
        (".+\n.x", "unexpected character 'x' (line 2, column 2)"),
        # '²' is a digit but not a decimal, so int() would refuse it
        ("²", "unexpected character '²' (line 1, column 1)"),
        (". 3", "stray token after expression (line 1, column 3)"),
        ("(. .)", "unbalanced parenthesis (line 1, column 4)"),
        ("()", "unexpected token RPAREN (line 1, column 2)"),
    ]
    for bad, message in cases:
        with pytest.raises(ParseError) as info:
            parse_expr(bad)
        assert str(info.value) == message, bad
    with pytest.raises(SizeCapError, match="more than 1000000 vertices"):
        parse_expr("1000001")
    # an Arabic-Indic three is a decimal digit: three isolated vertices
    assert parse_expr("\u0663") == parse_expr("3") == parse_expr(".+.+.")


def random_expr(rng: random.Random, depth: int = 0) -> str:
    """An expression of one to four factors joined by unparenthesized '+'
    and '*' in any mix, with integer atoms, groups up to four deep, and
    spaces, tabs and line breaks around the operators."""
    parts = []
    for i in range(rng.randint(1, 4)):
        if i:
            parts.append(rng.choice(["+", "*", " + ", " * ", "\n+", "*\n", "\t*  "]))
        roll = rng.random()
        if depth < 4 and roll < 0.3:
            parts.append("(" + random_expr(rng, depth + 1) + rng.choice(["", " ", "\n"]) + ")")
        elif roll < 0.5:
            parts.append(rng.choice(["1", "2", "3", "4", "04", "\u0663"]))
        else:
            parts.append(".")
    return "".join(parts)


def test_parse_expr_matches_recursive_descent_reference():
    rng = random.Random(20261018)
    pieces = [".", "+", "*", "(", ")", " ", "\n", "0", "7", "x", "\u00b2", "\u0663", "9999999"]
    escaped = 0
    for _ in range(3000):
        text = random_expr(rng)
        assert cotree_to_graph(parse_expr(text)) == expr_reference(text), text
        chars = list(text)
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(chars) + 1)
            if rng.random() < 0.5 and i < len(chars):
                del chars[i]
            else:
                chars.insert(i, rng.choice(pieces))
        bad = "".join(chars)
        try:
            tree = parse_expr(bad)
        except (ParseError, SizeCapError):
            escaped += 1
            continue
        assert cotree_to_graph(tree) == expr_reference(bad), bad
    assert escaped > 1000


def test_parse_threshold_basics():
    assert parse_threshold("0").n == 1
    assert cotree_to_graph(parse_threshold("0")) == threshold_to_graph("0")
    k2 = cotree_to_graph(parse_threshold("01"))
    assert k2 == threshold_to_graph("01")
    assert k2.edge_count() == 1
    assert parse_threshold("0, 1 0 (1) 0;0,1") == parse_threshold(THRESHOLD_EXAMPLE)


def test_parse_threshold_errors():
    for bad in ["", "1", "10", "02", "0a1"]:
        with pytest.raises(ParseError):
            parse_threshold(bad)


def test_threshold_neighborhood_rule_matches_composition_fold():
    rng = random.Random(321)
    for _ in range(40):
        bits = random_threshold_sequence(rng.randint(1, 12), rng)
        direct = threshold_to_graph(bits)
        folded = K1
        for bit in bits[1:]:
            folded = (join_of if bit == "1" else union_of)([folded, K1])
        assert direct == folded


def test_parse_threshold_emits_canonical_columns(monkeypatch):
    """The columns handed to the constructor are canonical, so it stores
    them as they are, and they give the tree of the fold in which vertex j
    joins or unites with the tree of vertices 1..j-1 by bit j."""
    built = []
    real = parsing.CoTree
    monkeypatch.setattr(parsing, "CoTree", lambda *columns: built.append(columns) or real(*columns))
    rng = random.Random(1710)
    seqs = [random_threshold_sequence(rng.randint(1, 40), rng) for _ in range(2000)]
    for _ in range(1000):  # long runs
        p = rng.random()
        seqs.append("0" + "".join("01"[rng.random() < p] for _ in range(rng.randint(0, 60))))
    seqs += ["0", "00", "01", "0000", "0111", "0" + "01" * 30, THRESHOLD_EXAMPLE]
    for bits in seqs:
        built.clear()
        t = parse_threshold(bits)
        (parents, labels, leaves), = built
        assert [t.parent(i) for i in range(t.node_count())] == parents
        assert [None if t.is_leaf(i) else t.label(i) for i in range(t.node_count())] == labels
        assert t.leaf_sequence(t.root) == tuple(leaves)
        nested = 1
        for v in range(2, len(bits) + 1):
            nested = (int(bits[v - 1]), [nested, v])
        assert t == parse_cotree(nested_text(nested))


def test_parse_expr_emits_canonical_columns(monkeypatch):
    """The columns handed to the constructor are canonical, so it stores
    them as they are and never lays the tree out again; they give the
    expression's graph."""
    built = []
    real = parsing.CoTree
    monkeypatch.setattr(parsing, "CoTree", lambda *columns: built.append(columns) or real(*columns))
    rng = random.Random(1711)
    texts = [random_expr(rng) for _ in range(1500)]
    texts += [parenthesized_expr(rng.randint(1, 30), rng) for _ in range(500)]
    texts += [text for flag, text in DEEP if flag == "--expr"]
    texts += [".", "1", "7", "((.))", "(.+.)*(.+.+.)", "((.))*.*(2000)", "2*(3+(4*(1000)))", "100000"]
    for text in texts:
        built.clear()
        t = parse_expr(text)
        (parents, labels, leaves), = built
        assert list(t._parent) == parents
        assert list(t._label) == labels
        assert t._leaves == tuple(leaves) == tuple(range(1, t.n + 1))
        assert is_canonical(t)
        if len(text) < 200 and t.n < 5000:
            assert cotree_to_graph(t) == expr_reference(text)
    assert (t.n, t.node_count()) == (100000, 100001)


def test_example_threshold_graph():
    g = cotree_to_graph(parse_threshold(THRESHOLD_EXAMPLE))
    assert g == threshold_to_graph(THRESHOLD_EXAMPLE)
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


def test_error_positions_count_lines_and_name_the_token():
    """Each parser reports the line and column of the offending token's
    first character, with lines ended by '\\n'."""
    cases = [
        (parse_cotree, "2022 (12", "internal label must be 0 or 1, got 2022 (line 1, column 1)"),
        (parse_cotree, "1(10,\n  345(1,2))",
         "internal label must be 0 or 1, got 345 (line 2, column 3)"),
        (parse_cotree, "1(\n1,0)", "leaf ids are 1-based, got 0 (line 2, column 3)"),
        (parse_cotree, "1(2, 00 )", "leaf ids are 1-based, got 0 (line 1, column 6)"),
        (parse_cotree, "1(1,\n 2x", "unbalanced parenthesis in cotree (line 2, column 3)"),
        (parse_cotree, "1(1,\n2\n", "unbalanced parenthesis in cotree (line 3, column 1)"),
        (parse_cotree, "1(1,2)\n x", "stray text after cotree (line 2, column 2)"),
        (parse_cotree, "1(1,\n\n  )", "expected a number (line 3, column 3)"),
        (parse_threshold, "0\n1x", "threshold sequence may only contain 0/1, got 'x' (line 2, column 2)"),
        (parse_threshold, "01\n0 2", "threshold sequence may only contain 0/1, got '2' (line 2, column 3)"),
        (parse_threshold, "\n 1", "threshold sequence must start with 0 (line 2, column 2)"),
        (parse_expr, "(.+.)\n*(..)", "unbalanced parenthesis (line 2, column 4)"),
    ]
    for parse, bad, message in cases:
        with pytest.raises(ParseError) as info:
            parse(bad)
        assert str(info.value) == message, bad


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
        ("", "empty edge list (line 1, column 1)"),
        ("# only a comment\n\n", "empty edge list (line 1, column 1)"),
        ("2\n", "header must be 'n m' (line 1, column 1)"),
        ("a b\n", "header must hold two integers (line 1, column 1)"),
        ("2 1\n", "expected 1 edge lines, found 0 (line 1, column 1)"),
        ("2 1\n1 2\n2 1\n", "expected 1 edge lines, found 2 (line 1, column 1)"),
        ("2 1\n1 3\n", "edge endpoint out of range 1..2 (line 2, column 1)"),
        ("2 1\n0 1\n", "edge endpoint out of range 1..2 (line 2, column 1)"),
        ("2 1\n1 1\n", "self-loop at vertex 1 (line 2, column 1)"),
        ("3 2\n1 2\n2 1\n", "duplicate edge 1 2 (line 3, column 1)"),
        ("3 2\n2 3\n3 2\n", "duplicate edge 2 3 (line 3, column 1)"),
        ("0 0\n", "vertex count must be positive (line 1, column 1)"),
        ("2 1\n1 x\n", "edge endpoints must be integers (line 2, column 1)"),
        ("2 1\n1 2 3\n", "edge line must hold two endpoints (line 2, column 1)"),
        # comment and blank lines still count toward the reported line
        ("# header next\n\n3 1 # n m\n# edges\n\n1 4\n",
         "edge endpoint out of range 1..3 (line 6, column 1)"),
        ("4 2\n1 2\n# c\n\n1 2 # again\n", "duplicate edge 1 2 (line 5, column 1)"),
        ("3 -1\n", "edge count must be non-negative (line 1, column 1)"),
    ]
    for bad, message in cases:
        with pytest.raises(ParseError) as info:
            read_edge_list(bad)
        assert str(info.value) == message, bad
