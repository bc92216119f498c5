"""Text formats: cograph expressions, threshold sequences, cotree
serializations, and edge lists.

Vertex numbering is always 1-based and, for expressions, assigned left to
right in reading order. That numbering is the single source of truth for
which vertex ids later appear in sibling cells and control sets.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .cotree import CoTree, Nested
from .errors import ParseError, SizeCapError
from .graphs import Graph

# Most vertices an input may declare. It is checked before anything of that
# size is allocated, and sits above the 10^5 vertices the cotree paths serve.
VERTEX_CAP = 1_000_000


def check_vertex_count(n: int) -> None:
    """Raise SizeCapError when n exceeds ``VERTEX_CAP``."""
    if n > VERTEX_CAP:
        raise SizeCapError(f"input has more than {VERTEX_CAP} vertices")


# -- cograph expressions ------------------------------------------------------
#
# expr   := term ('+' term)*          union, binds loosest
# term   := factor ('*' factor)*      join, binds tighter
# factor := atom | '(' expr ')'
# atom   := '.'                       a single vertex
#         | positive integer k        shorthand for k isolated vertices


@dataclass(frozen=True)
class _Token:
    kind: str  # DOT INT PLUS STAR LPAREN RPAREN EOF
    value: int
    line: int
    col: int


def _tokenize_expr(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch.isdecimal():
            start = i
            startcol = col
            while i < len(text) and text[i].isdecimal():
                i += 1
                col += 1
            tokens.append(_Token("INT", int(text[start:i]), line, startcol))
            continue
        kind = {".": "DOT", "+": "PLUS", "*": "STAR", "(": "LPAREN", ")": "RPAREN"}.get(ch)
        if kind is None:
            raise ParseError(f"unexpected character {ch!r}", line, col)
        tokens.append(_Token(kind, 0, line, col))
        i += 1
        col += 1
    tokens.append(_Token("EOF", 0, line, col))
    return tokens


class _ExprParser:
    """Operator-precedence parser over an explicit stack of open groups.

    Each open '(' saves the enclosing group's finished terms and the factors
    of its unfinished term; the matching ')' restores them. Tokens are
    consumed, and errors raised, in the same order as a recursive-descent
    parser of the grammar above would."""

    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.next_vertex = 1

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def atom(self, tok: _Token) -> Nested:
        if tok.kind not in ("DOT", "INT"):
            raise ParseError(f"unexpected token {tok.kind}", tok.line, tok.col)
        count = 1 if tok.kind == "DOT" else tok.value
        if count == 0:
            raise ParseError("atom must be a positive vertex count", tok.line, tok.col)
        first = self.next_vertex
        check_vertex_count(first - 1 + count)
        self.next_vertex += count
        return first if count == 1 else (0, list(range(first, first + count)))

    def expr(self) -> Nested:
        groups: list[tuple[list[Nested], list[Nested]]] = []
        terms: list[Nested] = []
        factors: list[Nested] = []
        while True:
            tok = self.take()
            if tok.kind == "LPAREN":
                groups.append((terms, factors))
                terms, factors = [], []
                continue
            factors.append(self.atom(tok))
            while True:
                kind = self.peek().kind
                if kind == "STAR":
                    self.take()
                    break
                terms.append(_compose(1, factors))
                factors = []
                if kind == "PLUS":
                    self.take()
                    break
                group = _compose(0, terms)
                if not groups:
                    return group
                closing = self.take()
                if closing.kind != "RPAREN":
                    raise ParseError("unbalanced parenthesis", closing.line, closing.col)
                terms, factors = groups.pop()
                factors.append(group)


def _compose(label: int, parts: list[Nested]) -> Nested:
    return parts[0] if len(parts) == 1 else (label, parts)


def parse_expr(text: str) -> CoTree:
    """Parse a cograph expression into its cotree."""
    tokens = _tokenize_expr(text)
    if tokens[0].kind == "EOF":
        raise ParseError("empty expression", tokens[0].line, tokens[0].col)
    parser = _ExprParser(tokens)
    nested = parser.expr()
    trailing = parser.take()
    if trailing.kind != "EOF":
        raise ParseError("stray token after expression", trailing.line, trailing.col)
    return CoTree.from_nested(nested)


# -- threshold construction sequences -----------------------------------------


@dataclass(frozen=True)
class ThresholdSequence:
    """Bit i (1-based vertex i) records whether that vertex was attached by a
    join (1) or a union (0). The first bit is always 0."""

    bits: tuple[int, ...]

    def __post_init__(self):
        if not self.bits:
            raise ValueError("threshold sequence must be nonempty")
        if self.bits[0] != 0:
            raise ValueError("threshold sequence must start with 0")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("threshold sequence bits must be 0 or 1")

    @property
    def n(self) -> int:
        return len(self.bits)

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


_THRESHOLD_SEPARATORS = set(" \t\n\r,;()[]")


def parse_threshold(text: str) -> ThresholdSequence:
    bits = []
    for col, ch in enumerate(text, start=1):
        if ch in _THRESHOLD_SEPARATORS:
            continue
        if ch not in "01":
            raise ParseError(f"threshold sequence may only contain 0/1, got {ch!r}", 1, col)
        bits.append(int(ch))
    if not bits:
        raise ParseError("empty threshold sequence", 1, 1)
    if bits[0] != 0:
        raise ParseError("threshold sequence must start with 0", 1, 1)
    return ThresholdSequence(tuple(bits))


def threshold_to_cotree(seq: ThresholdSequence) -> CoTree:
    """Cotree of the threshold graph, in O(n): the fold in which step j hangs
    the tree so far and vertex j under a node labeled by bit j. In preorder
    the step nodes come first, newest on top, so step j is node n - j; the
    leaves 1..n follow, vertex 1 beside vertex 2 under step 2."""
    n = seq.n
    parents = [None, *range(n - 2), n - 2, *range(n - 2, -1, -1)] if n > 1 else [None]
    labels = [*reversed(seq.bits[1:]), *[None] * n]
    return CoTree(parents, labels, range(1, n + 1))


# -- cotree serialization ------------------------------------------------------
#
# leaf     := vertex id (positive integer)
# internal := label '(' node (',' node)* ')'   with label 0 or 1
#
# Example: 1(0(1,2),3,0(4,5))


def serialize_cotree(t: CoTree) -> str:
    """One pass over the preorder numbering: a node opens its group (or
    writes its id), and a leaf that ends one or more groups closes them."""
    parts: list[str] = []
    for i in range(t.node_count()):
        up = t.parent(i)
        if up is not None and t.children(up)[0] != i:
            parts.append(",")
        if not t.is_leaf(i):
            parts.append(f"{t.label(i)}(")
            continue
        parts.append(str(t.leaf_vertex(i)))
        node = i
        while up is not None and t.children(up)[-1] == node:
            parts.append(")")
            node, up = up, t.parent(up)
    return "".join(parts)


def parse_cotree(text: str) -> CoTree:
    """Parse a cotree serialization. Any tree shape is accepted and comes
    back as the canonical cotree of the same graph.

    Nodes are appended to the arena in reading order, which is preorder;
    ``open_nodes`` holds the internal nodes whose ')' is still to come."""
    pos = 0

    def skip_space():
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def read_int() -> int:
        nonlocal pos
        start = pos
        while pos < len(text) and text[pos].isdecimal():
            pos += 1
        if start == pos:
            raise ParseError("expected a number", 1, pos + 1)
        return int(text[start:pos])

    parents: list[int | None] = []
    labels: list[int | None] = []
    leaves: list[int] = []
    open_nodes: list[int] = []
    while True:
        skip_space()
        value = read_int()
        skip_space()
        parents.append(open_nodes[-1] if open_nodes else None)
        if pos < len(text) and text[pos] == "(":
            if value not in (0, 1):
                raise ParseError(f"internal label must be 0 or 1, got {value}", 1, pos)
            pos += 1
            labels.append(value)
            open_nodes.append(len(parents) - 1)
            continue
        if value == 0:
            raise ParseError("leaf ids are 1-based, got 0", 1, pos)
        labels.append(None)
        leaves.append(value)
        # close every group this node ends, up to the next ',' or the end
        while open_nodes:
            skip_space()
            if pos < len(text) and text[pos] == ",":
                pos += 1
                break
            if pos >= len(text) or text[pos] != ")":
                raise ParseError("unbalanced parenthesis in cotree", 1, pos + 1)
            pos += 1
            open_nodes.pop()
        else:
            break
    skip_space()
    if pos != len(text):
        raise ParseError("stray text after cotree", 1, pos + 1)
    try:
        return CoTree(parents, labels, leaves)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


# -- edge lists ----------------------------------------------------------------
#
# First line "n m", then m lines "i j" with 1-based endpoints. '#' starts a
# comment; blank lines are ignored.
#
# Two routes read it. ``_read_lines`` is the grammar: it reads any edge list
# line by line and raises every positioned ``ParseError``. ``_read_plain``
# reads only the plain form that writers produce, in one tokenize pass, and
# declines (returns None) on anything else, so each error, and each text it
# is unsure of, goes to the line loop.

# A whole-line comment after a '\n', up to the next line break that
# ``str.splitlines`` knows. The '\n' that ends it stays; any other break
# stays too, and sends the text to the line loop.
_COMMENT_LINE = re.compile("\n#[^\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]*")
_DROP_DIGITS = str.maketrans("", "", "0123456789")


class _VertexIds(dict):
    """Endpoint token -> 0-based vertex id, filled in the first time each
    token is looked up. A token outside 1..n raises KeyError."""

    def __init__(self, n: int):
        self.n = n

    def __missing__(self, token: str) -> int:
        v = int(token)
        if not 1 <= v <= self.n:
            raise KeyError(token)
        self[token] = v - 1
        return v - 1


def read_edge_list(text: str) -> Graph:
    """The graph of an edge list. Plain text takes the one-pass route; any
    other text, and every malformed one, is read by the line loop."""
    g = _read_plain(text)
    return g if g is not None else _read_lines(text)


def _read_plain(text: str) -> Graph | None:
    """The graph of a plain edge list, or None when the text is not plain.

    Plain means: whole-line '#' comments each ended by '\\n' or the end of
    the text, and otherwise "n m" and then m lines "a b" of ASCII digits,
    one space inside a line and '\\n' after it (the last may be missing),
    with n <= ``VERTEX_CAP`` and no self-loop or duplicate edge. On such a
    text the line loop sees the same tokens and raises nothing, so both
    routes return the same graph."""
    body = _COMMENT_LINE.sub("", "\n" + text)[1:]
    if not body.endswith("\n"):
        body += "\n"
    tokens = body.split()
    edge_count = len(tokens) // 2 - 1
    # ASCII digit runs alternately ended by ' ' and '\n', none of them empty
    if edge_count < 0 or body.translate(_DROP_DIGITS) != " \n" * (edge_count + 1):
        return None
    try:
        n, m = int(tokens[0]), int(tokens[1])
        if m != edge_count or not 1 <= n <= VERTEX_CAP:
            return None
        ends = list(map(_VertexIds(n).__getitem__, tokens[2:]))
    except (KeyError, ValueError):  # out of range, or too many digits for int()
        return None
    rows = [0] * n
    for x, y in zip(ends[0::2], ends[1::2]):
        rows[x] |= 1 << y
        rows[y] |= 1 << x
    # each edge line sets two new bits, a self-loop one, a repeated edge none
    if sum(map(int.bit_count, rows)) != 2 * m:
        return None
    return Graph._trusted(n, tuple(rows))


def _read_lines(text: str) -> Graph:
    """Each edge line is checked once and sets its two bits; a bit that is
    already set is a duplicate. The rows are symmetric, loop-free and in
    range by construction, so the graph skips ``Graph``'s checks."""
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            lines.append((lineno, body.split()))
    if not lines:
        raise ParseError("empty edge list", 1, 1)
    header_line, header = lines[0]
    if len(header) != 2:
        raise ParseError("header must be 'n m'", header_line, 1)
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError as exc:
        raise ParseError("header must hold two integers", header_line, 1) from exc
    if n < 1:
        raise ParseError("vertex count must be positive", header_line, 1)
    check_vertex_count(n)
    if m < 0:
        raise ParseError("edge count must be non-negative", header_line, 1)
    if len(lines) - 1 != m:
        raise ParseError(f"expected {m} edge lines, found {len(lines) - 1}", header_line, 1)
    rows = [0] * n
    for lineno, fields in lines[1:]:
        if len(fields) != 2:
            raise ParseError("edge line must hold two endpoints", lineno, 1)
        try:
            a, b = int(fields[0]), int(fields[1])
        except ValueError as exc:
            raise ParseError("edge endpoints must be integers", lineno, 1) from exc
        if not (1 <= a <= n and 1 <= b <= n):
            raise ParseError(f"edge endpoint out of range 1..{n}", lineno, 1)
        if a == b:
            raise ParseError(f"self-loop at vertex {a}", lineno, 1)
        bit = 1 << (b - 1)
        if rows[a - 1] & bit:
            raise ParseError(f"duplicate edge {min(a, b)} {max(a, b)}", lineno, 1)
        rows[a - 1] |= bit
        rows[b - 1] |= 1 << (a - 1)
    return Graph._trusted(n, tuple(rows))


def write_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count()}"]
    lines.extend(f"{i + 1} {j + 1}" for i, j in g.edges())
    return "\n".join(lines) + "\n"
