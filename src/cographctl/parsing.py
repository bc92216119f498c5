"""Text formats: cograph expressions, threshold sequences, cotree
serializations, and edge lists.

Vertex numbering is always 1-based and, for expressions, assigned left to
right in reading order. That numbering is the single source of truth for
which vertex ids later appear in sibling cells and control sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

from .cotree import CoTree, Nested, canonicalize
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
        if ch.isdigit():
            start = i
            startcol = col
            while i < len(text) and text[i].isdigit():
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

    def fresh_leaf(self) -> int:
        v = self.next_vertex
        self.next_vertex += 1
        return v

    def atom(self, tok: _Token) -> Nested:
        if tok.kind not in ("DOT", "INT"):
            raise ParseError(f"unexpected token {tok.kind}", tok.line, tok.col)
        count = 1 if tok.kind == "DOT" else tok.value
        if count == 0:
            raise ParseError("atom must be a positive vertex count", tok.line, tok.col)
        check_vertex_count(self.next_vertex - 1 + count)
        if count == 1:
            return self.fresh_leaf()
        return (0, [self.fresh_leaf() for _ in range(count)])

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
    """Parse a cograph expression into its canonical cotree."""
    tokens = _tokenize_expr(text)
    if tokens[0].kind == "EOF":
        raise ParseError("empty expression", tokens[0].line, tokens[0].col)
    parser = _ExprParser(tokens)
    nested = parser.expr()
    trailing = parser.take()
    if trailing.kind != "EOF":
        raise ParseError("stray token after expression", trailing.line, trailing.col)
    return canonicalize(CoTree.from_nested(nested))


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


def threshold_to_graph(seq: ThresholdSequence) -> Graph:
    """Adjacency straight from the attachment rule: the vertex added at step j
    by a join is adjacent to every earlier vertex, so {i, j} with i < j is an
    edge exactly when bit j is 1."""
    n = seq.n
    rows = [0] * n
    for j in range(n):
        if seq.bits[j] == 1:
            for i in range(j):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph(n, tuple(rows))


def threshold_to_cotree(seq: ThresholdSequence) -> CoTree:
    """Canonical cotree of the threshold graph, built directly in O(n).

    Folding the sequence (each step hangs the tree so far and one new leaf
    under a node labeled by the step's bit) and merging equal labels leaves
    a caterpillar with one internal node per maximal run of equal bits after
    the first: its children are the node of the previous run (or vertex 1)
    and the run's own vertices. In preorder the run nodes come first, newest
    on top, and the leaves then read 1..n."""
    runs = [(bit, len(list(group))) for bit, group in groupby(seq.bits[1:])]
    top = len(runs) - 1  # node id of the oldest run
    # run nodes hang in a chain; vertex 1 hangs under the oldest run
    parents: list[int | None] = [None, *range(top + 1)]
    for r, (_, size) in enumerate(runs):
        parents.extend([top - r] * size)
    labels: list[int | None] = [bit for bit, _ in reversed(runs)]
    labels.extend([None] * seq.n)
    return CoTree(parents, labels, range(1, seq.n + 1))


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
    """Parse a cotree serialization; the structure is preserved as written
    (non-canonical trees are accepted so they can be canonicalized).

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
        while pos < len(text) and text[pos].isdigit():
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


def read_edge_list(text: str) -> Graph:
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            rows.append((lineno, body.split()))
    if not rows:
        raise ParseError("empty edge list", 1, 1)
    header_line, header = rows[0]
    if len(header) != 2:
        raise ParseError("header must be 'n m'", header_line, 1)
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError as exc:
        raise ParseError("header must hold two integers", header_line, 1) from exc
    if n < 1:
        raise ParseError("vertex count must be positive", header_line, 1)
    check_vertex_count(n)
    if len(rows) - 1 != m:
        raise ParseError(f"expected {m} edge lines, found {len(rows) - 1}", header_line, 1)
    seen = set()
    edges = []
    for lineno, fields in rows[1:]:
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
        key = (min(a, b), max(a, b))
        if key in seen:
            raise ParseError(f"duplicate edge {key[0]} {key[1]}", lineno, 1)
        seen.add(key)
        edges.append((a - 1, b - 1))
    return Graph.from_edges(n, edges)


def write_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count()}"]
    lines.extend(f"{i + 1} {j + 1}" for i, j in g.edges())
    return "\n".join(lines) + "\n"
