"""Text formats: cograph expressions, threshold sequences, cotree
serializations, and edge lists.

Vertex numbering is always 1-based and, for expressions, assigned left to
right in reading order. That numbering is the single source of truth for
which vertex ids later appear in sibling cells and control sets.

The expression and cotree grammars write a tree's preorder columns as read
and leave its canonical form to ``cotree._canonical_columns``.
"""

from __future__ import annotations

import re
from collections import Counter
from itertools import islice
from operator import length_hint
from typing import Iterator

from .cotree import CoTree, _canonical_columns
from .errors import ParseError, SizeCapError
from .graphs import Graph, _bits

# Most vertices an input may declare. It is checked before anything of that
# size is allocated, and sits above the 10^5 vertices the cotree paths serve.
VERTEX_CAP = 1_000_000


def check_vertex_count(n: int) -> None:
    """Raise SizeCapError when n exceeds ``VERTEX_CAP``."""
    if n > VERTEX_CAP:
        raise SizeCapError(f"input has more than {VERTEX_CAP} vertices")


# -- tokens -------------------------------------------------------------------
#
# Both tree grammars read the same tokens: a run of decimal digits (``\d`` is
# exactly ``str.isdecimal``, what ``int()`` accepts), any other non-space
# character, and an empty token at the end of the text. Errors point at the
# first character of the offending token.

_TOKEN = re.compile(r"\d+|\S|\Z")


def _error(message: str, text: str, offset: int) -> ParseError:
    """ParseError at a 0-based offset into text: lines end at '\\n' and both
    line and column count from 1."""
    line_start = text.rfind("\n", 0, offset) + 1
    return ParseError(message, text.count("\n", 0, offset) + 1, offset - line_start + 1)


def _error_at(message: str, text: str, total: int, tokens: Iterator[str],
              back: int = 0) -> ParseError:
    """ParseError at the token that ``tokens``, an iterator over the ``total``
    strings of ``_TOKEN.findall(text)``, gave last, or ``back`` tokens before
    it. Only an error rescans the text, and only up to that token."""
    index = total - length_hint(tokens) - 1 - back
    match = next(islice(_TOKEN.finditer(text), index, None))
    return _error(message, text, match.start())


# -- cograph expressions ------------------------------------------------------
#
# expr   := term ('+' term)*          union, binds loosest
# term   := factor ('*' factor)*      join, binds tighter
# factor := atom | '(' expr ')'
# atom   := '.'                       a single vertex
#         | positive integer k        shorthand for k isolated vertices

_NOT_EXPR = re.compile(r"[^\s\d.+*()]")
_KIND = {"+": "PLUS", "*": "STAR", ")": "RPAREN", "": "EOF"}


def parse_expr(text: str) -> CoTree:
    """Parse a cograph expression into its cotree.

    Nodes are appended to the arena in reading order, which is preorder: the
    text and each '(' open a union node, each term opens a join node below
    it, and an integer atom k > 1 opens a union node over k leaves. The
    leaves are 1..n in reading order, so ``_canonical_columns`` makes the
    columns canonical in its one splice-and-merge pass."""
    bad = _NOT_EXPR.search(text)
    if bad:
        raise _error(f"unexpected character {bad[0]!r}", text, bad.start())
    if not text.strip():
        raise _error("empty expression", text, len(text))
    parents: list[int | None] = [None, 0]
    labels: list[int | None] = [0, 1]
    union, join = 0, 1  # the innermost open group and its last term
    groups: list[tuple[int, int]] = []  # the enclosing ones, one per open '('
    n = 0
    tokens = iter(_TOKEN.findall(text))  # its only reference: freed when it ends
    total = length_hint(tokens)
    for tok in tokens:  # a factor, then the operator or ')' after it
        if tok == "(":
            groups.append((union, join))
            parents += (join, len(parents))
            labels += (0, 1)
            union, join = len(parents) - 2, len(parents) - 1
            continue
        if tok == ".":
            count = 1
        elif tok.isdecimal():
            try:
                count = int(tok)
            except ValueError:  # more digits than int() converts
                raise _error_at("number too long", text, total, tokens) from None
            if count == 0:
                raise _error_at("atom must be a positive vertex count", text, total, tokens)
        else:
            raise _error_at(f"unexpected token {_KIND[tok]}", text, total, tokens)
        check_vertex_count(n + count)
        n += count
        if count == 1:
            parents.append(join)
            labels.append(None)
        else:
            parents += [join] + [len(parents)] * count
            labels += [0] + [None] * count
        after = next(tokens)  # the last token is the empty one, never an atom
        while after == ")" and groups:
            union, join = groups.pop()
            after = next(tokens)
        if after == "+":
            join = len(parents)
            parents.append(union)
            labels.append(1)
        elif after != "*" and (after or groups):
            message = "unbalanced parenthesis" if groups else "stray token after expression"
            raise _error_at(message, text, total, tokens)
    return CoTree._trusted(*_canonical_columns(parents, labels, range(1, n + 1)))


# -- threshold construction sequences -----------------------------------------


_NOT_THRESHOLD = re.compile(r"[^01 \t\n\r,;()\[\]]")
_DROP_SEPARATORS = str.maketrans("", "", " \t\n\r,;()[]")
_RUNS = re.compile("0+|1+")


def parse_threshold(text: str) -> CoTree:
    """Cotree of the threshold graph whose construction sequence is the 0/1
    bits of text (separators dropped): bit i says whether vertex i was
    attached by a join (1) or a union (0), and the first bit must be 0.

    Built in O(n) as canonical columns: one node per run of equal bits among
    bits 2..n, the last run at the root and each run's node the first child
    of the next run's. The bottom node holds vertex 1 and the first run's
    vertices. In preorder the run nodes come first, top to bottom, and the
    leaves 1..n follow, so the trusted builder stores the columns as they are."""
    bad = _NOT_THRESHOLD.search(text)
    if bad:
        raise _error(f"threshold sequence may only contain 0/1, got {bad[0]!r}", text, bad.start())
    bits = text.translate(_DROP_SEPARATORS)
    if not bits:
        raise ParseError("empty threshold sequence", 1, 1)
    if bits[0] != "0":
        raise _error("threshold sequence must start with 0", text, text.index("1"))
    runs = [m.end() - m.start() for m in _RUNS.finditer(bits, 1)]
    depth = len(runs)
    # the run nodes, top to bottom, and vertex 1 below them form one chain
    parents: list[int | None] = [None, *range(depth)]
    for node, size in zip(range(depth - 1, -1, -1), runs):
        parents += [node] * size
    top = int(bits[-1])
    labels = [top ^ (k & 1) for k in range(depth)] + [None] * len(bits)
    return CoTree._trusted(parents, labels, range(1, len(bits) + 1))


# -- cotree serialization ------------------------------------------------------
#
# leaf     := vertex id (positive integer)
# internal := label '(' node (',' node)* ')'   with label 0 or 1
#
# Example: 1(0(1,2),3,0(4,5))


def serialize_cotree(t: CoTree) -> str:
    """One pass over the stored preorder columns. An internal node opens its
    group; leaf k (in preorder) writes its id and closes each group whose leaf
    interval ends at k. A ',' precedes node i iff node i - 1 is a leaf, so
    each leaf's text ends with one, and the last is dropped."""
    ends = Counter(t._end)  # a leaf's end, and that of every group it closes
    tails = iter([f"{v}{')' * (ends[k] - 1)}," for k, v in enumerate(t._leaves, 1)])
    return "".join([next(tails) if label is None else ("0(", "1(")[label]
                    for label in t._label])[:-1]


def parse_cotree(text: str) -> CoTree:
    """Parse a cotree serialization. Any tree shape is accepted and comes
    back as the canonical cotree of the same graph.

    Nodes are appended to the arena in reading order, which is preorder;
    ``open_nodes`` holds the internal nodes whose ')' is still to come. A
    text whose leaf ids increase takes ``_canonical_columns``'s splice pass,
    any other its layout."""
    parents: list[int | None] = []
    labels: list[int | None] = []
    leaves: list[int] = []
    open_nodes: list[int] = []
    tokens = iter(_TOKEN.findall(text))  # its only reference: freed when it ends
    total = length_hint(tokens)
    for tok in tokens:  # a node's number, then the token that tells its kind
        if not tok.isdecimal():
            raise _error_at("expected a number", text, total, tokens)
        try:
            value = int(tok)
        except ValueError:  # more digits than int() converts
            raise _error_at("number too long", text, total, tokens) from None
        parents.append(open_nodes[-1] if open_nodes else None)
        after = next(tokens)  # the last token is the empty one, never a number
        if after == "(":
            if value not in (0, 1):
                message = f"internal label must be 0 or 1, got {value}"
                raise _error_at(message, text, total, tokens, 1)
            labels.append(value)
            open_nodes.append(len(parents) - 1)
            continue
        if value == 0:
            raise _error_at("leaf ids are 1-based, got 0", text, total, tokens, 1)
        labels.append(None)
        leaves.append(value)
        # close every group this leaf ends; then a ',' must follow, or the end
        while open_nodes and after == ")":
            open_nodes.pop()
            after = next(tokens)
        if after != ("," if open_nodes else ""):
            message = "unbalanced parenthesis in cotree" if open_nodes else "stray text after cotree"
            raise _error_at(message, text, total, tokens)
    # the grammar gives a tree with labels 0 or 1 and leaf ids >= 1
    if max(leaves) != len(leaves) or len(set(leaves)) != len(leaves):
        raise ParseError("leaf ids must be distinct and cover 1..n")
    return CoTree._trusted(*_canonical_columns(parents, labels, leaves))


# -- edge lists ----------------------------------------------------------------
#
# First line "n m", then m lines "i j" with 1-based endpoints. '#' starts a
# comment; blank lines are ignored.
#
# Two routes read it. ``_read_lines`` is the grammar: it reads any edge list
# line by line and raises every positioned ``ParseError``. ``_read_plain``
# reads only the plain form that writers produce, one chunk of lines at a
# time, and declines (returns None) on anything else, so each error, and
# each text it is unsure of, goes to the line loop.

# Every line break that ``str.splitlines`` knows.
_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
# A whole-line comment after a '\n', up to the next line break. The '\n'
# that ends it stays; any other break stays too, and sends the text to the
# line loop.
_COMMENT_LINE = re.compile(f"\n#[^{_BREAKS}]*")
# One line with its break, cut where ``str.splitlines`` cuts.
_LINE = re.compile(f"[^{_BREAKS}]*(?:\r\n|[{_BREAKS}])|[^{_BREAKS}]+")
_DROP_DIGITS = str.maketrans("", "", "0123456789")
# Characters ``_read_plain`` tokenizes at a time (about 0.5 MB of tokens and
# ids). A chunk ends after a '\n' that no '#' follows, so no comment match
# reaches back into the chunk before it.
_CHUNK = 1 << 14
_CHUNK_END = re.compile("\n(?!#)")


class _VertexIds(dict):
    """Endpoint token -> 0-based vertex id, filled in the first time each
    token is looked up. A leading zero or an id outside 1..n raises KeyError."""

    def __init__(self, n: int):
        self.n = n

    def __missing__(self, token: str) -> int:
        v = int(token) - 1
        if not 0 <= v < self.n or token[0] == "0":
            raise KeyError(token)
        self[token] = v
        return v


def _id_tables(n: int) -> tuple[dict[str, int], dict[str, int]]:
    """The byte matrix's tables: each id's text "1".."n" -> its row's offset,
    and -> minus its column; any other token raises KeyError. Exact dicts,
    because CPython 3.11 specializes a subscript on an exact dict only."""
    keys = [str(i) for i in range(1, n + 1)]
    return dict(zip(keys, range(n - 1, n * n, n))), dict(zip(keys, range(0, -n, -1)))


def read_edge_list(text: str) -> Graph:
    """The graph of an edge list. Plain text takes the chunked route; any
    other text, and every malformed one, is read by the line loop."""
    g = _read_plain(text)
    return g if g is not None else _read_lines(text)


def _read_plain(text: str) -> Graph | None:
    """The graph of a plain edge list, or None when the text is not plain.

    Plain means: whole-line '#' comments each ended by '\\n' or the end of the
    text, and otherwise "n m" and then m lines "a b" of ids as str() writes
    them, one space inside a line and '\\n' after it (the last may be missing),
    with n <= ``VERTEX_CAP`` and no self-loop or duplicate edge. The line loop
    sees the same tokens in such a text and raises nothing, so both routes
    return the same graph.

    The text is tokenized in chunks of about ``_CHUNK`` characters, and a
    chunk's tokens are scattered before the next chunk is read, so no token
    list of the whole text is ever held. When n * n <= 2 * len(text), each
    edge line "x y" writes b"1" into cell (x, y) of an n x n matrix of b"0",
    each row most significant bit first, and row i becomes an int once at
    the end, as the OR of row i and column i read in base 2. At 2 bytes per
    character of text, the matrix's memory and C-level work stay linear in
    the text, so that is the one bound it needs. Otherwise each edge sets
    its two bits in the rows directly. Both routes look ids up in tables of
    "1".."n" (``_id_tables``, ``_VertexIds``): any other spelling declines.
    Either way the rows' popcounts sum to 2P + L for P distinct pairs x != y
    and L distinct self-loops. The m lines give P + L <= m, so the sum is 2m
    only when P = m and L = 0: no self-loop and no pair twice, in any order."""
    lines = n = m = 0
    start = 0
    while start < len(text):
        cut = _CHUNK_END.search(text, start + _CHUNK)
        end = cut.end() if cut else len(text)
        body = text[start:end]
        if "#" in body:
            body = _COMMENT_LINE.sub("", "\n" + body)[1:]
        start = end
        if body and body[-1] != "\n":
            body += "\n"
        tokens = body.split()
        # ASCII digit runs alternately ended by ' ' and '\n', none of them empty
        if body.translate(_DROP_DIGITS) != " \n" * (len(tokens) // 2):
            return None
        if not tokens:
            continue
        lines += len(tokens) // 2
        try:
            if not n:
                n, m = int(tokens[0]), int(tokens[1])
                if not 1 <= n <= VERTEX_CAP:
                    return None
                if n * n <= 2 * len(text):
                    (at, col), cells = _id_tables(n), bytearray(b"0") * (n * n)
                else:
                    ids, cells, rows = _VertexIds(n), None, [0] * n
                del tokens[:2]
            if lines > m + 1:  # more edge lines than the header says
                return None
            if cells is not None:
                pairs = iter(tokens)
                for a, b in zip(pairs, pairs):
                    cells[at[a] + col[b]] = 49  # b"1"
                continue
            ends = list(map(ids.__getitem__, tokens))
        except (KeyError, ValueError):  # no such id, or too many digits for int()
            return None
        if start == len(text):
            del ids  # mapped; the scatter below is where a sparse file peaks
        for x, y in zip(ends[0::2], ends[1::2]):
            rows[x] |= 1 << y
            rows[y] |= 1 << x
    if lines != m + 1:
        return None
    if cells is not None:  # row i: the cells (i, y) and (x, i) that were set
        rows = [int(cells[i * n:i * n + n], 2) | int(cells[n * n - 1 - i::-n], 2) for i in range(n)]
    if sum(map(int.bit_count, rows)) != 2 * m:
        return None
    return Graph._trusted(n, tuple(rows))


def _lines(text: str):
    """(line number, text before any '#', stripped) of each line that holds
    something, one at a time."""
    for lineno, line in enumerate(_LINE.finditer(text), start=1):
        body = line[0].split("#", 1)[0].strip()
        if body:
            yield lineno, body


def _read_lines(text: str) -> Graph:
    """The header is checked first, then the edge lines are counted, then
    each is checked once and sets its two bits; a bit that is already set is
    a duplicate. The rows are symmetric, loop-free and in range by
    construction, so the graph skips ``Graph``'s checks. No pass keeps more
    than one line."""
    lines = _lines(text)
    header_line, body = next(lines, (1, ""))
    header = body.split()
    if not header:
        raise ParseError("empty edge list", 1, 1)
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
    found = sum(1 for _ in lines)
    if found != m:
        raise ParseError(f"expected {m} edge lines, found {found}", header_line, 1)
    rows = [0] * n
    lines = _lines(text)
    next(lines)
    for lineno, body in lines:
        fields = body.split()
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
    """The plain form: "n m", then each edge as "i j" with i < j, sorted."""
    lines = [f"{g.n} {sum(map(int.bit_count, g.rows)) // 2}"]
    lines.extend(f"{i + 1} {j + 1}" for i, row in enumerate(g.rows)
                 for j in _bits(row >> (i + 1) << (i + 1)))
    return "\n".join(lines) + "\n"
