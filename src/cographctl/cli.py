"""Command-line front end.

Exactly one input flag (--expr, --cotree, --threshold, --edges) feeds each
analysis command; the three text flags also take @PATH (a file's text) or
@- (stdin). Results go to stdout as text, or with --json in a stable JSON
schema; each command builds only the form it prints. Diagnostics go to
stderr. Exit codes: 0 success, 1 domain errors (not a cograph, disconnected
input, size cap), 2 usage errors (bad flags or unparseable input).
"""

from __future__ import annotations

import functools
import gc
import json
import random
import sys
from itertools import islice
from math import prod
from operator import itemgetter
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NoReturn, Sequence

from . import control, generate, oracle, spectral
from .cotree import CoTree, cotree_to_graph, recognize
from .errors import ParseError, SizeCapError
from .graphs import Graph, laplacian
from .parsing import (
    check_vertex_count,
    parse_cotree,
    parse_expr,
    parse_threshold,
    read_edge_list,
    serialize_cotree,
)

if TYPE_CHECKING:
    import argparse

# Caps on the super-polynomial paths, checked before any of their work starts.
CROSS_CHECK_CAP = 100  # vertices; the Kalman oracle takes under 0.5 s at n = 100
ALL_SETS_CAP = 1_000_000  # leaders --all: sets x vertices bounds its output, up to n ids a set
_PIECE = 1 << 14  # characters to a write of a listing, about


class _DomainError(Exception):
    """Wraps a domain failure already formatted for the user."""


class _NotCograph(_DomainError):
    """An edge-list input with an induced P4; keeps the witness for
    ``recognize``, which reports it as its answer."""

    def __init__(self, n: int, witness: tuple[int, int, int, int]):
        super().__init__("input graph is not a cograph: induced P4 on vertices "
                         + " ".join(map(str, witness)))
        self.n = n
        self.witness = witness


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    # @PATH reads the text flags from a file, @- from stdin
    p.add_argument("--expr", help="cograph expression, e.g. '(.+.)*(.+.+.)', or @PATH")
    p.add_argument("--cotree", help="cotree text, e.g. '1(0(1,2),3)', or @PATH")
    p.add_argument("--threshold", help="threshold construction bits, e.g. 0101001, or @PATH")
    p.add_argument("--edges", help="path to an edge-list file ('n m' header)")
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then kept: each
    ``parse_args`` call fills a fresh namespace, so calls share no state. Only
    help, usage errors and the argv forms ``_plain_args`` declines build it."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="cographctl",
        description="Cotree decomposition, exact Laplacian spectra, and "
        "minimum leader selection for cograph networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("recognize", help="decompose into a canonical cotree")
    _add_input_flags(p)

    p = sub.add_parser("spectrum", help="exact Laplacian eigenvalues")
    _add_input_flags(p)
    p.add_argument("--modal", action="store_true", help="also print the integer modal matrix")

    p = sub.add_parser("partition", help="sibling partition cells")
    _add_input_flags(p)
    p.add_argument("--degree", action="store_true", help="also print the degree partition")

    p = sub.add_parser("leaders", help="minimum control sets")
    _add_input_flags(p)
    p.add_argument("--tie", choices=["lowest", "highest"], default="lowest",
                   help="which cell representatives stay uncontrolled")
    p.add_argument("--all", action="store_true", help="enumerate every minimum set")

    p = sub.add_parser("verify", help="check controllability of a given set")
    _add_input_flags(p)
    p.add_argument("--set", required=True, metavar="IDS",
                   help="comma-separated control vertices, e.g. 1,6,7")
    p.add_argument("--cross-check", action="store_true",
                   help="also run the eigenvector rank test and the Kalman rank oracle")

    p = sub.add_parser("oracle", help="brute-force self-check battery (size-capped)")
    _add_input_flags(p)

    p = sub.add_parser("random", help="emit a random cotree or threshold sequence")
    p.add_argument("--nodes", type=int, required=True, metavar="N")
    p.add_argument("--seed", type=int, required=True, metavar="S")
    p.add_argument("--threshold", action="store_true",
                   help="emit a threshold construction sequence instead")
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")

    return parser


# The plain grammar, as ``build_parser`` declares it (a test keeps the two equal):
# each option string's dest, with its const for a flag or its choices for a value
# option (None: any value); per analysis command, its dests' defaults in declaration
# order (the namespace's key order) and its required dests. ``random``'s are typed.
_OPTIONS = {"--expr": ("expr", None), "--cotree": ("cotree", None),
            "--threshold": ("threshold", None), "--edges": ("edges", None),
            "--json": ("json", True), "--modal": ("modal", True), "--degree": ("degree", True),
            "--tie": ("tie", ("lowest", "highest")), "--all": ("all", True),
            "--set": ("set", None), "--cross-check": ("cross_check", True)}
_INPUT = {"expr": None, "cotree": None, "threshold": None, "edges": None, "json": False}
_PLAIN = {"recognize": (_INPUT, ()), "spectrum": (_INPUT | {"modal": False}, ()),
          "partition": (_INPUT | {"degree": False}, ()), "oracle": (_INPUT, ()),
          "leaders": (_INPUT | {"tie": "lowest", "all": False}, ()),
          "verify": (_INPUT | {"set": None, "cross_check": False}, ("set",))}


def _plain_args(argv: list) -> SimpleNamespace | None:
    """``build_parser().parse_args(argv)``'s namespace, keys in the same order,
    for a plain argv: a command of ``_PLAIN``, then only exact option strings of
    it, a value option's value being the next token, a str that does not start
    with "-" (and one of its choices). None for every other form, which argparse
    reads: help and usage errors among them."""
    command = _PLAIN.get(argv[0]) if argv and type(argv[0]) is str else None
    if command is None:
        return None
    defaults, required = command
    values = {}
    tokens = iter(argv[1:])
    for token in tokens:
        dest, spec = _OPTIONS.get(token, (None, None)) if type(token) is str else (None, None)
        if dest not in defaults:
            return None
        if spec is True:  # a flag, spec being its const
            values[dest] = True
            continue
        value = next(tokens, None)
        if (type(value) is not str or value.startswith("-")
                or spec is not None and value not in spec):
            return None
        values[dest] = value  # a repeated option keeps its last value
    if not all(map(values.__contains__, required)):
        return None
    return SimpleNamespace(command=argv[0], **defaults | values)


def _usage(command: str, message: str) -> NoReturn:
    """Exits 2 with ``message`` under ``command``'s usage line, as argparse does."""
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    sub.choices[command].error(message)


def _load_input(args: SimpleNamespace | argparse.Namespace) -> tuple[CoTree, Graph | None]:
    """The input's cotree, and its adjacency when the input is an edge list.
    Only the commands that read the graph build it from a cotree, O(n^2);
    degrees need none, since a leaf's ancestor sum in the cotree is its
    degree."""
    flags = [name for name in ("expr", "cotree", "threshold", "edges")
             if getattr(args, name, None) is not None]
    if len(flags) != 1:
        _usage(args.command, "exactly one of --expr/--cotree/--threshold/--edges is required")
    kind = flags[0]
    if kind == "edges":
        edges = read_edge_list(_read_text(args.edges, "edge list"))
        result = recognize(edges)
        if not isinstance(result, CoTree):
            raise _NotCograph(edges.n, result)
        return result, edges
    text = getattr(args, kind)
    if text.startswith("@"):  # '@' is in none of the three grammars
        text = _read_text(text[1:] if text != "@-" else None, f"--{kind} input")
    parse = {"expr": parse_expr, "cotree": parse_cotree, "threshold": parse_threshold}[kind]
    return parse(text), None


def _read_text(path: str | None, label: str) -> str:
    """The text of the file at ``path``, or of stdin when it is None, read as
    UTF-8 with an optional BOM. Undecodable bytes are malformed input; a
    path that cannot be read raises ``OSError``."""
    try:
        if path is None:
            if sys.stdin is None:  # the process was started with fd 0 closed
                raise OSError("no standard input to read")
            return sys.stdin.buffer.read().decode("utf-8-sig")
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{label} is not UTF-8 text") from exc


# Payloads are the package's acyclic tuples, so the encoder skips its cycle check.
_ENCODER = json.JSONEncoder(separators=(",", ":"), sort_keys=True, check_circular=False)
_SLOT = "\0"  # a listing's place in its payload; no payload string holds a NUL


def _json(payload: dict, **listing: Iterable[str]) -> Iterator[str]:
    """One JSON line as parts to write in turn, the package's tuples as arrays; a ``listing``
    (int rows rendered with ",") goes under its key as arrays, in ``_listing``'s parts."""
    head, slot, tail = _ENCODER.encode(payload | dict.fromkeys(listing, [_SLOT])).partition(
        _ENCODER.encode(_SLOT))  # head ends with the array's "[", tail starts with its "]"
    yield head
    if slot:
        parts = _listing(*listing.values(), ",[", "]")
        yield next(parts)[1:]  # the first row has no "," before it
        yield from parts
    yield tail + "\n"


def _render(sep: str) -> Callable[[Sequence[int]], str]:
    """Ints as text, each followed by ``sep``: parts join by concatenation."""
    return lambda ids: ("%d" + sep) * len(ids) % tuple(ids)


def _listing(rows: Iterable[str], lead: str, end: str) -> Iterator[str]:
    """The lines ``lead + row + end`` of int rows rendered with a separator after
    each int, each row less its last separator, in parts of about ``_PIECE``
    characters; the first line's length sets the lines to a part."""
    rows = map(itemgetter(slice(None, -1)), rows)  # C slices: no Python frame per row
    first = next(rows)
    per = max(1, _PIECE // len(lead + first + end))
    chunk = [first, *islice(rows, per - 1)]
    while chunk:
        yield f"{lead}{(end + lead).join(chunk)}{end}"
        chunk = list(islice(rows, per))


def _fmt_cells(cells: Sequence[Sequence[int]]) -> str:
    return " ".join("{" + ",".join(map(str, c)) + "}" for c in cells)


def _parse_set(text: str) -> tuple[int, ...]:
    """The --set ids, checked here so that a bad id is reported before a
    disconnected input; ``is_controllable`` checks their range 1..n. An id is
    an ASCII digit run. The tree grammars take any decimal digit, and edge
    lists whatever ``int`` takes, ``1_2`` and signs included."""
    parts = [part for part in map(str.strip, text.split(",")) if part]
    try:
        if not all(part.isascii() and part.isdigit() for part in parts):
            raise ValueError(text)
        ids = tuple(map(int, parts))  # raises past int()'s digit limit
    except ValueError as exc:
        raise ParseError(f"--set expects comma-separated integers, got {text!r}") from exc
    if not ids:
        raise ParseError("--set needs at least one vertex id")
    return control._control_vertices(ids)


def _cmd_recognize(args) -> int:
    try:
        tree, _ = _load_input(args)
    except _NotCograph as exc:
        print("not a cograph", file=sys.stderr)
        sys.stdout.writelines(_json({"n": exc.n, "p4": exc.witness}) if args.json
                              else ["P4: " + " ".join(map(str, exc.witness)) + "\n"])
        return 1
    text = serialize_cotree(tree)
    sys.stdout.writelines(_json({"n": tree.n, "cotree": text}) if args.json else [text + "\n"])
    return 0


def _cmd_spectrum(args) -> int:
    tree, _ = _load_input(args)
    if args.modal:  # MODAL_CAP is checked before any other work
        modal = spectral._modal_rows(tree, _render("," if args.json else " "))
    spec = spectral.spectrum(tree)
    if args.json:
        payload = {"n": tree.n, "cotree": serialize_cotree(tree), "spectrum": spec}
        sys.stdout.writelines(_json(payload, **({"modal": modal} if args.modal else {})))
        return 0
    print("spectrum: " + " ".join(f"{v}^{m}" for v, m in spec))
    if args.modal:
        print("modal:")
        sys.stdout.writelines(_listing(modal, "", "\n"))
    return 0


def _cmd_partition(args) -> int:
    tree, _ = _load_input(args)
    cells = control.sibling_partition(tree)
    if args.degree:
        degrees, degree_cells = zip(*spectral.degree_partition(tree))
    if args.json:
        payload = {"n": tree.n, "cotree": serialize_cotree(tree), "cells": cells}
        if args.degree:
            payload.update(degree_cells=degree_cells, degrees=degrees)
        sys.stdout.writelines(_json(payload))
        return 0
    print("cells: " + _fmt_cells(cells))
    if args.degree:
        print("degree cells: " + _fmt_cells(degree_cells))
        print("degrees: " + " ".join(map(str, degrees)))
    return 0


def _cmd_leaders(args) -> int:
    tree, _ = _load_input(args)
    control._require_controllable_setting(tree, "min_control_size")  # its name on any error
    cells = control.sibling_partition(tree)
    size = tree.n - len(cells)
    tie = "lowest-ids" if args.tie == "lowest" else "highest-ids"
    if args.all:
        count = prod(map(len, cells))
        if count * tree.n > ALL_SETS_CAP:
            raise SizeCapError(f"leaders --all capped at {ALL_SETS_CAP} for sets x vertices, "
                               f"got {count} x {tree.n}")
        sets = control._min_sets(cells, _render(","))
    if args.json:
        payload = {"n": tree.n, "cotree": serialize_cotree(tree), "cells": cells, "min_size": size}
        sys.stdout.writelines(_json(payload | {"count": count}, sets=sets) if args.all
                              else _json(payload | {"sets": [control._min_set(cells, tie)]}))
        return 0
    print(f"min_size: {size}")
    print("set: " + ",".join(map(str, control._min_set(cells, tie))))
    if args.all:
        print(f"count: {count}")
        sys.stdout.writelines(_listing(sets, "set: ", "\n"))
    return 0


def _cmd_verify(args) -> int:
    tree, graph = _load_input(args)
    if args.cross_check and tree.n > CROSS_CHECK_CAP:
        raise SizeCapError(f"cross-check capped at n <= {CROSS_CHECK_CAP}, got {tree.n}")
    cset = _parse_set(args.set)
    ok = control.is_controllable(tree, cset)
    if args.cross_check:
        crank = control.control_rank(tree, cset)
        rank = oracle.kalman_rank(graph or cotree_to_graph(tree), cset)
        pbh, agree = crank == tree.n, crank == rank and ok == (rank == tree.n)
        if not agree:
            raise _DomainError("cross-check disagreement; this is a bug")
    if args.json:
        payload = {"n": tree.n, "cotree": serialize_cotree(tree), "set": cset, "controllable": ok}
        if args.cross_check:
            payload.update(pbh=pbh, kalman_rank=rank, agree=agree)
        sys.stdout.writelines(_json(payload))
        return 0
    print(f"controllable: {'true' if ok else 'false'}")
    if args.cross_check:
        print(f"pbh: {'true' if pbh else 'false'}")
        print(f"kalman_rank: {rank}")
        print(f"agree: {'true' if agree else 'false'}")
    return 0


def _cmd_oracle(args) -> int:
    tree, graph = _load_input(args)
    if tree.n > oracle.EXHAUSTIVE_CAP:
        raise SizeCapError(f"oracle battery capped at n <= {oracle.EXHAUSTIVE_CAP}, got {tree.n}")
    # the fast path first: it rejects a disconnected or one-vertex input
    # before the super-polynomial searches start
    enum = list(control.enumerate_min_control_sets(tree))
    graph = graph or cotree_to_graph(tree)
    p4_free = oracle.find_p4(graph) is None
    spec = spectral.spectrum(tree)
    roots = tuple(sorted(oracle.integer_roots(oracle.char_poly(laplacian(graph))).items()))
    spectrum_agree = roots == spec
    size, sets = oracle.exhaustive_min_sets(graph)
    control_agree = size == len(enum[0]) and sets == enum
    if args.json:
        sys.stdout.writelines(_json({
            "n": graph.n, "cotree": serialize_cotree(tree), "p4_free": p4_free,
            "spectrum": spec, "oracle_spectrum": roots, "spectrum_agree": spectrum_agree,
            "min_size": size, "sets": sets, "control_agree": control_agree}))
    else:
        print(f"p4_free: {'true' if p4_free else 'false'}")
        print("oracle spectrum: " + " ".join(f"{v}^{m}" for v, m in roots))
        print(f"spectrum_agree: {'true' if spectrum_agree else 'false'}")
        print(f"min_size: {size}")
        print(f"control_agree: {'true' if control_agree else 'false'}")
    if not (p4_free and spectrum_agree and control_agree):
        raise _DomainError("oracle battery found a disagreement; this is a bug")
    return 0


def _cmd_random(args) -> int:
    if args.nodes < 1:
        _usage("random", "--nodes must be at least 1")
    check_vertex_count(args.nodes)
    rng = random.Random(args.seed)
    if args.threshold:
        key, text = "threshold", generate.random_threshold_sequence(args.nodes, rng)
    else:
        key, text = "cotree", serialize_cotree(generate.random_cotree(args.nodes, rng))
    sys.stdout.writelines(_json({"n": args.nodes, key: text}) if args.json else [text + "\n"])
    return 0


_COMMANDS = {
    "recognize": _cmd_recognize,
    "spectrum": _cmd_spectrum,
    "partition": _cmd_partition,
    "leaders": _cmd_leaders,
    "verify": _cmd_verify,
    "oracle": _cmd_oracle,
    "random": _cmd_random,
}


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:  # argparse reports every parse failure by raising SystemExit
        args = _plain_args(argv) or build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, _DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return int(exc.code or 0)
    except MemoryError:
        pass  # reported below, once the failed request's data is freed
    print("error: out of memory", file=sys.stderr)
    return 1


def entry() -> None:
    gc.disable()  # one short request that leaves no cycles: the collector only rescans its data
    sys.exit(main())


if __name__ == "__main__":
    entry()
