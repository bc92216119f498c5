"""Command-line front end.

Exactly one input flag (--expr, --cotree, --threshold, --edges) feeds each
analysis command. Results go to stdout (text, or a stable JSON schema with
--json); diagnostics go to stderr. Exit codes: 0 success, 1 domain errors
(not a cograph, disconnected input, size cap), 2 usage errors (bad flags or
unparseable input).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from collections import Counter
from typing import Sequence

from . import control, generate, oracle, spectral, threshold
from .cotree import CoTree, P4Witness, canonicalize, cotree_to_graph, recognize
from .errors import ParseError
from .graphs import Graph, laplacian
from .parsing import (
    check_vertex_count,
    parse_cotree,
    parse_expr,
    parse_threshold,
    read_edge_list,
    serialize_cotree,
    threshold_to_cotree,
)


class _DomainError(Exception):
    """Wraps a domain failure already formatted for the user."""


class _NotCograph(_DomainError):
    """An edge-list input with an induced P4; keeps the witness for
    ``recognize``, which reports it as its answer."""

    def __init__(self, n: int, witness: P4Witness):
        super().__init__("input graph is not a cograph: induced P4 on vertices "
                         + " ".join(str(v) for v in witness.vertices))
        self.n = n
        self.witness = witness


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--expr", help="cograph expression, e.g. '(.+.)*(.+.+.)'")
    p.add_argument("--cotree", help="cotree text, e.g. '1(0(1,2),3)'")
    p.add_argument("--threshold", help="threshold construction bits, e.g. 0101001")
    p.add_argument("--edges", help="path to an edge-list file ('n m' header)")
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")


def build_parser() -> argparse.ArgumentParser:
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


def _check_one_input(parser: argparse.ArgumentParser, args: argparse.Namespace) -> str:
    flags = [name for name in ("expr", "cotree", "threshold", "edges")
             if getattr(args, name, None) is not None]
    if len(flags) != 1:
        parser.error("exactly one of --expr/--cotree/--threshold/--edges is required")
    return flags[0]


def _load_input(
    parser: argparse.ArgumentParser, args: argparse.Namespace, graph: bool = False
) -> tuple[CoTree, Graph | None]:
    """The input's canonical cotree, and its adjacency when ``graph`` is set
    or the input is an edge list; otherwise the O(n^2) graph is never built."""
    kind = _check_one_input(parser, args)
    if kind == "edges":
        with open(args.edges, encoding="utf-8") as fh:
            edges = read_edge_list(fh.read())
        result = recognize(edges)
        if isinstance(result, P4Witness):
            raise _NotCograph(edges.n, result)
        return result, edges
    if kind == "expr":
        tree = parse_expr(args.expr)
    elif kind == "cotree":
        tree = canonicalize(parse_cotree(args.cotree))
    else:
        tree = threshold_to_cotree(parse_threshold(args.threshold))
    return tree, cotree_to_graph(tree) if graph else None


def _emit(args: argparse.Namespace, payload: dict, text_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, separators=(",", ":"), sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _spectrum_pairs(spec: spectral.Spectrum) -> list[list[int]]:
    return [[value, mult] for value, mult in spec.pairs]


def _cells_payload(cells: Sequence[Sequence[int]]) -> list[list[int]]:
    return [list(c) for c in cells]


def _fmt_cells(cells: Sequence[Sequence[int]]) -> str:
    return " ".join("{" + ",".join(str(v) for v in c) + "}" for c in cells)


def _parse_set(text: str) -> control.ControlSet:
    try:
        ids = tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError as exc:
        raise ParseError(f"--set expects comma-separated integers, got {text!r}") from exc
    if not ids:
        raise ParseError("--set needs at least one vertex id")
    return control.ControlSet(ids)


def _cmd_recognize(args, parser) -> int:
    try:
        tree, _ = _load_input(parser, args)
    except _NotCograph as exc:
        witness = list(exc.witness.vertices)
        print("not a cograph", file=sys.stderr)
        _emit(args, {"n": exc.n, "p4": witness}, ["P4: " + " ".join(str(v) for v in witness)])
        return 1
    _emit(args, {"n": tree.n, "cotree": serialize_cotree(tree)}, [serialize_cotree(tree)])
    return 0


def _cmd_spectrum(args, parser) -> int:
    tree, _ = _load_input(parser, args)
    spec = spectral.spectrum(tree)
    payload = {"n": tree.n, "cotree": serialize_cotree(tree),
               "spectrum": _spectrum_pairs(spec)}
    lines = ["spectrum: " + " ".join(f"{v}^{m}" for v, m in spec.pairs)]
    if args.modal:
        modal = spectral.modal_matrix(tree)
        payload["modal"] = [list(row) for row in modal.entries]
        lines.append("modal:")
        lines.extend(" ".join(str(x) for x in row) for row in modal.entries)
    _emit(args, payload, lines)
    return 0


def _cmd_partition(args, parser) -> int:
    tree, graph = _load_input(parser, args, graph=args.degree)
    cells = control.sibling_partition(tree).cells
    payload = {"n": tree.n, "cotree": serialize_cotree(tree),
               "cells": _cells_payload(cells)}
    lines = ["cells: " + _fmt_cells(cells)]
    if args.degree:
        deg = threshold.degree_partition(graph)
        payload["degree_cells"] = _cells_payload(deg.cells)
        payload["degrees"] = list(deg.degrees)
        lines.append("degree cells: " + _fmt_cells(deg.cells))
        lines.append("degrees: " + " ".join(str(d) for d in deg.degrees))
    _emit(args, payload, lines)
    return 0


def _cmd_leaders(args, parser) -> int:
    tree, _ = _load_input(parser, args)
    tie = "lowest-ids" if args.tie == "lowest" else "highest-ids"
    size = control.min_control_size(tree)
    cells = control.sibling_partition(tree).cells
    selected = control.select_min_control_set(tree, tie)
    payload = {"n": tree.n, "cotree": serialize_cotree(tree),
               "cells": _cells_payload(cells), "min_size": size}
    lines = [f"min_size: {size}",
             "set: " + ",".join(str(v) for v in selected.vertices)]
    if args.all:
        sets = [list(s.vertices) for s in control.enumerate_min_control_sets(tree)]
        payload["sets"] = sets
        payload["count"] = control.count_min_control_sets(tree)
        lines.append(f"count: {payload['count']}")
        lines.extend("set: " + ",".join(str(v) for v in s) for s in sets)
    else:
        payload["sets"] = [list(selected.vertices)]
    _emit(args, payload, lines)
    return 0


def _cmd_verify(args, parser) -> int:
    tree, graph = _load_input(parser, args, graph=args.cross_check)
    cset = _parse_set(args.set)
    ok = control.is_controllable(tree, cset)
    payload = {"n": tree.n, "cotree": serialize_cotree(tree),
               "set": list(cset.vertices), "controllable": ok}
    lines = [f"controllable: {'true' if ok else 'false'}"]
    if args.cross_check:
        pbh = control.pbh_check(tree, cset)
        rank = oracle.kalman_rank(graph, cset.vertices)
        agree = (pbh == ok) and ((rank == tree.n) == ok)
        payload.update({"pbh": pbh, "kalman_rank": rank, "agree": agree})
        lines.append(f"pbh: {'true' if pbh else 'false'}")
        lines.append(f"kalman_rank: {rank}")
        lines.append(f"agree: {'true' if agree else 'false'}")
        if not agree:
            raise _DomainError("cross-check disagreement; this is a bug")
    _emit(args, payload, lines)
    return 0


def _cmd_oracle(args, parser) -> int:
    tree, graph = _load_input(parser, args, graph=True)
    if graph.n > oracle.EXHAUSTIVE_CAP:
        raise _DomainError(
            f"oracle battery capped at n <= {oracle.EXHAUSTIVE_CAP}, got {graph.n}"
        )
    p4_free = oracle.is_p4_free(graph)
    spec = spectral.spectrum(tree)
    roots = oracle.integer_roots(oracle.char_poly(laplacian(graph)))
    spectrum_agree = roots == Counter(dict(spec.pairs))
    size, sets = oracle.exhaustive_min_sets(graph)
    enum = [list(s.vertices) for s in control.enumerate_min_control_sets(tree)]
    control_agree = (size == control.min_control_size(tree)
                     and [list(s) for s in sets] == enum)
    payload = {
        "n": graph.n,
        "cotree": serialize_cotree(tree),
        "p4_free": p4_free,
        "spectrum": _spectrum_pairs(spec),
        "oracle_spectrum": [[v, m] for v, m in sorted(roots.items())],
        "spectrum_agree": spectrum_agree,
        "min_size": size,
        "sets": [list(s) for s in sets],
        "control_agree": control_agree,
    }
    lines = [
        f"p4_free: {'true' if p4_free else 'false'}",
        "oracle spectrum: " + " ".join(f"{v}^{m}" for v, m in sorted(roots.items())),
        f"spectrum_agree: {'true' if spectrum_agree else 'false'}",
        f"min_size: {size}",
        f"control_agree: {'true' if control_agree else 'false'}",
    ]
    _emit(args, payload, lines)
    if not (p4_free and spectrum_agree and control_agree):
        raise _DomainError("oracle battery found a disagreement; this is a bug")
    return 0


def _cmd_random(args, parser) -> int:
    if args.nodes < 1:
        parser.error("--nodes must be at least 1")
    check_vertex_count(args.nodes)
    rng = random.Random(args.seed)
    if args.threshold:
        seq = generate.random_threshold_sequence(args.nodes, rng)
        _emit(args, {"n": seq.n, "threshold": str(seq)}, [str(seq)])
    else:
        tree = generate.random_cotree(args.nodes, rng)
        _emit(args, {"n": tree.n, "cotree": serialize_cotree(tree)},
              [serialize_cotree(tree)])
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args, parser)
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


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
