"""Independent answer checks.

Every expected value comes from the benchmark's own generator (``gen``): the
canonical cotree text, the spectrum by the composition rules, the degree
sums, the twin classes, and the adjacency rows. None of it calls the program.
``check`` returns None for a correct answer and a one-line reason otherwise.
"""

from __future__ import annotations

import json
import re

import gen

_P4_IN_MESSAGE = re.compile(r"induced P4 on vertices (\d+) (\d+) (\d+) (\d+)")


def _rows(truth):
    return [int(h, 16) for h in truth["rows"]]


def _p4_reason(rows, witness):
    """None when the four vertex ids induce the path w0-w1-w2-w3."""
    if len(witness) != 4 or len(set(witness)) != 4:
        return f"malformed P4 witness {witness}"
    if not all(1 <= v <= len(rows) for v in witness):
        return f"P4 witness {witness} out of range"
    a, b, c, d = (v - 1 for v in witness)

    def adj(u, v):
        return rows[u] >> v & 1

    if (adj(a, b), adj(b, c), adj(c, d), adj(a, c), adj(b, d), adj(a, d)) != (1, 1, 1, 0, 0, 0):
        return f"vertices {witness} do not induce a path"
    return None


def _spectrum_reason(truth, pairs):
    if any(m < 1 for _, m in pairs) or [v for v, _ in pairs] != sorted({v for v, _ in pairs}):
        return "spectrum pairs not ascending with positive multiplicities"
    if sum(m for _, m in pairs) != truth["n"]:
        return "multiplicities do not sum to n"
    if sum(v * m for v, m in pairs) != truth["deg1"]:
        return "sum of eigenvalues differs from the sum of degrees"
    if sum(v * v * m for v, m in pairs) != truth["deg2"]:
        return "sum of squared eigenvalues differs from sum of d^2 + d"
    if "conjugate" in truth and pairs != truth["conjugate"]:
        return "threshold spectrum differs from the conjugate degree sequence"
    if pairs != truth["spectrum"]:
        return "spectrum differs from the composed spectrum"
    return None


def _modal_reason(truth, modal, pairs):
    """Shape, zero column sums, and L x = lambda x on three columns."""
    n = truth["n"]
    if len(modal) != n or any(len(row) != n - 1 for row in modal):
        return "modal matrix is not n x (n-1)"
    if n == 1:
        return None
    rows = _rows(truth)
    values = {v for v, _ in pairs}
    for j in sorted({0, (n - 1) // 2, n - 2}):
        col = [row[j] for row in modal]
        if sum(col) != 0 or not any(col):
            return f"modal column {j} is zero or not orthogonal to the ones vector"
        lx = []
        for i in range(n):
            acc, nbrs = rows[i].bit_count() * col[i], rows[i]
            while nbrs:
                low = nbrs & -nbrs
                acc -= col[low.bit_length() - 1]
                nbrs ^= low
            lx.append(acc)
        i = next(i for i, x in enumerate(col) if x)
        lam, rem = divmod(lx[i], col[i])
        if rem or lam not in values or any(a != lam * x for a, x in zip(lx, col)):
            return f"modal column {j} is not an eigenvector"
    return None


def _leaders_reason(truth, payload, argv):
    cells = truth["cells"]
    if payload.get("cells") != cells:
        return "cells differ from the twin classes"
    if payload.get("min_size") != truth["n"] - len(cells):
        return "min_size differs from n - p"
    if "--all" in argv:
        sets = gen.min_sets(cells)
        if payload.get("sets") != sets or payload.get("count") != len(sets):
            return "enumerated sets differ from the product of cells"
        return None
    highest = "--tie" in argv and argv[argv.index("--tie") + 1] == "highest"
    chosen = sorted(v for cell in cells for v in (cell[1:] if highest else cell[:-1]))
    if payload.get("sets") != [chosen]:
        return "selected set is not all-but-one of every cell"
    return None


def _verify_reason(truth, payload, argv):
    if payload.get("set") != truth["set"]:
        return "set echo differs"
    if payload.get("controllable") is not truth["controllable"]:
        return "controllable verdict differs from the twin-class test"
    if "--cross-check" in argv:
        ok = truth["controllable"]
        if payload.get("pbh") is not ok:
            return "pbh verdict differs"
        if (payload.get("kalman_rank") == truth["n"]) is not ok:
            return "kalman rank contradicts the verdict"
        if payload.get("agree") is not True:
            return "cross-check does not agree"
    return None


def _oracle_reason(truth, payload):
    if payload.get("p4_free") is not True:
        return "oracle reports an induced P4 in a cograph"
    if payload.get("spectrum") != truth["spectrum"] or payload.get("oracle_spectrum") != truth["spectrum"]:
        return "oracle spectra differ from the composed spectrum"
    if payload.get("spectrum_agree") is not True or payload.get("control_agree") is not True:
        return "oracle battery disagrees"
    cells = truth["cells"]
    if payload.get("min_size") != truth["n"] - len(cells) or payload.get("sets") != gen.min_sets(cells):
        return "oracle minimum sets differ from the product of cells"
    return None


def check(request, rc, stdout, stderr):
    """Why the answer to ``request`` is wrong, or None when it is right."""
    truth, argv = request["truth"], request["argv"]
    if rc != truth["exit"]:
        return f"exit code {rc}, expected {truth['exit']}"
    command = argv[0]
    if rc != 0:
        if command == "recognize":
            try:
                payload = json.loads(stdout)
            except ValueError:
                return "recognize output is not JSON"
            if payload.get("n") != truth["n"]:
                return "n differs"
            return _p4_reason(_rows(truth), payload.get("p4", []))
        found = _P4_IN_MESSAGE.search(stderr)
        if stdout or not found:
            return "rejection carries no P4 witness"
        return _p4_reason(_rows(truth), [int(x) for x in found.groups()])
    try:
        payload = json.loads(stdout)
    except ValueError:
        return "output is not JSON"
    if payload.get("n") != truth["n"]:
        return "n differs"
    if payload.get("cotree") != truth["cotree"]:
        return "cotree differs from the canonical cotree"
    if command == "spectrum":
        pairs = payload.get("spectrum", [])
        reason = _spectrum_reason(truth, pairs)
        if reason is None and "--modal" in argv:
            reason = _modal_reason(truth, payload.get("modal", []), pairs)
        return reason
    if command == "partition":
        if payload.get("cells") != truth["cells"]:
            return "cells differ from the twin classes"
        if "--degree" in argv:
            degs = gen.degrees(_rows(truth))
            by_degree = {}
            for v, d in enumerate(degs, start=1):
                by_degree.setdefault(d, []).append(v)
            order = sorted(by_degree)
            if payload.get("degrees") != order or payload.get("degree_cells") != [by_degree[d] for d in order]:
                return "degree partition differs"
        return None
    if command == "leaders":
        return _leaders_reason(truth, payload, argv)
    if command == "verify":
        return _verify_reason(truth, payload, argv)
    if command == "oracle":
        return _oracle_reason(truth, payload)
    if command == "recognize":
        return None
    return f"no check for command {command}"


def self_test(request, rc, stdout, stderr) -> bool:
    """Whether the checks catch a corrupted answer: ``stdout`` is a correct
    answer that carries a spectrum, and one of its eigenvalues is changed."""
    payload = json.loads(stdout)
    payload["spectrum"][-1][0] += 1
    return check(request, rc, json.dumps(payload), stderr) is not None


def truth_for_tree(tree, expected_exit, threshold_bits=None, keep_rows=False):
    """Expected answers for a cograph given as a canonical nested cotree."""
    rows = gen.threshold_rows(threshold_bits) if threshold_bits else gen.cotree_rows(tree)
    degs = gen.degrees(rows)
    truth = {
        "exit": expected_exit,
        "n": len(rows),
        "cotree": gen.to_cotree_text(tree),
        "spectrum": sorted([v, m] for v, m in gen.composed_spectrum(tree).items()),
        "deg1": sum(degs),
        "deg2": sum(d * d + d for d in degs),
        "cells": gen.twin_classes(rows),
    }
    if threshold_bits:
        truth["conjugate"] = sorted([v, m] for v, m in gen.conjugate_spectrum(degs).items())
    if keep_rows:
        truth["rows"] = [format(r, "x") for r in rows]
    return truth


def truth_for_rows(rows, expected_exit):
    """Expected answers for a graph known only by its adjacency (non-cographs)."""
    return {"exit": expected_exit, "n": len(rows), "rows": [format(r, "x") for r in rows]}
