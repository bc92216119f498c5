"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Derived golden values were confirmed against the brute-force oracles
(characteristic polynomial roots, Kalman rank) before being frozen here.
"""

import json
import random
import time
from collections import Counter
from itertools import combinations

from cographctl import (
    Graph,
    char_poly,
    cotree_to_graph,
    enumerate_min_control_sets,
    integer_roots,
    is_controllable,
    is_p4_free,
    kalman_rank,
    laplacian,
    min_control_size,
    modal_matrix,
    parse_expr,
    parse_threshold,
    pbh_check,
    random_cotree,
    recognize,
    sibling_partition,
    spectrum,
    threshold_to_cotree,
    threshold_to_graph,
    updated_eigenvalue,
)
from cographctl.cli import main
from cographctl.cotree import CoTree

from helpers import (
    EIGHT_NODE_TEXT,
    THRESHOLD_EXAMPLE,
    column_eigenvalues,
    cotree_corpus,
    degree_sequence,
    diagonal,
    matmul,
)

EIGHT_NODE_SETS = {(1, 6, 7), (2, 6, 7), (1, 6, 8), (2, 6, 8), (1, 7, 8), (2, 7, 8)}

_CACHE: dict = {}


def _corpus_n6():
    """At least 200 random connected cotrees with n <= 6, built once."""
    if "n6" not in _CACHE:
        trees = cotree_corpus(205, 6, seed=20250)
        _CACHE["n6"] = [(t, cotree_to_graph(t)) for t in trees]
    return _CACHE["n6"]


def _kalman_table():
    """subset -> controllable (by Kalman rank), for every corpus graph."""
    if "kalman" not in _CACHE:
        table = []
        for t, g in _corpus_n6():
            verdict = {}
            for size in range(t.n + 1):
                for subset in combinations(range(1, t.n + 1), size):
                    verdict[subset] = kalman_rank(g, subset) == t.n
            table.append((t, g, verdict))
        _CACHE["kalman"] = table
    return _CACHE["kalman"]


def test_criterion_1_eight_node_leader_enumeration(capsys):
    start = time.perf_counter()
    code = main(["leaders", "--cotree", EIGHT_NODE_TEXT, "--all", "--json"])
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert code == 0
    assert payload["min_size"] == 3
    assert {tuple(s) for s in payload["sets"]} == EIGHT_NODE_SETS
    assert payload["count"] == 6
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    with capsys.disabled():
        print(f"\nCRITERION 1 PASS: 8-node two-cell example, min_size 3, "
              f"six exact sets ({elapsed:.3f}s)")


def test_criterion_2_threshold_reproduction(capsys):
    start = time.perf_counter()
    seq = parse_threshold(THRESHOLD_EXAMPLE)
    g = threshold_to_graph(seq)
    assert degree_sequence(g) == [3, 3, 2, 4, 1, 1, 6]
    t = threshold_to_cotree(seq)
    cells = sibling_partition(t).cells
    assert cells == ((1, 2), (3,), (4,), (5, 6), (7,))
    assert min_control_size(t) == 2
    spec = spectrum(t)
    assert spec.pairs == ((0, 1), (1, 2), (2, 1), (4, 1), (5, 1), (7, 1))
    # confirm the frozen spectrum against the characteristic polynomial oracle
    assert integer_roots(char_poly(laplacian(g))) == Counter(dict(spec.pairs))
    code = main(["spectrum", "--threshold", THRESHOLD_EXAMPLE, "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["spectrum"] == [[0, 1], [1, 2], [2, 1], [4, 1], [5, 1], [7, 1]]
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    with capsys.disabled():
        print(f"CRITERION 2 PASS: threshold 0101001 degrees/cells/min/spectrum "
              f"({elapsed:.3f}s)")


def test_criterion_3_complete_and_bipartite_families(capsys):
    start = time.perf_counter()
    for n in range(2, 9):
        t = parse_expr("*".join(["."] * n))
        assert min_control_size(t) == n - 1
        sets = list(enumerate_min_control_sets(t))
        assert len(sets) == n
        assert {s.vertices for s in sets} == {
            tuple(v for v in range(1, n + 1) if v != drop) for drop in range(1, n + 1)
        }
    for n1 in range(1, 8):
        for n2 in range(n1, 8):
            if n1 + n2 > 8:
                continue
            expr = f"({'+'.join(['.'] * n1)})*({'+'.join(['.'] * n2)})"
            t = parse_expr(expr)
            if n1 == n2 == 1:
                # K_{1,1} is K_2: its two vertices are siblings, so the exact
                # minimum is 1, matching the complete-graph family above
                assert min_control_size(t) == 1
            else:
                assert min_control_size(t) == n1 + n2 - 2
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    with capsys.disabled():
        print(f"CRITERION 3 PASS: K_n and K_(a,b) minimum sizes, 2<=n<=8 "
              f"({elapsed:.3f}s)")


def test_criterion_4_spectrum_oracle_equivalence(capsys):
    start = time.perf_counter()
    trees = cotree_corpus(500, 8, seed=20251, mixed_roots=True)
    assert len(trees) >= 500
    for t in trees:
        g = cotree_to_graph(t)
        L = laplacian(g)
        spec = spectrum(t)
        assert integer_roots(char_poly(L)) == Counter(dict(spec.pairs))
        V = modal_matrix(t)
        D = diagonal(column_eigenvalues(t))
        assert matmul(L, V) == matmul(V, D)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    with capsys.disabled():
        print(f"CRITERION 4 PASS: {len(trees)} random cotrees, closed-form "
              f"spectrum == char-poly roots, exact L*V == V*D ({elapsed:.3f}s)")


def test_criterion_5_controllability_triple_agreement(capsys):
    start = time.perf_counter()
    table = _kalman_table()
    assert len(table) >= 200
    checked = 0
    for t, g, verdict in table:
        for subset, kalman_ok in verdict.items():
            cell_ok = is_controllable(t, subset)
            pbh_ok = pbh_check(t, subset)
            assert cell_ok == pbh_ok == kalman_ok, (subset, t)
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    with capsys.disabled():
        print(f"CRITERION 5 PASS: {len(table)} connected cotrees, {checked} "
              f"subsets, cell test == PBH == Kalman ({elapsed:.1f}s)")


def test_criterion_6_minimum_exactness(capsys):
    start = time.perf_counter()
    table = _kalman_table()
    for t, g, verdict in table:
        size = min_control_size(t)
        enumerated = {s.vertices for s in enumerate_min_control_sets(t)}
        for cset in enumerated:
            assert verdict[cset]
        controllable_exact = {s for s in verdict if len(s) == size and verdict[s]}
        assert controllable_exact == enumerated
        for s, ok in verdict.items():
            if len(s) < size:
                assert not ok
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        print(f"CRITERION 6 PASS: exact minimum, all enumerated sets "
              f"controllable, enumeration complete ({elapsed:.1f}s)")


def test_criterion_7_structural_identities(capsys):
    start = time.perf_counter()
    trees = cotree_corpus(500, 8, seed=20251, mixed_roots=True)
    trees += [t for t, _, _ in _kalman_table()]
    for t in trees:
        internals = t.internal_ids()
        # leaf count identity
        assert sum(len(t.children(v)) - 1 for v in internals) == t.n - 1
        # a sibling pair exists whenever n > 1
        if t.n > 1:
            assert any(len(c) >= 2 for c in sibling_partition(t).cells)
        # ancestor pairs carry distinct updated eigenvalues
        for w in internals:
            for v in t.path_to_root(w)[1:]:
                assert updated_eigenvalue(t, v) != updated_eigenvalue(t, w)
        # leaf supports intersect only along ancestor chains
        for a in internals:
            for b in internals:
                if a == b:
                    continue
                related = a in t.path_to_root(b) or b in t.path_to_root(a)
                assert bool(t.leaves_below(a) & t.leaves_below(b)) == related
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        print(f"CRITERION 7 PASS: structural identities on {len(trees)} "
              f"corpus cotrees ({elapsed:.1f}s)")


def test_criterion_8_recognition_soundness(capsys):
    start = time.perf_counter()
    rng = random.Random(20252)
    graphs = []
    for _ in range(500):
        n = rng.randint(1, 8)
        p = rng.random()
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < p
        ]
        graphs.append(Graph.from_edges(n, edges))
    for _ in range(500):
        n = rng.randint(1, 8)
        label = 1 if n == 1 else rng.randint(0, 1)
        graphs.append(cotree_to_graph(random_cotree(n, rng, root_label=label)))
    assert len(graphs) >= 1000
    cograph_count = 0
    for g in graphs:
        result = recognize(g)
        free = is_p4_free(g)
        if isinstance(result, CoTree):
            cograph_count += 1
            assert free
            assert cotree_to_graph(result) == g
        else:
            assert not free
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    with capsys.disabled():
        print(f"CRITERION 8 PASS: {len(graphs)} random graphs "
              f"({cograph_count} cographs), recognition == P4 search, "
              f"round-trips exact ({elapsed:.1f}s)")
