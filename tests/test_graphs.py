"""Core graph composition, Laplacians, and the integer matrix type."""

import os
import random
import subprocess
import sys

import pytest

from cographctl import (
    Graph,
    char_poly,
    cotree_to_graph,
    integer_roots,
    laplacian,
    parse_threshold,
    read_edge_list,
    write_edge_list,
)
import cographctl
from cographctl.generate import random_threshold_sequence

from helpers import (
    THRESHOLD_EXAMPLE,
    complement,
    cotree_corpus,
    degree_sequence,
    diagonal,
    is_connected,
    join_of,
    matmul,
    random_graph,
    single,
    threshold_to_graph,
    transpose,
    union_of,
)

K1 = single()


def k(n):
    return join_of([K1] * n)


def test_union_examples():
    g = union_of([K1, K1])
    assert g.n == 2 and sum(map(int.bit_count, g.rows)) // 2 == 0

    g = union_of([k(2), K1])
    assert g.n == 3 and sum(map(int.bit_count, g.rows)) // 2 == 1
    assert g.rows[0] >> 1 & 1 and not g.rows[0] >> 2 & 1


def test_union_of_two_k2_eigenvalues_via_eigensolve_oracle():
    g = union_of([k(2), k(2)])
    roots = integer_roots(char_poly(laplacian(g)))
    assert sorted(roots.elements()) == [0, 0, 2, 2]


def test_join_examples():
    assert sum(map(int.bit_count, join_of([K1, K1]).rows)) // 2 == 1

    star = join_of([K1, union_of([K1, K1])])
    assert star.n == 3 and sum(map(int.bit_count, star.rows)) // 2 == 2
    assert star.rows[0].bit_count() == 2

    for n in range(2, 7):
        assert sum(map(int.bit_count, k(n).rows)) // 2 == n * (n - 1) // 2


def test_empty_part_list_rejected():
    with pytest.raises(ValueError):
        union_of([])
    with pytest.raises(ValueError):
        join_of([])


def test_laplacian_k2_k3():
    assert laplacian(k(2)) == ((1, -1), (-1, 1))
    L3 = laplacian(k(3))
    assert all(L3[i][i] == 2 for i in range(3))
    assert all(L3[i][j] == -1 for i in range(3) for j in range(3) if i != j)


def test_laplacian_threshold_degree_diagonal():
    # oracle: rebuild the same adjacency by folding the construction sequence
    g = threshold_to_graph(THRESHOLD_EXAMPLE)
    folded = K1
    for bit in THRESHOLD_EXAMPLE[1:]:
        folded = (join_of if bit == "1" else union_of)([folded, K1])
    assert folded == g
    L = laplacian(g)
    assert tuple(L[i][i] for i in range(7)) == (3, 3, 2, 4, 1, 1, 6)


def test_laplacian_rows_sum_to_zero_and_symmetric():
    rng = random.Random(7)
    for _ in range(30):
        g = random_graph(rng.randint(1, 9), rng, rng.random())
        L = laplacian(g)
        assert all(sum(row) == 0 for row in L)
        assert L == transpose(L)


def test_complement_and_connectivity():
    assert sum(map(int.bit_count, complement(k(3)).rows)) // 2 == 0
    assert not is_connected(union_of([K1, K1]))
    assert is_connected(join_of([union_of([K1, K1]), k(3)]))
    assert is_connected(K1)


def test_degree_sequence_order():
    g = threshold_to_graph(THRESHOLD_EXAMPLE)
    assert degree_sequence(g) == [3, 3, 2, 4, 1, 1, 6]


def test_composition_associative_up_to_indexing():
    rng = random.Random(11)
    for _ in range(20):
        parts = [random_graph(rng.randint(1, 4), rng) for _ in range(rng.randint(2, 4))]
        for compose in (union_of, join_of):
            folded = parts[0]
            for nxt in parts[1:]:
                folded = compose([folded, nxt])
            assert folded == compose(parts)


def test_complement_involution_and_de_morgan():
    rng = random.Random(13)
    for _ in range(20):
        g = random_graph(rng.randint(1, 8), rng)
        assert complement(complement(g)) == g
    for _ in range(20):
        parts = [random_graph(rng.randint(1, 4), rng) for _ in range(rng.randint(2, 3))]
        assert join_of(parts) == complement(union_of([complement(p) for p in parts]))


def test_graph_validation():
    cases = [
        ((2, (0b01, 0)), "self-loop in adjacency"),  # bit 0 of row 0
        ((1, (1,)), "self-loop in adjacency"),
        ((2, (0b100, 0)), "adjacency bit outside vertex range"),
        ((2, (-1, 0)), "adjacency bit outside vertex range"),
        ((2, (0b10, 0)), "adjacency not symmetric"),
        ((2, (0,)), "adjacency row count does not match n"),
        ((0, ()), "graph needs a positive int vertex count"),
        ((2.0, (0, 0)), "graph needs a positive int vertex count"),
        ((2, ("a", 0)), "adjacency rows must be int bitmasks"),
        ((2, (1.0, 0)), "adjacency rows must be int bitmasks"),
        ((True, (0,)), "graph needs a positive int vertex count"),  # exact ints only
        ((2, (False, False)), "adjacency rows must be int bitmasks"),
        ((2, (0, True)), "adjacency rows must be int bitmasks"),
    ]
    for args, message in cases:
        with pytest.raises(ValueError) as info:
            Graph(*args)
        assert str(info.value) == message, args


def test_symmetry_check_finds_one_bit_on_dense_and_sparse_rows():
    """Rows with n^2 <= 8 * (set bits) are compared with their transpose as
    text, sparser rows bit by bit: on both sides one toggled bit anywhere is
    "adjacency not symmetric", reported only after the range and self-loop
    checks of every row."""
    rng = random.Random(77)
    sides = set()
    for n, p in ((2, 1.0), (40, 0.9), (40, 0.3), (300, 0.02), (300, 0.6), (500, 0.0)):
        rows = random_graph(n, rng, p).rows
        assert Graph(n, rows).rows == rows
        sides.add(n * n <= 8 * sum(r.bit_count() for r in rows))
        for _ in range(6):
            i, j = rng.sample(range(n), 2)
            bad = list(rows)
            bad[i] ^= 1 << j
            with pytest.raises(ValueError, match="^adjacency not symmetric$"):
                Graph(n, tuple(bad))
            for last, message in ((1 << n, "adjacency bit outside vertex range"),
                                  (1 << n - 1, "self-loop in adjacency")):
                with pytest.raises(ValueError, match=f"^{message}$"):
                    Graph(n, (*bad[:-1], bad[-1] | last))
    assert sides == {True, False}


def test_every_graph_that_passes_its_checks_reads_back_from_its_edge_list():
    """``Graph(True, (0,))`` once passed the checks and wrote the header
    ``True 0``, which ``read_edge_list`` refuses: each input here is either
    refused or writes an edge list that reads back as the same graph."""
    refused = 0
    for n, rows in [(True, (0,)), (2, (False, False)), (1, (0,)), (2, (0, 0)),
                    (2, (0b10, 0b01)), (3, (0b110, 0b001, 0b001))]:
        try:
            g = Graph(n, rows)
        except ValueError:
            refused += 1
            continue
        assert read_edge_list(write_edge_list(g)) == g
    assert refused == 2


def test_graph_is_an_immutable_value():
    g = Graph(3, (0b110, 0b001, 0b001))
    for name in ("n", "rows", "extra"):
        with pytest.raises(AttributeError):
            setattr(g, name, 1)
    for name in ("n", "rows"):
        with pytest.raises(AttributeError):
            delattr(g, name)
    assert (g.n, g.rows) == (3, (0b110, 0b001, 0b001))
    same = Graph._trusted(3, (0b110, 0b001, 0b001))
    assert g == same and hash(g) == hash(same) and len({g, same}) == 1
    assert g != Graph(3, (0b010, 0b001, 0))
    assert g != Graph(2, (0b10, 0b01)) and g != (3, g.rows) and (3, g.rows) != g
    assert repr(g) == "Graph(n=3, rows=(6, 1, 1))"


def test_package_imports_no_dataclasses():
    """``dataclasses`` would pull ``inspect`` and more into every CLI start."""
    src = os.path.dirname(os.path.dirname(cographctl.__file__))
    proc = subprocess.run([sys.executable, "-c", "import sys, cographctl.cli; "
                           "print('dataclasses' in sys.modules)"],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
                          timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "False\n")


def test_package_built_graphs_pass_the_public_checks():
    """The reader and the cotree builder skip ``Graph``'s checks; every graph
    they return must pass them."""
    rng = random.Random(41)
    trees = cotree_corpus(60, 14, seed=41, mixed_roots=True)
    trees += [parse_threshold(random_threshold_sequence(rng.randint(1, 14), rng))
              for _ in range(20)]
    graphs = [cotree_to_graph(t) for t in trees]
    graphs += [random_graph(rng.randint(1, 14), rng, rng.random()) for _ in range(60)]
    for g in graphs:
        for built in (g, read_edge_list(write_edge_list(g))):
            assert Graph(built.n, built.rows) == built == g


def test_intmatrix_ops():
    a = ((1, 2), (3, 4))
    assert matmul(a, diagonal([1, 1])) == a
    assert transpose(a) == ((1, 3), (2, 4))
    assert diagonal([5, 7]) == ((5, 0), (0, 7))
    with pytest.raises(ValueError):
        matmul(a, ((1, 2, 3),))
