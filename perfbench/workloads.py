"""The three workloads: seeded request pools with their expected answers.

A pool is a list of requests ``{"id", "family", "argv", "truth"}``. One pass
of a run sends every request of the pool once, in the pool's order, as an
in-process call of ``cographctl.cli.main(argv)``. Sizes are fixed, evenly
spaced ladders; the seed draws the shapes, the cotree text, the control
sets and the order. Every seed thus gives a pool of the same cost profile,
which keeps the seed-to-seed spread of the metrics small.

The deep families take depths on both sides of the recursion ceiling the
program has today (about 333 levels): the lower range ends at 290 levels and
the upper one starts at 360, so the split holds with the few extra frames the
harness and the tracer add.
"""

from __future__ import annotations

import os
import random

import gen
from check import truth_for_rows, truth_for_tree

WORKLOADS = ("cotree-analyze", "edges-recognize", "exact-oracles")

DEEP_BELOW = (120, 290)
DEEP_ABOVE = (360, 560)
DENSE_BAND = (0.65, 0.8)  # edge density of the dense random cographs


def ladder(lo: int, hi: int, k: int) -> list[int]:
    """k evenly spaced sizes from lo to hi; the midpoint when k is 1."""
    if k == 1:
        return [round((lo + hi) / 2)]
    return [lo + round(i * (hi - lo) / (k - 1)) for i in range(k)]


def _verify_set(cells, want_controllable: bool):
    """The lowest-ids minimum set (controllable), or that set with one more
    vertex of a non-singleton cell left out (not controllable)."""
    chosen = [v for cell in cells for v in cell[:-1]]
    if not want_controllable:
        cell = next((c for c in cells if len(c) > 1), None)
        if cell is not None:
            chosen.remove(cell[0])
            return sorted(chosen), False
    if not chosen:
        chosen = [v for cell in cells for v in cell]
    return sorted(chosen), True


def _cross_check_set(cells, want_controllable: bool, rng: random.Random):
    """All vertices but two, so that the Kalman oracle's cost depends on n
    alone: the two come from one cell (not controllable) or from two cells
    (controllable)."""
    everyone = sorted(v for cell in cells for v in cell)
    shared = [cell for cell in cells if len(cell) > 1]
    if not want_controllable and shared:
        left_out, ok = rng.sample(rng.choice(shared), 2), False
    elif len(cells) > 1:
        left_out, ok = [rng.choice(cell) for cell in rng.sample(cells, 2)], True
    else:
        left_out, ok = everyone[:1], True
    return [v for v in everyone if v not in left_out], ok


class _Pool:
    def __init__(self, workdir: str, prefix: str, rng: random.Random):
        self.workdir = workdir
        self.prefix = prefix
        self.rng = rng
        self.requests = []

    def add(self, family, argv, truth):
        rid = f"{self.prefix}{family}-{len(self.requests):03d}-{argv[0]}"
        self.requests.append({"id": rid, "family": family, "argv": argv, "truth": truth})

    def add_tree(self, family, flag, text, tree, command, extra=(), bits=None):
        """One request on a cograph; ``command`` may carry its own flags."""
        argv = [command, flag, text, *extra, "--json"]
        needs_rows = "--modal" in extra or "--degree" in extra
        truth = truth_for_tree(tree, 0, threshold_bits=bits, keep_rows=needs_rows)
        if command == "verify":
            want = "want-true" in extra
            if "--cross-check" in extra:
                chosen, ok = _cross_check_set(truth["cells"], want, self.rng)
            else:
                chosen, ok = _verify_set(truth["cells"], want)
            argv = [command, flag, text, "--set", ",".join(map(str, chosen)),
                    *(e for e in extra if e != "want-true"), "--json"]
            truth["set"], truth["controllable"] = chosen, ok
        self.add(family, argv, truth)

    def write_edges(self, name, rows, rng):
        path = os.path.join(self.workdir, f"{self.prefix}{name}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(gen.edge_list_text(len(rows), rows, rng))
        return path


# Commands cycled over the items of a family; "want-true" asks the verify
# request for a controllable set.
_ANALYZE = [("spectrum", ()), ("partition", ()), ("leaders", ()), ("verify", ("want-true",)),
            ("spectrum", ("--modal",)), ("partition", ("--degree",)),
            ("leaders", ("--tie", "highest")), ("verify", ())]
_DEEP = [("spectrum", ()), ("partition", ()), ("leaders", ()), ("verify", ("want-true",))]


def _cotree_analyze(pool: _Pool, rng: random.Random):
    for i, n in enumerate(ladder(60, 280, 32)):
        tree = gen.random_cotree(n, rng)
        command, extra = _ANALYZE[i % len(_ANALYZE)]
        pool.add_tree("random-cotree", "--cotree", gen.to_cotree_text(tree, rng), tree, command, extra)
    plain = [c for c in _ANALYZE if "--modal" not in c[1]]
    for i, n in enumerate(ladder(60, 260, 28)):
        tree = gen.random_cotree(n, rng)
        command, extra = plain[i % len(plain)]
        pool.add_tree("random-expr", "--expr", gen.to_expr_text(tree, compact=i % 2 == 0), tree,
                      command, extra)
    for i, n in enumerate(ladder(60, 320, 24)):
        if i % 3 == 0:
            sizes = [1, n - 1]
        else:
            k = rng.randint(3, 6)
            cuts = sorted(rng.sample(range(1, n), k - 1))
            sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
        tree = gen.multipartite(sizes)
        command, extra = _DEEP[i % len(_DEEP)]
        if i % 2:
            pool.add_tree("wide", "--cotree", gen.to_cotree_text(tree, rng), tree, command, extra)
        else:
            pool.add_tree("wide", "--expr", gen.to_expr_text(tree), tree, command, extra)
    # Below the ceiling, --expr and --cotree input stays under 140 levels:
    # their eager graph build grows with n^2 * depth, and larger sizes would
    # let a single request dominate a pass.
    for family, flag, count, below, offset in (("deep-threshold", "--threshold", 4, DEEP_BELOW, 0),
                                               ("deep-expr", "--expr", 2, (90, 140), 2),
                                               ("deep-cotree", "--cotree", 2, (90, 140), 1)):
        depths = ladder(*below, count) + ladder(*DEEP_ABOVE, count)
        for i, depth in enumerate(depths):
            bits = gen.alternating_bits(depth, rng, doubles=10)
            tree = gen.threshold_cotree(bits)
            text = {"--threshold": bits, "--expr": gen.to_expr_text(tree, compact=False),
                    "--cotree": gen.to_cotree_text(tree)}[flag]
            command, extra = _DEEP[(i + offset) % len(_DEEP)]
            pool.add_tree(family, flag, text, tree, command, extra,
                          bits=bits if flag == "--threshold" else None)


def _dense_cotree(n: int, rng: random.Random):
    """A random cotree on n leaves and its adjacency rows, redrawn until
    the edge density lies in DENSE_BAND. The cost of an edge-list request
    grows with the edge count, and a random cotree's density ranges from
    0.2 to 0.9; the band keeps the cost of the family the same from seed
    to seed."""
    while True:
        tree = gen.random_cotree(n, rng)
        rows = gen.cotree_rows(tree)
        if DENSE_BAND[0] <= sum(r.bit_count() for r in rows) / (n * (n - 1)) <= DENSE_BAND[1]:
            return tree, rows


def _edges_recognize(pool: _Pool, rng: random.Random):
    commands = ["recognize", "spectrum", "leaders"]
    for i, n in enumerate(ladder(60, 300, 28)):
        tree, rows = _dense_cotree(n, rng)
        path = pool.write_edges(f"cograph-{i}", rows, rng)
        pool.add_tree("dense-cograph", "--edges", path, tree, commands[i % 3])
    depths = ladder(*DEEP_BELOW, 3) + ladder(360, 460, 2)
    for i, depth in enumerate(depths):
        bits = gen.alternating_bits(depth, rng, doubles=10)
        path = pool.write_edges(f"threshold-{i}", gen.threshold_rows(bits), rng)
        pool.add_tree("deep-threshold", "--edges", path, gen.threshold_cotree(bits),
                      commands[i % 3], bits=bits)
    for i, n in enumerate(ladder(20, 40, 8)):
        rows = gen.adversarial_rows(n)
        path = pool.write_edges(f"adversarial-{i}", rows, rng)
        pool.add("adversarial", ["recognize", "--edges", path, "--json"], truth_for_rows(rows, 1))
        if i % 4 in (1, 2):
            pool.add("adversarial", ["spectrum", "--edges", path, "--json"], truth_for_rows(rows, 1))
    for i, n in enumerate(ladder(60, 240, 10)):
        rows = gen.planted_random_graph(n, rng)
        path = pool.write_edges(f"noncograph-{i}", rows, rng)
        command = ("recognize", "leaders", "spectrum")[i % 3]
        pool.add("random-noncograph", [command, "--edges", path, "--json"], truth_for_rows(rows, 1))


def _exact_oracles(pool: _Pool, rng: random.Random):
    for i, n in enumerate(ladder(10, 16, 40)):
        extra = ("--cross-check", "want-true") if i % 2 else ("--cross-check",)
        if i % 4 == 3:
            bits = "0" + "".join(rng.choice("01") for _ in range(n - 2)) + "1"
            tree = gen.threshold_cotree(bits)
            pool.add_tree("cross-check", "--threshold", bits, tree, "verify", extra, bits=bits)
            continue
        tree = gen.random_cotree(n, rng)
        if i % 4 == 1:
            pool.add_tree("cross-check", "--expr", gen.to_expr_text(tree), tree, "verify", extra)
        else:
            pool.add_tree("cross-check", "--cotree", gen.to_cotree_text(tree, rng), tree, "verify", extra)
    for i, n in enumerate(ladder(4, 6, 24)):
        tree = gen.multipartite([1, n - 1]) if i % 5 == 4 else gen.random_cotree(n, rng)
        pool.add_tree("oracle", "--cotree", gen.to_cotree_text(tree, rng), tree, "oracle")
    for k in ladder(5, 11, 24):
        tree = gen.multipartite([2] * k)
        pool.add_tree("pair-chain", "--expr", gen.to_expr_text(tree, compact=False), tree,
                      "leaders", ("--all",))
    # Enumeration on deep threshold trees: few sets, but the depth crosses the
    # recursion ceiling, so this workload's failed_share tracks that defect too.
    for depth in ladder(*DEEP_BELOW, 1) + ladder(*DEEP_ABOVE, 1):
        bits = gen.alternating_bits(depth, rng, doubles=rng.randint(2, 8))
        pool.add_tree("deep-enumeration", "--threshold", bits, gen.threshold_cotree(bits),
                      "leaders", ("--all",), bits=bits)


_BUILDERS = {"cotree-analyze": _cotree_analyze, "edges-recognize": _edges_recognize,
             "exact-oracles": _exact_oracles}


def build(workload: str, seed: int, workdir: str, prefix: str = "") -> list[dict]:
    """The requests of one workload for one seed; edge-list files go to
    ``workdir``."""
    rng = random.Random(f"{workload}/{seed}")
    pool = _Pool(workdir, prefix, rng)
    _BUILDERS[workload](pool, rng)
    return pool.requests
