"""Deterministic random generators for test corpora.

The cotree sampler draws a recursive composition of the leaf count with
alternating labels. It covers every canonical cotree shape but is not a
uniform distribution over cographs; it exists to feed test corpora, not to
do statistics.
"""

from __future__ import annotations

import random

from .cotree import CoTree


def random_cotree(n: int, rng: random.Random, root_label: int = 1) -> CoTree:
    """Random cotree on n leaves. ``root_label`` 1 yields a
    connected cograph, 0 a disconnected one (needs n >= 2)."""
    if n < 1:
        raise ValueError("need at least one leaf")
    if type(root_label) is not int or root_label not in (0, 1):  # True and 1.0 are not labels
        raise ValueError("root label must be 0 or 1")
    if n == 1 and root_label == 0:
        raise ValueError("a single vertex is connected; root label 0 needs n >= 2")
    # Preorder walk over (size, label, parent); drawing each node's split
    # before its children's keeps the stream of random draws in preorder.
    parents: list[int | None] = []
    labels: list[int | None] = []
    stack: list[tuple[int, int, int | None]] = [(n, root_label, None)]
    while stack:
        size, label, parent = stack.pop()
        idx = len(parents)
        parents.append(parent)
        if size == 1:
            labels.append(None)
            continue
        labels.append(label)
        k = rng.randint(2, size)
        cuts = sorted(rng.sample(range(1, size), k - 1))
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [size])]
        stack.extend((s, 1 - label, idx) for s in reversed(sizes))
    return CoTree._trusted(parents, labels, range(1, n + 1))


def random_threshold_sequence(n: int, rng: random.Random) -> str:
    """Random construction sequence as the bit string that ``parse_threshold``
    reads: first bit 0, the rest uniform."""
    if n < 1:
        raise ValueError("need at least one vertex")
    return "0" + "".join(str(rng.randint(0, 1)) for _ in range(n - 1))
