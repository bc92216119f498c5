"""Machine-speed calibration.

The benchmark runs on shared machines whose speed drifts by 20-50% over tens
of milliseconds to tens of seconds, which is larger than any bound a
regression check could use. ``calibrate`` times a fixed piece of pure-Python
work of the same kind as the program's: big-integer bit rows, dict and list
building, sorting and text formatting. The client runs it between every two
requests, and each request's time is scaled by ``factor``: REFERENCE_S / the
mean of the calibration times just before and just after it. Reported times
are thus at the reference speed: the speed at which ``calibrate`` takes
REFERENCE_S.

This code shares nothing with the program, so no change to the program can
move the reference.
"""

from __future__ import annotations

import time

REFERENCE_S = 0.005


def _work() -> int:
    n = 160
    rows = [0] * n
    seed = 12345
    for i in range(n):
        for j in range(i + 1, n):
            seed = (seed * 1103515245 + 12345) & 0x7FFFFFFF
            if seed >> 16 & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    groups: dict[int, list[int]] = {}
    for i, row in enumerate(rows):
        groups.setdefault(row.bit_count(), []).append(i)
    order = sorted(groups.items())
    text = ",".join(f"{d}:{len(vs)}" for d, vs in order)
    common = sum((rows[i] & rows[i + 1]).bit_count() for i in range(n - 1))
    return len(text) + common


def calibrate() -> float:
    """Seconds the fixed calibration work takes now."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def factor(before: float, after: float) -> float:
    """Scale for a time measured between two calibrations."""
    return REFERENCE_S / ((before + after) / 2)
