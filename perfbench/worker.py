"""Runs one workload in a process of its own: a closed loop with one client.

    python3 worker.py ARGVS.json RESULT.json --src SRC --seconds S --trace 0|1 [--spans PATH]

The client sends a request, an in-process call of ``cographctl.cli.main``
with stdout and stderr captured, and sends the next one only after the
previous one has returned. A pass sends the whole pool once, in order. The
loop sends whole passes until ``S`` seconds of wall time have gone (at least
one pass; a pass is cut short only after 2 S). With ``--trace 1`` it sends
pairs of passes instead, untraced and traced, in blocks of U T T U, so that
a drift in the machine's speed or a warming cache falls on both halves
alike; it sends one block, and more only while the next is expected to end
within ``S`` seconds.

This process only measures. It writes each distinct output of a request to
a file next to RESULT.json, and the parent checks them after this process
has ended, so that neither the checks nor the expected answers count in its
peak memory.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time

import calib
from tracer import Tracer, reads_graph


def load_program(src: str):
    """Import cographctl from ``src`` and nowhere else."""
    sys.path.insert(0, src)
    import cographctl.cli as cli

    where = os.path.realpath(cli.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"cographctl was imported from {where}, not from {src}")
    return cli


def call(cli, argv):
    """One request: (exit code or exception type, stdout, stderr, seconds).
    Only the exception's type is kept: holding the exception would keep its
    traceback, and with it every frame of a deep recursion, alive.

    The request's time includes a full garbage collection after it, which
    frees the reference cycles the request left behind. A long-running
    process pays for that garbage too, so it counts as the program's cost;
    it also starts each request on a collected heap, as a fresh CLI process
    would, so one request's garbage does not lift the next one's peak."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            result = cli.main(argv)
        except Exception as exc:  # the failure is the measurement
            result = type(exc)
        gc.collect()
        elapsed = time.perf_counter() - start
    return result, out.getvalue(), err.getvalue(), elapsed


class Loop:
    """Sends passes of the pool. Each attempt is recorded as (start,
    seconds, exception type name or None, output key or None, scale); the
    output key names the file that holds the exit code, stdout and stderr,
    and the scale turns the seconds into seconds at the reference speed
    (``calib.factor`` of the calibrations just before and just after the
    request). Records are tuples of plain values, which the garbage
    collector stops tracking, so they do not slow down collection."""

    def __init__(self, cli, argvs, outdir):
        self.cli = cli
        self.argvs = argvs
        self.outdir = outdir
        self.keys = {}  # (request index, output digest) -> output key
        self.last = None  # the latest calibration, taken after a request

    def one(self, i, tracer=None):
        before = calib.calibrate() if self.last is None else self.last
        if tracer is not None:
            tracer.start_request(i)
        start = time.perf_counter()
        result, out, err, elapsed = call(self.cli, self.argvs[i])
        if tracer is not None:
            tracer.end_request()
        self.last = calib.calibrate()
        scale = calib.factor(before, self.last)
        if isinstance(result, type):
            return (start, elapsed, result.__name__, None, scale)
        digest = hashlib.sha256(f"{result}\0{out}\0{err}".encode()).digest()
        key = self.keys.get((i, digest))
        if key is None:
            key = f"out-{len(self.keys)}"
            with open(os.path.join(self.outdir, key + ".json"), "w", encoding="utf-8") as fh:
                json.dump({"exit": result, "stdout": out, "stderr": err}, fh)
            self.keys[(i, digest)] = key
        return (start, elapsed, None, key, scale)

    def one_pass(self, tracer=None, deadline=None):
        """The pool once, in order; cut short only past ``deadline``."""
        attempts = []
        for i in range(len(self.argvs)):
            if deadline is not None and time.perf_counter() > deadline:
                break
            attempts.append(self.one(i, tracer))
        return attempts

    def run(self, seconds):
        """Whole passes until ``seconds`` of wall time."""
        start = time.perf_counter()
        passes = []
        while not passes or time.perf_counter() - start < seconds:
            passes.append(self.one_pass(deadline=start + 2 * seconds))
        return passes

    def run_paired(self, seconds, tracer):
        """Untraced and traced passes in the order U T T U, repeated while
        one more such block is expected to end within ``seconds`` of wall
        time (at least one block); returns both lists of passes, in which
        the k-th untraced pass and the k-th traced pass form a pair."""
        start = time.perf_counter()
        plain, traced = [], []
        block = 0.0
        while not plain or time.perf_counter() - start + block <= seconds:
            block_start = time.perf_counter()
            for with_tracer in (False, True, True, False):
                if with_tracer:
                    missing = tracer.install()
                    try:
                        traced.append(self.one_pass(tracer))
                    finally:
                        tracer.uninstall()
                else:
                    plain.append(self.one_pass())
            block = time.perf_counter() - block_start
        return plain, traced, missing


def busy(attempts, scaled):
    """Summed request time of some attempts, at the reference speed if
    ``scaled``."""
    return sum(a[1] * (a[4] if scaled else 1) for a in attempts)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("argvs")
    ap.add_argument("result")
    ap.add_argument("--src", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spans")
    args = ap.parse_args()

    cli = load_program(args.src)
    with open(args.argvs, encoding="utf-8") as fh:
        argvs = json.load(fh)
    outdir = os.path.dirname(os.path.abspath(args.result))
    # What is loaded now lives for the whole run; the collection after each
    # request then has to look only at what that request left behind.
    gc.collect()
    gc.freeze()

    loop = Loop(cli, argvs, outdir)
    result = {}
    if args.trace == 0:
        passes = loop.run(args.seconds)
    else:
        tracer = Tracer()
        passes, traced, missing = loop.run_paired(args.seconds, tracer)
        metrics = tracer.metrics(len(traced), {i for i, a in enumerate(argvs) if reads_graph(a)})
        # traced throughput / untraced throughput, as the median over pairs
        for name, scaled in (("trace.overhead", True), ("trace.overhead_raw", False)):
            metrics[name] = statistics.median(
                busy(u, scaled) / busy(t, scaled) for u, t in zip(passes, traced))
        result["trace"] = {"metrics": metrics, "missing": missing,
                           "inclusive_s": tracer.inclusive(len(traced)), "passes": traced}
        if args.spans:
            tracer.write(args.spans)
    result["passes"] = passes
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
