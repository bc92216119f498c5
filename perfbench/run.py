"""cographctl benchmark: three CLI request mixes, measured in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The program is imported from ``src/`` of the
checkout that holds this file; without it the benchmark exits with code 2.

Each run:
  1. (``--trace 0`` only) times ``setup_s``: the median of fresh-interpreter
     launches that import cographctl and run one trivial command;
  2. builds the workload's request pool from the seed (``workloads.py``) and
     writes its edge-list files to a scratch directory under ``.perfbench/``;
  3. runs the workload in a child process of its own (``worker.py``), so
     that ``peak_rss_mb`` belongs to that workload alone;
  4. prints each metric by name and unit, the failures per shape family and
     exception type, the environment, and last the JSON result line.

Results and traced spans are also written to ``.perfbench/``.
``golden.json`` is written by ``record_golden.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict

import calib
import check
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
GOLDEN = os.path.join(HERE, "golden.json")
GOLDEN_SEED = 0
SETUP_LAUNCHES = 15
RUN_LIMIT_S = 170


END_TO_END = {
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "failed_share": "share",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# The trivial command of a setup launch, and its exact output.
SETUP_ARGV = ["spectrum", "--expr", ".*.", "--json"]
SETUP_STDOUT = '{"cotree":"1(1,2)","n":2,"spectrum":[[0,1],[2,1]]}\n'


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def measure_setup() -> float:
    """Median time, at the reference speed, of fresh interpreters that import
    cographctl and run one trivial command, as every CLI invocation does."""
    code = "import sys; from cographctl.cli import main; sys.exit(main(sys.argv[1:]))"
    argv = [sys.executable, "-c", code, *SETUP_ARGV]
    env = program_env()
    times = []
    before = calib.calibrate()
    for _ in range(SETUP_LAUNCHES):
        start = time.perf_counter()
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0 or proc.stdout != SETUP_STDOUT:
            raise RuntimeError(f"setup command failed: {proc.returncode} {proc.stderr.strip()}")
        after = calib.calibrate()
        times.append(elapsed * calib.factor(before, after))
        before = after
    return statistics.median(times)


def source_digest() -> str:
    """sha256 over the program's source files, for runs outside a git tree."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "cographctl")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_revision() -> str | None:
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "system": platform.system(),
        "release": platform.release(),
        "cpus": os.cpu_count(),
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "recursion_limit": sys.getrecursionlimit(),
    }


def load_golden(workload: str) -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)["workloads"][workload]


def prepare(workload: str, seed: int, workdir: str) -> list[dict]:
    """The run's pool: the seed's requests plus the golden corpus (the same
    requests built from seed 0), in an order drawn from the seed. The worker
    gets only the argument lists. The golden half is the same for every
    seed, which halves the part of the pool whose cost varies with the seed
    and so makes the latency percentiles steadier from seed to seed."""
    expect = load_golden(workload)["requests"]
    golden = workloads.build(workload, GOLDEN_SEED, workdir, prefix="g-")
    if not set(expect) <= {r["id"] for r in golden}:
        raise RuntimeError("golden.json does not match the golden pool")
    for request in golden:
        if request["id"] in expect:
            request["golden"] = expect[request["id"]]
    pool = workloads.build(workload, seed, workdir) + golden
    random.Random(f"order/{seed}").shuffle(pool)
    with open(os.path.join(workdir, "argvs.json"), "w", encoding="utf-8") as fh:
        json.dump([r["argv"] for r in pool], fh)
    return pool


def run_worker(workdir: str, seconds: int, trace: int, spans: str, budget: float) -> dict:
    argv = [sys.executable, os.path.join(HERE, "worker.py"), os.path.join(workdir, "argvs.json"),
            os.path.join(workdir, "result.json"), "--src", SRC, "--seconds", str(seconds),
            "--trace", str(trace)]
    if trace:
        argv += ["--spans", spans]
    proc = subprocess.run(argv, env=program_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=budget)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    with open(os.path.join(workdir, "result.json"), encoding="utf-8") as fh:
        return json.load(fh)


class Verdicts:
    """Classifies attempts; checks each distinct output once."""

    def __init__(self, pool: list[dict], workdir: str):
        self.pool = pool
        self.workdir = workdir
        self.reasons = {}  # output key -> (exit code, reason or None)
        self.wrong = []
        self.self_tested = False

    def _output(self, i: int, key: str):
        if key not in self.reasons:
            with open(os.path.join(self.workdir, key + ".json"), encoding="utf-8") as fh:
                out = json.load(fh)
            request, rc = self.pool[i], out["exit"]
            reason = None
            if rc == request["truth"]["exit"] or rc == 0:
                reason = check.check(request, rc, out["stdout"], out["stderr"])
                golden = request.get("golden")
                if reason is None and golden is not None and (
                        rc != golden["exit"] or golden_digest(out["stdout"]) != golden["sha256"]):
                    reason = "output differs from the golden record"
                if reason is None and not self.self_tested and '"spectrum":[[' in out["stdout"]:
                    if not check.self_test(request, rc, out["stdout"], out["stderr"]):
                        raise RuntimeError("self-test failed: a changed eigenvalue went unnoticed")
                    self.self_tested = True
            if reason is not None:
                self.wrong.append(f"{request['id']}: {reason}")
            self.reasons[key] = (rc, reason)
        return self.reasons[key]

    def classify(self, passes) -> dict:
        """Per pass: attempts, answers verified correct, busy seconds; plus
        completed latencies and the failures by family and kind. Times are
        scaled to the reference speed."""
        per_pass, latencies, failures = [], [], defaultdict(Counter)
        for attempts in passes:
            ok = 0
            attempts = [(a[1] * a[4], a[2], a[3]) for a in attempts]
            for i, (elapsed, raised, key) in enumerate(attempts):
                family = self.pool[i]["family"]
                if raised is not None:
                    failures[family][raised] += 1
                    continue
                latencies.append(elapsed)
                rc, reason = self._output(i, key)
                if rc != self.pool[i]["truth"]["exit"] and rc != 0:
                    failures[family][f"exit {rc}"] += 1
                elif reason is not None:
                    failures[family]["wrong answer"] += 1
                else:
                    ok += 1
            per_pass.append((len(attempts), ok, sum(a[0] for a in attempts)))
        return {"per_pass": per_pass, "latencies": latencies,
                "failures": {f: dict(k) for f, k in sorted(failures.items())}}


def end_to_end(counts: dict, pool_size: int) -> dict:
    """requests_per_s is the median over whole passes of each pass's verified
    answers per busy second: the summed time of its requests, each with the
    garbage collection after it, but not the client's own bookkeeping and
    calibration between them. A burst of load from outside the process then
    moves it little. Latencies pool every completed attempt of the run."""
    per_pass = counts["per_pass"]
    whole = [p for p in per_pass if p[0] == pool_size] or per_pass
    lat = counts["latencies"]
    attempted = sum(p[0] for p in per_pass)
    return {
        "requests_per_s": statistics.median(ok / busy for _, ok, busy in whole),
        "latency_p50_ms": 1000 * statistics.median(lat),
        "latency_p90_ms": 1000 * statistics.quantiles(lat, n=10, method="inclusive")[-1],
        "failed_share": (attempted - sum(p[1] for p in per_pass)) / attempted,
    }


def report(args, counts: dict, metrics: dict, raw: dict, wrong: list, env: dict) -> dict:
    """Print the human-readable lines; return the final result object."""
    attempted = sum(p[0] for p in counts["per_pass"])
    failed = attempted - sum(p[1] for p in counts["per_pass"])
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(counts['per_pass'])} attempted={attempted} "
          f"latency samples={len(counts['latencies'])}")
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
    if args.trace == 1:
        own = {n.removesuffix(".self_s"): v for n, v in raw["trace"]["metrics"].items()
               if n.endswith(".self_s") and n.count(".") > 1}
        for label, times in (("self", own), ("inclusive", raw["trace"]["inclusive_s"])):
            top = sorted(times.items(), key=lambda kv: -kv[1])[:4]
            print(f"largest {label} time per pass: " + ", ".join(f"{n} {v:.3f} s" for n, v in top))
        if raw["trace"]["missing"]:
            print("not found to trace: " + ", ".join(raw["trace"]["missing"]))
    print("failures by family (beside failed_share):",
          "; ".join(f"{fam}: " + ", ".join(f"{kind} x{n}" for kind, n in sorted(kinds.items()))
                    for fam, kinds in counts["failures"].items()) or "none")
    for line in wrong[:20]:
        print(f"WRONG {line}")
    print("env: " + json.dumps(env, sort_keys=True))
    return {"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}


def golden_digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "cographctl", "cli.py")):
        return fail(f"no program to measure: {os.path.join(SRC, 'cographctl')} is missing")
    os.makedirs(OUT, exist_ok=True)

    started = time.perf_counter()
    env = environment()
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    try:
        setup = measure_setup() if args.trace == 0 else None
        pool = prepare(args.workload, args.seed, workdir)
        raw = run_worker(workdir, args.seconds, args.trace, stem + "-spans.json.gz",
                         RUN_LIMIT_S - (time.perf_counter() - started))
        verdicts = Verdicts(pool, workdir)
        counts = verdicts.classify(raw["passes"])
        if args.trace == 1:
            traced = verdicts.classify(raw["trace"]["passes"])
        if not verdicts.self_tested:
            raise RuntimeError("self-test not run: no correct spectrum answer in this run")
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace == 0:
        values = dict(end_to_end(counts, len(pool)), peak_rss_mb=raw["peak_rss_mb"], setup_s=setup)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    else:
        values = raw["trace"]["metrics"]
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in tracer.layer_metrics()}
    final = report(args, counts, metrics, raw, verdicts.wrong, env)
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "env": env, "failures": counts["failures"],
                   "traced_failures": traced["failures"] if args.trace == 1 else None,
                   "per_pass": counts["per_pass"], "wrong": verdicts.wrong,
                   "inclusive_s": raw.get("trace", {}).get("inclusive_s"), "result": final},
                  fh, indent=1)
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
