"""Span tracer that wraps the program's public functions from outside.

``Tracer.install`` replaces each listed function, in every ``cographctl``
module namespace that binds it, with a wrapper that records one span per
call: name, parent span, request id, start, end, busy duration, the busy
time of its child spans, and whether it raised. ``uninstall`` puts every
original back. Spans stay in memory until ``write``.

A span's self time is its busy duration minus its children's. For a plain
call the busy duration is end - start. ``enumerate_min_control_sets`` is a
generator, so its span covers the time spent inside each ``next`` while the
caller consumes it, not the moment of its creation.

The wrappers do their bookkeeping with C builtins only (clock, list append
and pop), so a RecursionError raised by the wrapped call cannot leave the
span stack half updated.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time

# (reported name, module, attribute path); "Graph.__post_init__" is the
# symmetry and range validation that runs on every Graph construction.
TARGETS = [
    ("parsing.parse_expr", "parsing", "parse_expr"),
    ("parsing.parse_cotree", "parsing", "parse_cotree"),
    ("parsing.parse_threshold", "parsing", "parse_threshold"),
    ("parsing.threshold_to_cotree", "parsing", "threshold_to_cotree"),
    ("parsing.threshold_to_graph", "parsing", "threshold_to_graph"),
    ("parsing.read_edge_list", "parsing", "read_edge_list"),
    ("parsing.serialize_cotree", "parsing", "serialize_cotree"),
    ("cotree.CoTree.from_nested", "cotree", "CoTree.from_nested"),
    ("cotree.canonicalize", "cotree", "canonicalize"),
    ("cotree.cotree_to_graph", "cotree", "cotree_to_graph"),
    ("cotree.recognize", "cotree", "recognize"),
    ("graphs.Graph.validate", "graphs", "Graph.__post_init__"),
    ("graphs.union_of", "graphs", "union_of"),
    ("graphs.join_of", "graphs", "join_of"),
    ("graphs.permuted", "graphs", "permuted"),
    ("graphs.laplacian", "graphs", "laplacian"),
    ("spectral.spectrum", "spectral", "spectrum"),
    ("spectral.modal_matrix", "spectral", "modal_matrix"),
    ("spectral.eigen_blocks", "spectral", "eigen_blocks"),
    ("control.sibling_partition", "control", "sibling_partition"),
    ("control.select_min_control_set", "control", "select_min_control_set"),
    ("control.enumerate_min_control_sets", "control", "enumerate_min_control_sets"),
    ("control.is_controllable", "control", "is_controllable"),
    ("control.pbh_check", "control", "pbh_check"),
    ("threshold.degree_partition", "threshold", "degree_partition"),
    ("oracle.kalman_rank", "oracle", "kalman_rank"),
    ("oracle.char_poly", "oracle", "char_poly"),
    ("oracle.integer_roots", "oracle", "integer_roots"),
    ("oracle.exhaustive_min_sets", "oracle", "exhaustive_min_sets"),
    ("oracle.is_p4_free", "oracle", "is_p4_free"),
    ("cli.main", "cli", "main"),
]
MODULES = ("parsing", "cotree", "graphs", "spectral", "control", "threshold", "oracle", "cli")
GENERATORS = {"control.enumerate_min_control_sets"}
GRAPH_BUILDS = {"cotree.cotree_to_graph", "parsing.threshold_to_graph", "parsing.read_edge_list"}


def reads_graph(argv) -> bool:
    """Whether the command uses the graph itself, not only the cotree."""
    return (argv[0] == "oracle" or "--edges" in argv
            or (argv[0] == "partition" and "--degree" in argv)
            or (argv[0] == "verify" and "--cross-check" in argv))


# span record fields
NAME, PARENT, RID, START, END, BUSY, CHILD, ERR = range(8)


def layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for name, _, _ in TARGETS:
        out += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
    for module in MODULES:
        out += [(f"{module}.self_s", "s", "lower"), (f"{module}.errors", "count", "lower")]
    out += [("cotree.cotree_to_graph.useful_share", "share", "higher"),
            ("trace.overhead", "ratio", "higher"), ("trace.overhead_raw", "ratio", "higher")]
    return out


class Tracer:
    def __init__(self):
        self.names = [name for name, _, _ in TARGETS]
        self.spans: list = []
        self.stack: list[int] = []
        self.rid = -1
        self._first = 0  # index of the current request's first span
        self._restore: list[tuple] = []

    # -- wrappers ------------------------------------------------------------

    def _plain(self, fn, idx):
        spans, stack, clock, state = self.spans, self.stack, time.perf_counter, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append([idx, stack[-1] if stack else -1, state.rid, clock(), 0.0, 0.0, 0.0, 0])
            stack.append(sid)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                spans[sid][ERR] = 1
                raise
            finally:
                end = clock()
                rec = spans[sid]
                rec[END] = end
                rec[BUSY] = end - rec[START]
                stack.pop()
                if rec[PARENT] >= 0:
                    spans[rec[PARENT]][CHILD] += rec[BUSY]

        return wrapper

    def _generator(self, fn, idx):
        spans, stack, clock, state = self.spans, self.stack, time.perf_counter, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            return _consume(inner)

        def _consume(inner):
            sid = -1
            while True:
                begin = clock()
                if sid < 0:
                    sid = len(spans)
                    spans.append([idx, stack[-1] if stack else -1, state.rid, begin, begin, 0.0, 0.0, 0])
                rec = spans[sid]
                stack.append(sid)
                done = False
                try:
                    item = next(inner)
                except StopIteration:
                    done = True
                except BaseException:
                    rec[ERR] = 1
                    raise
                finally:
                    end = clock()
                    rec[END] = end
                    rec[BUSY] += end - begin
                    stack.pop()
                    if rec[PARENT] >= 0:
                        spans[rec[PARENT]][CHILD] += end - begin
                if done:
                    return
                yield item

        return wrapper

    # -- install / restore -----------------------------------------------------

    def install(self) -> list[str]:
        """Wrap every target; returns the reported names that were not found."""
        modules = [m for name, m in sys.modules.items()
                   if name == "cographctl" or name.startswith("cographctl.")]
        missing = []
        for idx, (report, modname, path) in enumerate(TARGETS):
            home = sys.modules.get(f"cographctl.{modname}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            raw = owner.__dict__.get(attr) if owner is not None else None
            if raw is None:
                missing.append(report)
                continue
            if owner_name:
                # a class attribute: classmethods are rewrapped as classmethods
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
                wrapped = self._plain(fn, idx)
                setattr(owner, attr, classmethod(wrapped) if isinstance(raw, classmethod) else wrapped)
                self._restore.append((owner, attr, raw))
                continue
            make = self._generator if report in GENERATORS else self._plain
            wrapped = make(raw, idx)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        setattr(mod, key, wrapped)
                        self._restore.append((mod, key, raw))
        return missing

    def uninstall(self) -> None:
        """Put every original back, and confirm that none is left wrapped."""
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        left = [attr for owner, attr, raw in self._restore if owner.__dict__.get(attr) is not raw]
        self._restore.clear()
        if left:
            raise RuntimeError(f"tracer wrappers not restored: {left}")

    # -- results ---------------------------------------------------------------

    def start_request(self, rid: int) -> None:
        self.rid = rid
        self._first = len(self.spans)

    def end_request(self) -> None:
        """Close any span the request left open (never expected to fire),
        then turn its spans into tuples. The garbage collector stops
        tracking tuples of plain numbers, so the spans kept from earlier
        requests do not slow down the collection after each request."""
        while self.stack:
            rec = self.spans[self.stack.pop()]
            rec[END] = time.perf_counter()
            rec[BUSY] = rec[END] - rec[START]
            rec[ERR] = 1
        spans = self.spans
        for sid in range(self._first, len(spans)):
            spans[sid] = tuple(spans[sid])

    def metrics(self, passes: int, useful_rids: set[int]) -> dict[str, float]:
        """Per-layer figures per pass of the pool."""
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        errors = [0] * len(self.names)
        builds = useful = 0
        build_idx = {self.names.index(n) for n in GRAPH_BUILDS}
        for rec in self.spans:
            i = rec[NAME]
            calls[i] += 1
            self_s[i] += rec[BUSY] - rec[CHILD]
            errors[i] += rec[ERR]
            if i in build_idx:
                builds += 1
                useful += rec[RID] in useful_rids
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[i] / passes
            out[f"{name}.self_s"] = self_s[i] / passes
        for module in MODULES:
            idx = [i for i, n in enumerate(self.names) if n.split(".", 1)[0] == module]
            out[f"{module}.self_s"] = sum(self_s[i] for i in idx) / passes
            out[f"{module}.errors"] = sum(errors[i] for i in idx) / passes
        out["cotree.cotree_to_graph.useful_share"] = useful / builds if builds else 1.0
        return out

    def inclusive(self, passes: int) -> dict[str, float]:
        """Busy time per pass of each function including its callees; no
        wrapped function calls itself, so no span is counted twice."""
        busy = [0.0] * len(self.names)
        for rec in self.spans:
            busy[rec[NAME]] += rec[BUSY]
        return {name: busy[i] / passes for i, name in enumerate(self.names)}

    def write(self, path: str) -> None:
        """Spans as gzipped JSON: names, then one list per span."""
        fields = ["name", "parent", "request", "start", "end", "busy", "child_busy", "error"]
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump({"fields": fields, "names": self.names, "spans": self.spans}, fh,
                      separators=(",", ":"))
