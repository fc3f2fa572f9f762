"""Span tracing of `erx`'s layers, installed from outside the program.

`Tracer.install()` puts a timing wrapper around each public function in
TARGETS.  A function imported by name into several modules is looked up
in each of them (`dc_violated` lives in `erx.query`, `erx.semantics` and
`erx.solver`), so every loaded `erx` module namespace that holds the
original is patched; a method is patched on its class.  `uninstall()`
puts every original back.

While tracing is active each wrapped call becomes a span (name, parent,
start, end) kept in memory; `write()` saves them when the run ends.  Calls
in one thread nest, so a span's self time is its duration minus the
durations of its direct children.  Counters are taken at the same
boundaries, one record per operation.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from array import array
from collections import Counter, defaultdict

# (module, attribute): the public functions whose calls become spans.  The
# span name is the module's last component and the attribute.
TARGETS = (
    ("erx.specdsl", "parse_spec"),
    ("erx.io", "ingest"),
    ("erx.io", "save_solution"),
    ("erx.similarity", "build_sim_store"),
    ("erx.similarity", "pair_score"),
    ("erx.similarity", "tfidf_cosine"),
    ("erx.query", "dc_violated"),
    ("erx.query", "eval_query"),
    ("erx.core", "extend"),
    ("erx.core", "EquivRel.extend"),
    ("erx.semantics", "active_entries"),
    ("erx.semantics", "criterion_sets"),
    ("erx.semantics", "check_solution"),
    ("erx.semantics", "compare"),
    ("erx.solver", "generator_universe"),
    ("erx.solver", "enumerate_solutions"),
    ("erx.solver", "optimal_solutions"),
    ("erx.solver", "recognize_many"),
    ("erx.solver", "recognize_optimal_restricted"),
    ("erx.gadgets", "gen_3sat_restricted_max_e"),
    ("erx.gadgets", "gen_horn"),
    ("erx.cli", "main"),
)

LAYERS = ("specdsl", "io", "similarity", "query", "core", "semantics", "solver",
          "gadgets", "cli")

# Root spans opened by the benchmark itself, around one operation or one
# input set-up.
OP, SETUP = "bench.op", "bench.setup"


def span_name(module: str, attr: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{attr}"


class OpRecord:
    """Counters of one operation (or one set-up), filled by the wrappers."""

    def __init__(self, root: str):
        self.root = root
        self.wall = 0.0
        self.calls: Counter = Counter()
        self.incl: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.seen: defaultdict = defaultdict(set)
        self.repeats: Counter = Counter()
        self.states: set = set()
        self.dc_memo_misses = 0
        self.universe_sizes: list[int] = []
        self.solution_counts: list[int] = []
        self.pending_scores: list[int] = []
        self.pairs_scored = 0
        self.pairs_useful = 0


def _repeat(rec: OpRecord, name: str, key):
    seen = rec.seen[name]
    if key in seen:
        rec.repeats[name] += 1
    else:
        seen.add(key)


def _after_active_entries(rec, parent, args, kwargs, result):
    db, cand = args[0], args[1]
    key = (id(db), cand.E, cand.V)
    _repeat(rec, "semantics.active_entries", key)
    if parent == "solver.enumerate_solutions":
        rec.states.add(key)


def _after_extend(rec, parent, args, kwargs, result):
    key = (id(args[0]), args[1], args[2])
    _repeat(rec, "core.extend", key)
    if parent == "solver.enumerate_solutions":
        rec.states.add(key)


def _after_dc_violated(rec, parent, args, kwargs, result):
    dc, xdb = args[0], args[1]
    _repeat(rec, "query.dc_violated", (id(dc), id(xdb.db), xdb.obj_merge, xdb.cell_merge))


def _after_eval_query(rec, parent, args, kwargs, result):
    # dc_violated reaches eval_query only when its memo misses.
    if parent == "query.dc_violated":
        rec.dc_memo_misses += 1


def _after_universe(rec, parent, args, kwargs, result):
    rec.universe_sizes.append(len(result))


def _after_enumerate(rec, parent, args, kwargs, result):
    rec.solution_counts.append(len(result))


def _after_pair_score(rec, parent, args, kwargs, result):
    rec.pending_scores.append(result)


def _after_build(rec, parent, args, kwargs, result):
    spec = kwargs.get("spec", args[2] if len(args) > 2 else None)
    thresholds = [] if spec is None else [
        atom.threshold for rule in spec.rules() + spec.dcs for atom in rule.body
        if hasattr(atom, "threshold")
    ]
    rec.pairs_scored += len(rec.pending_scores)
    if thresholds:
        low = min(thresholds)
        rec.pairs_useful += sum(1 for s in rec.pending_scores if s >= low)
    rec.pending_scores.clear()


AFTER = {
    "semantics.active_entries": _after_active_entries,
    "core.extend": _after_extend,
    "query.dc_violated": _after_dc_violated,
    "query.eval_query": _after_eval_query,
    "solver.generator_universe": _after_universe,
    "solver.enumerate_solutions": _after_enumerate,
    "similarity.pair_score": _after_pair_score,
    "similarity.build_sim_store": _after_build,
}


class Tracer:
    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self._child: list[float] = []
        self._patches: list[tuple[object, str, object]] = []
        self.records: list[OpRecord] = []
        self._rec: OpRecord | None = None

    # -- installing -------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "erx" or name.startswith("erx.")) and m is not None]
        for module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            name = span_name(module_name, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapper)

    def _patch(self, owner, key, wrapper):
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()
        self.active = False

    def _wrap(self, name: str, fn):
        sid = self._name_id(name)
        after = AFTER.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx, parent = tracer._open(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx, sid)
            if after is not None:
                after(tracer._rec, tracer.names[parent], args, kwargs, result)
            return result

        return wrapper

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- spans ------------------------------------------------------------

    def _open(self, sid: int) -> tuple[int, int]:
        idx = len(self.span_name)
        parent_idx = self._stack[-1] if self._stack else -1
        self.span_name.append(sid)
        self.span_parent.append(parent_idx)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self._child.append(0.0)
        self.span_start[idx] = time.perf_counter()
        return idx, self.span_name[parent_idx] if parent_idx >= 0 else sid

    def _close(self, idx: int, sid: int):
        end = time.perf_counter()
        self.span_end[idx] = end
        self._stack.pop()
        child = self._child.pop()
        dur = end - self.span_start[idx]
        if self._child:
            self._child[-1] += dur
        rec = self._rec
        name = self.names[sid]
        rec.calls[name] += 1
        rec.incl[name] += dur
        rec.self_time[name] += dur - child

    def run(self, root: str, fn, *args):
        """Call fn(*args) as one traced operation or set-up under a root
        span; returns fn's result and files the operation's record."""
        self._rec = OpRecord(root)
        self.active = True
        idx, _ = self._open(self._name_id(root))
        try:
            return fn(*args)
        finally:
            self._close(idx, self.span_name[idx])
            self.active = False
            self._rec.wall = self.span_end[idx] - self.span_start[idx]
            self.records.append(self._rec)

    def write(self, path: str):
        """Spans as gzip'd TSV: name, parent span index (-1 for a root),
        start and end in seconds of the process's performance counter."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name\tparent\tstart_s\tend_s\n")
            for i in range(len(self.span_name)):
                fh.write(f"{self.names[self.span_name[i]]}\t{self.span_parent[i]}\t"
                         f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n")


def layer_metrics(records: list[OpRecord], count_ops: int) -> dict[str, float]:
    """Per-layer metrics from the traced operations.

    Every metric comes from the first `count_ops` operations.  Their inputs
    are fixed by the seed, so counts and ratios repeat exactly, and times
    cover the same mix of input shapes however many operations the run fits.
    Times are inclusive unless named `self_ms`; `solver.state_us` and
    `solver.recognize_ms` are self times.
    """
    head = [r for r in records if r.root == OP][:count_ops]
    setups = [r for r in records if r.root == SETUP]
    if len(head) < count_ops or not setups:
        raise ValueError("not enough traced operations")

    def calls(name):
        return sum(r.calls[name] for r in head) / len(head)

    def ms(name, field="incl"):
        return 1e3 * sum(getattr(r, field)[name] for r in head) / len(head)

    def reuse(name):
        total = sum(r.calls[name] for r in head)
        return sum(r.repeats[name] for r in head) / total if total else 0.0

    def per_call_us(name):
        total = sum(r.calls[name] for r in head)
        return 1e6 * sum(r.incl[name] for r in head) / total if total else 0.0

    states = sum(len(r.states) for r in head)
    universes = [n for r in head for n in r.universe_sizes]
    solutions = [n for r in head for n in r.solution_counts]
    scored = sum(r.pairs_scored for r in head)
    out = {
        "solver.states": states / len(head),
        "solver.state_us": (1e6 * sum(r.self_time["solver.enumerate_solutions"] for r in head)
                            / states if states else 0.0),
        "solver.universe_size": sum(universes) / len(universes) if universes else 0.0,
        "solver.universe_ms": ms("solver.generator_universe"),
        "solver.solutions": sum(solutions) / len(solutions) if solutions else 0.0,
        "solver.recognize_ms": ms("solver.recognize_optimal_restricted", "self_time"),
        "semantics.active_entries_calls": calls("semantics.active_entries"),
        "semantics.active_entries_ms": ms("semantics.active_entries"),
        "semantics.active_entries_reuse": reuse("semantics.active_entries"),
        "semantics.criterion_sets_calls": calls("semantics.criterion_sets"),
        "semantics.criterion_sets_ms": ms("semantics.criterion_sets"),
        "semantics.check_solution_calls": calls("semantics.check_solution"),
        "semantics.check_solution_ms": ms("semantics.check_solution"),
        "semantics.compare_calls": calls("semantics.compare"),
        "query.dc_violated_calls": calls("query.dc_violated"),
        "query.dc_violated_ms": ms("query.dc_violated"),
        "query.dc_violated_reuse": reuse("query.dc_violated"),
        "query.dc_memo_misses": sum(r.dc_memo_misses for r in head) / len(head),
        "query.eval_query_calls": calls("query.eval_query"),
        "query.eval_query_ms": ms("query.eval_query"),
        "query.eval_query_us_per_call": per_call_us("query.eval_query"),
        "core.extend_calls": calls("core.extend"),
        "core.extend_ms": ms("core.extend"),
        "core.extend_reuse": reuse("core.extend"),
        "core.equivrel_extend_calls": calls("core.EquivRel.extend"),
        "core.equivrel_extend_ms": ms("core.EquivRel.extend"),
        "similarity.build_ms": ms("similarity.build_sim_store"),
        "similarity.pairs_scored": scored / len(head),
        "similarity.pairs_useful_ratio": (sum(r.pairs_useful for r in head) / scored
                                          if scored else 0.0),
        "similarity.tfidf_calls": calls("similarity.tfidf_cosine"),
        "similarity.tfidf_ms": ms("similarity.tfidf_cosine"),
        "io.ingest_ms": ms("io.ingest"),
        "io.save_ms": ms("io.save_solution"),
        "specdsl.parse_ms": ms("specdsl.parse_spec"),
        "gadgets.generate_ms": 1e3 * sum(
            t for r in setups for name, t in r.incl.items() if name.startswith("gadgets.")
        ) / len(setups),
    }
    for layer in LAYERS + ("bench",):
        out[f"{layer}.self_ms"] = 1e3 * sum(
            t for r in head for name, t in r.self_time.items()
            if name.split(".", 1)[0] == layer and name != SETUP
        ) / len(head)
    return out
