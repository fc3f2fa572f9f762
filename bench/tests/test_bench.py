"""Tests of the benchmark itself: seeded generators, the tracer's install
and removal, and the self-time arithmetic.

    python3 -m pytest bench/tests -q
"""
import os
import shutil
import subprocess
import sys

import pytest

import gen
import tracing
import workloads
from erx.gadgets import HornInput, horn_entails, sat_oracle, Cnf3

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SMALL_GADGET = workloads.Gadget("gadget-test", n=2, trace_ops=2, min_ops=2)


def test_generators_repeat_under_a_seed():
    def draw(seed):
        return (
            [gen.sample_cnf(gen.instance_rng("c", seed, i), 3, 4, i % 2 == 0) for i in range(6)],
            [gen.sample_horn(gen.instance_rng("h", seed, i), 24, i % 2 == 0) for i in range(4)],
            gen.author_tables(gen.instance_rng("a", seed, 0)),
        )

    assert draw(7) == draw(7)
    assert draw(7) != draw(8)


@pytest.mark.parametrize("seed", range(5))
def test_generators_deliver_the_requested_verdicts(seed):
    for i in range(6):
        sat = i % 2 == 0
        cnf = Cnf3(3, gen.sample_cnf(gen.instance_rng("c", seed, i), 3, 2 + i % 3, sat))
        assert sat_oracle(cnf) == sat
        entailed = i % 2 == 0
        inp = HornInput(*gen.sample_horn(gen.instance_rng("h", seed, i), 12 + 6 * i, entailed))
        assert horn_entails(inp) == entailed
        assert len(inp.clauses) >= 2 * len(inp.variables)
    rows, truth = gen.author_tables(gen.instance_rng("a", seed, 0))
    assert len(rows["Author"]) == len(rows["Awarded"]) == gen.AUTHORS_PEOPLE + gen.AUTHORS_CLUSTERS
    assert len(truth) == gen.AUTHORS_CLUSTERS
    assert all(len(row[2]) < 25 for row in rows["Author"])
    assert all(len(row[2]) >= 25 for row in rows["Awarded"])


def _patched_attributes():
    """Every (owner, key, value) a tracer could patch, before installing."""
    import importlib
    seen = []
    for module_name, attr in tracing.TARGETS:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            seen.append((cls, meth, vars(cls)[meth]))
            continue
        original = getattr(module, attr)
        for name, m in list(sys.modules.items()):
            if (name == "erx" or name.startswith("erx.")) and m is not None:
                seen += [(m, k, v) for k, v in vars(m).items() if v is original]
    return seen


def _run_traced(wl, seed, tmp_path, ops):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        state = tracer.run(tracing.SETUP, wl.setup, seed, str(tmp_path))
        results = [tracer.run(tracing.OP, wl.call, wl.item(state, seed, i)) for i in range(ops)]
        checks = [wl.check(wl.item(state, seed, i), r) for i, r in enumerate(results)]
    finally:
        tracer.uninstall()
    return tracer, checks


def test_untraced_run_is_unaffected_after_a_traced_run(tmp_path):
    wl = SMALL_GADGET
    before = _patched_attributes()
    assert len({id(owner) for owner, _, _ in before}) > 5
    plain = [wl.call(wl.make(3, i)) for i in range(2)]

    tracer, checks = _run_traced(wl, 3, tmp_path, 2)
    assert all(checks)
    spans = len(tracer.span_name)
    assert spans > 100

    for owner, key, value in before:
        assert vars(owner)[key] is value, (owner, key)
    again = [wl.call(wl.make(3, i)) for i in range(2)]
    assert len(tracer.span_name) == spans
    assert [{c: r.optimal for c, r in res.items()} for res in again] == \
        [{c: r.optimal for c, r in res.items()} for res in plain]


def test_self_times_fit_in_each_operation(tmp_path):
    tracer, checks = _run_traced(workloads.WORKLOADS["authors-solve"], 5, tmp_path, 1)
    assert all(checks)
    ops = [r for r in tracer.records if r.root == tracing.OP]
    assert len(ops) == 1
    for rec in ops:
        assert all(t >= 0 for t in rec.self_time.values())
        assert sum(rec.self_time.values()) <= rec.wall * (1 + 1e-9)
        assert rec.incl["cli.main"] <= rec.wall
        assert rec.calls["similarity.tfidf_cosine"] > 0
        assert rec.calls["io.ingest"] == 1
    metrics = tracing.layer_metrics(tracer.records, 1)
    layer_self = sum(v for k, v in metrics.items() if k.endswith(".self_ms"))
    assert layer_self == pytest.approx(1e3 * ops[0].wall, rel=1e-6)


def test_counts_repeat_for_a_seed(tmp_path):
    counts = []
    for k in range(2):
        tracer, checks = _run_traced(workloads.WORKLOADS["horn-restricted"], 11, tmp_path / str(k), 3)
        assert all(checks)
        metrics = tracing.layer_metrics(tracer.records, 3)
        counts.append({name: v for name, v in metrics.items()
                       if not name.endswith(("_ms", "_us", "_us_per_call"))})
    assert counts[0] == counts[1]
    assert counts[0]["query.eval_query_calls"] > 0


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out", "work"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "gadget-maxE", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
