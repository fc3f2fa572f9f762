"""The benchmark's workloads: how each one sets up its inputs, which call
into `erx` is its timed operation, and how that operation's output is
checked.

Operation `i` of a workload always sees the same input for a given seed.
Gadget and Horn inputs are fresh objects per operation, so no operation
reuses another's memo entries (the program keys them on database
identity).  Shapes cycle through a fixed schedule of `period` operations;
only their random content follows the seed.  Timings are taken over whole
periods, so every run weighs the same mix of shapes however many
operations fit in it.
"""
from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass

# Entry points are called through their modules, so that the tracer's
# patches of those module attributes see every call.
from erx import cli, gadgets, solver
from erx.core import EquivRel, obj
from erx.gadgets import Cnf3, HornInput, horn_entails, sat_oracle
from erx.metrics import GroundTruth, score
from erx.query import EMPTY_SIM
from erx.semantics import Criterion

import gen

# The maxE gadget at n = 4 derives 17 pairs, one more than the default budget.
_CFG = solver.SearchConfig(pair_budget=32)


class _Pooled:
    """Inputs made at setup for the first `min_ops` operations, which every
    run performs; later ones are made on demand, outside the timed call."""

    def setup(self, seed: int, workdir: str):
        return [self.make(seed, i) for i in range(self.min_ops)]

    def item(self, state, seed: int, i: int):
        return state[i] if i < len(state) else self.make(seed, i)


@dataclass
class Gadget(_Pooled):
    """Brute-force maxEC/maxSC recognition on the restricted maxE gadget of
    a random 3-CNF over `n` variables; the verdict must be "optimal" exactly
    when the formula is unsatisfiable."""

    name: str
    n: int
    trace_ops: int
    min_ops: int
    period = 3

    def make(self, seed: int, i: int):
        rng = gen.instance_rng(self.name, seed, i)
        # Two satisfiable formulas of three clauses to one unsatisfiable of
        # four.  At n = 3 these took 0.5-1.2 s each on a 2-vCPU Xeon guest;
        # satisfiable ones of four clauses ranged over 0.8-2.5 s and would
        # dominate the run-to-run spread.
        shape = i % self.period
        cnf = Cnf3(self.n, gen.sample_cnf(rng, self.n, (3, 3, 4)[shape], shape != 2))
        return cnf, gadgets.gen_3sat_restricted_max_e(cnf)

    def call(self, item):
        _, inst = item
        return solver.recognize_many(inst.db, inst.spec, inst.candidate,
                                     (Criterion.MAX_EC, Criterion.MAX_SC), EMPTY_SIM, _CFG)

    def check(self, item, result) -> bool:
        cnf, _ = item
        expected = not sat_oracle(cnf)
        return len(result) == 2 and all(r.optimal == expected for r in result.values())


# An odd number of equally common sizes puts the median and the 90th
# percentile inside one size each, not in the gap between two.
_HORN_SIZES = (12, 16, 20, 24, 28)


@dataclass
class Horn(_Pooled):
    """Polynomial minAS recognition on the Horn gadget; the identity merge
    must be optimal exactly when the formula entails its query."""

    name: str
    trace_ops: int
    min_ops: int
    period = 2 * len(_HORN_SIZES)

    def make(self, seed: int, i: int):
        rng = gen.instance_rng(self.name, seed, i)
        n_vars = _HORN_SIZES[(i // 2) % len(_HORN_SIZES)]
        inp = HornInput(*gen.sample_horn(rng, n_vars, entailed=i % 2 == 0))
        return inp, gadgets.gen_horn(inp)

    def call(self, item):
        _, inst = item
        return solver.recognize_optimal_restricted(inst.db, inst.spec, inst.candidate,
                                                   Criterion.MIN_AS, EMPTY_SIM, _CFG)

    def check(self, item, result) -> bool:
        inp, _ = item
        return result.optimal == horn_entails(inp)


class SolveFailed(Exception):
    """`erx solve` exited instead of returning."""


@dataclass
class AuthorsSolve:
    """`erx solve --criterion maxES` through `erx.cli.main` on generated
    author tables.  Every operation solves the same files; the first
    solution must merge exactly the generator's duplicate authors and be
    byte-identical across operations."""

    name: str
    trace_ops: int
    min_ops: int
    period = 1

    def setup(self, seed: int, workdir: str):
        rows, truth = gen.author_tables(gen.instance_rng(self.name, seed, 0))
        data = os.path.join(workdir, "data")
        os.makedirs(data, exist_ok=True)
        for rel, table in rows.items():
            with open(os.path.join(data, f"{rel}.tsv"), "w", encoding="utf-8") as fh:
                fh.writelines("\t".join(row) + "\n" for row in table)
        spec = os.path.join(workdir, "spec.erx")
        with open(spec, "w", encoding="utf-8") as fh:
            fh.write(gen.AUTHORS_SPEC)
        return {"spec": spec, "data": data, "out": os.path.join(workdir, "out"),
                "truth": truth, "first": None}

    def item(self, state, seed: int, i: int):
        return state

    def call(self, item):
        args = ["solve", "--spec", item["spec"], "--data", item["data"],
                "--criterion", "maxES", "--out", item["out"]]
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                cli.main(args, standalone_mode=False)
            except SystemExit as exc:
                raise SolveFailed(f"erx solve exited with status {exc.code}") from None
        return item["out"]

    def check(self, item, out_dir: str) -> bool:
        with open(os.path.join(out_dir, "solution_001.txt"), "rb") as fh:
            result = fh.read()
        if item["first"] is None:
            item["first"] = result
        elif result != item["first"]:
            return False
        pairs = []
        for line in result.decode("utf-8").splitlines():
            parts = line.split("\t")
            if parts[0] == "eqo":
                pairs.append((obj(parts[1]), obj(parts[2])))
        truth = GroundTruth(frozenset((obj(a), obj(b)) for a, b in item["truth"]))
        universe = {c for p in pairs for c in p} | {c for p in truth.object_pairs for c in p}
        return score(EquivRel.close(pairs, universe), truth).f1 == 1.0


WORKLOADS = {
    w.name: w
    for w in (
        Gadget("gadget-maxE", n=3, trace_ops=3, min_ops=12),
        Gadget("gadget-maxE-n4", n=4, trace_ops=1, min_ops=3),
        Horn("horn-restricted", trace_ops=40, min_ops=100),
        AuthorsSolve("authors-solve", trace_ops=2, min_ops=6),
    )
}
