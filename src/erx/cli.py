"""Command-line surface.

Exit status contract: 0 success, 1 negative verdict (no solution found, a
failed check, a non-optimal recognition), 2 validation or input error,
3 inconclusive (search budget exhausted).
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time

import click

from . import io as erxio
from .core import EngineError, EquivRel
from .gadgets import (
    gen_3sat,
    gen_3sat_restricted_max_e,
    gen_3sat_restricted_min_a,
    gen_horn,
    parse_dimacs,
    parse_horn,
)
from .metrics import load_ground_truth, score_pair_sets
from .semantics import Criterion, criterion_sets, check_solution
from .similarity import SimConfig, build_sim_store, load_overrides
from .solver import (
    BudgetExceededError,
    SearchConfig,
    optimal_solutions,
    recognize_optimal_bruteforce,
    recognize_optimal_restricted,
)
from .specdsl import load_spec

CRITERION_NAMES = [c.value for c in Criterion]


def _engine_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except BudgetExceededError as exc:
            click.echo(f"inconclusive: {exc}", err=True)
            sys.exit(3)
        except (EngineError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
    return wrapper


def _load_instance(spec_path, data_dir, overrides_path):
    spec = load_spec(spec_path)
    db = erxio.ingest(data_dir, spec.schema)
    overrides = load_overrides(overrides_path) if overrides_path else None
    sim = build_sim_store(db, SimConfig(), spec=spec, overrides=overrides)
    return spec, db, sim


def _common_options(fn):
    fn = click.option("--spec", "spec_path", required=True,
                      type=click.Path(exists=True), help="Specification (.erx) file.")(fn)
    fn = click.option("--data", "data_dir", required=True,
                      type=click.Path(exists=True, file_okay=False),
                      help="Directory of <Relation>.tsv files.")(fn)
    fn = click.option("--sim-overrides", "overrides_path", default=None,
                      type=click.Path(exists=True),
                      help="TSV of (value, value, score) similarity overrides.")(fn)
    return fn


@click.group()
def main():
    """Rule-based collective entity resolution with local value merges."""


@main.command()
@_common_options
@click.option("--criterion", type=click.Choice(CRITERION_NAMES), default="maxES",
              show_default=True)
@click.option("--num", "-n", default=1, show_default=True,
              help="Maximum number of optimal solutions to write.")
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
@click.option("--pair-budget", default=16, show_default=True,
              help="Most derivable pairs the search may face.")
@_engine_errors
def solve(spec_path, data_dir, overrides_path, criterion, num, out_dir, pair_budget):
    """Write up to NUM optimal solutions plus a run report."""
    if num < 1:
        raise click.BadParameter("--num must be positive")
    t0 = time.perf_counter()
    spec, db, sim = _load_instance(spec_path, data_dir, overrides_path)
    t1 = time.perf_counter()
    cfg = SearchConfig(pair_budget=pair_budget)
    optima = optimal_solutions(db, spec, Criterion(criterion), sim, cfg)
    t2 = time.perf_counter()

    os.makedirs(out_dir, exist_ok=True)
    report = erxio.RunReport(
        facts=len(db.facts), objects=len(db.objects()), cells=len(db.cells()),
        criterion=criterion,
    )
    report.timings = {
        "parse_s": round(t1 - t0, 6),
        "search_s": round(t2 - t1, 6),
    }
    for k, cand in enumerate(optima[:num], start=1):
        name = f"solution_{k:03d}.txt"
        erxio.save_solution(os.path.join(out_dir, name), cand)
        sets = criterion_sets(db, cand, spec, sim)
        report.solutions.append(erxio.solution_summary(name, cand, sets))
    report.verdict = "ok" if optima else "no-solution"
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
    click.echo(f"{len(optima)} optimal solution(s) under {criterion}; "
               f"wrote {min(num, len(optima))} to {out_dir}")
    if not optima:
        sys.exit(1)


@main.command()
@_common_options
@click.option("--solution", "solution_path", required=True, type=click.Path(exists=True))
@_engine_errors
def check(spec_path, data_dir, overrides_path, solution_path):
    """Decide whether a merge file is a solution; name the first failure."""
    spec, db, sim = _load_instance(spec_path, data_dir, overrides_path)
    cand = erxio.load_solution(solution_path, db)
    ok, reason = check_solution(db, spec, cand, sim)
    if ok:
        click.echo("solution: yes")
    else:
        click.echo(f"solution: no ({reason})")
        sys.exit(1)


@main.command()
@_common_options
@click.option("--solution", "solution_path", required=True, type=click.Path(exists=True))
@click.option("--criterion", type=click.Choice(CRITERION_NAMES), default="maxES",
              show_default=True)
@click.option("--engine", type=click.Choice(["brute", "restricted"]), default="brute",
              show_default=True)
@click.option("--pair-budget", default=16, show_default=True,
              help="Most derivable pairs the brute engine may face; the restricted "
                   "engine is polynomial and reads no budget.")
@_engine_errors
def recognize(spec_path, data_dir, overrides_path, solution_path, criterion, engine,
              pair_budget):
    """Decide whether a solution is optimal under a criterion."""
    spec, db, sim = _load_instance(spec_path, data_dir, overrides_path)
    cand = erxio.load_solution(solution_path, db)
    crit = Criterion(criterion)
    cfg = SearchConfig(pair_budget=pair_budget)
    if engine == "restricted":
        result = recognize_optimal_restricted(db, spec, cand, crit, sim, cfg)
    else:
        result = recognize_optimal_bruteforce(db, spec, cand, crit, sim, cfg)
    payload = {"criterion": criterion, "engine": engine, "optimal": result.optimal}
    if result.witness is not None:
        payload["witness"] = erxio.solution_text(result.witness).splitlines()
    click.echo(json.dumps(payload, indent=2, sort_keys=True))
    if not result.optimal:
        sys.exit(1)


@main.command()
@click.option("--kind", type=click.Choice(["3sat", "3sat-minA", "3sat-maxE", "horn"]),
              required=True)
@click.option("--input", "input_path", required=True, type=click.Path(exists=True),
              help="DIMACS CNF for the 3sat kinds, line-format Horn input otherwise.")
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
@_engine_errors
def gadget(kind, input_path, out_dir):
    """Generate a hardness-reduction instance as loadable files."""
    with open(input_path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if kind == "horn":
        instance = gen_horn(parse_horn(text))
    else:
        cnf = parse_dimacs(text)
        gen = {"3sat": gen_3sat, "3sat-minA": gen_3sat_restricted_min_a,
               "3sat-maxE": gen_3sat_restricted_max_e}[kind]
        instance = gen(cnf)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "spec.erx"), "w", encoding="utf-8") as fh:
        fh.write(instance.spec_text)
    data_dir = os.path.join(out_dir, "data")
    erxio.write_database(instance.db, data_dir)
    erxio.save_solution(os.path.join(out_dir, "solution_baseline.txt"), instance.candidate)
    click.echo(f"wrote spec.erx, data/, solution_baseline.txt to {out_dir}")


@main.command("eval")
@click.option("--solution", "solution_path", required=True, type=click.Path(exists=True))
@click.option("--truth", "truth_path", required=True, type=click.Path(exists=True))
@_engine_errors
def eval_cmd(solution_path, truth_path):
    """Score a solution's object merges against ground-truth pairs."""
    with open(solution_path, "r", encoding="utf-8") as fh:
        pairs = [p for _, p in erxio.solution_pairs(fh.read(), cells=False)]
    # close generators so transitive merges count as predictions
    universe = frozenset(c for p in pairs for c in p)
    predicted = EquivRel.close(pairs, universe).merged_pairs()
    truth = load_ground_truth(truth_path)
    scores = score_pair_sets(predicted, truth.object_pairs)
    click.echo(json.dumps({
        "precision": round(scores.precision, 6),
        "recall": round(scores.recall, 6),
        "f1": round(scores.f1, 6),
    }, indent=2, sort_keys=True))


@main.command()
@_common_options
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@_engine_errors
def sim(spec_path, data_dir, overrides_path, out_path):
    """Precompute the similarity store and write it as a TSV."""
    spec, db, store = _load_instance(spec_path, data_dir, overrides_path)
    with open(out_path, "w", encoding="utf-8") as fh:
        for (a, b), s in store.items():
            fh.write(f"{a.text}\t{b.text}\t{s}\n")
    click.echo(f"wrote {len(store)} scored pairs to {out_path}")


if __name__ == "__main__":
    main()
