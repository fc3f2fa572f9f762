import functools
import gc
import json
import os
import weakref

import pytest
from click.testing import CliRunner

from erx import cli
from erx import io as erxio
from erx.cli import main
from erx.core import Cell, NULL, obj, tid
from erx.io import IngestError, SolutionFileError, ingest, load_solution, parse_solution, save_solution, solution_text
from erx.gadgets import HornInput, gen_horn
from erx.query import SimilarityStore
from erx.semantics import Candidate, Criterion, identity_candidate
from erx.core import EquivRel, eqrel_close
from erx.solver import SearchConfig, recognize_many, recognize_optimal_restricted
from erx.specdsl import parse_spec

from conftest import AUTHORS_ROWS, AUTHORS_SIM, AUTHORS_SPEC, NEQ_RULE_SPEC, build_authors


def write_authors_dataset(root):
    """Materialise the running example as spec + TSVs + overrides."""
    spec_path = root / "spec.erx"
    spec_path.write_text(AUTHORS_SPEC, encoding="utf-8")
    data = root / "data"
    data.mkdir(exist_ok=True)
    for rel, rows in AUTHORS_ROWS.items():
        lines = ["\t".join(row) for row in rows]
        (data / f"{rel}.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    overrides = root / "overrides.tsv"
    overrides.write_text(
        "".join(f"{a}\t{b}\t{s}\n" for a, b, s in AUTHORS_SIM), encoding="utf-8"
    )
    return spec_path, data, overrides


# ---------------------------------------------------------------- ingest


def test_ingest_running_example(tmp_path):
    spec_path, data, _ = write_authors_dataset(tmp_path)
    spec = parse_spec(spec_path.read_text())
    db = ingest(data, spec.schema)
    assert len(db.facts) == 6
    assert len(db.objects()) == 3
    assert len(db.cells()) == 12


def test_ingest_empty_directory_empty_schema(tmp_path):
    (tmp_path / "data").mkdir()
    db = ingest(tmp_path / "data", {})
    assert len(db.facts) == 0


def test_ingest_empty_field_becomes_null(tmp_path):
    spec = parse_spec("schema Author(aid: obj, name: val, dob: val, pob: val).")
    data = tmp_path / "data"
    data.mkdir()
    (data / "Author.tsv").write_text("t1\ta1\tA. Turing\t\tLondon\n", encoding="utf-8")
    db = ingest(data, spec.schema)
    assert db.value_at(Cell(tid("t1"), 3)) is NULL


def test_ingest_errors(tmp_path):
    spec = parse_spec("schema R(a: obj).")
    data = tmp_path / "data"
    data.mkdir()
    (data / "Other.tsv").write_text("t1\ta\n", encoding="utf-8")
    with pytest.raises(IngestError, match="unknown relation file"):
        ingest(data, spec.schema)
    os.remove(data / "Other.tsv")
    (data / "R.tsv").write_text("t1\ta\nt1\tb\n", encoding="utf-8")
    with pytest.raises(IngestError, match="more than once"):
        ingest(data, spec.schema)
    (data / "R.tsv").write_text("t1\ta\tb\n", encoding="utf-8")
    with pytest.raises(IngestError, match="fields"):
        ingest(data, spec.schema)


# ------------------------------------------------------- solution files


def test_solution_file_round_trip(tmp_path):
    _, db, _ = build_authors()
    cand = Candidate(
        eqrel_close([(obj("a1"), obj("a2"))], db.objects()),
        eqrel_close([(Cell(tid("t1"), 2), Cell(tid("t2"), 2))], db.cells()),
    )
    path = tmp_path / "sol.txt"
    save_solution(path, cand)
    again = load_solution(path, db)
    assert again == cand
    assert solution_text(cand) == "eqo\ta1\ta2\neqv\tt1\t2\tt2\t2\n"


def test_solution_file_rejects_unknown_members():
    _, db, _ = build_authors()
    with pytest.raises(SolutionFileError, match="unknown object"):
        parse_solution("eqo\ta1\tnobody\n", db)
    with pytest.raises(SolutionFileError, match="unknown cell"):
        parse_solution("eqv\tt1\t9\tt2\t2\n", db)
    with pytest.raises(SolutionFileError, match="cannot parse"):
        parse_solution("merge a1 a2\n", db)


def test_identity_solution_serialises_empty():
    _, db, _ = build_authors()
    assert solution_text(identity_candidate(db)) == ""


# ------------------------------------------------------------------ solve


def run_cli(*args):
    return CliRunner().invoke(main, list(args), catch_exceptions=False)


def test_solve_running_example(tmp_path):
    spec_path, data, overrides = write_authors_dataset(tmp_path)
    out = tmp_path / "out"
    res = run_cli("solve", "--spec", str(spec_path), "--data", str(data),
                  "--sim-overrides", str(overrides), "--out", str(out), "--num", "5")
    assert res.exit_code == 0, res.output
    files = sorted(os.listdir(out))
    assert files == ["report.json", "solution_001.txt"]
    body = (out / "solution_001.txt").read_text()
    assert body == "eqo\ta1\ta2\neqv\tt1\t2\tt2\t2\neqv\tt4\t2\tt5\t2\n"
    report = json.loads((out / "report.json").read_text())
    assert report["verdict"] == "ok"
    assert report["instance"] == {"facts": 6, "objects": 3, "cells": 12}
    assert report["criterion"] == "maxES"
    assert set(report["timings"]) == {"parse_s", "search_s"}
    assert report["solutions"][0]["file"] == "solution_001.txt"


def test_solve_deterministic_outputs(tmp_path):
    spec_path, data, overrides = write_authors_dataset(tmp_path)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    for out in (out1, out2):
        res = run_cli("solve", "--spec", str(spec_path), "--data", str(data),
                      "--sim-overrides", str(overrides), "--out", str(out), "--num", "3")
        assert res.exit_code == 0
    assert (out1 / "solution_001.txt").read_bytes() == (out2 / "solution_001.txt").read_bytes()
    r1 = json.loads((out1 / "report.json").read_text())
    r2 = json.loads((out2 / "report.json").read_text())
    r1.pop("timings"), r2.pop("timings")
    assert r1 == r2


def test_solve_no_solution_exit(tmp_path):
    (tmp_path / "spec.erx").write_text(
        "schema R(a: obj, b: obj).\n"
        "hard obj h: R[t](x, y) => EqO(x, y).\n"
        "dc d: R[t](y, y).\n",
        encoding="utf-8",
    )
    data = tmp_path / "data"
    data.mkdir()
    (data / "R.tsv").write_text("t1\ta\tb\n", encoding="utf-8")
    res = CliRunner().invoke(main, ["solve", "--spec", str(tmp_path / "spec.erx"),
                                    "--data", str(data), "--out", str(tmp_path / "out")])
    assert res.exit_code == 1
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["verdict"] == "no-solution"


def test_solve_budget_exit(tmp_path):
    spec_path, data, overrides = write_authors_dataset(tmp_path)
    res = CliRunner().invoke(main, ["solve", "--spec", str(spec_path), "--data", str(data),
                                    "--sim-overrides", str(overrides),
                                    "--out", str(tmp_path / "out"), "--pair-budget", "1"])
    assert res.exit_code == 3


def test_recognize_state_budget_exit(tmp_path, monkeypatch):
    cnf = tmp_path / "phi.cnf"
    cnf.write_text("p cnf 4 3\n1 2 3 0\n-1 -2 4 0\n2 -3 -4 0\n", encoding="utf-8")
    out = tmp_path / "g"
    assert run_cli("gadget", "--kind", "3sat-maxE", "--input", str(cnf),
                   "--out", str(out)).exit_code == 0
    monkeypatch.setattr(cli, "SearchConfig", functools.partial(SearchConfig, max_states=100))
    res = CliRunner().invoke(main, ["recognize", "--spec", str(out / "spec.erx"),
                                    "--data", str(out / "data"),
                                    "--solution", str(out / "solution_baseline.txt"),
                                    "--criterion", "maxEC", "--pair-budget", "32"])
    assert res.exit_code == 3
    assert "101 merge states" in res.output


def test_solve_rejects_inequality_in_rule_body(tmp_path):
    spec_path = tmp_path / "spec.erx"
    spec_path.write_text(NEQ_RULE_SPEC, encoding="utf-8")
    (tmp_path / "data").mkdir()
    res = CliRunner().invoke(main, ["solve", "--spec", str(spec_path),
                                    "--data", str(tmp_path / "data"), "--out", str(tmp_path / "out")])
    assert res.exit_code == 2
    assert "denial constraints only (line 4, col 42)" in res.output


def test_runs_keep_no_database_alive(tmp_path, monkeypatch):
    # The interned form and compiled queries hang off the database itself
    # and refer to nothing that leads back to it, so once a run returns
    # nothing else refers to the database.
    def restricted():
        inst = gen_horn(HornInput(("x1", "x2"), ("x1",), (("x1", "x1", "x2"),), "x2"))
        recognize_optimal_restricted(inst.db, inst.spec, inst.candidate, Criterion.MIN_AS,
                                     SimilarityStore())
        return weakref.ref(inst.db)

    def brute():
        spec, db, sim = build_authors()
        recognize_many(db, spec, identity_candidate(db), sim=sim)
        return weakref.ref(db)

    def solve():
        spec_path, data, overrides = write_authors_dataset(tmp_path)
        refs = []
        ingest_db = erxio.ingest

        def ingest_and_watch(*args):
            db = ingest_db(*args)
            refs.append(weakref.ref(db))
            return db

        monkeypatch.setattr(erxio, "ingest", ingest_and_watch)
        cli.main(["solve", "--spec", str(spec_path), "--data", str(data), "--sim-overrides",
                  str(overrides), "--out", str(tmp_path / "out")], standalone_mode=False)
        return refs[0]

    for run in (restricted, brute, solve):
        gc.disable()
        try:
            ref = run()
            # Reference counting alone frees it: the run leaves no cycle.
            assert ref() is None, run.__name__
        finally:
            gc.enable()
        gc.collect()
        assert ref() is None, run.__name__


def test_solve_num_limits_files(tmp_path):
    (tmp_path / "spec.erx").write_text(
        "schema R(a: obj, b: obj).\nschema Rp(a: obj, b: obj).\n"
        "soft obj s: R[t](x, y) => EqO(x, y).\n"
        "soft obj sp: Rp[t](x, y) => EqO(x, y).\n"
        "dc d: R[t1](y, y), Rp[t2](z, z).\n",
        encoding="utf-8",
    )
    data = tmp_path / "data"
    data.mkdir()
    (data / "R.tsv").write_text("t1\ta1\ta2\n", encoding="utf-8")
    (data / "Rp.tsv").write_text("t2\tb1\tb2\nt3\tc1\tc2\n", encoding="utf-8")
    out = tmp_path / "out"
    res = run_cli("solve", "--spec", str(tmp_path / "spec.erx"), "--data", str(data),
                  "--criterion", "maxES", "--num", "5", "--out", str(out))
    assert res.exit_code == 0
    assert len([f for f in os.listdir(out) if f.startswith("solution_")]) == 2
    res = run_cli("solve", "--spec", str(tmp_path / "spec.erx"), "--data", str(data),
                  "--criterion", "minAC", "--num", "5", "--out", str(tmp_path / "out2"))
    assert len([f for f in os.listdir(tmp_path / "out2") if f.startswith("solution_")]) == 1


# ------------------------------------------------------------------ check


def test_check_names_violated_constraint(tmp_path):
    spec_path, data, overrides = write_authors_dataset(tmp_path)
    sol = tmp_path / "cand.txt"
    sol.write_text("eqo\ta1\ta2\n", encoding="utf-8")
    res = CliRunner().invoke(main, ["check", "--spec", str(spec_path), "--data", str(data),
                                    "--sim-overrides", str(overrides), "--solution", str(sol)])
    assert res.exit_code == 1
    assert "violates d1" in res.output


def test_check_accepts_solution(tmp_path):
    spec_path, data, overrides = write_authors_dataset(tmp_path)
    sol = tmp_path / "cand.txt"
    sol.write_text("eqo\ta1\ta2\neqv\tt1\t2\tt2\t2\n", encoding="utf-8")
    res = run_cli("check", "--spec", str(spec_path), "--data", str(data),
                  "--sim-overrides", str(overrides), "--solution", str(sol))
    assert res.exit_code == 0
    assert "solution: yes" in res.output


def test_check_malformed_solution_file(tmp_path):
    spec_path, data, overrides = write_authors_dataset(tmp_path)
    sol = tmp_path / "cand.txt"
    sol.write_text("nonsense\n", encoding="utf-8")
    res = CliRunner().invoke(main, ["check", "--spec", str(spec_path), "--data", str(data),
                                    "--solution", str(sol)])
    assert res.exit_code == 2


# -------------------------------------------------------------- recognize


def test_recognize_brute_and_restricted(tmp_path):
    horn = tmp_path / "horn.txt"
    horn.write_text("unit x1\nclause -x1 -x1 x2\nquery x2\n", encoding="utf-8")
    gadget_dir = tmp_path / "g"
    res = run_cli("gadget", "--kind", "horn", "--input", str(horn), "--out", str(gadget_dir))
    assert res.exit_code == 0
    spec_path = gadget_dir / "spec.erx"
    data = gadget_dir / "data"
    baseline = gadget_dir / "solution_baseline.txt"
    for engine in ("brute", "restricted"):
        res = run_cli("recognize", "--spec", str(spec_path), "--data", str(data),
                      "--solution", str(baseline), "--criterion", "minAS",
                      "--engine", engine)
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["optimal"] is True


def test_recognize_restricted_rejects_inequality_specs(tmp_path):
    spec_path, data, overrides = write_authors_dataset(tmp_path)
    sol = tmp_path / "cand.txt"
    sol.write_text("", encoding="utf-8")
    res = CliRunner().invoke(main, ["recognize", "--spec", str(spec_path), "--data", str(data),
                                    "--sim-overrides", str(overrides), "--solution", str(sol),
                                    "--engine", "restricted", "--criterion", "maxES"])
    assert res.exit_code == 2


def test_recognize_not_optimal_exit(tmp_path):
    spec_path, data, overrides = write_authors_dataset(tmp_path)
    sol = tmp_path / "cand.txt"
    sol.write_text("", encoding="utf-8")
    res = CliRunner().invoke(main, ["recognize", "--spec", str(spec_path), "--data", str(data),
                                    "--sim-overrides", str(overrides), "--solution", str(sol),
                                    "--criterion", "maxES"])
    assert res.exit_code == 1
    payload = json.loads(res.output)
    assert payload["optimal"] is False and "witness" in payload


# The outputs below were captured from the from-scratch saturation engine
# that preceded the derivation walk's; the walk must reproduce them.
NOT_ENTAILED_HORN = "unit x1\nclause -x1 -x1 x2\nclause -x2 -x3 x4\nquery x4\n"
SATISFIABLE_CNF = "p cnf 2 2\n1 2 2 0\n-1 -2 -2 0\n"
PINNED_RESTRICTED = [
    # (gadget kind, input, solution file, witness lines, a failing
    # solution file, its check verdict)
    ("horn", NOT_ENTAILED_HORN, "", ["eqo\tc1\tc2", "eqo\tx1\tx1p", "eqo\tx2\tx2p"],
     "eqo\tc1\tc2\n", "solution: no (unsatisfied hard rule rho)"),
    ("3sat-minA", SATISFIABLE_CNF, "eqo\t1\tx1\n", ["eqo\t0\tx2", "eqo\t1\tx1"],
     "eqo\t0\tx1\neqo\t0\tx2\neqo\tc1\tc2\n", "solution: no (violates d8)"),
]


@pytest.mark.parametrize("kind, text, solution, witness, failing, verdict", PINNED_RESTRICTED)
def test_restricted_witnesses_and_check_failures_are_pinned(tmp_path, kind, text, solution,
                                                            witness, failing, verdict):
    src = tmp_path / "input.txt"
    src.write_text(text, encoding="utf-8")
    out = tmp_path / "g"
    assert run_cli("gadget", "--kind", kind, "--input", str(src), "--out", str(out)).exit_code == 0
    common = ["--spec", str(out / "spec.erx"), "--data", str(out / "data")]
    sol = tmp_path / "solution.txt"
    sol.write_text(solution, encoding="utf-8")
    for crit in ("maxES", "minAS", "minVS"):
        res = run_cli("recognize", *common, "--solution", str(sol), "--criterion", crit,
                      "--engine", "restricted")
        assert res.exit_code == 1
        assert res.output == json.dumps({"criterion": crit, "engine": "restricted",
                                         "optimal": False, "witness": witness},
                                        indent=2, sort_keys=True) + "\n"
    bad = tmp_path / "failing.txt"
    bad.write_text(failing, encoding="utf-8")
    res = run_cli("check", *common, "--solution", str(bad))
    assert res.exit_code == 1
    assert res.output == verdict + "\n"


# ----------------------------------------------------------------- gadget


def test_gadget_round_trips_through_ingest(tmp_path):
    cnf = tmp_path / "phi.cnf"
    cnf.write_text("p cnf 1 1\n1 0\n", encoding="utf-8")
    for kind in ("3sat", "3sat-minA", "3sat-maxE"):
        out = tmp_path / kind
        res = run_cli("gadget", "--kind", kind, "--input", str(cnf), "--out", str(out))
        assert res.exit_code == 0, res.output
        spec = parse_spec((out / "spec.erx").read_text())
        db = ingest(out / "data", spec.schema)
        baseline = load_solution(out / "solution_baseline.txt", db)
        assert baseline.E.universe == db.objects()


def test_gadget_empty_clause_list_rejected(tmp_path):
    cnf = tmp_path / "phi.cnf"
    cnf.write_text("p cnf 1 0\n", encoding="utf-8")
    res = CliRunner().invoke(main, ["gadget", "--kind", "3sat", "--input", str(cnf),
                                    "--out", str(tmp_path / "out")])
    assert res.exit_code == 2


# ------------------------------------------------------------------- eval


def test_eval_command(tmp_path):
    sol = tmp_path / "sol.txt"
    sol.write_text("eqo\ta\tb\neqo\tb\tc\n", encoding="utf-8")
    truth = tmp_path / "truth.tsv"
    truth.write_text("a\tb\nb\tc\n", encoding="utf-8")
    res = run_cli("eval", "--solution", str(sol), "--truth", str(truth))
    assert res.exit_code == 0
    payload = json.loads(res.output)
    # the closure also predicts (a, c)
    assert payload["precision"] == pytest.approx(2 / 3, abs=1e-6)
    assert payload["recall"] == 1.0


def test_eval_skips_value_lines_unread_and_rejects_bad_object_lines(tmp_path):
    truth = tmp_path / "truth.tsv"
    truth.write_text("a\tb\n", encoding="utf-8")
    sol = tmp_path / "sol.txt"
    # eval scores object merges only; malformed eqv lines are not read
    sol.write_text("eqo\ta\tb\neqv\tt1\tx\neqv\tt1\tone\tt2\t2\n", encoding="utf-8")
    res = run_cli("eval", "--solution", str(sol), "--truth", str(truth))
    assert res.exit_code == 0
    assert json.loads(res.output)["f1"] == 1.0
    sol.write_text("eqo\ta\tb\neqo\ta\n", encoding="utf-8")
    res = run_cli("eval", "--solution", str(sol), "--truth", str(truth))
    assert res.exit_code == 2
    assert "line 2: cannot parse 'eqo\\ta'" in res.output


# -------------------------------------------------------------------- sim


def test_sim_command_writes_store(tmp_path):
    spec_path, data, overrides = write_authors_dataset(tmp_path)
    out = tmp_path / "sim.tsv"
    res = run_cli("sim", "--spec", str(spec_path), "--data", str(data),
                  "--sim-overrides", str(overrides), "--out", str(out))
    assert res.exit_code == 0
    rows = [line.split("\t") for line in out.read_text().splitlines()]
    scores = {(a, b): int(s) for a, b, s in rows}
    assert scores[("A. Turing", "Alan Turing")] == 96
