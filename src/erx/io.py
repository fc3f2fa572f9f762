"""File formats: TSV data ingestion, solution files, run reports.

Data lives in one headerless TSV per relation, named `<Relation>.tsv`: first
column the tid, remaining columns the arguments in declaration order.  Empty
value fields become the null constant.

Solution files are line oriented:

    eqo <object1> <object2>
    eqv <tid1> <pos1> <tid2> <pos2>

Lines list generator pairs; loading closes them over the companion
database's object and cell universes.  Saving writes a canonical spanning
set per merged class, so identical solutions serialise byte-identically.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from .core import (
    NULL,
    Cell,
    Constant,
    Database,
    DomainError,
    EngineError,
    EquivRel,
    Fact,
    RelationDecl,
    Sort,
    element_key,
    obj,
    tid,
    val,
)
from .semantics import Candidate, CriterionSets


class IngestError(EngineError):
    pass


class SolutionFileError(EngineError):
    pass


def ingest(data_dir, schema: dict[str, RelationDecl]) -> Database:
    """Load every relation of the schema from `<name>.tsv` files.

    Missing files yield empty relations; files that match no declared
    relation are an error, as are duplicate tids and arity mismatches.
    """
    names = {f"{name}.tsv": name for name in schema}
    facts: list[Fact] = []
    try:
        listing = sorted(os.listdir(data_dir))
    except FileNotFoundError:
        raise IngestError(f"no such data directory: {data_dir}") from None
    for entry in listing:
        if not entry.endswith(".tsv"):
            continue
        if entry not in names:
            raise IngestError(f"unknown relation file {entry!r}")
        decl = schema[names[entry]]
        path = os.path.join(data_dir, entry)
        with open(path, "r", encoding="utf-8") as fh:
            for ln, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) != decl.arity + 1:
                    raise IngestError(
                        f"{entry}:{ln}: expected {decl.arity + 1} fields, got {len(parts)}"
                    )
                args = []
                for pos, text in enumerate(parts[1:], start=1):
                    if decl.type_vec[pos - 1] is Sort.OBJ:
                        if not text:
                            raise IngestError(f"{entry}:{ln}: empty object field")
                        args.append(obj(text))
                    else:
                        args.append(val(text) if text else NULL)
                try:
                    facts.append(Fact(decl, tid(parts[0]), tuple(args)))
                except DomainError as exc:
                    raise IngestError(f"{entry}:{ln}: {exc}") from None
    try:
        return Database(schema.values(), facts)
    except DomainError as exc:
        raise IngestError(str(exc)) from None


def write_database(db: Database, data_dir):
    os.makedirs(data_dir, exist_ok=True)
    for name in sorted(db.schema):
        with open(os.path.join(data_dir, f"{name}.tsv"), "w", encoding="utf-8") as fh:
            for f in db.facts_of(name):
                cols = [f.tid.text] + ["" if a is NULL else a.text for a in f.args]
                fh.write("\t".join(cols) + "\n")


def _spanning_pairs(rel: EquivRel):
    for cls in rel.merged_classes():
        members = sorted(cls, key=element_key)
        first = members[0]
        for other in members[1:]:
            yield first, other


def solution_text(cand: Candidate) -> str:
    lines = []
    for a, b in _spanning_pairs(cand.E):
        lines.append(f"eqo\t{a.text}\t{b.text}")
    for a, b in _spanning_pairs(cand.V):
        lines.append(f"eqv\t{a.tid.text}\t{a.pos}\t{b.tid.text}\t{b.pos}")
    return "\n".join(lines) + "\n" if lines else ""


def save_solution(path, cand: Candidate):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(solution_text(cand))


def solution_pairs(text: str, cells: bool = True):
    """Yield (line number, pair) for each generator line of a solution file:
    a pair of objects for `eqo`, of cells for `eqv`.  With `cells` false,
    `eqv` lines are skipped unread."""
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.rstrip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if parts[0] == "eqv" and not cells:
            continue
        if parts[0] == "eqo" and len(parts) == 3:
            yield ln, (obj(parts[1]), obj(parts[2]))
        elif parts[0] == "eqv" and len(parts) == 5:
            try:
                pair = (Cell(tid(parts[1]), int(parts[2])), Cell(tid(parts[3]), int(parts[4])))
            except ValueError:
                raise SolutionFileError(f"line {ln}: positions must be integers") from None
            yield ln, pair
        else:
            raise SolutionFileError(f"line {ln}: cannot parse {line!r}")


def parse_solution(text: str, db: Database) -> Candidate:
    """The candidate a solution file describes, closed over the database's
    objects and cells, which must contain every pair member."""
    obj_pairs: list[tuple[Constant, Constant]] = []
    cell_pairs: list[tuple[Cell, Cell]] = []
    objects = db.objects()
    cells = db.cells()
    for ln, (a, b) in solution_pairs(text):
        if isinstance(a, Cell):
            for c in (a, b):
                if c not in cells:
                    raise SolutionFileError(f"line {ln}: unknown cell {c!r}")
            cell_pairs.append((a, b))
        else:
            for c in (a, b):
                if c not in objects:
                    raise SolutionFileError(f"line {ln}: unknown object {c.text!r}")
            obj_pairs.append((a, b))
    return Candidate(
        EquivRel.close(obj_pairs, objects),
        EquivRel.close(cell_pairs, cells),
    )


def load_solution(path, db: Database) -> Candidate:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_solution(fh.read(), db)


@dataclass
class RunReport:
    """Machine-readable run summary with stable field names."""

    facts: int
    objects: int
    cells: int
    criterion: str | None = None
    verdict: str = "ok"
    solutions: list[dict] = field(default_factory=list)
    timings: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "instance": {"facts": self.facts, "objects": self.objects, "cells": self.cells},
            "criterion": self.criterion,
            "verdict": self.verdict,
            "solutions": self.solutions,
            "timings": self.timings,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def solution_summary(file_name: str, cand: Candidate, sets: CriterionSets) -> dict:
    return {
        "file": file_name,
        "eq_pairs": len(sets.eq),
        "eq_ordered_card": sets.eq_card,
        "supp_entries": len(sets.supp),
        "absent_pairs": len(sets.absent),
        "viol_entries": len(sets.viol),
    }
