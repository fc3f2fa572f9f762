"""Seeded random instance generators shared by the property and acceptance
tests: small databases with object and value rules, plain object-only
instances, CNF and Horn formulas, and random queries with merge chains.
"""
from __future__ import annotations

import random

from erx.core import Cell, Database, EquivRel, Fact, NULL, obj, tid, val
from erx.gadgets import Cnf3, HornInput
from erx.query import Query, SimilarityStore
from erx.specdsl import parse_spec

OBJ_RULES = [
    "{kind} obj {lbl}: P[t1](x, a), P[t2](y, a) => EqO(x, y).",
    "{kind} obj {lbl}: P[t1](x, a), P[t2](y, b), sim(a, b) >= 80 => EqO(x, y).",
    "{kind} obj {lbl}: Q[t1](x), Q[t2](y) => EqO(x, y).",
    "{kind} obj {lbl}: P[t1](x, a), Q[t2](y) => EqO(x, y).",
]
VAL_RULES = [
    "{kind} val {lbl}: P[t1](x, a), P[t2](x, b) => EqV(t1.2, t2.2).",
    "{kind} val {lbl}: P[t1](x, a), P[t2](y, b), sim(a, b) >= 80 => EqV(t1.2, t2.2).",
]
# Rules and constraints whose witnesses have no mirror image: a merge can
# add a witness through one atom only, which exercises each join order of
# the derivation walk's delta rule.  Inequality atoms belong in constraints
# only (EXTRA_DCS, NEQ_DCS).
EXTRA_RULES = [
    '{kind} obj {lbl}: Q[t1](y), P[t2](x, "v2") => EqO(x, y).',
    "{kind} val {lbl}: P[t1](x, a), Q[t2](x), P[t3](y, a) => EqV(t1.2, t3.2).",
]
EXTRA_DCS = [
    'dc {lbl}: P[t1](x, "v2"), Q[t2](x).',
    'dc {lbl}: Q[t1](x), P[t2](x, a), P[t3](y, "v1"), sim(a, "v3") >= 80.',
]
PLAIN_DCS = [
    "dc {lbl}: P[t1](x, a), Q[t2](x).",
    "dc {lbl}: P[t1](x, a), P[t2](y, a), Q[t3](x), Q[t4](y).",
    "dc {lbl}: P[t1](x, a), P[t2](x, b), sim(a, b) >= 90.",
    "dc {lbl}: Q[t1](x), P[t2](x, a), P[t3](x, b), sim(a, b) >= 60.",
]
NEQ_DCS = [
    "dc {lbl}: P[t1](x, a), P[t2](x, b), a != b.",
    "dc {lbl}: P[t1](x, a), Q[t2](y), x != y.",
]
# An inequality against a typed object constant, drawn with `extra` in the
# unrestricted setting.
EXTRA_NEQ_DCS = [
    'dc {lbl}: P[t1](x, a), P[t2](y, b), a != b, x != "o1".',
]

VALS = ["v1", "v2", "v3"]


def random_instance(rng: random.Random, max_objects=6, max_rules=3, max_dcs=2,
                    restricted=True, allow_nulls=True, extra=False, max_facts=4):
    """A two-relation instance: P(ent: obj, attr: val) rows give the cells,
    Q(ent: obj) rows feed constraints and extra rules.  `extra` adds
    EXTRA_RULES, EXTRA_DCS and (unrestricted) EXTRA_NEQ_DCS to the pools;
    `max_facts` bounds the P rows."""
    objs = [f"o{i}" for i in range(1, rng.randint(2, max_objects) + 1)]
    lines = ["schema P(ent: obj, attr: val).", "schema Q(ent: obj)."]
    rule_pool = OBJ_RULES + VAL_RULES + (EXTRA_RULES if extra else [])
    for i in range(rng.randint(1, max_rules)):
        kind = rng.choice(["soft", "soft", "hard"])
        lines.append(rng.choice(rule_pool).format(kind=kind, lbl=f"r{i}"))
    dc_pool = PLAIN_DCS + (EXTRA_DCS if extra else [])
    if not restricted:
        dc_pool += NEQ_DCS + (EXTRA_NEQ_DCS if extra else [])
    for i in range(rng.randint(0, max_dcs)):
        lines.append(rng.choice(dc_pool).format(lbl=f"d{i}"))
    spec = parse_spec("\n".join(lines))
    facts = []
    t = 0
    for _ in range(rng.randint(1, max_facts)):
        t += 1
        if allow_nulls and rng.random() < 0.15:
            v = NULL
        else:
            v = val(rng.choice(VALS))
        facts.append(Fact(spec.schema["P"], tid(f"t{t}"), (obj(rng.choice(objs)), v)))
    for _ in range(rng.randint(0, 2)):
        t += 1
        facts.append(Fact(spec.schema["Q"], tid(f"t{t}"), (obj(rng.choice(objs)),)))
    db = Database(spec.schema.values(), facts)
    return spec, db, random_sim_store(rng)


def random_sim_store(rng: random.Random) -> SimilarityStore:
    store = SimilarityStore()
    for i, a in enumerate(VALS):
        for b in VALS[i + 1:]:
            store.put(val(a), val(b), rng.choice([0, 40, 70, 85, 95]))
    return store


def random_object_instance(rng: random.Random, max_objects=5, max_rules=3):
    """Object-only instances over up to three binary relations."""
    rels = ["Ra", "Rb", "Rc"][: rng.randint(1, 3)]
    lines = [f"schema {r}(a: obj, b: obj)." for r in rels]
    bodies = []
    for r in rels:
        bodies.append(f"{r}[t](x, y)")
        bodies.append(f"{rels[0]}[t1](z, z), {r}[t2](x, y)")
    for i in range(rng.randint(1, max_rules)):
        kind = rng.choice(["soft", "soft", "hard"])
        lines.append(f"{kind} obj r{i}: {rng.choice(bodies)} => EqO(x, y).")
    if rng.random() < 0.7 and len(rels) >= 2:
        lines.append(f"dc d0: {rels[0]}[t1](y, y), {rels[1]}[t2](z, z).")
    spec = parse_spec("\n".join(lines))
    objs = [f"o{i}" for i in range(1, rng.randint(2, max_objects) + 1)]
    facts = []
    for k in range(rng.randint(1, 4)):
        rel = spec.schema[rng.choice(rels)]
        facts.append(Fact(rel, tid(f"t{k + 1}"), (obj(rng.choice(objs)), obj(rng.choice(objs)))))
    db = Database(spec.schema.values(), facts)
    return spec, db, SimilarityStore()


def random_cnf(rng: random.Random, n: int, max_clauses=3) -> Cnf3:
    m = rng.randint(1, max_clauses)
    clauses = tuple(
        tuple(rng.choice([v, -v]) for v in rng.choices(range(1, n + 1), k=3))
        for _ in range(m)
    )
    return Cnf3(n, clauses)


def random_horn(rng: random.Random, max_vars=6) -> HornInput:
    nv = rng.randint(1, max_vars)
    vs = [f"x{i}" for i in range(1, nv + 1)]
    units = tuple(sorted(set(rng.choices(vs, k=rng.randint(0, 2)))))
    n_clauses = rng.randint(0 if units else 1, 3)
    clauses = tuple(
        (rng.choice(vs), rng.choice(vs), rng.choice(vs)) for _ in range(n_clauses)
    )
    if not units and not clauses:
        units = (vs[0],)
    return HornInput(tuple(vs), units, clauses, rng.choice(vs))


def random_merge_chain(rng: random.Random, db: Database, steps=3):
    """A growing chain of (E, V) states built from random pair additions."""
    e = EquivRel.identity(db.objects())
    v = EquivRel.identity(db.cells())
    chain = [(e, v)]
    objs = sorted(db.objects(), key=lambda c: c.text)
    cells = sorted(db.cells(), key=lambda c: (c.tid.text, c.pos))
    for _ in range(steps):
        if objs and (not cells or rng.random() < 0.5):
            a, b = rng.choice(objs), rng.choice(objs)
            if a != b:
                e = e.extend([(a, b)])
        elif cells:
            a, b = rng.choice(cells), rng.choice(cells)
            if a != b:
                v = v.extend([(a, b)])
        chain.append((e, v))
    return chain


def random_body_query(rng: random.Random, free=()) -> Query:
    """A query over the P/Q schema of `random_instance` (no inequalities)."""
    texts = [
        "P[t1](x, a), P[t2](y, a)",
        "P[t1](x, a), P[t2](y, b), sim(a, b) >= 70",
        "P[t1](x, a), Q[t2](x)",
        "Q[t1](x), Q[t2](y)",
        "P[t1](x, a), P[t2](x, b)",
    ]
    helper = parse_spec(
        "schema P(ent: obj, attr: val).\nschema Q(ent: obj).\n"
        f"dc probe: {rng.choice(texts)}."
    )
    return Query(tuple(free), helper.dcs[0].body)
