import pytest

from erx.core import Database, Fact, obj, tid, val
from erx.query import SimilarityStore
from erx.specdsl import parse_spec

AUTHORS_SPEC = """\
schema Author(aid: obj, name: val, dob: val, pob: val).
schema Awarded(aid: obj, awrd: val).

soft obj s1: Author[t1](x, n1, d, p), Author[t2](y, n2, d, p), sim(n1, n2) >= 95 => EqO(x, y).
hard val h1: Author[t1](a, n1, _, _), Author[t2](a, n2, _, _), sim(n1, n2) >= 95 => EqV(t1.2, t2.2).
soft val s2: Awarded[t1](a, z), Awarded[t2](a, w), sim(z, w) >= 95 => EqV(t1.2, t2.2).
dc d1: Author[t1](a, n1, _, _), Author[t2](a, n2, _, _), n1 != n2.
"""

# Rules r0 and r2 compare objects with `!=`.  Saturating active pairs in
# batches (`is_candidate`) and the one-pair derivation walk disagreed on
# such rules, so rule bodies may not hold inequality atoms.
NEQ_RULE_SPEC = """\
schema P(ent: obj, attr: val).
schema Q(ent: obj).
soft obj r1: P[t1](x, a), P[t2](y, b), sim(a, b) >= 80 => EqO(x, y).
soft val r0: P[t1](x, a), P[t2](y, b), x != y, sim(a, b) >= 40 => EqV(t1.2, t2.2).
hard val r2: P[t1](x, a), P[t2](y, b), x != y, sim(a, b) >= 40 => EqV(t1.2, t2.2).
dc d0: Q[t1](x), P[t2](x, a), P[t3](x, b), sim(a, b) >= 60.
dc d1: Q[t1](x), P[t2](x, a), P[t3](y, "v1"), sim(a, "v3") >= 80.
"""

AUTHORS_ROWS = {
    "Author": [
        ("t1", "a1", "A. Turing", "23/07/1912", "London"),
        ("t2", "a2", "Alan Turing", "23/07/1912", "London"),
        ("t3", "a3", "Clerk Maxwell", "13/06/1831", "Edinburgh"),
    ],
    "Awarded": [
        ("t4", "a1", "Smith's Prize(1936)"),
        ("t5", "a2", "Smith's Prize"),
        ("t6", "a3", "Smith's Prize"),
    ],
}

AUTHORS_SIM = [
    ("A. Turing", "Alan Turing", 96),
    ("Smith's Prize", "Smith's Prize(1936)", 96),
]


def build_authors():
    spec = parse_spec(AUTHORS_SPEC)
    facts = []
    for rel, rows in AUTHORS_ROWS.items():
        decl = spec.schema[rel]
        for row in rows:
            facts.append(Fact(decl, tid(row[0]), tuple(
                obj(text) if decl.type_vec[i].value == "obj" else val(text)
                for i, text in enumerate(row[1:])
            )))
    db = Database(spec.schema.values(), facts)
    sim = SimilarityStore([(val(a), val(b), s) for a, b, s in AUTHORS_SIM])
    return spec, db, sim


@pytest.fixture(scope="session")
def authors():
    return build_authors()


# Object-only conflict instances reused across the suite. Facts are
# (relation, arg1, arg2) triples over binary object relations.

TWO_RULE_CONFLICT = dict(
    spec="""\
schema R(a: obj, b: obj).
schema Rp(a: obj, b: obj).
soft obj s: R[t](x, y) => EqO(x, y).
soft obj sp: Rp[t](x, y) => EqO(x, y).
dc d: R[t1](y, y), Rp[t2](z, z).
""",
    facts=[("R", "a1", "a2"), ("Rp", "b1", "b2"), ("Rp", "c1", "c2")],
)

CHAINED_TRIGGER = dict(
    spec="""\
schema R(a: obj, b: obj).
schema Rp(a: obj, b: obj).
soft obj s: R[t](x, y) => EqO(x, y).
soft obj sp: R[t1](z, z), Rp[t2](x, y) => EqO(x, y).
dc d: R[t1](y, y), Rp[t2](z, z).
""",
    facts=[("R", "a1", "a2"), ("Rp", "b1", "b2")],
)

FOUR_RULE_CONFLICT = dict(
    spec="""\
schema Ra(a: obj, b: obj).
schema Rb(a: obj, b: obj).
schema Rc(a: obj, b: obj).
soft obj sa: Ra[t](x, y) => EqO(x, y).
soft obj sb: Rb[t](x, y) => EqO(x, y).
soft obj sc: Rc[t](x, y) => EqO(x, y).
soft obj scp: Rb[t1](z, z), Rc[t2](x, y) => EqO(x, y).
dc d: Ra[t1](y, y), Rc[t2](z, z).
""",
    facts=[("Ra", "a1", "a2"), ("Rb", "b1", "b2"), ("Rc", "c1", "c2")],
)

DOUBLE_SUPPORT = dict(
    spec="""\
schema R(a: obj, b: obj).
schema Rp(a: obj, b: obj).
schema Rpp(a: obj, b: obj).
soft obj s: R[t](x, y) => EqO(x, y).
soft obj sp: Rp[t](x, y) => EqO(x, y).
soft obj spp: Rpp[t](x, y) => EqO(x, y).
dc d: R[t1](y, y), Rp[t2](z, z).
""",
    facts=[("R", "a1", "a2"), ("Rp", "b1", "b2"), ("Rpp", "b1", "b2")],
)


def build_object_instance(fixture):
    spec = parse_spec(fixture["spec"])
    facts = [
        Fact(spec.schema[rel], tid(f"t{k}"), (obj(a), obj(b)))
        for k, (rel, a, b) in enumerate(fixture["facts"], start=1)
    ]
    db = Database(spec.schema.values(), facts)
    return spec, db, SimilarityStore()


def merged_texts(cand):
    """Readable shape of a candidate: sorted merged classes of E and V."""
    e = tuple(sorted(tuple(sorted(c.text for c in cls)) for cls in cand.E.merged_classes()))
    v = tuple(sorted(tuple(sorted(repr(c) for c in cls)) for cls in cand.V.merged_classes()))
    return e, v
