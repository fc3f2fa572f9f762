import random

import pytest
from hypothesis import given, settings, strategies as st

from erx.core import (
    Cell,
    Database,
    EquivRel,
    Fact,
    InternedDatabase,
    NULL,
    RelationDecl,
    Sort,
    eqrel_close,
    extend,
    obj,
    tid,
    val,
)
from erx.gadgets import Cnf3, HornInput, gen_3sat, gen_horn
from erx.query import (
    EMPTY_SIM,
    CompiledQuery,
    Query,
    SimilarityStore,
    UnsafeQueryError,
    dc_body_query,
    dc_violated,
    eval_boolean,
    eval_query,
    rule_body_query,
)
from erx.semantics import identity_candidate
from erx.specdsl import RelAtom, Var, parse_spec

from conftest import AUTHORS_SPEC, build_authors
from oracles import (
    boolean_by_unrestricted_search,
    naive_identity_answers,
    reference_eval_boolean,
    reference_eval_query,
)
from randgen import random_body_query, random_horn, random_instance, random_merge_chain


def _authors_states():
    spec, db, sim = build_authors()
    e0 = EquivRel.identity(db.objects())
    v0 = EquivRel.identity(db.cells())
    e1 = eqrel_close([(obj("a1"), obj("a2"))], db.objects())
    v1 = eqrel_close([(Cell(tid("t1"), 2), Cell(tid("t2"), 2))], db.cells())
    return spec, db, sim, e0, v0, e1, v1


def test_object_rule_body_answers_at_identity():
    spec, db, sim, e0, v0, _, _ = _authors_states()
    q = rule_body_query(spec.rule_by_label("s1"))
    answers = eval_query(q, extend(db, e0, v0), sim)
    assert (obj("a1"), obj("a2")) in answers
    assert (obj("a2"), obj("a1")) in answers
    assert (obj("a1"), obj("a3")) not in answers


def test_dc_satisfiable_after_object_merge_only():
    spec, db, sim, _, v0, e1, v1 = _authors_states()
    q = dc_body_query(spec.dcs[0])
    # objects merged, names not: the two name cells hold disjoint singletons
    assert eval_boolean(q, extend(db, e1, v0), sim) is True
    # name cells merged: both carry the same two-element set, so the
    # inequality can no longer be witnessed
    assert eval_boolean(q, extend(db, e1, v1), sim) is False


def test_value_rule_requires_merged_objects():
    spec, db, sim, e0, v0, e1, v1 = _authors_states()
    q = rule_body_query(spec.rule_by_label("s2"))
    assert eval_query(q, extend(db, e0, v0), sim) == frozenset(
        {(tid(t), tid(t)) for t in ("t4", "t5", "t6")}
    )
    merged = eval_query(q, extend(db, e1, v1), sim)
    assert (tid("t4"), tid("t5")) in merged and (tid("t5"), tid("t4")) in merged


def test_empty_database_yields_no_answers():
    decl = RelationDecl("R", (Sort.OBJ,))
    db = Database([decl], [])
    spec = parse_spec("schema R(a: obj).\ndc d: R[t](x).\n", schema=None)
    xdb = extend(db, EquivRel.identity(db.objects()), EquivRel.identity(db.cells()))
    assert eval_query(Query(("x",), spec.dcs[0].body), xdb, SimilarityStore()) == frozenset()


def test_empty_body_query_is_true():
    decl = RelationDecl("R", (Sort.OBJ,))
    db = Database([decl], [])
    xdb = extend(db, EquivRel.identity(db.objects()), EquivRel.identity(db.cells()))
    assert eval_boolean(Query((), ()), xdb, SimilarityStore()) is True


def test_unsafe_query_rejected():
    spec, db, sim, e0, v0, _, _ = _authors_states()
    xdb = extend(db, e0, v0)
    with pytest.raises(UnsafeQueryError):
        eval_query(Query(("nowhere",), ()), xdb, sim)


def test_gadget_boolean_queries():
    inst = gen_3sat(Cnf3(1, ((1, 1, 1),)))
    db, spec = inst.db, inst.spec
    tf_clash = parse_spec(
        "schema T(c: obj).\nschema F(c: obj).\ndc d: T[t1](y), F[t2](y).\n"
    ).dcs[0]
    q = dc_body_query(tf_clash)
    ident = identity_candidate(db)
    xdb = extend(db, ident.E, ident.V)
    assert eval_boolean(q, xdb, SimilarityStore()) is False
    # merging a variable with both truth constants makes T and F overlap
    e = eqrel_close([(obj("x1"), obj("0")), (obj("x1"), obj("1"))], db.objects())
    xdb2 = extend(db, e, ident.V)
    assert eval_boolean(q, xdb2, SimilarityStore()) is True
    # the unrestricted witness search agrees on both states
    assert boolean_by_unrestricted_search(q, xdb, SimilarityStore()) is False
    assert boolean_by_unrestricted_search(q, xdb2, SimilarityStore()) is True


def test_nulls_never_join_shared_value_variables():
    spec = parse_spec(
        "schema P(ent: obj, attr: val).\n"
        "dc same: P[t1](x, a), P[t2](y, a).\n"
    )
    decl = spec.schema["P"]
    db = Database([decl], [
        Fact(decl, tid("t1"), (obj("o1"), NULL)),
        Fact(decl, tid("t2"), (obj("o2"), NULL)),
    ])
    xdb = extend(db, EquivRel.identity(db.objects()), EquivRel.identity(db.cells()))
    q = Query((), spec.dcs[0].body)
    # both rows match the first atom reflexively, but two nulls are never
    # the same value, so the only joins are within a single row... which
    # also fail: the shared variable strips nulls
    assert eval_boolean(q, xdb, SimilarityStore()) is False


def test_two_null_cells_satisfy_inequality():
    spec = parse_spec(
        "schema P(ent: obj, attr: val).\n"
        "dc diff: P[t1](x, a), P[t2](x, b), a != b.\n"
    )
    decl = spec.schema["P"]
    db = Database([decl], [
        Fact(decl, tid("t1"), (obj("o1"), NULL)),
        Fact(decl, tid("t2"), (obj("o1"), NULL)),
    ])
    xdb = extend(db, EquivRel.identity(db.objects()), EquivRel.identity(db.cells()))
    assert eval_boolean(Query((), spec.dcs[0].body), xdb, SimilarityStore()) is True


def test_null_never_similar():
    spec = parse_spec(
        "schema P(ent: obj, attr: val).\n"
        "dc simd: P[t1](x, a), P[t2](y, b), sim(a, b) >= 0.\n"
    )
    decl = spec.schema["P"]
    db = Database([decl], [Fact(decl, tid("t1"), (obj("o1"), NULL))])
    xdb = extend(db, EquivRel.identity(db.objects()), EquivRel.identity(db.cells()))
    # threshold 0 is satisfiable by any non-null pair; a lone null row
    # offers no non-null witnesses at all
    assert eval_boolean(Query((), spec.dcs[0].body), xdb, SimilarityStore()) is False


def test_identity_merge_matches_naive_evaluation():
    rng = random.Random(11)
    for _ in range(120):
        spec, db, store = random_instance(rng, allow_nulls=False)
        q = random_body_query(rng)
        free = sorted(
            {t.name for a in q.atoms if isinstance(a, RelAtom) for t in a.args
             if isinstance(t, Var) and not t.name.startswith("_")}
        )[:2]
        q = Query(tuple(free), q.atoms)
        xdb = extend(db, EquivRel.identity(db.objects()), EquivRel.identity(db.cells()))
        assert eval_query(q, xdb, store) == naive_identity_answers(q, db, store)


def test_monotone_answers_under_merge_growth():
    rng = random.Random(13)
    for _ in range(60):
        spec, db, store = random_instance(rng)
        q = random_body_query(rng)
        chain = random_merge_chain(rng, db, steps=3)
        prev = None
        for e, v in chain:
            answers = eval_query(q, extend(db, e, v), store)
            if prev is not None:
                assert prev <= answers
            prev = answers


def test_codomain_restriction_matches_unrestricted_search():
    # tiny instances: <= 3 constants, 1-2 relational atoms
    spec = parse_spec(
        "schema P(ent: obj, attr: val).\n"
        "dc d1: P[t1](x, a), P[t2](y, a).\n"
        "dc d2: P[t1](x, a), P[t2](x, b), sim(a, b) >= 50.\n"
        "dc d3: P[t1](x, a), P[t2](y, b), a != b.\n"
    )
    decl = spec.schema["P"]
    rng = random.Random(17)
    store = SimilarityStore([(val("u"), val("w"), 60)])
    for _ in range(40):
        facts = []
        for k in range(rng.randint(1, 2)):
            facts.append(Fact(decl, tid(f"t{k + 1}"),
                              (obj(rng.choice(["o1", "o2"])), val(rng.choice(["u", "w"])))))
        db = Database([decl], facts)
        chain = random_merge_chain(rng, db, steps=2)
        for e, v in chain:
            xdb = extend(db, e, v)
            for dc in spec.dcs:
                q = dc_body_query(dc)
                assert eval_boolean(q, xdb, store) == boolean_by_unrestricted_search(q, xdb, store)


def test_inequality_against_object_constant():
    spec = parse_spec('schema R(a: obj, b: val).\ndc d1: R[t](x, v), x != "o1".\n')
    decl = spec.schema["R"]
    sim = SimilarityStore()
    for o, violated in (("o1", False), ("o2", True)):
        db = Database([decl], [Fact(decl, tid("t1"), (obj(o), val("v1")))])
        xdb = extend(db, EquivRel.identity(db.objects()), EquivRel.identity(db.cells()))
        assert dc_violated(spec.dcs[0], xdb, sim) is violated
        compiled = CompiledQuery(dc_body_query(spec.dcs[0]), InternedDatabase(db), sim)
        assert compiled.holds(InternedDatabase(db).identity_rows()) is violated


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_compiled_queries_match_from_scratch_under_merges(seed):
    # Along a chain of random merges, full compiled evaluation agrees with
    # the reference interpreter, and for queries without inequality atoms
    # the parent's answers plus the delta are the child's answers.
    rng = random.Random(seed)
    spec, db, sim = random_instance(rng, max_objects=4, max_facts=6,
                                    restricted=rng.random() < 0.5, extra=True)
    idb = InternedDatabase(db)
    bodies = [rule_body_query(r) for r in spec.rules()] + [dc_body_query(d) for d in spec.dcs]
    compiled = [CompiledQuery(q, idb, sim) for q in bodies]
    labels = [tuple(range(len(idb.objects))), tuple(range(len(idb.cells)))]
    rows = idb.identity_rows()
    for _ in range(5):
        cells = int(rng.random() < 0.5)
        if len(labels[cells]) < 2:
            continue
        la, lb = sorted(labels[cells][i] for i in rng.sample(range(len(labels[cells])), 2))
        if la == lb:
            continue
        labels[cells] = tuple(la if l == lb else l for l in labels[cells])
        members = [i for i, l in enumerate(labels[cells]) if l == la]
        new_rows, changed = idb.merged_rows(rows, bool(cells), members)
        xdb = extend(db, EquivRel.from_labels(idb.objects, labels[0]),
                     EquivRel.from_labels(idb.cells, labels[1]))
        for q, c in zip(bodies, compiled):
            answers = c.answers(new_rows)
            assert answers == {tuple(idb.code(k) for k in t)
                               for t in reference_eval_query(q, xdb, sim)}
            assert c.holds(new_rows) == reference_eval_boolean(q, xdb, sim)
            if c.monotone:
                assert answers == c.answers(rows) | c.answers_delta(new_rows, changed)
                assert c.holds(new_rows) == (c.holds(rows) or c.holds_delta(new_rows, changed))
        rows = new_rows


# Joins a Horn gadget's rules do not make: head to body position along a
# chain of three facts, and two atoms on one tid.
HORN_CHAINS = """\
dc c1: R[t1](l, a, b, h), R[t2](m, h, c, d), R[t3](k, d, e, f).
dc c2: R[t1](l, a, b, h), R[t1](m, a, c, d), W[t2](d, q).
"""


def _merge_classes(idb, labels, rows, picked):
    """Merge the object classes labelled `picked` into one; the new labels,
    rows and changed facts."""
    least = min(picked)
    labels = tuple(least if l in picked else l for l in labels)
    members = [i for i, l in enumerate(labels) if l == least]
    rows, changed = idb.merged_rows(rows, False, members)
    return labels, rows, changed


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_compiled_horn_queries_match_reference_under_class_merges(seed):
    # A bound object variable reads the postings of every code in its class.
    # Merging two to four classes at a time grows classes of three or more
    # objects, so one lookup unions several codes' postings.
    rng = random.Random(seed)
    inst = gen_horn(random_horn(rng, max_vars=8))
    db = inst.db
    spec = parse_spec(inst.spec_text + HORN_CHAINS)
    idb = InternedDatabase(db)
    bodies = [rule_body_query(r) for r in spec.rules()] + [dc_body_query(d) for d in spec.dcs]
    compiled = [CompiledQuery(q, idb, EMPTY_SIM) for q in bodies]
    labels = tuple(range(len(idb.objects)))
    rows = idb.identity_rows()
    c1, c2 = idb.number(obj("c1")), idb.number(obj("c2"))
    for step in range(6):
        classes = sorted(set(labels))
        if len(classes) < 2:
            break
        picked = set(rng.sample(classes, min(len(classes), rng.randint(2, 4))))
        if step == 0 and rng.random() < 0.7:
            # the rule rho joins only once c1 and c2 share a class
            picked |= {labels[c1], labels[c2]}
        new_labels, new_rows, changed = _merge_classes(idb, labels, rows, picked)
        xdb = extend(db, EquivRel.from_labels(idb.objects, new_labels),
                     EquivRel.identity(db.cells()))
        for q, c in zip(bodies, compiled):
            answers = c.answers(new_rows)
            assert answers == {tuple(idb.code(k) for k in t)
                               for t in reference_eval_query(q, xdb, EMPTY_SIM)}
            holds = c.holds(new_rows)
            assert holds == reference_eval_boolean(q, xdb, EMPTY_SIM)
            assert answers == c.answers(rows) | c.answers_delta(new_rows, changed)
            assert holds == (c.holds(rows) or c.holds_delta(new_rows, changed))
        labels, rows = new_labels, new_rows


class CountingRows(tuple):
    """Rows that count how often a row is read."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_horn_rule_join_reads_facts_linearly():
    # rho joins R[t2] to R[t1] on three object variables.  Scanning R for
    # every fact of R reads |R|^2 + |R| + 1 rows (3,193 here); reading the
    # postings of the bound label reads each R fact once for R[t1] and the
    # two facts of its label for R[t2].
    n = 28
    variables = tuple(f"x{i}" for i in range(1, n + 1))
    clauses = tuple((f"x{i}", f"x{i}", f"x{i + 1}") for i in range(1, n))
    inst = gen_horn(HornInput(variables, ("x1",), clauses, f"x{n}"))
    db, spec = inst.db, inst.spec
    idb = InternedDatabase(db)
    c = CompiledQuery(rule_body_query(spec.rule_by_label("rho")), idb, EMPTY_SIM)
    c1, c2 = idb.number(obj("c1")), idb.number(obj("c2"))
    _, rows, _ = _merge_classes(idb, tuple(range(len(idb.objects))), idb.identity_rows(),
                                {c1, c2})
    counted = CountingRows(rows)
    answers = c.answers(counted)
    assert answers == c.answers(rows) and answers
    assert counted.reads <= 4 * len(db.facts)


def test_value_position_join_under_cell_merges_matches_reference():
    # Value positions keep the scan: with t2's and t3's dob and pob cells
    # merged, t3's rows hold t1's values although t3's own values differ,
    # so a lookup by original value would miss the join of t1 with t3.
    _, db, sim = build_authors()
    body = parse_spec(AUTHORS_SPEC + "dc j: Author[t1](x, n1, d, p), Author[t2](y, n2, d, p).\n")
    q = Query(("x", "y"), body.dcs[-1].body)
    v = eqrel_close([(Cell(tid("t2"), 3), Cell(tid("t3"), 3)),
                     (Cell(tid("t2"), 4), Cell(tid("t3"), 4))], db.cells())
    xdb = extend(db, EquivRel.identity(db.objects()), v)
    answers = eval_query(q, xdb, sim)
    assert answers == reference_eval_query(q, xdb, sim)
    assert (obj("a1"), obj("a3")) in answers
