import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from erx.core import (
    Cell,
    Database,
    DomainError,
    EquivRel,
    Fact,
    NULL,
    RelationDecl,
    Sort,
    eqrel_close,
    extend,
    obj,
    pair_count,
    tid,
    val,
)
from oracles import ExtFact, close_by_saturation

from conftest import build_authors


def test_constant_sorts_disjoint():
    assert obj("a") != val("a") != tid("a")
    assert NULL.sort is Sort.NULL


def test_fact_type_checks():
    decl = RelationDecl("R", (Sort.OBJ, Sort.VAL))
    Fact(decl, tid("t1"), (obj("o"), val("v")))
    Fact(decl, tid("t1"), (obj("o"), NULL))
    with pytest.raises(DomainError):
        Fact(decl, tid("t1"), (val("v"), val("v")))
    with pytest.raises(DomainError):
        Fact(decl, tid("t1"), (obj("o"), obj("o")))
    with pytest.raises(DomainError):
        Fact(decl, tid("t1"), (obj("o"),))


def test_duplicate_tid_rejected():
    decl = RelationDecl("R", (Sort.OBJ,))
    facts = [Fact(decl, tid("t1"), (obj("a"),)), Fact(decl, tid("t1"), (obj("b"),))]
    with pytest.raises(DomainError):
        Database([decl], facts)


def test_objects_and_cells_of_authors_db():
    _, db, _ = build_authors()
    assert len(db.facts) == 6
    assert {o.text for o in db.objects()} == {"a1", "a2", "a3"}
    # 3 author rows x 3 value positions + 3 awarded rows x 1 value position
    assert len(db.cells()) == 12
    assert db.value_at(Cell(tid("t5"), 2)) == val("Smith's Prize")


def test_eqrel_close_empty_is_identity():
    e = eqrel_close([], {obj("a"), obj("b"), obj("c")})
    assert e.is_identity()
    assert len(e.classes()) == 3
    assert pair_count(e) == 3


def test_eqrel_close_running_example_pair():
    _, db, _ = build_authors()
    e = eqrel_close([(obj("a1"), obj("a2"))], db.objects())
    assert e.same(obj("a1"), obj("a2"))
    assert not e.same(obj("a1"), obj("a3"))
    assert {frozenset(c.text for c in cls) for cls in e.classes()} == {
        frozenset({"a1", "a2"}), frozenset({"a3"})
    }


def test_eqrel_close_chain_against_saturation_oracle():
    universe = {obj(x) for x in "abcd"}
    pairs = [(obj("a"), obj("b")), (obj("b"), obj("c"))]
    e = eqrel_close(pairs, universe)
    oracle = close_by_saturation(pairs, universe)
    got = {(a, b) for a in universe for b in universe if e.same(a, b)}
    assert got == oracle
    assert e.same(obj("a"), obj("c")) and e.same(obj("c"), obj("a"))
    assert e.class_of(obj("d")) == frozenset({obj("d")})


def test_eqrel_member_outside_universe():
    with pytest.raises(DomainError):
        eqrel_close([(obj("a"), obj("z"))], {obj("a"), obj("b")})


def test_pair_count_examples():
    # four classes of sizes n+1, n+1, 1, 1 with n = 2
    n = 2
    uni = {obj(f"x{i}") for i in range(1, n + 1)} | {obj(f"y{i}") for i in range(1, n + 1)}
    uni |= {obj("0"), obj("1"), obj("c1"), obj("c2")}
    gens = [(obj(f"x{i}"), obj("0")) for i in range(1, n + 1)]
    gens += [(obj(f"y{i}"), obj("1")) for i in range(1, n + 1)]
    e = eqrel_close(gens, uni)
    assert pair_count(e) == 2 * (n + 1) ** 2 + 2

    uni2 = {obj(c) for c in "abcd"}
    e2 = eqrel_close([(obj("a"), obj("b")), (obj("b"), obj("c"))], uni2)
    ordered = {(a, b) for a in uni2 for b in uni2 if e2.same(a, b)}
    assert pair_count(e2) == len(ordered) == 10


@st.composite
def small_pairsets(draw):
    size = draw(st.integers(min_value=1, max_value=8))
    universe = [obj(f"e{i}") for i in range(size)]
    n_pairs = draw(st.integers(min_value=0, max_value=6))
    pairs = [
        (universe[draw(st.integers(0, size - 1))], universe[draw(st.integers(0, size - 1))])
        for _ in range(n_pairs)
    ]
    return frozenset(universe), pairs


@settings(max_examples=60, deadline=None)
@given(small_pairsets(), st.randoms(use_true_random=False))
def test_closure_idempotent_and_order_independent(data, rnd):
    universe, pairs = data
    e1 = eqrel_close(pairs, universe)
    again = eqrel_close(e1.merged_pairs(), universe)
    assert again == e1
    shuffled = list(pairs)
    rnd.shuffle(shuffled)
    assert eqrel_close(shuffled, universe) == e1
    # closing in two stages agrees with closing at once
    half = len(pairs) // 2
    staged = eqrel_close(pairs[:half], universe).extend(pairs[half:])
    assert staged == e1


@settings(max_examples=60, deadline=None)
@given(small_pairsets())
def test_pair_count_lower_bound(data):
    universe, pairs = data
    e = eqrel_close(pairs, universe)
    assert pair_count(e) >= len(universe)
    assert (pair_count(e) == len(universe)) == e.is_identity()


@settings(max_examples=60, deadline=None)
@given(small_pairsets())
def test_closure_is_equivalence_relation(data):
    universe, pairs = data
    e = eqrel_close(pairs, universe)
    for a in universe:
        assert e.same(a, a)
    for a, b in itertools.product(universe, repeat=2):
        assert e.same(a, b) == e.same(b, a)
    for a, b, c in itertools.product(universe, repeat=3):
        if e.same(a, b) and e.same(b, c):
            assert e.same(a, c)


def decoded_facts(xdb):
    """The rows of an extended database as extended facts of constants."""
    consts = xdb.db.interned().constants
    return [ExtFact(f.rel, f.tid, tuple(frozenset(consts[k] for k in s) for s in row[1:]), f)
            for f, row in zip(xdb.db.facts, xdb.rows)]


def test_extend_identity_has_singletons():
    _, db, _ = build_authors()
    xdb = extend(db, EquivRel.identity(db.objects()), EquivRel.identity(db.cells()))
    for xf in decoded_facts(xdb):
        assert all(len(s) == 1 for s in xf.argsets)


def test_extend_running_example_sets():
    _, db, _ = build_authors()
    e = eqrel_close([(obj("a1"), obj("a2"))], db.objects())
    v = eqrel_close(
        [(Cell(tid("t1"), 2), Cell(tid("t2"), 2)), (Cell(tid("t4"), 2), Cell(tid("t5"), 2))],
        db.cells(),
    )
    xdb = extend(db, e, v)
    by_tid = {xf.tid.text: xf for xf in decoded_facts(xdb)}
    merged_authors = frozenset({obj("a1"), obj("a2")})
    merged_names = frozenset({val("A. Turing"), val("Alan Turing")})
    merged_awards = frozenset({val("Smith's Prize"), val("Smith's Prize(1936)")})
    for t in ("t1", "t2"):
        assert by_tid[t].argsets[0] == merged_authors
        assert by_tid[t].argsets[1] == merged_names
    for t in ("t4", "t5"):
        assert by_tid[t].argsets[0] == merged_authors
        assert by_tid[t].argsets[1] == merged_awards
    assert by_tid["t3"].argsets[0] == frozenset({obj("a3")})
    assert by_tid["t6"].argsets[1] == frozenset({val("Smith's Prize")})


def test_extend_single_fact_identity():
    decl = RelationDecl("R", (Sort.OBJ, Sort.VAL))
    db = Database([decl], [Fact(decl, tid("t"), (obj("o"), val("v")))])
    xdb = extend(db, EquivRel.identity(db.objects()), EquivRel.identity(db.cells()))
    assert decoded_facts(xdb)[0].argsets == (frozenset({obj("o")}), frozenset({val("v")}))
    assert decoded_facts(xdb)[0].set_at(0) == frozenset({tid("t")})


def test_extend_universe_mismatch():
    _, db, _ = build_authors()
    with pytest.raises(DomainError):
        extend(db, EquivRel.identity(frozenset()), EquivRel.identity(db.cells()))


def test_extension_monotone_in_merges():
    _, db, _ = build_authors()
    rng = random.Random(5)
    objs = sorted(db.objects(), key=lambda c: c.text)
    cells = sorted(db.cells(), key=lambda c: (c.tid.text, c.pos))
    for _ in range(25):
        e = EquivRel.identity(db.objects())
        v = EquivRel.identity(db.cells())
        prev = extend(db, e, v)
        for _ in range(3):
            if rng.random() < 0.5:
                e = e.extend([(rng.choice(objs), rng.choice(objs))])
            else:
                v = v.extend([(rng.choice(cells), rng.choice(cells))])
            cur = extend(db, e, v)
            for xa, xb in zip(decoded_facts(prev), decoded_facts(cur)):
                assert all(sa <= sb for sa, sb in zip(xa.argsets, xb.argsets))
            prev = cur


def test_cell_value_sets_keep_own_value():
    _, db, _ = build_authors()
    cells = sorted(db.cells(), key=lambda c: (c.tid.text, c.pos))
    v = eqrel_close([(cells[0], cells[4])], db.cells())
    xdb = extend(db, EquivRel.identity(db.objects()), v)
    for xf in decoded_facts(xdb):
        for i, a in enumerate(xf.orig.args, start=1):
            if xf.rel.type_vec[i - 1] is Sort.VAL:
                assert a in xf.argsets[i - 1]
