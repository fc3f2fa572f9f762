import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from erx.core import Cell, Database, EquivRel, Fact, eqrel_close, extend, obj, tid, val
from erx.gadgets import (Cnf3, HornInput, gen_3sat_restricted_max_e, gen_3sat_restricted_min_a,
                         gen_horn)
from erx.query import EMPTY_SIM, SimilarityStore, dc_body_query
from erx.semantics import (
    ALL_CRITERIA,
    Candidate,
    Criterion,
    criterion_sets,
    identity_candidate,
    is_candidate,
    is_solution,
)
from erx.solver import (
    BudgetExceededError,
    DerivationWalk,
    SearchConfig,
    UnsupportedCriterionError,
    UnsupportedSettingError,
    candidate_key,
    enumerate_solutions,
    generator_universe,
    optimal_solutions,
    recognize_many,
    recognize_optimal_bruteforce,
    recognize_optimal_restricted,
)
from erx.specdsl import parse_spec

from conftest import (
    CHAINED_TRIGGER,
    DOUBLE_SUPPORT,
    FOUR_RULE_CONFLICT,
    TWO_RULE_CONFLICT,
    build_authors,
    build_object_instance,
    merged_texts,
)
from oracles import (
    close_subset,
    reachable_candidates,
    reference_active_entries,
    reference_eval_boolean,
    reference_is_candidate,
    reference_is_solution,
    reference_recognize_restricted,
    reference_universe,
    solutions_by_subsets,
)
from randgen import random_cnf, random_horn, random_instance, random_merge_chain


def test_enumerate_running_example_exactly_three():
    spec, db, sim = build_authors()
    sols = enumerate_solutions(db, spec, sim)
    shapes = sorted(merged_texts(s) for s in sols)
    assert shapes == [
        ((), ()),
        ((("a1", "a2"),), (("t1.2", "t2.2"),)),
        ((("a1", "a2"),), (("t1.2", "t2.2"), ("t4.2", "t5.2"))),
    ]


def test_enumerate_empty_spec_single_identity_solution():
    spec, db, sim = build_authors()
    empty = parse_spec(
        "schema Author(aid: obj, name: val, dob: val, pob: val).\n"
        "schema Awarded(aid: obj, awrd: val).\n"
    )
    sols = enumerate_solutions(db, empty, sim)
    assert len(sols) == 1 and sols[0] == identity_candidate(db)


def test_enumerate_two_rule_conflict_solution_space():
    spec, db, sim = build_object_instance(TWO_RULE_CONFLICT)
    sols = enumerate_solutions(db, spec, sim)
    shapes = sorted(merged_texts(s)[0] for s in sols)
    assert shapes == sorted([
        (),
        (("a1", "a2"),),
        (("b1", "b2"),),
        (("c1", "c2"),),
        (("b1", "b2"), ("c1", "c2")),
    ])


def test_enumeration_outputs_are_solutions_and_exhaustive():
    rng = random.Random(57)
    checked = 0
    while checked < 25:
        spec, db, sim = random_instance(rng, max_objects=4)
        try:
            sols = enumerate_solutions(db, spec, sim)
            reachable = reachable_candidates(db, spec, sim, cap=3000)
        except (BudgetExceededError, RuntimeError):
            continue
        for cand in sols:
            assert is_solution(db, spec, cand, sim)
        oracle_sols = {c for c in reachable if reference_is_solution(db, spec, c, sim)}
        assert set(sols) == oracle_sols
        checked += 1


def test_enumeration_order_deterministic():
    spec, db, sim = build_object_instance(TWO_RULE_CONFLICT)
    a = enumerate_solutions(db, spec, sim)
    b = enumerate_solutions(db, spec, sim)
    assert [candidate_key(c) for c in a] == [candidate_key(c) for c in b]
    assert [candidate_key(c) for c in a] == sorted(candidate_key(c) for c in a)


def test_budget_exhaustion_raises():
    spec, db, sim = build_authors()
    with pytest.raises(BudgetExceededError):
        enumerate_solutions(db, spec, sim, SearchConfig(pair_budget=2))


def test_optimal_solutions_two_rule_conflict():
    spec, db, sim = build_object_instance(TWO_RULE_CONFLICT)
    e_a = ((("a1", "a2"),), ())
    e_bc = ((("b1", "b2"), ("c1", "c2")), ())
    for crit in (Criterion.MAX_ES, Criterion.MIN_AS, Criterion.MIN_VS):
        got = sorted(merged_texts(s) for s in optimal_solutions(db, spec, crit, sim))
        assert got == sorted([e_a, e_bc])
    for crit in (Criterion.MAX_EC, Criterion.MAX_SC, Criterion.MIN_AC, Criterion.MIN_VC):
        got = [merged_texts(s) for s in optimal_solutions(db, spec, crit, sim)]
        assert got == [e_bc]


def test_optimal_solutions_chained_trigger():
    spec, db, sim = build_object_instance(CHAINED_TRIGGER)
    ident = ((), ())
    e_a = ((("a1", "a2"),), ())
    assert [merged_texts(s) for s in optimal_solutions(db, spec, Criterion.MAX_ES, sim)] == [e_a]
    for crit in (Criterion.MIN_AS, Criterion.MIN_VS, Criterion.MIN_AC, Criterion.MIN_VC):
        got = sorted(merged_texts(s) for s in optimal_solutions(db, spec, crit, sim))
        assert got == sorted([ident, e_a])
    for crit in (Criterion.MAX_EC, Criterion.MAX_SC):
        assert [merged_texts(s) for s in optimal_solutions(db, spec, crit, sim)] == [e_a]


def test_optimal_solutions_four_rule_conflict():
    spec, db, sim = build_object_instance(FOUR_RULE_CONFLICT)
    e_a = ((("a1", "a2"),), ())
    e_ab = ((("a1", "a2"), ("b1", "b2")), ())
    e_bc = ((("b1", "b2"), ("c1", "c2")), ())
    assert sorted(merged_texts(s) for s in optimal_solutions(db, spec, Criterion.MIN_AC, sim)) \
        == sorted([e_ab, e_bc])
    assert [merged_texts(s) for s in optimal_solutions(db, spec, Criterion.MIN_VC, sim)] == [e_bc]
    assert sorted(merged_texts(s) for s in optimal_solutions(db, spec, Criterion.MIN_VS, sim)) \
        == sorted([e_a, e_ab, e_bc])


def test_optimal_solutions_double_support():
    spec, db, sim = build_object_instance(DOUBLE_SUPPORT)
    e_a = ((("a1", "a2"),), ())
    e_b = ((("b1", "b2"),), ())
    assert sorted(merged_texts(s) for s in optimal_solutions(db, spec, Criterion.MAX_EC, sim)) \
        == sorted([e_a, e_b])
    assert [merged_texts(s) for s in optimal_solutions(db, spec, Criterion.MAX_SC, sim)] == [e_b]


def test_recognize_bruteforce_running_example():
    spec, db, sim = build_authors()
    e1 = eqrel_close([(obj("a1"), obj("a2"))], db.objects())
    v2 = eqrel_close(
        [(Cell(tid("t1"), 2), Cell(tid("t2"), 2)), (Cell(tid("t4"), 2), Cell(tid("t5"), 2))],
        db.cells(),
    )
    best = Candidate(e1, v2)
    res = recognize_optimal_bruteforce(db, spec, best, Criterion.MAX_ES, sim)
    assert res.optimal and res.witness is None

    ident = identity_candidate(db)
    res = recognize_optimal_bruteforce(db, spec, ident, Criterion.MAX_ES, sim)
    assert not res.optimal
    assert res.witness is not None and is_solution(db, spec, res.witness, sim)

    not_solution = Candidate(e1, EquivRel.identity(db.cells()))
    res = recognize_optimal_bruteforce(db, spec, not_solution, Criterion.MAX_ES, sim)
    assert not res.optimal and res.witness is None


def test_recognize_many_defaults_to_the_empty_similarity_store():
    # The running example's rules have similarity atoms, so a missing store
    # would be read.
    spec, db, _ = build_authors()
    cand = identity_candidate(db)
    assert recognize_many(db, spec, cand) == \
        recognize_many(db, spec, cand, ALL_CRITERIA, EMPTY_SIM)


def test_restricted_requires_inequality_free_dcs():
    spec, db, sim = build_authors()
    with pytest.raises(UnsupportedSettingError):
        recognize_optimal_restricted(db, spec, identity_candidate(db), Criterion.MAX_ES, sim)


def test_restricted_rejects_cardinality_and_maxss():
    spec, db, sim = build_object_instance(TWO_RULE_CONFLICT)
    cand = identity_candidate(db)
    for crit in (Criterion.MAX_EC, Criterion.MAX_SC, Criterion.MIN_AC, Criterion.MIN_VC,
                 Criterion.MAX_SS):
        with pytest.raises(UnsupportedCriterionError):
            recognize_optimal_restricted(db, spec, cand, crit, sim)


def test_restricted_horn_examples():
    sim = SimilarityStore()
    # the formula entails its query, so the identity is as good as it gets
    entailed = gen_horn(HornInput(("x1", "x2"), ("x1",), (("x1", "x1", "x2"),), "x2"))
    res = recognize_optimal_restricted(entailed.db, entailed.spec, entailed.candidate,
                                       Criterion.MIN_AS, sim)
    assert res.optimal

    # an underivable query leaves room for a solution with nothing absent
    open_world = gen_horn(HornInput(("x1", "x2", "x3"), ("x1",), (("x1", "x1", "x2"),), "x3"))
    res = recognize_optimal_restricted(open_world.db, open_world.spec, open_world.candidate,
                                       Criterion.MIN_AS, sim)
    assert not res.optimal
    assert res.witness is not None
    from erx.semantics import criterion_sets

    wit_sets = criterion_sets(open_world.db, res.witness, open_world.spec, sim)
    assert wit_sets.absent == frozenset()
    assert res.witness.E.same(obj("c1"), obj("c2"))

    unit_only = gen_horn(HornInput(("x1",), ("x1",), (), "x1"))
    res = recognize_optimal_restricted(unit_only.db, unit_only.spec, unit_only.candidate,
                                       Criterion.MIN_AS, sim)
    assert res.optimal


def test_restricted_trivial_spec_all_optimal():
    spec, db, sim = build_authors()
    empty = parse_spec(
        "schema Author(aid: obj, name: val, dob: val, pob: val).\n"
        "schema Awarded(aid: obj, awrd: val).\n"
    )
    ident = identity_candidate(db)
    for crit in (Criterion.MAX_ES, Criterion.MIN_AS, Criterion.MIN_VS):
        assert recognize_optimal_restricted(db, empty, ident, crit, sim).optimal


def test_restricted_non_solution_rejected():
    spec, db, sim = build_object_instance(CHAINED_TRIGGER)
    bad = Candidate(
        eqrel_close([(obj("a1"), obj("a2")), (obj("b1"), obj("b2"))], db.objects()),
        EquivRel.identity(db.cells()),
    )
    res = recognize_optimal_restricted(db, spec, bad, Criterion.MIN_AS, sim)
    assert not res.optimal and res.witness is None


def test_restricted_agrees_with_bruteforce_spot():
    rng = random.Random(71)
    cfg = SearchConfig(pair_budget=20)
    checked = 0
    while checked < 40:
        spec, db, sim = random_instance(rng)
        if not spec.restricted:
            continue
        try:
            sols = enumerate_solutions(db, spec, sim, cfg)
        except BudgetExceededError:
            continue
        if not sols:
            continue
        cand = sols[rng.randrange(len(sols))]
        for crit in (Criterion.MAX_ES, Criterion.MIN_AS, Criterion.MIN_VS):
            r = recognize_optimal_restricted(db, spec, cand, crit, sim, cfg)
            b = recognize_optimal_bruteforce(db, spec, cand, crit, sim, cfg)
            assert r.optimal == b.optimal
            if r.witness is not None:
                assert is_solution(db, spec, r.witness, sim)
        checked += 1


def test_generator_universe_covers_solutions():
    spec, db, sim = build_authors()
    uni = generator_universe(db, spec, sim)
    assert set(uni) == {
        (obj("a1"), obj("a2")),
        (Cell(tid("t1"), 2), Cell(tid("t2"), 2)),
        (Cell(tid("t4"), 2), Cell(tid("t5"), 2)),
    }
    # closing the whole universe reproduces every solution's merges
    closure_e = eqrel_close([p for p in uni if not isinstance(p[0], Cell)], db.objects())
    closure_v = eqrel_close([p for p in uni if isinstance(p[0], Cell)], db.cells())
    for cand in enumerate_solutions(db, spec, sim):
        assert cand.E.merged_pairs() <= closure_e.merged_pairs()
        assert cand.V.merged_pairs() <= closure_v.merged_pairs()


def test_max_solutions_truncates():
    spec, db, sim = build_object_instance(TWO_RULE_CONFLICT)
    sols = enumerate_solutions(db, spec, sim, SearchConfig(max_solutions=2))
    assert len(sols) == 2


def test_search_methods_agree():
    # the derivation walk (with constraint pruning in the restricted
    # setting) and the subset closure reference return the same solutions
    rng = random.Random(83)
    fixtures = [build_authors(), build_object_instance(TWO_RULE_CONFLICT),
                build_object_instance(FOUR_RULE_CONFLICT)]
    checked = 0
    while checked < 40:
        spec, db, sim = random_instance(rng, restricted=bool(checked % 2))
        fixtures.append((spec, db, sim))
        checked += 1
    for spec, db, sim in fixtures:
        try:
            derive = enumerate_solutions(db, spec, sim)
        except BudgetExceededError:
            continue
        assert derive == solutions_by_subsets(db, spec, sim)


SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


@settings(max_examples=60, deadline=None)
@given(SEEDS, st.booleans())
def test_walk_solutions_match_subset_oracle(seed, restricted):
    spec, db, sim = random_instance(random.Random(seed), max_objects=4, max_facts=6,
                                    restricted=restricted)
    try:
        sols = enumerate_solutions(db, spec, sim, SearchConfig(pair_budget=9))
    except BudgetExceededError:
        assume(False)
    assert sols == solutions_by_subsets(db, spec, sim)


@settings(max_examples=100, deadline=None)
@given(SEEDS, st.booleans(), st.booleans())
def test_walk_incremental_evaluation_matches_from_scratch(seed, restricted, extra):
    # Every visited state's constraint verdicts, and its active entries
    # wherever the walk computes them, agree with evaluation from scratch
    # and with the reference interpreter.
    spec, db, sim = random_instance(random.Random(seed), max_objects=4, max_facts=6,
                                    restricted=restricted, extra=extra)
    walk = DerivationWalk(db, spec, sim)
    for state in walk.states():
        cand = walk.candidate(state)
        xdb = extend(db, cand.E, cand.V)
        assert state.violated == tuple(
            reference_eval_boolean(dc_body_query(dc), xdb, sim) for dc in spec.dcs)
        if state.entries is not None:
            sets = walk.criterion_sets(cand, state)
            assert sets == criterion_sets(db, cand, spec, sim)
            assert sets.supp | sets.viol == reference_active_entries(db, cand, spec, sim)
        else:
            assert spec.restricted and any(state.violated)


def test_max_states_budget_names_progress():
    inst = gen_3sat_restricted_max_e(Cnf3(4, ((1, 2, 3), (-1, -2, 4), (2, -3, -4))))
    cfg = SearchConfig(pair_budget=32, max_states=100)
    with pytest.raises(BudgetExceededError,
                       match=r"reached 101 merge states, over the budget of 100; \d+ solution"):
        enumerate_solutions(inst.db, inst.spec, SimilarityStore(), cfg)


def _small_instance(rng, restricted, extra):
    return random_instance(rng, max_objects=4, max_facts=6, restricted=restricted, extra=extra)


@settings(max_examples=80, deadline=None)
@given(SEEDS, st.booleans(), st.booleans())
def test_generator_universe_matches_reference(seed, restricted, extra):
    spec, db, sim = _small_instance(random.Random(seed), restricted, extra)
    assert generator_universe(db, spec, sim) == reference_universe(db, spec, sim)


@settings(max_examples=60, deadline=None)
@given(SEEDS, st.booleans(), st.booleans())
def test_is_candidate_matches_reference_derivability(seed, restricted, extra):
    # Random closures are mostly underivable; closures of parts of the
    # universe often are, and the closure of all of it always is.
    rng = random.Random(seed)
    spec, db, sim = _small_instance(rng, restricted, extra)
    universe = reference_universe(db, spec, sim)
    cands = [Candidate(e, v) for e, v in random_merge_chain(rng, db)]
    cands += [close_subset(db, (p for p in universe if rng.random() < 0.5)) for _ in range(3)]
    cands.append(close_subset(db, universe))
    for cand in cands:
        assert is_candidate(db, spec, cand, sim) == reference_is_candidate(db, spec, cand, sim)
    assert is_candidate(db, spec, cands[-1], sim)


@settings(max_examples=60, deadline=None)
@given(SEEDS, st.booleans())
def test_restricted_recognizer_matches_reference(seed, extra):
    # The verdict and the witness, on solutions and on a random closure.
    rng = random.Random(seed)
    spec, db, sim = _small_instance(rng, True, extra)
    try:
        sols = enumerate_solutions(db, spec, sim, SearchConfig(pair_budget=9))
    except BudgetExceededError:
        assume(False)
    cands = rng.sample(sols, min(3, len(sols)))
    cands.append(Candidate(*random_merge_chain(rng, db)[-1]))
    for cand in cands:
        for crit in (Criterion.MAX_ES, Criterion.MIN_AS, Criterion.MIN_VS):
            assert recognize_optimal_restricted(db, spec, cand, crit, sim) == \
                reference_recognize_restricted(db, spec, cand, crit, sim)


@settings(max_examples=40, deadline=None)
@given(SEEDS)
def test_restricted_recognizer_matches_reference_on_gadgets(seed):
    # Horn gadgets derive through a hard rule, which every seed's
    # saturation must add.
    rng = random.Random(seed)
    if seed % 2:
        inst = gen_horn(random_horn(rng, max_vars=5))
    else:
        inst = gen_3sat_restricted_min_a(random_cnf(rng, 2, max_clauses=2))
    sim = SimilarityStore()
    for cand in (inst.candidate, identity_candidate(inst.db)):
        for crit in (Criterion.MAX_ES, Criterion.MIN_AS, Criterion.MIN_VS):
            assert recognize_optimal_restricted(inst.db, inst.spec, cand, crit, sim) == \
                reference_recognize_restricted(inst.db, inst.spec, cand, crit, sim)


def test_restricted_minvs_adds_a_violated_pair_active_under_a_new_rule():
    # At the identity (o1, o2) is violated under r0 only.  Seeding the cell
    # pair makes it active under r2 as well, a violation entry the input
    # does not have, so minVS merges it and minAS does not.
    spec = parse_spec(
        "schema P(ent: obj, attr: val).\nschema Q(ent: obj).\n"
        "soft obj r0: P[t1](x, a), Q[t2](y) => EqO(x, y).\n"
        "soft val r1: P[t1](x, a), P[t2](y, b) => EqV(t1.2, t2.2).\n"
        "soft obj r2: P[t1](x, a), P[t2](y, a) => EqO(x, y).\n"
    )
    db = Database(spec.schema.values(), [
        Fact(spec.schema["P"], tid("t1"), (obj("o1"), val("v1"))),
        Fact(spec.schema["P"], tid("t2"), (obj("o2"), val("v2"))),
        Fact(spec.schema["Q"], tid("t3"), (obj("o2"),)),
    ])
    sim = SimilarityStore()
    ident = identity_candidate(db)
    cells = (("t1.2", "t2.2"),)
    expected = {Criterion.MIN_AS: ((), cells), Criterion.MIN_VS: ((("o1", "o2"),), cells)}
    for crit, shape in expected.items():
        res = recognize_optimal_restricted(db, spec, ident, crit, sim)
        assert res == reference_recognize_restricted(db, spec, ident, crit, sim)
        assert merged_texts(res.witness) == shape


def _walk_state(state):
    return state.labels, state.rows, state.violated, state.entries, state.solution


@settings(max_examples=80, deadline=None)
@given(SEEDS, st.booleans(), st.booleans())
def test_batched_merge_matches_one_pair_at_a_time(seed, restricted, extra):
    # Merging several pairs in one delta step gives the state that merging
    # them one by one gives, and the one evaluated from scratch.
    rng = random.Random(seed)
    spec, db, sim = _small_instance(rng, restricted, extra)
    walk = DerivationWalk(db, spec, sim)
    sizes = (len(walk.idb.objects), len(walk.idb.cells))
    kinds = [cells for cells in (0, 1) if sizes[cells] >= 2]
    assume(kinds)
    pairs = []
    for _ in range(rng.randint(1, 4)):
        cells = rng.choice(kinds)
        pairs.append((cells, *sorted(rng.sample(range(sizes[cells]), 2))))
    if rng.random() < 0.5:
        start = walk.identity()
    else:
        start = walk.state(Candidate(*random_merge_chain(rng, db, steps=2)[-1]))
    batched = walk.merged(start, pairs)
    one_by_one = start
    for p in pairs:
        one_by_one = walk.merged(one_by_one, [p])
    assert _walk_state(batched) == _walk_state(one_by_one)
    assert _walk_state(batched) == _walk_state(walk.state(walk.candidate(batched)))
