"""Solution semantics: active merge pairs, candidate and solution checks,
and the four annotated sets behind the optimality criteria.

A pair is *active* when it is an answer of some rule body over the current
extended database.  Stored active entries are (pair, rule label) with the
pair in canonical unordered form and reflexive pairs dropped; that makes
membership tests orientation-free and reproduces the counting used by the
hardness constructions.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

from .core import (
    Cell,
    Database,
    DomainError,
    EquivRel,
    Element,
    extend,
    norm_pair,
)
from .query import SimilarityStore, dc_violated, eval_query, rule_body_query
from .specdsl import Specification

Pair = tuple[Element, Element]
ActiveEntry = tuple[Pair, str]


@dataclass(frozen=True)
class Candidate:
    """A pair of merge relations: objects globally, value cells locally."""

    E: EquivRel
    V: EquivRel


def identity_candidate(db: Database) -> Candidate:
    return Candidate(EquivRel.identity(db.objects()), EquivRel.identity(db.cells()))


def _check_universes(db: Database, cand: Candidate):
    if cand.E.universe != db.objects() or cand.V.universe != db.cells():
        raise DomainError("candidate universes do not match the database")


def active_entries(db: Database, cand: Candidate, spec: Specification,
                   sim: SimilarityStore) -> frozenset[ActiveEntry]:
    """All (pair, rule) entries active over the extended database.

    Memoised: databases, specifications and similarity stores hash by
    identity, merge relations by partition, and activation is a pure
    function of the five.
    """
    _check_universes(db, cand)
    return _active_entries(db, cand.E, cand.V, spec, sim)


@lru_cache(maxsize=65536)
def _active_entries(db, e, v, spec, sim) -> frozenset[ActiveEntry]:
    xdb = extend(db, e, v)
    entries: set[ActiveEntry] = set()
    for rule in spec.object_rules:
        for a, b in eval_query(rule_body_query(rule), xdb, sim):
            if a != b:
                entries.add((norm_pair(a, b), rule.label))
    for rule in spec.value_rules:
        i, j = rule.head_pos
        for ta, tb in eval_query(rule_body_query(rule), xdb, sim):
            ca, cb = Cell(ta, i), Cell(tb, j)
            if ca != cb:
                entries.add((norm_pair(ca, cb), rule.label))
    return frozenset(entries)


def active_pairs(db: Database, cand: Candidate, spec: Specification,
                 sim: SimilarityStore) -> frozenset[Pair]:
    return frozenset(p for p, _ in active_entries(db, cand, spec, sim))


def in_merge(cand: Candidate, pair: Pair) -> bool:
    a, b = pair
    rel = cand.V if isinstance(a, Cell) else cand.E
    return rel.same(a, b)


@dataclass(frozen=True)
class CriterionSets:
    """The four annotated sets of a candidate.

    `eq` is the merged non-reflexive pair set; `eq_card` counts ordered
    pairs including reflexive ones (the convention the cardinality criteria
    compare by).  supp and viol are (pair, rule) entries; absent is the pair
    projection of viol.
    """

    eq: frozenset[Pair]
    supp: frozenset[ActiveEntry]
    absent: frozenset[Pair]
    viol: frozenset[ActiveEntry]
    eq_card: int


def criterion_sets(db: Database, cand: Candidate, spec: Specification,
                   sim: SimilarityStore) -> CriterionSets:
    entries = active_entries(db, cand, spec, sim)
    supp = frozenset(e for e in entries if in_merge(cand, e[0]))
    return criterion_sets_of(cand, supp, entries - supp)


def criterion_sets_of(cand: Candidate, supp: frozenset[ActiveEntry],
                      viol: frozenset[ActiveEntry]) -> CriterionSets:
    """The annotated sets of a candidate whose active entries are known,
    split into those its merges satisfy and those they violate."""
    return CriterionSets(
        eq=cand.E.merged_pairs() | cand.V.merged_pairs(),
        supp=supp,
        absent=frozenset(p for p, _ in viol),
        viol=viol,
        eq_card=cand.E.pair_count() + cand.V.pair_count(),
    )


def is_candidate(db: Database, spec: Specification, cand: Candidate,
                 sim: SimilarityStore) -> bool:
    """Derivable from the identity merges by repeatedly adding active pairs.

    Saturation restricted to the target: monotonicity of rule bodies makes
    batched, order-free addition equivalent to one-pair-at-a-time
    derivations, and closing within an equivalence-closed target never
    leaves it.
    """
    _check_universes(db, cand)
    cur = identity_candidate(db)
    while True:
        add_obj: set[Pair] = set()
        add_cell: set[Pair] = set()
        for p, _ in active_entries(db, cur, spec, sim):
            if not in_merge(cand, p) or in_merge(cur, p):
                continue
            (add_cell if isinstance(p[0], Cell) else add_obj).add(p)
        if not add_obj and not add_cell:
            break
        cur = Candidate(cur.E.extend(add_obj), cur.V.extend(add_cell))
    return cur.E == cand.E and cur.V == cand.V


def check_solution(db: Database, spec: Specification, cand: Candidate,
                   sim: SimilarityStore) -> tuple[bool, str | None]:
    """Solution check with the first failure named.

    Constraints are reported before unsatisfied hard rules, so a state that
    breaks both is diagnosed by the constraint it violates.
    """
    if not is_candidate(db, spec, cand, sim):
        return False, "not derivable from the identity merges"
    xdb = extend(db, cand.E, cand.V)
    for dc in spec.dcs:
        if dc_violated(dc, xdb, sim):
            return False, f"violates {dc.label}"
    entries = active_entries(db, cand, spec, sim)
    hard_labels = {r.label for r in spec.hard_rules()}
    for p, label in sorted(entries, key=lambda e: e[1]):
        if label in hard_labels and not in_merge(cand, p):
            return False, f"unsatisfied hard rule {label}"
    return True, None


def is_solution(db: Database, spec: Specification, cand: Candidate,
                sim: SimilarityStore) -> bool:
    return check_solution(db, spec, cand, sim)[0]


class Criterion(enum.Enum):
    MAX_ES = "maxES"
    MAX_EC = "maxEC"
    MAX_SS = "maxSS"
    MAX_SC = "maxSC"
    MIN_AS = "minAS"
    MIN_AC = "minAC"
    MIN_VS = "minVS"
    MIN_VC = "minVC"


SET_CRITERIA = frozenset({Criterion.MAX_ES, Criterion.MAX_SS, Criterion.MIN_AS, Criterion.MIN_VS})
CARD_CRITERIA = frozenset(Criterion) - SET_CRITERIA
ALL_CRITERIA = tuple(Criterion)


class Comparison(enum.Enum):
    A_BETTER = "a-better"
    B_BETTER = "b-better"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


def _set_and_direction(c: Criterion):
    if c is Criterion.MAX_ES:
        return (lambda s: s.eq), True
    if c is Criterion.MAX_SS:
        return (lambda s: s.supp), True
    if c is Criterion.MIN_AS:
        return (lambda s: s.absent), False
    if c is Criterion.MIN_VS:
        return (lambda s: s.viol), False
    raise DomainError(f"{c.value} is not a set criterion")


def _card_and_direction(c: Criterion):
    if c is Criterion.MAX_EC:
        return (lambda s: s.eq_card), True
    if c is Criterion.MAX_SC:
        return (lambda s: len(s.supp)), True
    if c is Criterion.MIN_AC:
        return (lambda s: len(s.absent)), False
    if c is Criterion.MIN_VC:
        return (lambda s: len(s.viol)), False
    raise DomainError(f"{c.value} is not a cardinality criterion")


def compare(a: CriterionSets, b: CriterionSets, c: Criterion) -> Comparison:
    """Compare two candidates' annotated sets under one criterion.

    Set criteria order by strict inclusion (maximising or minimising) and
    may be incomparable; cardinality criteria compare integers and never
    are.
    """
    if c in SET_CRITERIA:
        picker, maximize = _set_and_direction(c)
        sa, sb = picker(a), picker(b)
        if sa == sb:
            return Comparison.EQUAL
        if sa > sb:
            return Comparison.A_BETTER if maximize else Comparison.B_BETTER
        if sa < sb:
            return Comparison.B_BETTER if maximize else Comparison.A_BETTER
        return Comparison.INCOMPARABLE
    picker, maximize = _card_and_direction(c)
    ka, kb = picker(a), picker(b)
    if ka == kb:
        return Comparison.EQUAL
    if (ka > kb) == maximize:
        return Comparison.A_BETTER
    return Comparison.B_BETTER


def strictly_better(a: CriterionSets, b: CriterionSets, c: Criterion) -> bool:
    return compare(a, b, c) is Comparison.A_BETTER
