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
from typing import Callable

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


def active_entries(db: Database, cand: Candidate, spec: Specification,
                   sim: SimilarityStore) -> frozenset[ActiveEntry]:
    """All (pair, rule) entries active over the extended database."""
    xdb = extend(db, cand.E, cand.V)
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


def saturate(db: Database, spec: Specification, sim: SimilarityStore, start: Candidate,
             admit: Callable[[Pair, str], bool]) -> tuple[Candidate, frozenset[ActiveEntry]]:
    """From `start`, merge every active entry's pair that `admit(pair,
    label)` accepts, all at once, until no such pair is left unmerged.
    Returns the fixpoint and its active entries.

    Rule bodies are monotone (inequality atoms belong in denial constraints
    only), so a pair stays active once it is: batched addition reaches the
    same states as one-pair-at-a-time derivations.
    """
    cur = start
    while True:
        entries = active_entries(db, cur, spec, sim)
        fresh = [p for p, label in entries if not in_merge(cur, p) and admit(p, label)]
        if not fresh:
            return cur, entries
        cur = Candidate(cur.E.extend(p for p in fresh if not isinstance(p[0], Cell)),
                        cur.V.extend(p for p in fresh if isinstance(p[0], Cell)))


def is_candidate(db: Database, spec: Specification, cand: Candidate,
                 sim: SimilarityStore) -> bool:
    """Derivable from the identity merges by repeatedly adding active pairs.
    Saturating within the equivalence-closed target never leaves it."""
    if cand.E.universe != db.objects() or cand.V.universe != db.cells():
        raise DomainError("candidate universes do not match the database")
    cur, _ = saturate(db, spec, sim, identity_candidate(db), lambda p, _: in_merge(cand, p))
    return cur == cand


def first_failure(db: Database, spec: Specification, cand: Candidate, sim: SimilarityStore,
                  entries: frozenset[ActiveEntry]) -> str | None:
    """The first denial constraint the candidate violates, else its first
    unsatisfied hard rule, named; None when there is neither.  `entries`
    are the candidate's active entries."""
    xdb = extend(db, cand.E, cand.V)
    for dc in spec.dcs:
        if dc_violated(dc, xdb, sim):
            return f"violates {dc.label}"
    hard_labels = {r.label for r in spec.hard_rules()}
    for p, label in sorted(entries, key=lambda e: e[1]):
        if label in hard_labels and not in_merge(cand, p):
            return f"unsatisfied hard rule {label}"
    return None


def check_solution(db: Database, spec: Specification, cand: Candidate,
                   sim: SimilarityStore) -> tuple[bool, str | None]:
    """Solution check with the first failure named.

    Constraints are reported before unsatisfied hard rules, so a state that
    breaks both is diagnosed by the constraint it violates.
    """
    if not is_candidate(db, spec, cand, sim):
        return False, "not derivable from the identity merges"
    reason = first_failure(db, spec, cand, sim, active_entries(db, cand, spec, sim))
    return reason is None, reason


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
