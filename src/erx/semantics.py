"""Solution semantics: active merge pairs, the derivation walk over merge
states, candidate and solution checks, and the four annotated sets behind
the optimality criteria.

A pair is *active* when it is an answer of some rule body over the current
extended database.  Stored active entries are (pair, rule label) with the
pair in canonical unordered form and reflexive pairs dropped; that makes
membership tests orientation-free and reproduces the counting used by the
hardness constructions.

There are two readings of a merge state.  `active_entries`,
`criterion_sets`, `first_failure` and `extend` read one candidate from its
merge relations.  `DerivationWalk` holds states in integer space (label
tuples and interned rows) and builds each from another by the delta rule;
every fixpoint (derivability here, the generator universe and the
restricted recognizer in `solver`) is its `saturate`.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

from .core import (
    Cell,
    Database,
    DomainError,
    EngineError,
    EquivRel,
    Element,
    extend,
    norm_pair,
)
from .query import (SimilarityStore, compiled, dc_body_query, dc_violated, eval_query,
                    rule_body_query)
from .specdsl import ObjectRule, Specification

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


class BudgetExceededError(EngineError):
    """The search budget ran out before a conclusive answer was reached."""


#: The merge states a derivation walk visits before it gives up.
DEFAULT_MAX_STATES = 200_000


class WalkState:
    """One merge state of a `DerivationWalk`.

    `labels` holds the object and the cell label tuple and `rows` the
    extended database (see `InternedDatabase`).  `violated` holds one
    verdict per denial constraint.  Active entries are (cells, a, b, rule):
    `a < b` number two objects when `cells` is 0 and two cells when it is
    1, so `labels[cells]` labels them.  They are None for a state the walk
    will not expand and that cannot be a solution.  `solution` holds when
    no constraint is violated and every hard entry is merged; with
    derivability, which every state the walk reaches from the identity
    has, that makes the state a solution.
    """

    __slots__ = ("labels", "rows", "violated", "entries", "solution")

    def __init__(self, labels, rows, violated, entries, solution):
        self.labels = labels
        self.rows = rows
        self.violated = violated
        self.entries = entries
        self.solution = solution


class DerivationWalk:
    """Merge states in integer space, each built from another by the delta
    rule: the candidates reachable from the identity merges by adding one
    active pair at a time (`states`), and the fixpoints reached by adding
    admitted active pairs in batches (`saturate`).

    A state gets its constraint verdicts and active entries once, from the
    state it was merged from:

      * rows of facts the merges do not touch are shared;
      * a constraint without inequality atoms stays violated once it is,
        and otherwise becomes violated only through a witness that picks a
        changed fact;
      * a rule keeps the earlier entries and gains those witnessed through
        a changed fact (rule bodies have no inequality atoms).

    Constraints with inequality atoms are evaluated in full.  The interned
    database and compiled queries are the database's own
    (`Database.interned`, `Database.queries`).
    """

    def __init__(self, db: Database, spec: Specification, sim: SimilarityStore):
        self.idb = db.interned()
        rules = spec.rules()
        self.rule_labels = tuple(r.label for r in rules)
        self._hard = tuple(r.hard for r in rules)
        self._rules = tuple(
            (k, compiled(rule_body_query(r), db, sim),
             None if isinstance(r, ObjectRule) else r.head_pos)
            for k, r in enumerate(rules)
        )
        self._dcs = tuple(compiled(dc_body_query(dc), db, sim) for dc in spec.dcs)
        self._prune = spec.restricted and bool(spec.dcs)
        self._identity = (tuple(range(len(self.idb.objects))), tuple(range(len(self.idb.cells))))

    def identity(self) -> WalkState:
        """The state of the identity merges, evaluated in full."""
        return self._start(self._identity, self.idb.identity_rows(), False)

    def state(self, cand: Candidate) -> WalkState:
        """The state of a candidate, evaluated in full."""
        labels, rows = self.idb.rows(cand.E, cand.V)
        return self._start(labels, rows, False)

    def states(self, max_states: int = DEFAULT_MAX_STATES):
        """Yield every candidate reachable from the identity once, depth
        first, with its solution status.

        A child is made by relabelling its parent's label tuple and is
        dropped as a duplicate before anything else is built.  In the
        restricted setting every constraint is monotone, so a violating
        state cannot lead to a solution (its derivation prefixes lie below
        any solution and are violation-free) and is not expanded.  Raises
        BudgetExceededError when there are more than `max_states`.
        """
        idb = self.idb
        start = self._start(self._identity, idb.identity_rows(), self._prune)
        seen = {start.labels}
        found = int(start.solution)
        stack = [start]
        yield start
        while stack:
            cur = stack.pop()
            if cur.entries is None:
                continue
            for cells, la, lb in self._merges(cur):
                labels = tuple(la if l == lb else l for l in cur.labels[cells])
                key = (cur.labels[0], labels) if cells else (labels, cur.labels[1])
                if key in seen:
                    continue
                seen.add(key)
                if len(seen) > max_states:
                    raise BudgetExceededError(
                        f"the derivation walk reached {len(seen)} merge states, over the "
                        f"budget of {max_states}; {found} solution(s) found so far"
                    )
                members = [i for i, l in enumerate(labels) if l == la]
                rows, changed = idb.merged_rows(cur.rows, cells, members)
                nxt = self._step(cur, key, rows, changed, self._prune)
                found += nxt.solution
                stack.append(nxt)
                yield nxt

    def merged(self, state: WalkState, pairs) -> WalkState:
        """The state after also merging each (cells, a, b) of `pairs`.  The
        labels are merged one pair at a time; verdicts and entries come
        from one delta step over every fact the merges changed."""
        labels = list(state.labels)
        rows = state.rows
        changed: dict[str, set[int]] = {}
        for cells, a, b in pairs:
            la, lb = labels[cells][a], labels[cells][b]
            if la == lb:
                continue
            if lb < la:
                la, lb = lb, la
            labels[cells] = tuple(la if l == lb else l for l in labels[cells])
            members = [i for i, l in enumerate(labels[cells]) if l == la]
            rows, delta = self.idb.merged_rows(rows, cells, members)
            for rel, facts in delta.items():
                changed.setdefault(rel, set()).update(facts)
        return self._step(state, tuple(labels), rows,
                          {rel: sorted(facts) for rel, facts in changed.items()}, False)

    def saturate(self, state: WalkState, admit: Callable[[tuple], bool]) -> WalkState:
        """From `state`, merge the pair of every active entry that `admit`
        accepts, in batches, until no such pair is left unmerged; the
        fixpoint.

        Rule bodies are monotone (inequality atoms belong in denial
        constraints only), so a pair stays active once it is: batched
        addition reaches the same states as one-pair-at-a-time derivations.
        """
        while True:
            labels = state.labels
            fresh = [e[:3] for e in state.entries
                     if labels[e[0]][e[1]] != labels[e[0]][e[2]] and admit(e)]
            if not fresh:
                return state
            state = self.merged(state, fresh)

    def _start(self, labels, rows, prune: bool) -> WalkState:
        return self._state(labels, rows, tuple(q.holds(rows) for q in self._dcs), None, None,
                           prune)

    def _step(self, parent: WalkState, labels, rows, changed, prune: bool) -> WalkState:
        """The delta step: the state with `labels` and `rows`, merged from
        `parent` by merges that changed the facts `changed`."""
        violated = tuple(
            (parent.violated[k] or q.holds_delta(rows, changed)) if q.monotone
            else q.holds(rows)
            for k, q in enumerate(self._dcs)
        )
        return self._state(labels, rows, violated, parent.entries, changed, prune)

    def _state(self, key, rows, violated, entries, changed, prune: bool) -> WalkState:
        if prune and any(violated):
            return WalkState(key, rows, violated, None, False)
        if entries is None:
            entries = frozenset(e for k, q, head in self._rules
                                for e in self._entries(k, head, q.answers(rows)))
        else:
            delta = [e for k, q, head in self._rules
                     for e in self._entries(k, head, q.answers_delta(rows, changed))]
            if delta:
                entries = entries.union(delta)
        solution = not any(violated) and all(
            key[cells][a] == key[cells][b] for cells, a, b, k in entries if self._hard[k]
        )
        return WalkState(key, rows, violated, entries, solution)

    def _entries(self, k: int, head_pos, answers):
        """Active entries of rule k from its body's answers."""
        if head_pos is None:
            pairs = answers
        else:
            i, j = head_pos
            cell_of = self.idb.cell_of
            pairs = [(cell_of[ta, i], cell_of[tb, j]) for ta, tb in answers]
        cells = int(head_pos is not None)
        return [(cells, a, b, k) if a < b else (cells, b, a, k) for a, b in pairs if a != b]

    @staticmethod
    def _merges(state: WalkState):
        """The distinct class pairs (cells, la, lb), la < lb, that some
        active entry of the state asks to merge."""
        out = set()
        for cells, a, b, _ in state.entries:
            la, lb = state.labels[cells][a], state.labels[cells][b]
            if la != lb:
                out.add((cells, la, lb) if la < lb else (cells, lb, la))
        return out

    def index(self, pair: Pair) -> tuple[int, int, int]:
        """The (cells, a, b) form of a canonical pair."""
        return int(isinstance(pair[0], Cell)), self.idb.number(pair[0]), self.idb.number(pair[1])

    def pair(self, cells: int, a: int, b: int) -> Pair:
        elements = self.idb.cells if cells else self.idb.objects
        return elements[a], elements[b]

    def candidate(self, state: WalkState) -> Candidate:
        return Candidate(EquivRel.from_labels(self.idb.objects, state.labels[0]),
                         EquivRel.from_labels(self.idb.cells, state.labels[1]))

    def criterion_sets(self, cand: Candidate, state: WalkState) -> CriterionSets:
        """`criterion_sets` of the state, whose candidate is cand."""
        supp, viol = set(), set()
        for cells, a, b, k in state.entries:
            labels = state.labels[cells]
            entry = self.pair(cells, a, b), self.rule_labels[k]
            (supp if labels[a] == labels[b] else viol).add(entry)
        return criterion_sets_of(cand, frozenset(supp), frozenset(viol))


def is_candidate(db: Database, spec: Specification, cand: Candidate,
                 sim: SimilarityStore) -> bool:
    """Derivable from the identity merges by repeatedly adding active pairs.
    Saturating within the equivalence-closed target never leaves it."""
    if cand.E.universe != db.objects() or cand.V.universe != db.cells():
        raise DomainError("candidate universes do not match the database")
    walk = DerivationWalk(db, spec, sim)
    target, _ = walk.idb.rows(cand.E, cand.V)
    top = walk.saturate(walk.identity(), lambda e: target[e[0]][e[1]] == target[e[0]][e[2]])
    return top.labels == target


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
