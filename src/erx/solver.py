"""Solution enumeration, optimal-solution selection, and optimality
recognition: exhaustive witness search in general, a polynomial fixpoint
procedure in the inequality-free restricted setting.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import Database, DomainError, EngineError, EquivRel, element_key
from .query import SimilarityStore, compiled, dc_body_query, rule_body_query
from .semantics import (
    ALL_CRITERIA,
    CARD_CRITERIA,
    ActiveEntry,
    Candidate,
    Criterion,
    CriterionSets,
    Pair,
    criterion_sets,
    criterion_sets_of,
    first_failure,
    identity_candidate,
    is_solution,
    saturate,
    strictly_better,
)
from .specdsl import ObjectRule, Specification


class BudgetExceededError(EngineError):
    """The search budget ran out before a conclusive answer was reached."""


class UnsupportedSettingError(EngineError):
    """The restricted recognizer needs inequality-free denial constraints."""


class UnsupportedCriterionError(EngineError):
    """The restricted recognizer covers maxES, minAS and minVS only."""


@dataclass(frozen=True)
class SearchConfig:
    """`pair_budget` bounds the derivable pair universe, `max_states` the
    merge states the derivation walk visits."""

    max_solutions: int = 1_000_000
    pair_budget: int = 16
    max_states: int = 200_000

    def __post_init__(self):
        if self.max_solutions < 1 or self.pair_budget < 1 or self.max_states < 1:
            raise DomainError("budgets must be positive")


DEFAULT_CONFIG = SearchConfig()


@dataclass(frozen=True)
class RecognitionResult:
    optimal: bool
    witness: Candidate | None = None


def _pair_sort_key(p: Pair):
    return element_key(p[0]) + element_key(p[1])


def candidate_key(cand: Candidate):
    """Canonical sort key: the merged classes of E then V, as text."""
    def rel_key(rel: EquivRel):
        return tuple(
            tuple(element_key(e) for e in sorted(c, key=element_key))
            for c in rel.merged_classes()
        )
    return (rel_key(cand.E), rel_key(cand.V))


def generator_universe(db: Database, spec: Specification,
                       sim: SimilarityStore) -> tuple[Pair, ...]:
    """Every pair that can appear in any candidate: saturate from identity,
    adding all active pairs (constraints ignored), and collect them."""
    _, entries = saturate(db, spec, sim, identity_candidate(db), lambda p, label: True)
    return tuple(sorted({p for p, _ in entries}, key=_pair_sort_key))


class WalkState:
    """One merge state of a `DerivationWalk`.

    `labels` holds the object and the cell label tuple and `rows` the
    extended database (see `InternedDatabase`).  `violated` holds one
    verdict per denial constraint.  Active entries are (cells, a, b, rule):
    `a < b` number two objects when `cells` is 0 and two cells when it is
    1, so `labels[cells]` labels them.  They are None for a state the walk
    will not expand and that cannot be a solution.
    """

    __slots__ = ("labels", "rows", "violated", "entries", "solution")

    def __init__(self, labels, rows, violated, entries, solution):
        self.labels = labels
        self.rows = rows
        self.violated = violated
        self.entries = entries
        self.solution = solution


class DerivationWalk:
    """The candidates reachable from the identity merges by adding one
    active pair at a time, each visited once, with its solution status.

    A child is made by relabelling its parent's label tuple and is dropped
    as a duplicate before anything else is built.  Each state gets its
    constraint verdicts and active entries once, from its parent's:

      * rows of facts the merge does not touch are shared;
      * a constraint without inequality atoms stays violated once it is,
        and otherwise becomes violated only through a witness that picks a
        changed fact;
      * a rule keeps its parent's entries and gains those witnessed through
        a changed fact (rule bodies have no inequality atoms).

    Constraints with inequality atoms are evaluated in full.  In the
    restricted setting every constraint is monotone, so a violating state
    cannot lead to a solution (its derivation prefixes lie below any
    solution and are violation-free) and is not expanded.  The interned
    database and compiled queries are the database's own
    (`Database.interned`, `Database.queries`).
    """

    def __init__(self, db: Database, spec: Specification, sim: SimilarityStore):
        self.idb = db.interned()
        rules = spec.rules()
        self._rule_labels = tuple(r.label for r in rules)
        self._hard = tuple(r.hard for r in rules)
        self._rules = tuple(
            (k, compiled(rule_body_query(r), db, sim),
             None if isinstance(r, ObjectRule) else r.head_pos)
            for k, r in enumerate(rules)
        )
        self._dcs = tuple(compiled(dc_body_query(dc), db, sim) for dc in spec.dcs)
        self._prune = spec.restricted and bool(spec.dcs)

    def states(self, max_states: int = DEFAULT_CONFIG.max_states):
        """Yield every reachable state once, depth first from the identity.
        Raises BudgetExceededError when there are more than `max_states`."""
        idb = self.idb
        key = (tuple(range(len(idb.objects))), tuple(range(len(idb.cells))))
        rows = idb.identity_rows()
        start = self._state(key, rows, tuple(q.holds(rows) for q in self._dcs), None, None)
        seen = {key}
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
                violated = tuple(
                    (cur.violated[k] or q.holds_delta(rows, changed)) if q.monotone
                    else q.holds(rows)
                    for k, q in enumerate(self._dcs)
                )
                nxt = self._state(key, rows, violated, cur.entries, changed)
                found += nxt.solution
                stack.append(nxt)
                yield nxt

    def _state(self, key, rows, violated, entries, changed) -> WalkState:
        if self._prune and any(violated):
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

    def candidate(self, state: WalkState) -> Candidate:
        return Candidate(EquivRel.from_labels(self.idb.objects, state.labels[0]),
                         EquivRel.from_labels(self.idb.cells, state.labels[1]))

    def criterion_sets(self, cand: Candidate, state: WalkState) -> CriterionSets:
        """`semantics.criterion_sets` of the state, whose candidate is cand."""
        supp, viol = set(), set()
        for e in state.entries:
            labels = state.labels[e[0]]
            (supp if labels[e[1]] == labels[e[2]] else viol).add(self._entry(e))
        return criterion_sets_of(cand, frozenset(supp), frozenset(viol))

    def _entry(self, e) -> ActiveEntry:
        cells, a, b, k = e
        elements = self.idb.cells if cells else self.idb.objects
        return (elements[a], elements[b]), self._rule_labels[k]


def _solutions(db: Database, spec: Specification, sim: SimilarityStore, cfg: SearchConfig):
    """The walk and its solutions in canonical order, as (candidate, state)."""
    universe = generator_universe(db, spec, sim)
    if len(universe) > cfg.pair_budget:
        raise BudgetExceededError(
            f"{len(universe)} derivable pairs exceed the budget of {cfg.pair_budget}"
        )
    walk = DerivationWalk(db, spec, sim)
    found = [(walk.candidate(s), s) for s in walk.states(cfg.max_states) if s.solution]
    found.sort(key=lambda sol: candidate_key(sol[0]))
    return walk, found[: cfg.max_solutions]


def enumerate_solutions(db: Database, spec: Specification, sim: SimilarityStore,
                        cfg: SearchConfig = DEFAULT_CONFIG) -> tuple[Candidate, ...]:
    """All solutions, in canonical order.

    Raises rather than silently truncating when the derivable pair universe
    or the number of merge states exceeds its budget.
    """
    _, found = _solutions(db, spec, sim, cfg)
    return tuple(cand for cand, _ in found)


def optimal_solutions(db: Database, spec: Specification, criterion: Criterion,
                      sim: SimilarityStore,
                      cfg: SearchConfig = DEFAULT_CONFIG) -> tuple[Candidate, ...]:
    """The solutions no other solution strictly beats under the criterion."""
    walk, found = _solutions(db, spec, sim, cfg)
    sols = [cand for cand, _ in found]
    sets = [walk.criterion_sets(cand, state) for cand, state in found]
    out = []
    for i, cand in enumerate(sols):
        if not any(strictly_better(sets[j], sets[i], criterion) for j in range(len(sols))):
            out.append(cand)
    return tuple(out)


def recognize_optimal_bruteforce(db: Database, spec: Specification, cand: Candidate,
                                 criterion: Criterion, sim: SimilarityStore,
                                 cfg: SearchConfig = DEFAULT_CONFIG) -> RecognitionResult:
    """Exhaustive recognition: optimal iff a solution and nothing beats it.

    A non-solution input is rejected without a witness; otherwise the first
    strictly better solution in canonical order is returned as evidence.
    """
    results = recognize_many(db, spec, cand, (criterion,), sim, cfg)
    return results[criterion]


def recognize_many(db: Database, spec: Specification, cand: Candidate,
                   criteria=ALL_CRITERIA, sim: SimilarityStore | None = None,
                   cfg: SearchConfig = DEFAULT_CONFIG) -> dict[Criterion, RecognitionResult]:
    """Brute-force recognition for several criteria over one enumeration."""
    if not is_solution(db, spec, cand, sim):
        return {c: RecognitionResult(False, None) for c in criteria}
    own = criterion_sets(db, cand, spec, sim)
    walk, found = _solutions(db, spec, sim, cfg)
    sol_sets = [walk.criterion_sets(s, state) for s, state in found]
    out: dict[Criterion, RecognitionResult] = {}
    for c in criteria:
        witness = None
        for (other, _), other_sets in zip(found, sol_sets):
            if strictly_better(other_sets, own, c):
                witness = other
                break
        out[c] = RecognitionResult(witness is None, witness)
    return out


_RESTRICTED_CRITERIA = (Criterion.MAX_ES, Criterion.MIN_AS, Criterion.MIN_VS)


def recognize_optimal_restricted(db: Database, spec: Specification, cand: Candidate,
                                 criterion: Criterion, sim: SimilarityStore,
                                 cfg: SearchConfig = DEFAULT_CONFIG) -> RecognitionResult:
    """Polynomial recognition for set criteria when no constraint uses
    inequality atoms.

    For each active-but-absent pair, extend the merges by that pair, then
    saturate: hard-rule active pairs are always added; under minAS, pairs
    newly absent (active but unmerged, and not absent originally) are added;
    under minVS the same with (pair, rule) violation entries.  The input is
    not optimal exactly when some saturation lands on a solution, which then
    witnesses a strictly better absent/violation/merge set.  A saturation
    adds only active pairs to a solution, so it lands on a candidate and
    only its constraints and hard rules need checking.  Once a constraint
    breaks along the way no extension can repair it, which is what makes
    the local search complete.
    """
    if not spec.restricted:
        raise UnsupportedSettingError("denial constraints use inequality atoms")
    if criterion in CARD_CRITERIA:
        raise UnsupportedCriterionError(
            f"{criterion.value} stays intractable in the restricted setting"
        )
    if criterion not in _RESTRICTED_CRITERIA:
        raise UnsupportedCriterionError(f"no restricted procedure for {criterion.value}")
    if not is_solution(db, spec, cand, sim):
        return RecognitionResult(False, None)

    base = criterion_sets(db, cand, spec, sim)
    hard_labels = {r.label for r in spec.hard_rules()}
    for seed in sorted(base.absent, key=_pair_sort_key):
        def admit(p, label):
            return (p == seed or label in hard_labels
                    or (criterion is Criterion.MIN_AS and p not in base.absent)
                    or (criterion is Criterion.MIN_VS and (p, label) not in base.viol))

        cur, entries = saturate(db, spec, sim, cand, admit)
        if first_failure(db, spec, cur, sim, entries) is None:
            return RecognitionResult(False, cur)
    return RecognitionResult(True, None)
