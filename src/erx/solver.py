"""Solution enumeration, optimal-solution selection, and optimality
recognition: exhaustive witness search in general, a polynomial fixpoint
procedure in the inequality-free restricted setting.

Both run on `semantics.DerivationWalk`: enumeration on its one-pair walk,
the generator universe and the restricted recognizer on its saturation.
`DerivationWalk`, `WalkState` and `BudgetExceededError` are re-exported
here.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import Database, DomainError, EngineError, EquivRel, element_key
from .query import EMPTY_SIM, SimilarityStore
from .semantics import (
    ALL_CRITERIA,
    CARD_CRITERIA,
    DEFAULT_MAX_STATES,
    BudgetExceededError,
    Candidate,
    Criterion,
    DerivationWalk,
    Pair,
    WalkState,
    criterion_sets,
    is_solution,
    strictly_better,
)
from .specdsl import Specification


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
    max_states: int = DEFAULT_MAX_STATES

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
    walk = DerivationWalk(db, spec, sim)
    top = walk.saturate(walk.identity(), lambda e: True)
    return tuple(sorted({walk.pair(*e[:3]) for e in top.entries}, key=_pair_sort_key))


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
                   criteria=ALL_CRITERIA, sim: SimilarityStore = EMPTY_SIM,
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

    The input's state is built once and every seed saturates from it; a
    fixpoint's verdict is its `WalkState.solution`.  `cfg` is not read:
    the procedure is polynomial and needs no budget.
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
    walk = DerivationWalk(db, spec, sim)
    start = walk.state(cand)
    absent = {walk.index(p) for p in base.absent}
    viol = {(walk.index(p), label) for p, label in base.viol}
    hard_labels = {r.label for r in spec.hard_rules()}
    for seed in [walk.index(p) for p in sorted(base.absent, key=_pair_sort_key)]:
        def admit(e):
            pair, label = e[:3], walk.rule_labels[e[3]]
            return (pair == seed or label in hard_labels
                    or (criterion is Criterion.MIN_AS and pair not in absent)
                    or (criterion is Criterion.MIN_VS and (pair, label) not in viol))

        top = walk.saturate(start, admit)
        if top.solution:
            return RecognitionResult(False, walk.candidate(top))
    return RecognitionResult(True, None)
