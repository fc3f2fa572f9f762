"""Evaluation of conjunctive queries with similarity and inequality atoms
over set-valued extended databases.

A witness assigns one extended fact to each relational atom; a variable's
candidate set is the intersection of the constant sets at all its argument
positions.  On top of that:

  * constants must belong to the set at their position;
  * an inequality atom holds when the two candidate sets are disjoint after
    nulls are removed from both sides;
  * a similarity atom holds when some non-null pair of candidates reaches
    the atom's threshold;
  * a variable shared between two or more value positions never joins via
    the null constant (two nulls are not the same value).

Free variables are answered with the *original* constant stored at their
occurrence positions in the witnessing facts, which keeps answer sets stable
under later merges and matches ordinary evaluation when no merges exist.
Boolean queries (no free variables) realise the set-witness semantics
directly, so denial-constraint checking is unaffected by the anchoring.

There is one evaluator, `CompiledQuery`, which runs over the interned rows
of an extended database.  A query is compiled once per database and
similarity store; `eval_query`, `eval_boolean` and `dc_violated` look the
compiled form up in the database's `queries` (`compiled`).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from .core import (
    Constant,
    Database,
    EngineError,
    ExtendedDatabase,
    InternedDatabase,
    NULL,
    Sort,
    is_null,
    norm_pair,
)
from .specdsl import (
    Atom,
    ConstTerm,
    DenialConstraint,
    NeqAtom,
    ObjectRule,
    RelAtom,
    SimAtom,
    TidVar,
    ValueRule,
    Var,
)


class UnsafeQueryError(EngineError):
    """A variable occurs in no relational atom, so it has no candidate set."""


@dataclass(frozen=True)
class Query:
    """A conjunctive query: free-variable names plus a body."""

    free: tuple[str, ...]
    atoms: tuple[Atom, ...]

    def __post_init__(self):
        object.__setattr__(self, "_h", hash((self.free, self.atoms)))

    def __hash__(self):
        return self._h


def rule_body_query(rule: ObjectRule | ValueRule) -> Query:
    if isinstance(rule, ObjectRule):
        return Query(rule.head, rule.body)
    return Query(rule.head_tids, rule.body)


def dc_body_query(dc: DenialConstraint) -> Query:
    return Query((), dc.body)


class SimilarityStore:
    """Symmetric integer similarity scores in [0, 100] over value constants.

    Unkeyed pairs score 0; identical non-null constants score 100; the null
    constant scores 0 against everything and is never stored.
    """

    __slots__ = ("_scores",)

    def __init__(self, scores: Iterable[tuple[Constant, Constant, int]] = ()):
        self._scores: dict[tuple[Constant, Constant], int] = {}
        for a, b, s in scores:
            self.put(a, b, s)

    def put(self, a: Constant, b: Constant, score: int):
        if is_null(a) or is_null(b):
            raise EngineError("null never takes part in similarity")
        if not 0 <= score <= 100:
            raise EngineError(f"similarity score {score} out of range")
        if a != b:
            self._scores[norm_pair(a, b)] = score

    @classmethod
    def of_ordered(cls, scores: dict[tuple[Constant, Constant], int]) -> "SimilarityStore":
        """A store that keeps `scores` as given, without `put`'s checks:
        each key a pair of distinct non-null constants in `norm_pair`
        order, each score in [0, 100]."""
        store = cls()
        store._scores = scores
        return store

    def score(self, a: Constant, b: Constant) -> int:
        if is_null(a) or is_null(b):
            return 0
        if a == b:
            return 100
        return self._scores.get(norm_pair(a, b), 0)

    def items(self):
        return sorted(self._scores.items(), key=lambda kv: (kv[0][0].text, kv[0][1].text))

    def updated(self, other: "SimilarityStore") -> "SimilarityStore":
        """A copy where `other`'s scores take precedence."""
        merged = SimilarityStore()
        merged._scores.update(self._scores)
        merged._scores.update(other._scores)
        return merged

    def __len__(self):
        return len(self._scores)


EMPTY_SIM = SimilarityStore()


def _plan(q: Query, schema):
    """Static per-query data: relational atoms, variable occurrence map
    (atom index, position with 0 the tid slot), and the variables whose
    multiple value-position occurrences must never join via null.  Also
    performs the safety check.  Callers must not mutate the returned maps."""
    rel_atoms = tuple(a for a in q.atoms if isinstance(a, RelAtom))
    occ: dict[str, list[tuple[int, int]]] = {}
    counts: dict[str, int] = {}
    for ai, atom in enumerate(rel_atoms):
        decl = schema[atom.rel]
        occ.setdefault(atom.tid.name, []).append((ai, 0))
        for pos, term in enumerate(atom.args, start=1):
            if isinstance(term, (Var, TidVar)):
                occ.setdefault(term.name, []).append((ai, pos))
                if decl.type_vec[pos - 1] is Sort.VAL:
                    counts[term.name] = counts.get(term.name, 0) + 1
    strip_vars = frozenset(v for v, n in counts.items() if n >= 2)

    used_vars = set(occ)
    for atom in q.atoms:
        if isinstance(atom, (SimAtom, NeqAtom)):
            for t in (atom.left, atom.right):
                if isinstance(t, (Var, TidVar)):
                    used_vars.add(t.name)
    for name in sorted(used_vars | set(q.free)):
        if name not in occ:
            raise UnsafeQueryError(f"variable {name!r} occurs in no relational atom")
    return rel_atoms, occ, strip_vars


def compiled(q: Query, db: Database, sim: SimilarityStore) -> "CompiledQuery":
    """The query compiled against the database and similarity store, kept
    by the database."""
    c = db.queries.get((q, sim))
    if c is None:
        c = db.queries[q, sim] = CompiledQuery(q, db.interned(), sim)
    return c


def eval_query(q: Query, xdb: ExtendedDatabase, sim: SimilarityStore = EMPTY_SIM) -> frozenset[tuple[Constant, ...]]:
    """All answer tuples of q over the extended database."""
    c = compiled(q, xdb.db, sim)
    consts = c.idb.constants
    return frozenset(tuple(consts[k] for k in t) for t in c.answers(xdb.rows))


def eval_boolean(q: Query, xdb: ExtendedDatabase, sim: SimilarityStore = EMPTY_SIM) -> bool:
    """True iff the query, read as a Boolean query, is satisfied."""
    if q.free:
        q = Query((), q.atoms)
    return compiled(q, xdb.db, sim).holds(xdb.rows)


def dc_violated(dc: DenialConstraint, xdb: ExtendedDatabase, sim: SimilarityStore) -> bool:
    """A denial constraint is violated when its body is satisfiable."""
    return eval_boolean(dc_body_query(dc), xdb, sim)


class CompiledQuery:
    """A query compiled against an `InternedDatabase` and evaluated over its
    rows: `answers` are the answers as codes, and `holds` is the Boolean
    reading.

    Besides full evaluation it applies the delta rule of semi-naive
    evaluation: `holds_delta` and `answers_delta` consider only witnesses
    that pick at least one changed fact, searching from that fact first.
    A witness over unchanged rows is a witness before the merge too, so for
    a `monotone` query (one without inequality atoms, whose witnesses
    survive every merge) these are all the witnesses a merge can add.
    """

    def __init__(self, q: Query, idb: InternedDatabase, sim: SimilarityStore):
        rel_atoms, occ, strip_vars = _plan(q, idb.schema)
        var = {name: i for i, name in enumerate(sorted(occ))}
        self.monotone = not any(isinstance(a, NeqAtom) for a in q.atoms)
        self.idb = idb
        self._sim = sim
        self._scores: dict[tuple[int, int], int] = {}
        self._null = idb.code(NULL)
        self._n_vars = len(var)
        self._strip = tuple(var[v] for v in sorted(strip_vars))
        self._free = tuple((var[v], tuple(occ[v])) for v in q.free)
        self._rels = tuple(a.rel for a in rel_atoms)

        def term(t):
            if isinstance(t, ConstTerm):
                return -1, frozenset((idb.code(Constant(t.sort, t.text)),))
            return var[t.name], frozenset()

        self._conditions = tuple(
            (isinstance(a, SimAtom), *term(a.left), *term(a.right),
             a.threshold if isinstance(a, SimAtom) else 0)
            for a in q.atoms if isinstance(a, (SimAtom, NeqAtom))
        )

        # A variable that occurs once and is read by no condition or head
        # needs no operation: every position of a row is a non-empty set.
        read = {v for v, places in occ.items() if len(places) > 1} | set(q.free)
        read |= {t.name for a in q.atoms if isinstance(a, (SimAtom, NeqAtom))
                 for t in (a.left, a.right) if not isinstance(t, ConstTerm)}
        facts = [idb.facts_of.get(a.rel, ()) for a in rel_atoms]

        def step(ai, bound):
            """(atom, facts, constant checks, joins on variables bound by
            earlier atoms, first bindings, joins on variables met earlier
            in this atom, probe).  The probe, when there is one, is the
            postings of the first join at a tid or object position and the
            variable it joins.  A bound variable's set holds a class whole
            or none of it, so a row there meets the set iff the set holds
            the row's original code (see `InternedDatabase`)."""
            consts, meets, binds, late = [], [], [], []
            here = set()
            probe = None
            sorts = (Sort.TID,) + idb.schema[rel_atoms[ai].rel].type_vec
            for pos, t in enumerate((rel_atoms[ai].tid,) + rel_atoms[ai].args):
                if isinstance(t, ConstTerm):
                    consts.append((pos, idb.code(Constant(t.sort, t.text))))
                elif t.name in here:
                    late.append((pos, var[t.name]))
                elif t.name in bound:
                    meets.append((pos, var[t.name]))
                    here.add(t.name)
                    # A relation of one fact is scanned: a lookup cannot read fewer.
                    if probe is None and sorts[pos] is not Sort.VAL and len(facts[ai]) > 1:
                        probe = idb.postings(rel_atoms[ai].rel, pos), var[t.name]
                elif t.name in read:
                    binds.append((pos, var[t.name]))
                    here.add(t.name)
            bound |= here
            return ai, facts[ai], tuple(consts), tuple(meets), tuple(binds), tuple(late), probe

        def filtered(ai, bound) -> bool:
            names = [t.name for t in (rel_atoms[ai].tid,) + rel_atoms[ai].args
                     if not isinstance(t, ConstTerm)]
            return (len(names) < len(rel_atoms[ai].args) + 1 or len(set(names)) < len(names)
                    or not bound.isdisjoint(names))

        def plan(first):
            """Join order: `first` (when given), then greedily the atom that
            filters (by a constant, a repeated or an already bound
            variable) over the fewest facts."""
            rest = list(range(len(rel_atoms)))
            bound: set[str] = set()
            out = []
            while rest:
                ai = first if first is not None and not out else min(
                    rest, key=lambda i: (not filtered(i, bound), len(facts[i]), i))
                rest.remove(ai)
                out.append(step(ai, bound))
            return tuple(out)

        # Order 0 is for full evaluation; order i + 1 starts from atom i and
        # is planned on the first delta search that needs it.
        self._plan_from = plan
        self._orders = [plan(None)] + [None] * len(rel_atoms)
        self._rel_set = frozenset(self._rels)
        # An atom over a relation without facts has no witness, so neither
        # has the query.
        self._dead = not all(facts)

    def holds(self, rows) -> bool:
        return self._search(0, rows, None, self._finish)

    def holds_delta(self, rows, changed: dict[str, list[int]]) -> bool:
        if self._dead or self._rel_set.isdisjoint(changed):
            return False
        for i, rel in enumerate(self._rels):
            if rel in changed and self._search(i + 1, rows, changed[rel], self._finish):
                return True
        return False

    def answers(self, rows) -> set[tuple[int, ...]]:
        out: set[tuple[int, ...]] = set()
        self._search(0, rows, None, self._collector(out))
        return out

    def answers_delta(self, rows, changed: dict[str, list[int]]) -> set[tuple[int, ...]]:
        out: set[tuple[int, ...]] = set()
        leaf = self._collector(out)
        for i, rel in enumerate(self._rels):
            if rel in changed:
                self._search(i + 1, rows, changed[rel], leaf)
        return out

    def _search(self, order: int, rows, first, leaf) -> bool:
        """Depth-first join in the given atom order; the first atom ranges
        over `first` when given.  Stops when `leaf` returns True."""
        if self._dead:
            return False
        steps = self._orders[order]
        if steps is None:
            steps = self._orders[order] = self._plan_from(order - 1)
        return self._descend(steps, 0, len(steps), rows, first, [None] * self._n_vars,
                             [0] * len(steps), leaf)

    def _descend(self, steps, d, n, rows, facts, env, chosen, leaf) -> bool:
        """Try each candidate fact for the atom of step d, then recurse.
        The candidates are `facts` when given, else the probe's postings of
        the bound codes when they are fewer than the relation's facts, else
        every fact of the relation."""
        if d == n:
            return leaf(env, chosen)
        ai, every, consts, meets, binds, late, probe = steps[d]
        if facts is None:
            facts = every
            if probe is not None:
                post, v = probe
                if len(env[v]) < len(every):
                    facts = [f for k in env[v] for f in post.get(k, ())]
        d += 1
        for f in facts:
            row = rows[f]
            for pos, code in consts:
                if code not in row[pos]:
                    break
            else:
                for pos, v in meets:
                    if env[v].isdisjoint(row[pos]):
                        break
                else:
                    e = env.copy()
                    for pos, v in meets:
                        e[v] = e[v] & row[pos]
                    for pos, v in binds:
                        e[v] = row[pos]
                    for pos, v in late:
                        s = e[v] & row[pos]
                        if not s:
                            break
                        e[v] = s
                    else:
                        chosen[ai] = f
                        if self._descend(steps, d, n, rows, None, e, chosen, leaf):
                            return True
        return False

    def _finish(self, env: list, chosen=None) -> bool:
        """Strip null from the multiply-joined value variables, then check
        the inequality and similarity atoms.  Leaves the final candidate
        sets in env."""
        null = self._null
        for v in self._strip:
            s = env[v]
            if null in s:
                if len(s) == 1:
                    return False
                env[v] = s - {null}
        for is_sim, li, lc, ri, rc, threshold in self._conditions:
            left = env[li] if li >= 0 else lc
            right = env[ri] if ri >= 0 else rc
            if not is_sim:
                common = left & right
                if common and (len(common) > 1 or null not in common):
                    return False
            elif not any(self._score(a, b) >= threshold
                         for a in left if a != null for b in right if b != null):
                return False
        return True

    def _collector(self, out: set):
        orig = self.idb.orig
        free = self._free

        def leaf(env, chosen):
            if not self._finish(env):
                return False
            pools = []
            for v, occs in free:
                s = env[v]
                pool = {k for ai, pos in occs if (k := orig[chosen[ai]][pos]) in s}
                if not pool:
                    return False
                pools.append(pool)
            out.update(itertools.product(*pools))
            return False

        return leaf

    def _score(self, a: int, b: int) -> int:
        s = self._scores.get((a, b))
        if s is None:
            consts = self.idb.constants
            s = self._scores[a, b] = self._sim.score(consts[a], consts[b])
        return s
