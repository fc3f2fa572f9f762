"""Independent reference implementations used to compute expected values.

Everything here is deliberately naive and kept separate from the package:
closure by repeated pairwise saturation, recursive edit distance, a direct
transcription of Jaro-Winkler, dense TF-IDF vectors, TF-IDF that rescans the
corpus for every pair and the similarity store built on it,
substitution-based conjunctive-query evaluation, the set-witness
interpreter over extended facts built from the merge relations,
unrestricted witness search, saturation that re-evaluates every rule body
on each round (the generator universe, derivability and the restricted
recognizer's local search), depth-first exploration of one-pair-at-a-time
derivations, and solution enumeration by closing every subset of the
generator universe.
"""
from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from types import SimpleNamespace

from erx.core import (Cell, Constant, DomainError, EquivRel, Fact, NULL, RelationDecl, Sort,
                      element_key, is_null, norm_pair)
from erx.query import Query, SimilarityStore, UnsafeQueryError, dc_body_query, rule_body_query
from erx.semantics import Candidate, Criterion, identity_candidate, in_merge
from erx.similarity import (SimConfig, _referenced_values, _round_score, jaro_winkler,
                            levenshtein, looks_numeric)
from erx.solver import RecognitionResult, candidate_key
from erx.specdsl import ConstTerm, NeqAtom, RelAtom, SimAtom, TidVar, ValueRule, Var


def close_by_saturation(pairs, universe):
    """Reflexive-symmetric-transitive closure as an explicit pair set."""
    rel = {(e, e) for e in universe}
    rel.update((a, b) for a, b in pairs)
    rel.update((b, a) for a, b in pairs)
    changed = True
    while changed:
        changed = False
        for (a, b), (c, d) in itertools.product(list(rel), repeat=2):
            if b == c and (a, d) not in rel:
                rel.add((a, d))
                changed = True
    return rel


def levenshtein_recursive(a: str, b: str) -> int:
    @lru_cache(maxsize=None)
    def d(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        return min(
            d(i - 1, j) + 1,
            d(i, j - 1) + 1,
            d(i - 1, j - 1) + (a[i - 1] != b[j - 1]),
        )
    return d(len(a), len(b))


def jaro_winkler_direct(s1: str, s2: str) -> float:
    """Straight transcription of the definition: match window, flags,
    transposition count, prefix boost."""
    if s1 == s2:
        return 1.0
    len1, len2 = len(s1), len(s2)
    if len1 == 0 or len2 == 0:
        return 0.0
    match_window = max(max(len1, len2) // 2 - 1, 0)
    flags1 = [False] * len1
    flags2 = [False] * len2
    m = 0
    for i in range(len1):
        for j in range(max(0, i - match_window), min(len2, i + match_window + 1)):
            if not flags2[j] and s1[i] == s2[j]:
                flags1[i] = flags2[j] = True
                m += 1
                break
    if m == 0:
        return 0.0
    ms1 = [s1[i] for i in range(len1) if flags1[i]]
    ms2 = [s2[j] for j in range(len2) if flags2[j]]
    transpositions = sum(1 for a, b in zip(ms1, ms2) if a != b) // 2
    jaro = (m / len1 + m / len2 + (m - transpositions) / m) / 3
    prefix = 0
    for a, b in zip(s1, s2):
        if a != b or prefix == 4:
            break
        prefix += 1
    return jaro + prefix * 0.1 * (1 - jaro)


def tfidf_cosine_dense(a: str, b: str, corpus) -> float:
    """Dense-vector TF-IDF cosine with tf = raw count, idf = ln(N/df)."""
    docs = [d.lower().split() for d in corpus]
    vocab = sorted({tok for d in docs for tok in d} | set(a.lower().split()) | set(b.lower().split()))
    n = len(docs)

    def vector(s):
        toks = s.lower().split()
        vec = []
        for term in vocab:
            df = sum(1 for d in docs if term in d)
            idf = math.log(n / df) if df else 0.0
            vec.append(toks.count(term) * idf)
        return vec

    va, vb = vector(a), vector(b)
    dot = sum(x * y for x, y in zip(va, vb))
    na = math.sqrt(sum(x * x for x in va))
    nb = math.sqrt(sum(x * x for x in vb))
    if na == 0 or nb == 0:
        return 0.0
    return dot / (na * nb)


def reference_tfidf_cosine(a: str, b: str, corpus) -> float:
    """TF-IDF cosine that re-tokenises the corpus for every pair, in the
    same order of summation as `erx.similarity.tfidf_cosine`."""
    docs = [frozenset(d.lower().split()) for d in corpus]
    if not docs:
        raise DomainError("tfidf_cosine needs a nonempty corpus")
    n_docs = len(docs)

    def weights(s: str) -> dict[str, float]:
        out = {}
        for tok, count in Counter(s.lower().split()).items():
            df = sum(1 for d in docs if tok in d)
            if df > 0:
                out[tok] = count * math.log(n_docs / df)
        return out

    wa, wb = weights(a), weights(b)
    dot = sum(w * wb.get(tok, 0.0) for tok, w in wa.items())
    na = math.sqrt(sum(w * w for w in wa.values()))
    nb = math.sqrt(sum(w * w for w in wb.values()))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return dot / (na * nb)


def reference_sim_store(db, cfg: SimConfig = SimConfig(), spec=None,
                        overrides: SimilarityStore | None = None) -> SimilarityStore:
    """`build_sim_store` with every long-text pair scored by
    `reference_tfidf_cosine` over the database's value texts."""
    values = db.value_constants() if spec is None else _referenced_values(db, spec)
    corpus = sorted(v.text for v in db.value_constants())
    store = SimilarityStore()
    ordered = sorted(values, key=lambda c: c.text)
    for i, a in enumerate(ordered):
        for b in ordered[i + 1:]:
            x, y = a.text, b.text
            if looks_numeric(x) and looks_numeric(y):
                longest = max(len(x), len(y))
                score = _round_score(1.0 - levenshtein(x, y) / longest) if longest else 100
            elif len(x) < cfg.short_len_threshold and len(y) < cfg.short_len_threshold:
                score = _round_score(jaro_winkler(x, y))
            else:
                score = _round_score(reference_tfidf_cosine(x, y, corpus))
            store.put(a, b, score)
    return store if overrides is None else store.updated(overrides)


def naive_identity_answers(q, db, sim: SimilarityStore):
    """Substitution-based evaluation over the original facts.

    Sound only for merge-free databases (the textbook case the engine must
    match under identity merges); instances are expected to be null-free.
    """
    rel_atoms = [a for a in q.atoms if isinstance(a, RelAtom)]
    answers = set()

    def atom_matches(assignment):
        for atom in q.atoms:
            if isinstance(atom, SimAtom):
                lv = assignment[atom.left.name] if isinstance(atom.left, Var) else None
                rv = assignment[atom.right.name] if isinstance(atom.right, Var) else None
                if lv is None or rv is None or sim.score(lv, rv) < atom.threshold:
                    return False
            elif isinstance(atom, NeqAtom):
                lv = assignment[atom.left.name]
                rv = assignment[atom.right.name]
                if lv == rv:
                    return False
        return True

    def unify(i, assignment):
        if i == len(rel_atoms):
            if atom_matches(assignment):
                answers.add(tuple(assignment[v] for v in q.free))
            return
        atom = rel_atoms[i]
        for fact in db.facts_of(atom.rel):
            trial = dict(assignment)
            ok = True
            for pos in range(len(atom.args) + 1):
                term = atom.tid if pos == 0 else atom.args[pos - 1]
                actual = fact.tid if pos == 0 else fact.args[pos - 1]
                if isinstance(term, ConstTerm):
                    if actual.text != term.text or actual.sort is Sort.NULL:
                        ok = False
                        break
                else:
                    if term.name in trial and trial[term.name] != actual:
                        ok = False
                        break
                    trial[term.name] = actual
            if ok:
                unify(i + 1, trial)

    unify(0, {})
    return frozenset(answers)


@dataclass(frozen=True)
class ExtFact:
    """An original fact with each argument blown up to a set of constants."""

    rel: RelationDecl
    tid: Constant
    argsets: tuple[frozenset[Constant], ...]
    orig: Fact

    def set_at(self, pos: int) -> frozenset[Constant]:
        """Constant set at tid position 0 or argument position 1..k."""
        return frozenset((self.tid,)) if pos == 0 else self.argsets[pos - 1]


def reference_facts(xdb, rel_name):
    """The extended facts of one relation of an extended database, built
    from its merge relations class by class."""
    db, e, v = xdb.db, xdb.obj_merge, xdb.cell_merge
    out = []
    for f in db.facts_of(rel_name):
        sets = []
        for i, a in enumerate(f.args, start=1):
            if a.sort is Sort.OBJ:
                sets.append(e.class_of(a))
            else:
                sets.append(frozenset(db.value_at(c) for c in v.class_of(Cell(f.tid, i))))
        out.append(ExtFact(f.rel, f.tid, tuple(sets), f))
    return out


def _reference_plan(q, schema):
    """Relational atoms, variable occurrences (atom index, position with 0
    the tid slot), the value variables joined at two or more positions,
    and the safety check."""
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
    used = set(occ) | set(q.free) | {
        t.name for a in q.atoms if isinstance(a, (SimAtom, NeqAtom))
        for t in (a.left, a.right) if isinstance(t, (Var, TidVar))
    }
    for name in sorted(used):
        if name not in occ:
            raise UnsafeQueryError(f"variable {name!r} occurs in no relational atom")
    return rel_atoms, occ, frozenset(v for v, n in counts.items() if n >= 2)


def _reference_witnesses(q, xdb, rel_atoms, strip_vars):
    """Yield (chosen facts, final variable candidate sets) for each witness."""
    facts = {atom.rel: reference_facts(xdb, atom.rel) for atom in rel_atoms}
    n = len(rel_atoms)
    chosen = [None] * n

    def descend(i, inter):
        if i == n:
            final = dict(inter)
            for v in strip_vars:
                final[v] = final[v] - {NULL}
                if not final[v]:
                    return
            yield list(chosen), final
            return
        atom = rel_atoms[i]
        for xf in facts[atom.rel]:
            nxt = dict(inter)
            good = True
            for pos in range(len(atom.args) + 1):
                term = atom.tid if pos == 0 else atom.args[pos - 1]
                s = xf.set_at(pos)
                if isinstance(term, ConstTerm):
                    good = Constant(term.sort, term.text) in s
                else:
                    prev = nxt.get(term.name)
                    nxt[term.name] = s if prev is None else prev & s
                    good = bool(nxt[term.name])
                if not good:
                    break
            if good:
                chosen[i] = xf
                yield from descend(i + 1, nxt)
        chosen[i] = None

    yield from descend(0, {})


def _reference_term_set(t, inter):
    if isinstance(t, ConstTerm):
        return frozenset((Constant(t.sort, t.text),))
    return inter[t.name]


def _reference_conditions_hold(q, inter, sim):
    for atom in q.atoms:
        if isinstance(atom, NeqAtom):
            left = _reference_term_set(atom.left, inter) - {NULL}
            right = _reference_term_set(atom.right, inter) - {NULL}
            if left & right:
                return False
        elif isinstance(atom, SimAtom):
            left = _reference_term_set(atom.left, inter)
            right = _reference_term_set(atom.right, inter)
            if not any(sim.score(a, b) >= atom.threshold
                       for a in left if not is_null(a) for b in right if not is_null(b)):
                return False
    return True


def _reference_anchors(name, occ, chosen, inter):
    """The original constants at the variable's occurrences that survive in
    its candidate set."""
    out = set()
    for ai, pos in occ[name]:
        xf = chosen[ai]
        orig = xf.tid if pos == 0 else xf.orig.args[pos - 1]
        if orig in inter[name]:
            out.add(orig)
    return out


def reference_eval_query(q, xdb, sim: SimilarityStore):
    """The set-witness interpreter: all answer tuples of q over the extended
    database, evaluated from its merge relations."""
    rel_atoms, occ, strip_vars = _reference_plan(q, xdb.db.schema)
    answers = set()
    for chosen, inter in _reference_witnesses(q, xdb, rel_atoms, strip_vars):
        if not _reference_conditions_hold(q, inter, sim):
            continue
        if not q.free:
            return frozenset({()})
        answers.update(itertools.product(*(_reference_anchors(v, occ, chosen, inter)
                                           for v in q.free)))
    return frozenset(answers)


def reference_eval_boolean(q, xdb, sim: SimilarityStore) -> bool:
    return bool(reference_eval_query(Query((), q.atoms), xdb, sim))


def _reference_extension(db, cand):
    """What the reference interpreter reads of an extended database."""
    return SimpleNamespace(db=db, obj_merge=cand.E, cell_merge=cand.V)


def reference_active_entries(db, cand, spec, sim: SimilarityStore):
    """`semantics.active_entries` through the reference interpreter."""
    xdb = _reference_extension(db, cand)
    entries = set()
    for rule in spec.rules():
        for a, b in reference_eval_query(rule_body_query(rule), xdb, sim):
            if isinstance(rule, ValueRule):
                a, b = Cell(a, rule.head_pos[0]), Cell(b, rule.head_pos[1])
            if a != b:
                entries.add((norm_pair(a, b), rule.label))
    return frozenset(entries)


def _reference_saturate(db, start, admit, entries_of):
    """From `start`, add every active pair whose entry `admit(pair, label)`
    accepts until none is left unmerged; the fixpoint and its active
    entries.  `entries_of` memoises `reference_active_entries` for one
    instance."""
    cur = start
    while True:
        entries = entries_of(cur)
        fresh = [p for p, label in entries if not in_merge(cur, p) and admit(p, label)]
        if not fresh:
            return cur, entries
        cur = close_subset(db, list(cur.E.merged_pairs()) + list(cur.V.merged_pairs()) + fresh)


def _reference_entries_memo(db, spec, sim):
    memo = {}

    def entries_of(cand):
        if cand not in memo:
            memo[cand] = reference_active_entries(db, cand, spec, sim)
        return memo[cand]
    return entries_of


def _reference_pair_key(p):
    return element_key(p[0]) + element_key(p[1])


def reference_universe(db, spec, sim: SimilarityStore, entries_of=None):
    """The generator universe: the pairs active at the identity saturated
    with every active pair, in canonical order."""
    entries_of = entries_of or _reference_entries_memo(db, spec, sim)
    _, entries = _reference_saturate(db, identity_candidate(db), lambda p, _: True, entries_of)
    return tuple(sorted({p for p, _ in entries}, key=_reference_pair_key))


def reference_is_candidate(db, spec, cand, sim: SimilarityStore, entries_of=None) -> bool:
    """Derivable from the identity merges by adding active pairs."""
    entries_of = entries_of or _reference_entries_memo(db, spec, sim)
    start = identity_candidate(db)
    return _reference_saturate(db, start, lambda p, _: in_merge(cand, p), entries_of)[0] == cand


def _reference_passes(db, spec, cand, sim, entries_of) -> bool:
    """No denial constraint violated and every hard rule satisfied."""
    xdb = _reference_extension(db, cand)
    if any(reference_eval_boolean(dc_body_query(dc), xdb, sim) for dc in spec.dcs):
        return False
    hard_labels = {r.label for r in spec.hard_rules()}
    return all(in_merge(cand, p) for p, label in entries_of(cand) if label in hard_labels)


def reference_is_solution(db, spec, cand, sim, entries_of=None) -> bool:
    """Derivable from the identity merges, no denial constraint violated
    and every hard rule satisfied, all through the reference interpreter."""
    entries_of = entries_of or _reference_entries_memo(db, spec, sim)
    return (reference_is_candidate(db, spec, cand, sim, entries_of)
            and _reference_passes(db, spec, cand, sim, entries_of))


def reference_recognize_restricted(db, spec, cand, criterion, sim: SimilarityStore):
    """The restricted recognizer's local search on the reference
    interpreter: from the input solution, saturate each absent pair in
    canonical order, adding hard-rule pairs and, under minAS (minVS), pairs
    (entries) not absent (violated) at the input; the first fixpoint that
    passes the constraints and hard rules is the witness."""
    entries_of = _reference_entries_memo(db, spec, sim)
    if not reference_is_solution(db, spec, cand, sim, entries_of):
        return RecognitionResult(False, None)
    viol = {(p, label) for p, label in entries_of(cand) if not in_merge(cand, p)}
    absent = {p for p, _ in viol}
    hard_labels = {r.label for r in spec.hard_rules()}
    for seed in sorted(absent, key=_reference_pair_key):
        def admit(p, label):
            return (p == seed or label in hard_labels
                    or (criterion is Criterion.MIN_AS and p not in absent)
                    or (criterion is Criterion.MIN_VS and (p, label) not in viol))

        top, _ = _reference_saturate(db, cand, admit, entries_of)
        if _reference_passes(db, spec, top, sim, entries_of):
            return RecognitionResult(False, top)
    return RecognitionResult(True, None)


def boolean_by_unrestricted_search(q, xdb, sim: SimilarityStore) -> bool:
    """Witness search with per-atom set vectors drawn from all subsets of
    the constants of the database, filtered only by the witness conditions
    themselves.  Exponential; tiny inputs only."""
    dom = set()
    for f in xdb.db.facts:
        dom.add(f.tid)
        dom.update(f.args)
    subsets = [frozenset(c) for r in range(len(dom) + 1)
               for c in itertools.combinations(sorted(dom, key=repr), r)]
    rel_atoms = [a for a in q.atoms if isinstance(a, RelAtom)]

    per_atom_vectors = []
    for atom in rel_atoms:
        ext_shapes = {
            tuple([xf.set_at(0)] + list(xf.argsets)) for xf in reference_facts(xdb, atom.rel)
        }
        good = []
        for vec in itertools.product(subsets, repeat=len(atom.args) + 1):
            if vec not in ext_shapes:
                continue
            ok = True
            for pos in range(len(atom.args) + 1):
                term = atom.tid if pos == 0 else atom.args[pos - 1]
                if isinstance(term, ConstTerm) and not any(
                    c.text == term.text and not is_null(c) for c in vec[pos]
                ):
                    ok = False
                    break
            if ok:
                good.append(vec)
        per_atom_vectors.append(good)

    def value_join_vars():
        counts = {}
        for atom in rel_atoms:
            decl = xdb.db.schema[atom.rel]
            for pos, term in enumerate(atom.args, start=1):
                if isinstance(term, Var) and decl.type_vec[pos - 1] is Sort.VAL:
                    counts[term.name] = counts.get(term.name, 0) + 1
        return {v for v, k in counts.items() if k >= 2}

    strip = value_join_vars()

    for combo in itertools.product(*per_atom_vectors):
        h: dict[str, frozenset] = {}
        ok = True
        for atom, vec in zip(rel_atoms, combo):
            for pos in range(len(atom.args) + 1):
                term = atom.tid if pos == 0 else atom.args[pos - 1]
                if isinstance(term, (Var, TidVar)):
                    prev = h.get(term.name)
                    h[term.name] = vec[pos] if prev is None else prev & vec[pos]
        for name, s in h.items():
            if name in strip:
                s = s - {NULL}
                h[name] = s
            if not s:
                ok = False
        if not ok:
            continue

        def term_set(t):
            if isinstance(t, ConstTerm):
                match = {c for c in dom if c.text == t.text and not is_null(c)}
                return frozenset(match)
            return h[t.name]

        for atom in q.atoms:
            if isinstance(atom, NeqAtom):
                if (term_set(atom.left) - {NULL}) & (term_set(atom.right) - {NULL}):
                    ok = False
                    break
            elif isinstance(atom, SimAtom):
                if not any(
                    sim.score(x, y) >= atom.threshold
                    for x in term_set(atom.left) if not is_null(x)
                    for y in term_set(atom.right) if not is_null(y)
                ):
                    ok = False
                    break
        if ok:
            return True
    return False


def reachable_candidates(db, spec, sim, cap=5000):
    """All candidates reachable by one-active-pair-at-a-time derivations,
    with active pairs from the reference interpreter."""
    start = identity_candidate(db)
    seen = {start}
    stack = [start]
    while stack:
        if len(seen) > cap:
            raise RuntimeError("candidate space larger than the oracle cap")
        cur = stack.pop()
        for p, _ in reference_active_entries(db, cur, spec, sim):
            if in_merge(cur, p):
                continue
            if isinstance(p[0], Cell):
                nxt = Candidate(cur.E, cur.V.extend([p]))
            else:
                nxt = Candidate(cur.E.extend([p]), cur.V)
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def merged_pair_set(rel):
    """Non-reflexive unordered pairs of an equivalence relation, from classes."""
    out = set()
    for cls in rel.merged_classes():
        for a, b in itertools.combinations(sorted(cls, key=repr), 2):
            out.add(frozenset((a, b)))
    return out


def close_subset(db, pairs) -> Candidate:
    """The candidate that closes the given object and cell pairs."""
    pairs = list(pairs)
    obj_pairs = [p for p in pairs if not isinstance(p[0], Cell)]
    cell_pairs = [p for p in pairs if isinstance(p[0], Cell)]
    return Candidate(
        EquivRel.close(obj_pairs, db.objects()),
        EquivRel.close(cell_pairs, db.cells()),
    )


def solutions_by_subsets(db, spec, sim):
    """All solutions in canonical order: close every subset of the generator
    universe (saturated from the identity with every active pair) and keep
    the closures that pass the reference solution check.  Everything is
    evaluated by the reference interpreter.  Exponential in the universe;
    tiny inputs only."""
    entries_of = _reference_entries_memo(db, spec, sim)
    universe = reference_universe(db, spec, sim, entries_of)
    seen = set()
    out = []
    for mask in range(1 << len(universe)):
        cand = close_subset(db, (universe[i] for i in range(len(universe)) if mask >> i & 1))
        if cand in seen:
            continue
        seen.add(cand)
        if reference_is_solution(db, spec, cand, sim, entries_of):
            out.append(cand)
    out.sort(key=candidate_key)
    return tuple(out)
