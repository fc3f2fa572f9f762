"""String similarity measures and bulk similarity-store construction.

Scores handed to the rule engine are integers in [0, 100].  Pair routing:
numeric-looking strings are scored by normalised Levenshtein distance,
short strings (both under 25 characters) by Jaro-Winkler, anything longer
by TF-IDF cosine over a document corpus.
"""
from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from .core import Constant, Database, DomainError, is_null
from .query import SimilarityStore
from .specdsl import RelAtom, SimAtom, Specification, Var


def levenshtein(a: str, b: str) -> int:
    """Minimum number of single-character insertions, deletions, substitutions."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i] + [0] * len(b)
        for j, cb in enumerate(b, start=1):
            cur[j] = min(
                prev[j] + 1,
                cur[j - 1] + 1,
                prev[j - 1] + (ca != cb),
            )
        prev = cur
    return prev[-1]


def _jaro(a: str, b: str) -> float:
    if a == b:
        return 1.0
    la, lb = len(a), len(b)
    if not la or not lb:
        return 0.0
    window = max(la, lb) // 2 - 1
    if window < 0:
        window = 0
    a_hit = [False] * la
    b_hit = [False] * lb
    matches = 0
    for i, ca in enumerate(a):
        lo = max(0, i - window)
        hi = min(lb, i + window + 1)
        for j in range(lo, hi):
            if not b_hit[j] and b[j] == ca:
                a_hit[i] = b_hit[j] = True
                matches += 1
                break
    if matches == 0:
        return 0.0
    mismatched = 0
    j = 0
    for i in range(la):
        if a_hit[i]:
            while not b_hit[j]:
                j += 1
            if a[i] != b[j]:
                mismatched += 1
            j += 1
    t = mismatched // 2  # half transpositions, floored like common practice
    m = matches
    return (m / la + m / lb + (m - t) / m) / 3


def jaro_winkler(a: str, b: str) -> float:
    """Jaro similarity with the common-prefix boost (prefix up to 4, factor 0.1)."""
    j = _jaro(a, b)
    prefix = 0
    for ca, cb in zip(a, b):
        if ca != cb or prefix == 4:
            break
        prefix += 1
    return j + prefix * 0.1 * (1.0 - j)


def _tokens(s: str) -> list[str]:
    return s.lower().split()


class TfidfCorpus:
    """The document frequencies of a corpus, counted on first use, and the
    TF-IDF weights and norm of each string scored against it, computed once
    and kept.  One is built per similarity store."""

    __slots__ = ("_docs", "_df", "_vectors")

    def __init__(self, docs: Iterable[str]):
        self._docs = tuple(docs)
        self._df: Counter | None = None
        self._vectors: dict[str, tuple[dict[str, float], float]] = {}

    def vector(self, s: str) -> tuple[dict[str, float], float]:
        """The weights of s by token, and their Euclidean norm."""
        if self._df is None:
            if not self._docs:
                raise DomainError("tfidf_cosine needs a nonempty corpus")
            self._df = Counter(tok for d in self._docs for tok in frozenset(_tokens(d)))
        v = self._vectors.get(s)
        if v is None:
            weights = {}
            for tok, count in Counter(_tokens(s)).items():
                df = self._df[tok]
                if df > 0:
                    weights[tok] = count * math.log(len(self._docs) / df)
            v = self._vectors[s] = (weights, math.sqrt(sum(w * w for w in weights.values())))
        return v


def tfidf_cosine(a: str, b: str, corpus: Iterable[str] | TfidfCorpus) -> float:
    """Cosine of the TF-IDF vectors of a and b.

    Term frequency is the raw token count; inverse document frequency is
    ln(N / df) over the corpus, with unseen tokens weighted 0.  A zero-norm
    vector (every token universal or unseen) scores 0 by convention.
    """
    if not isinstance(corpus, TfidfCorpus):
        corpus = TfidfCorpus(corpus)
    (wa, na), (wb, nb) = corpus.vector(a), corpus.vector(b)
    dot = sum(w * wb.get(tok, 0.0) for tok, w in wa.items())
    if na == 0.0 or nb == 0.0:
        return 0.0
    return dot / (na * nb)


_NUMERIC_RE = re.compile(r"^[+-]?\d+(\.\d+)?$")


def looks_numeric(s: str) -> bool:
    return bool(_NUMERIC_RE.match(s))


@dataclass(frozen=True)
class SimConfig:
    """Measure routing: numeric pairs use Levenshtein, short strings
    Jaro-Winkler, long text TF-IDF cosine."""

    short_len_threshold: int = 25


def _round_score(x: float) -> int:
    score = int(x * 100 + 0.5)
    return max(0, min(100, score))


def pair_score(a: str, b: str, cfg: SimConfig, corpus: Iterable[str] | TfidfCorpus) -> int:
    if looks_numeric(a) and looks_numeric(b):
        longest = max(len(a), len(b))
        return _round_score(1.0 - levenshtein(a, b) / longest) if longest else 100
    if len(a) < cfg.short_len_threshold and len(b) < cfg.short_len_threshold:
        return _round_score(jaro_winkler(a, b))
    return _round_score(tfidf_cosine(a, b, corpus))


def _referenced_values(db: Database, spec: Specification) -> frozenset[Constant]:
    """Values stored at positions that feed some similarity atom of the spec."""
    positions: set[tuple[str, int]] = set()
    for rule in spec.rules() + spec.dcs:
        sim_vars = {
            t.name
            for atom in rule.body if isinstance(atom, SimAtom)
            for t in (atom.left, atom.right) if isinstance(t, Var)
        }
        if not sim_vars:
            continue
        for atom in rule.body:
            if not isinstance(atom, RelAtom):
                continue
            for pos, term in enumerate(atom.args, start=1):
                if isinstance(term, Var) and term.name in sim_vars:
                    positions.add((atom.rel, pos))
    values = set()
    for f in db.facts:
        for pos, arg in enumerate(f.args, start=1):
            if (f.rel.name, pos) in positions and not is_null(arg):
                values.add(arg)
    return frozenset(values)


def build_sim_store(db: Database, cfg: SimConfig = SimConfig(),
                    spec: Specification | None = None,
                    overrides: SimilarityStore | None = None) -> SimilarityStore:
    """Score every unordered pair of non-null value constants.

    With a spec, only values at positions referenced by similarity atoms are
    paired (full cross product within them); otherwise all value constants.
    Override scores take precedence over computed ones.  Document
    frequencies are counted once per build, so the pairs cost O(V^2) plus
    the measure of each pair.
    """
    if spec is not None:
        values = _referenced_values(db, spec)
    else:
        values = db.value_constants()
    corpus = TfidfCorpus(v.text for v in db.value_constants())
    # The values share one sort, so text order is `norm_pair` order.
    ordered = sorted(values, key=lambda c: c.text)
    store = SimilarityStore.of_ordered({
        (a, b): pair_score(a.text, b.text, cfg, corpus)
        for i, a in enumerate(ordered) for b in ordered[i + 1:]
    })
    if overrides is not None:
        store = store.updated(overrides)
    return store


def load_overrides(path) -> SimilarityStore:
    """Read a TSV of (value1, value2, score 0..100) triples."""
    from .core import val

    store = SimilarityStore()
    with open(path, "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise DomainError(f"{path}:{ln}: expected 3 tab-separated fields")
            try:
                score = int(parts[2])
            except ValueError:
                raise DomainError(f"{path}:{ln}: score must be an integer") from None
            store.put(val(parts[0]), val(parts[1]), score)
    return store
