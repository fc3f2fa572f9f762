import random
import string

import pytest
from hypothesis import example, given, settings, strategies as st

import erx.similarity
from erx.core import Database, DomainError, Fact, NULL, element_key, norm_pair, obj, tid, val
from erx.gadgets import Cnf3, gen_3sat_restricted_min_a
from erx.query import SimilarityStore
from erx.similarity import (
    SimConfig,
    TfidfCorpus,
    build_sim_store,
    jaro_winkler,
    levenshtein,
    load_overrides,
    looks_numeric,
    pair_score,
    tfidf_cosine,
)

from conftest import AUTHORS_SIM, build_authors
from erx.specdsl import parse_spec
from oracles import (jaro_winkler_direct, levenshtein_recursive, reference_sim_store,
                     reference_tfidf_cosine, tfidf_cosine_dense)

short = st.text(alphabet=string.ascii_lowercase, max_size=8)


def test_levenshtein_examples():
    assert levenshtein("abc", "abc") == 0
    assert levenshtein("", "abc") == 3
    assert levenshtein("kitten", "sitting") == levenshtein_recursive("kitten", "sitting") == 3


@settings(max_examples=80, deadline=None)
@given(short, short)
def test_levenshtein_matches_recursive_definition(a, b):
    assert levenshtein(a, b) == levenshtein_recursive(a, b)


@settings(max_examples=60, deadline=None)
@given(short, short, short)
def test_levenshtein_metric_properties(a, b, c):
    assert levenshtein(a, b) == levenshtein(b, a)
    assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)
    assert (levenshtein(a, b) == 0) == (a == b)


def test_jaro_winkler_examples():
    assert jaro_winkler("x", "x") == 1.0
    assert jaro_winkler("x", "") == 0.0
    # hand evaluation: 6 matches, 1 transposition, 3-character prefix
    assert abs(jaro_winkler("MARTHA", "MARHTA") - 0.9611) < 1e-4


@settings(max_examples=100, deadline=None)
@given(short, short)
def test_jaro_winkler_matches_direct_transcription(a, b):
    assert jaro_winkler(a, b) == pytest.approx(jaro_winkler_direct(a, b), abs=1e-12)
    assert 0.0 <= jaro_winkler(a, b) <= 1.0
    assert jaro_winkler(a, b) == jaro_winkler(b, a)


def test_winkler_boost_grows_with_shared_prefix():
    from erx.similarity import _jaro

    # same jaro core, boost increases with the shared prefix up to 4
    assert jaro_winkler("ab", "ac") > _jaro("ab", "ac")
    assert jaro_winkler("xy", "zy") == _jaro("xy", "zy")
    scores = [jaro_winkler("abcdefg"[:k] + "qqq", "abcdefg"[:k] + "rrr") for k in range(5)]
    assert all(s2 >= s1 for s1, s2 in zip(scores, scores[1:]))


def test_tfidf_identical_and_disjoint():
    corpus = ["alpha beta", "alpha gamma", "delta"]
    assert tfidf_cosine("alpha beta", "alpha beta", corpus) == pytest.approx(1.0)
    assert tfidf_cosine("alpha beta", "delta", corpus) == pytest.approx(0.0)


def test_tfidf_universal_tokens_score_zero():
    corpus = ["common", "common", "common"]
    assert tfidf_cosine("common", "common", corpus) == 0.0


def test_tfidf_empty_corpus_rejected():
    with pytest.raises(DomainError):
        tfidf_cosine("a", "b", [])
    corpus = TfidfCorpus([])  # only scoring against it fails
    with pytest.raises(DomainError):
        tfidf_cosine("a", "b", corpus)


def test_store_without_value_constants_is_empty():
    # The minA gadget has objects only, so the corpus is empty but never used.
    inst = gen_3sat_restricted_min_a(Cnf3(1, ((1, 1, 1),)))
    assert not inst.db.value_constants()
    assert len(build_sim_store(inst.db)) == 0
    assert len(build_sim_store(inst.db, spec=inst.spec)) == 0


def test_tfidf_example_against_dense_oracle():
    a, b = "alpha beta", "alpha gamma"
    corpus = [a, b, "delta"]
    assert tfidf_cosine(a, b, corpus) == pytest.approx(
        tfidf_cosine_dense(a, b, corpus), abs=1e-9
    )


@settings(max_examples=60, deadline=None)
@given(st.lists(st.text(alphabet="abc ", min_size=1, max_size=12), min_size=1, max_size=5),
       st.text(alphabet="abc ", max_size=12), st.text(alphabet="abc ", max_size=12))
def test_tfidf_matches_dense_oracle(corpus, a, b):
    assert tfidf_cosine(a, b, corpus) == pytest.approx(
        tfidf_cosine_dense(a, b, corpus), abs=1e-9
    )


def test_routing_and_rounding():
    cfg = SimConfig()
    corpus = ["x"]
    assert looks_numeric("1234") and looks_numeric("-1.5") and not looks_numeric("12a")
    # numeric route: 100 * (1 - lev/max_len), half-up rounding
    assert pair_score("1234", "1235", cfg, corpus) == 75
    assert pair_score("12", "1", cfg, corpus) == 50
    # short-string route
    assert pair_score("MARTHA", "MARHTA", cfg, corpus) == 96
    # long-text route kicks in at 25 characters
    long_a = "the quick brown fox jumps over the lazy dog"
    assert len(long_a) >= 25
    assert pair_score(long_a, long_a, cfg, [long_a, "unrelated words here"]) == 100


def test_build_sim_store_reproduces_running_example_with_overrides():
    spec, db, _ = build_authors()
    overrides = SimilarityStore([(val(a), val(b), s) for a, b, s in AUTHORS_SIM])
    store = build_sim_store(db, SimConfig(), spec=spec, overrides=overrides)
    assert store.score(val("A. Turing"), val("Alan Turing")) == 96
    assert store.score(val("Smith's Prize"), val("Smith's Prize(1936)")) == 96
    # pairs the overrides do not pin are still scored, below the threshold
    assert store.score(val("A. Turing"), val("Clerk Maxwell")) < 95


def test_store_null_and_identity_conventions():
    store = SimilarityStore()
    assert store.score(val("x"), val("x")) == 100
    assert store.score(NULL, val("x")) == 0
    with pytest.raises(Exception):
        store.put(NULL, val("x"), 50)


def test_store_symmetry():
    store = SimilarityStore([(val("a"), val("b"), 77)])
    assert store.score(val("a"), val("b")) == store.score(val("b"), val("a")) == 77


def test_build_store_skips_nulls_and_scores_referenced_positions():
    spec, db, _ = build_authors()
    store = build_sim_store(db, SimConfig(), spec=spec)
    # name and award values are referenced by sim atoms; dob values are not
    assert store.score(val("A. Turing"), val("Alan Turing")) > 0
    assert store.score(val("23/07/1912"), val("13/06/1831")) == 0


def test_override_file_round_trip(tmp_path):
    p = tmp_path / "overrides.tsv"
    p.write_text("A. Turing\tAlan Turing\t96\n# comment\nx\ty\t10\n", encoding="utf-8")
    store = load_overrides(p)
    assert store.score(val("A. Turing"), val("Alan Turing")) == 96
    assert store.score(val("x"), val("y")) == 10
    bad = tmp_path / "bad.tsv"
    bad.write_text("only two\tfields\n", encoding="utf-8")
    with pytest.raises(DomainError):
        load_overrides(bad)


def test_oracle_battery_random_strings():
    rng = random.Random(99)
    for _ in range(400):
        a = "".join(rng.choices("abcdef", k=rng.randint(0, 7)))
        b = "".join(rng.choices("abcdef", k=rng.randint(0, 7)))
        assert levenshtein(a, b) == levenshtein_recursive(a, b)
        assert jaro_winkler(a, b) == pytest.approx(jaro_winkler_direct(a, b), abs=1e-12)


WORDS = ("Alan", "turing", "TURING", "prize", "smith's", "computable", "numbers",
         "machine", "of", "the", "on", "1936")
mixed_value = st.one_of(
    st.text(alphabet="abcAB .", min_size=1, max_size=8),  # short
    st.lists(st.sampled_from(WORDS), min_size=1, max_size=9).map(" ".join),  # long, repeats
    st.integers(-10**6, 10**8).map(str),  # numeric
    st.just("  padded   with  spaces and tabs\tbetween words  "),
)
STORE_SPEC = parse_spec("""\
schema R(e: obj, v: val).
schema S(e: obj, w: val).
soft obj r: R[t1](x, a), R[t2](y, b), sim(a, b) >= 50 => EqO(x, y).
""")


def values_db(r_values, s_values=()):
    facts = [Fact(STORE_SPEC.schema[rel], tid(f"{rel}{i}"), (obj(f"o{i}"), val(v)))
             for rel, values in (("R", r_values), ("S", s_values))
             for i, v in enumerate(values)]
    return Database(STORE_SPEC.schema.values(), facts)


@settings(max_examples=60, deadline=None)
@given(st.lists(mixed_value, max_size=12), st.lists(mixed_value, max_size=5))
def test_store_matches_per_pair_reference(r_values, s_values):
    # S values are in the corpus but, under the spec, in no pair.
    db = values_db(r_values, s_values)
    values = list(db.value_constants())
    # The store keys pairs in text order without normalising them; for
    # value constants that is `norm_pair` (element_key) order.
    assert sorted(values, key=lambda c: c.text) == sorted(values, key=element_key)
    for spec in (None, STORE_SPEC):
        store = build_sim_store(db, SimConfig(), spec=spec)
        assert store.items() == reference_sim_store(db, SimConfig(), spec=spec).items()
        assert all(pair == norm_pair(*pair) for pair, _ in store.items())


@settings(max_examples=60, deadline=None)
@given(st.lists(mixed_value, min_size=1, max_size=8),
       st.lists(st.tuples(mixed_value, mixed_value), min_size=1, max_size=6))
# Summing the weights in sorted token order changes this score's last bit.
@example(["machine machine", "smith's prize prize prize", "TURING turing machine the turing",
          "Alan TURING Alan numbers", "of Alan", "prize", "computable on turing numbers the Alan",
          "TURING turing turing"],
         [("prize of on machine turing TURING", "on Alan prize on the on on of of")])
def test_prebuilt_corpus_scores_equal_reference(corpus, pairs):
    # Pair values are mostly absent from the corpus; one corpus serves them all.
    prebuilt = TfidfCorpus(corpus)
    for a, b in pairs + [(corpus[0], corpus[-1])]:
        assert tfidf_cosine(a, b, prebuilt) == reference_tfidf_cosine(a, b, corpus)


def test_store_tokenises_each_string_once(monkeypatch):
    calls = []
    tokens = erx.similarity._tokens
    monkeypatch.setattr(erx.similarity, "_tokens", lambda s: calls.append(s) or tokens(s))
    n = 40
    db = values_db([f"entity {i} described at length by words {i % 7} and {i % 3}"
                    for i in range(n)])
    store = build_sim_store(db)
    assert len(store) == n * (n - 1) // 2
    # Document frequencies once per corpus string, weights once per value;
    # rescanning the corpus per pair makes about n * n * n / 2 calls.
    assert 0 < len(calls) <= len(db.value_constants()) + n
