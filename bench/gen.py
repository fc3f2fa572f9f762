"""Seeded input generators for the benchmark workloads.

Every generator takes its own `random.Random`, so the same seed gives the
same inputs in any process.  They return plain tuples and strings and
import nothing from `erx`; the workloads turn them into program inputs.
"""
from __future__ import annotations

import random


def instance_rng(workload: str, seed: int, index: int) -> random.Random:
    """The generator stream of one operation's input.

    String seeds are hashed with SHA-512 by `random`, so the stream does not
    depend on the interpreter's hash randomisation.
    """
    return random.Random(f"{workload}:{seed}:{index}")


def sample_cnf(rng: random.Random, n: int, m: int, satisfiable: bool):
    """A 3-CNF over variables 1..n with m clauses, as a tuple of literal
    triples.  Literals repeat variables freely, as in DIMACS padding.

    A satisfiable formula keeps only clauses that a hidden assignment
    satisfies.  An unsatisfiable one plants a variable's two unit clauses
    (written as width-3 repeats) among m - 2 random clauses, so m >= 2.
    """
    if satisfiable:
        hidden = [rng.random() < 0.5 for _ in range(n)]
        clauses = []
        while len(clauses) < m:
            clause = tuple(rng.choice([v, -v]) for v in rng.choices(range(1, n + 1), k=3))
            if any(hidden[abs(l) - 1] == (l > 0) for l in clause):
                clauses.append(clause)
        return tuple(clauses)
    if m < 2:
        raise ValueError("an unsatisfiable formula needs at least two clauses")
    v = rng.randint(1, n)
    clauses = [
        tuple(rng.choice([u, -u]) for u in rng.choices(range(1, n + 1), k=3))
        for _ in range(m - 2)
    ]
    clauses.insert(rng.randint(0, len(clauses)), (v, v, v))
    clauses.insert(rng.randint(0, len(clauses)), (-v, -v, -v))
    return tuple(clauses)


def sample_horn(rng: random.Random, n_vars: int, entailed: bool):
    """A Horn formula with deep derivation chains and a query whose
    entailment is chosen by the caller.

    Returns (variables, units, clauses, query) with clauses as
    (premise, premise, head) triples.  Two thirds of the variables are
    *live*: two units start a chain in which each live variable needs the
    one before it, so the last is derived only after every other.  The rest
    are *dead*: their chain starts at a variable that is neither a unit nor
    a head, so none of them is entailed.  Extra clauses bring the clause
    count to about twice the variable count without changing which
    variables are entailed: a live head only takes earlier live premises, a
    dead head always takes a dead premise.  The query is the last live
    variable when `entailed`, the last dead one otherwise.
    """
    if n_vars < 6:
        raise ValueError("need at least six variables")
    names = [f"x{i}" for i in range(1, n_vars + 1)]
    rng.shuffle(names)
    n_live = (2 * n_vars) // 3
    live, dead = names[:n_live], names[n_live:]
    units = tuple(live[:2])
    clauses = []
    for i in range(2, n_live):
        clauses.append(_premises(rng, live[i - 1], live[rng.randrange(i - 1)]) + (live[i],))
    for j in range(1, len(dead)):
        clauses.append(_premises(rng, dead[j - 1], rng.choice(live)) + (dead[j],))
    while len(clauses) < 2 * n_vars:
        if rng.random() < 0.5:
            c = rng.randrange(2, n_live)
            body = (live[rng.randrange(c)], live[rng.randrange(c)])
            clauses.append(body + (live[c],))
        else:
            c = rng.randrange(1, len(dead))
            body = _premises(rng, dead[rng.randrange(c)], rng.choice(names))
            clauses.append(body + (dead[c],))
    rng.shuffle(clauses)
    query = live[-1] if entailed else dead[-1]
    return tuple(sorted(names)), units, tuple(clauses), query


def _premises(rng: random.Random, a: str, b: str) -> tuple[str, str]:
    return (a, b) if rng.random() < 0.5 else (b, a)


_SYLLABLES = (
    "ba", "co", "da", "fe", "gi", "ha", "jo", "ka", "lu", "ma", "ne", "po",
    "ri", "sa", "te", "vo", "wi", "ze", "mor", "len", "tar", "vin", "dor", "sel",
)
_CITIES = (
    "London", "Edinburgh", "Paris", "Vienna", "Zurich", "Lisbon", "Oslo",
    "Prague", "Dublin", "Krakow", "Turin", "Leiden", "Ghent", "Uppsala",
)
_AWARD_WORDS = (
    "medal", "prize", "royal", "society", "academy", "foundation", "outstanding",
    "contribution", "theory", "computation", "logic", "analysis", "algebra",
    "geometry", "physics", "chemistry", "lecture", "fellowship", "research",
    "international", "national", "young", "career", "achievement", "science",
    "mathematics", "engineering", "systems", "information", "methods",
)

AUTHORS_SPEC = """\
schema Author(aid: obj, name: val, dob: val, pob: val).
schema Awarded(aid: obj, awrd: val).

soft obj s1: Author[t1](x, n1, d, p), Author[t2](y, n2, d, p), sim(n1, n2) >= 95 => EqO(x, y).
hard val h1: Author[t1](a, n1, _, _), Author[t2](a, n2, _, _), sim(n1, n2) >= 95 => EqV(t1.2, t2.2).
soft val s2: Awarded[t1](a, z), Awarded[t2](a, w), sim(z, w) >= 95 => EqV(t1.2, t2.2).
dc d1: Author[t1](a, n1, _, _), Author[t2](a, n2, _, _), n1 != n2.
"""
# People in the author tables, and how many of them appear twice.
AUTHORS_PEOPLE = 60
AUTHORS_CLUSTERS = 2


def _word(rng: random.Random, k: int) -> str:
    return "".join(rng.choice(_SYLLABLES) for _ in range(k)).capitalize()


def author_tables(rng: random.Random):
    """Author and Awarded rows for AUTHORS_PEOPLE people, the first
    AUTHORS_CLUSTERS of whom appear twice under different author ids.

    Returns (rows, truth): rows maps relation name to (tid, args...) tuples
    in TSV column order, and truth lists the duplicate author-id pairs.
    Names are 12 to 24 characters, so the program scores them with
    Jaro-Winkler; a duplicate drops the last letter of its name, which keeps
    that score at 95 or more.  Award texts are eight words long, so they are
    scored with TF-IDF; a duplicate carries the same text.  Every person has
    their own birth date, so only duplicates can match on (dob, pob).
    """
    names: set[str] = set()
    people = []
    dates = rng.sample(range(336 * 200), AUTHORS_PEOPLE)
    for day in dates:
        while True:
            name = f"{_word(rng, 2)} {_word(rng, 3)}"
            if 12 <= len(name) <= 24 and name not in names and name[:-1] not in names:
                break
        names.add(name)
        year, rest = divmod(day, 336)
        dob = f"{rest % 28 + 1:02d}/{rest // 28 + 1:02d}/{1800 + year}"
        award = " ".join(rng.choice(_AWARD_WORDS) for _ in range(8)).capitalize()
        people.append((name, dob, rng.choice(_CITIES), award))
    records = [(k, person) for k, person in enumerate(people)]
    records += [(k, (people[k][0][:-1],) + people[k][1:]) for k in range(AUTHORS_CLUSTERS)]
    rng.shuffle(records)

    author, awarded = [], []
    first_aid: dict[int, str] = {}
    truth = []
    for i, (k, (name, dob, pob, award)) in enumerate(records, start=1):
        aid = f"a{i}"
        author.append((f"t{i}", aid, name, dob, pob))
        awarded.append((f"t{len(records) + i}", aid, award))
        if k in first_aid:
            truth.append((first_aid[k], aid))
        else:
            first_aid[k] = aid
    return {"Author": author, "Awarded": awarded}, tuple(truth)
