"""Core data model: typed constants, tid-annotated databases, value cells,
equivalence relations, and set-valued extended databases.

Everything here is immutable after construction, except that a database
builds its interned form (`Database.interned`) and compiled queries on
first use; closure and extension are pure functions.
"""
from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Iterable


class EngineError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(EngineError):
    """An element lies outside the universe it is supposed to belong to."""


class Sort(enum.Enum):
    OBJ = "obj"
    VAL = "val"
    TID = "tid"
    NULL = "null"


@dataclass(frozen=True, slots=True)
class Constant:
    """A constant with exactly one sort, compared by (sort, text)."""

    sort: Sort
    text: str
    _key: tuple = field(default=(), compare=False, repr=False)
    _h: int = field(default=0, compare=False, repr=False)

    def __post_init__(self):
        key = ("const", self.sort.value, self.text)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_h", hash(key))

    def __hash__(self):
        return self._h

    def __repr__(self):
        if self.sort is Sort.NULL:
            return "<null>"
        return f"{self.sort.value}:{self.text}"


#: The single shared null constant.  It may sit in value cells but never
#: takes part in object merges, similarity scores, or value overlap.
NULL = Constant(Sort.NULL, "")


def obj(text: str) -> Constant:
    return Constant(Sort.OBJ, text)


def val(text: str) -> Constant:
    return Constant(Sort.VAL, text)


def tid(text: str) -> Constant:
    return Constant(Sort.TID, text)


def is_null(c: Constant) -> bool:
    return c.sort is Sort.NULL


@dataclass(frozen=True, slots=True)
class RelationDecl:
    """Relation symbol with arity k and a type vector over positions 1..k.

    Position 0 is implicitly the tid position and is not part of the
    type vector.  `attr_names`, when given, is cosmetic (diagnostics and
    file headers only).
    """

    name: str
    type_vec: tuple[Sort, ...]
    attr_names: tuple[str, ...] = ()

    def __post_init__(self):
        if len(self.type_vec) < 1:
            raise DomainError(f"relation {self.name} must have arity >= 1")
        for s in self.type_vec:
            if s not in (Sort.OBJ, Sort.VAL):
                raise DomainError(f"relation {self.name}: positions are obj or val")
        if self.attr_names and len(self.attr_names) != len(self.type_vec):
            raise DomainError(f"relation {self.name}: attribute names do not match arity")

    @property
    def arity(self) -> int:
        return len(self.type_vec)

    def is_value_position(self, pos: int) -> bool:
        """1-based argument position check."""
        return 1 <= pos <= self.arity and self.type_vec[pos - 1] is Sort.VAL

    def value_positions(self) -> tuple[int, ...]:
        return tuple(i + 1 for i, s in enumerate(self.type_vec) if s is Sort.VAL)


@dataclass(frozen=True, slots=True)
class Fact:
    rel: RelationDecl
    tid: Constant
    args: tuple[Constant, ...]

    def __post_init__(self):
        if self.tid.sort is not Sort.TID:
            raise DomainError(f"fact of {self.rel.name}: tid has sort {self.tid.sort}")
        if len(self.args) != self.rel.arity:
            raise DomainError(
                f"fact {self.tid.text} of {self.rel.name}: got {len(self.args)} args, "
                f"arity is {self.rel.arity}"
            )
        for i, (a, s) in enumerate(zip(self.args, self.rel.type_vec), start=1):
            if s is Sort.OBJ and a.sort is not Sort.OBJ:
                raise DomainError(f"fact {self.tid.text}: position {i} needs an object")
            if s is Sort.VAL and a.sort not in (Sort.VAL, Sort.NULL):
                raise DomainError(f"fact {self.tid.text}: position {i} needs a value")


@dataclass(frozen=True, slots=True)
class Cell:
    """A (tid, value-position) pair: the unit of local value merging."""

    tid: Constant
    pos: int
    _key: tuple = field(default=(), compare=False, repr=False)
    _h: int = field(default=0, compare=False, repr=False)

    def __post_init__(self):
        key = ("cell", self.tid.text, self.pos)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_h", hash(key))

    def __hash__(self):
        return self._h

    def __repr__(self):
        return f"{self.tid.text}.{self.pos}"


Element = Constant | Cell


def element_key(e: Element) -> tuple:
    return e._key


def norm_pair(a: Element, b: Element) -> tuple[Element, Element]:
    """Canonical unordered form of a merge pair."""
    if element_key(a) <= element_key(b):
        return (a, b)
    return (b, a)


class Database:
    """A schema plus a finite set of tid-annotated facts.

    Each tid occurs at most once.  Obj(D) is the set of object constants in
    facts; Cells(D) is the set of (tid, value-position) pairs.
    """

    __slots__ = ("schema", "facts", "_by_tid", "_by_rel", "_objects", "_cells", "_interned",
                 "queries", "__weakref__")

    def __init__(self, schema: Iterable[RelationDecl], facts: Iterable[Fact]):
        self.schema: dict[str, RelationDecl] = {}
        for decl in schema:
            if decl.name in self.schema:
                raise DomainError(f"duplicate relation declaration {decl.name}")
            self.schema[decl.name] = decl
        self.facts = tuple(sorted(facts, key=lambda f: f.tid.text))
        self._by_tid: dict[Constant, Fact] = {}
        by_rel: dict[str, list[Fact]] = {name: [] for name in self.schema}
        for f in self.facts:
            if f.rel.name not in self.schema or self.schema[f.rel.name] != f.rel:
                raise DomainError(f"fact {f.tid.text}: relation {f.rel.name} not declared")
            if f.tid in self._by_tid:
                raise DomainError(f"tid {f.tid.text} occurs more than once")
            self._by_tid[f.tid] = f
            by_rel[f.rel.name].append(f)
        self._by_rel = {name: tuple(fs) for name, fs in by_rel.items()}
        objects = set()
        cells = set()
        for f in self.facts:
            for i, a in enumerate(f.args, start=1):
                if a.sort is Sort.OBJ:
                    objects.add(a)
                elif f.rel.type_vec[i - 1] is Sort.VAL:
                    cells.add(Cell(f.tid, i))
        self._objects = frozenset(objects)
        self._cells = frozenset(cells)
        self._interned = None
        # (query, similarity store) -> the query compiled against the
        # interned form (`query.compiled`), so that nothing is compiled twice.
        self.queries: dict = {}

    def interned(self) -> "InternedDatabase":
        """The interned form of this database, built on first use.  It holds
        no reference back, so the database and everything built for it are
        freed by reference counting once a run drops it."""
        if self._interned is None:
            self._interned = InternedDatabase(self)
        return self._interned

    def objects(self) -> frozenset[Constant]:
        return self._objects

    def cells(self) -> frozenset[Cell]:
        return self._cells

    def fact(self, t: Constant) -> Fact:
        return self._by_tid[t]

    def facts_of(self, rel_name: str) -> tuple[Fact, ...]:
        return self._by_rel.get(rel_name, ())

    def value_at(self, cell: Cell) -> Constant:
        f = self._by_tid.get(cell.tid)
        if f is None or not f.rel.is_value_position(cell.pos):
            raise DomainError(f"no value cell {cell!r}")
        return f.args[cell.pos - 1]

    def value_constants(self) -> frozenset[Constant]:
        return frozenset(
            v for f in self.facts for v in f.args if v.sort is Sort.VAL
        )


class EquivRel:
    """An equivalence relation over a fixed finite universe.

    Built as the reflexive-symmetric-transitive closure of a generator pair
    set.  Only non-singleton classes are stored; every other element is its
    own class.  Equality and hashing are by partition.
    """

    __slots__ = ("universe", "_class_of", "_merged_classes", "_hash")

    def __init__(self, universe: frozenset, class_of: dict, merged_classes: tuple):
        self.universe = universe
        self._class_of = class_of
        self._merged_classes = merged_classes
        self._hash = hash((self.universe, frozenset(self._merged_classes)))

    @classmethod
    def close(cls, pairs: Iterable[tuple[Element, Element]], universe: Iterable[Element]) -> "EquivRel":
        """Smallest equivalence relation on `universe` extending `pairs`."""
        uni = universe if isinstance(universe, frozenset) else frozenset(universe)
        gens = frozenset(tuple(p) for p in pairs)
        parent: dict[Element, Element] = {}

        def find(x):
            root = x
            while parent[root] != root:
                root = parent[root]
            while parent[x] != root:
                parent[x], x = root, parent[x]
            return root

        for a, b in gens:
            for e in (a, b):
                if e not in uni:
                    raise DomainError(f"pair member {e!r} not in universe")
                parent.setdefault(e, e)
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[rb] = ra
        groups: dict[Element, set] = {}
        for e in parent:
            groups.setdefault(find(e), set()).add(e)
        class_of: dict[Element, frozenset] = {}
        merged = []
        for members in groups.values():
            if len(members) < 2:
                continue
            fs = frozenset(members)
            merged.append(fs)
            for e in members:
                class_of[e] = fs
        merged.sort(key=lambda c: min(element_key(e) for e in c))
        return cls(uni, class_of, tuple(merged))

    @classmethod
    def identity(cls, universe: Iterable[Element]) -> "EquivRel":
        return cls.close((), universe)

    @classmethod
    def from_labels(cls, elements: tuple, labels: tuple[int, ...]) -> "EquivRel":
        """The relation over `elements`, given in `element_key` order, whose
        element i lies in the class labelled `labels[i]`, the least index
        in that class."""
        groups: dict[int, list] = {}
        for e, label in zip(elements, labels):
            groups.setdefault(label, []).append(e)
        merged = tuple(frozenset(g) for _, g in sorted(groups.items()) if len(g) > 1)
        class_of = {e: c for c in merged for e in c}
        return cls(frozenset(elements), class_of, merged)

    def same(self, a: Element, b: Element) -> bool:
        if a == b:
            return True
        ca = self._class_of.get(a)
        return ca is not None and b in ca

    def class_of(self, a: Element) -> frozenset:
        if a not in self.universe:
            raise DomainError(f"{a!r} not in universe")
        return self._class_of.get(a, frozenset((a,)))

    def merged_classes(self) -> tuple[frozenset, ...]:
        """The non-singleton classes, in canonical order."""
        return self._merged_classes

    def classes(self) -> tuple[frozenset, ...]:
        singles = tuple(
            frozenset((e,))
            for e in sorted(self.universe - set(self._class_of), key=element_key)
        )
        return self._merged_classes + singles

    def pair_count(self) -> int:
        """Number of ordered pairs in the relation, reflexive included."""
        n = len(self.universe)
        return n + sum(len(c) * len(c) - len(c) for c in self._merged_classes)

    def merged_pairs(self) -> frozenset[tuple[Element, Element]]:
        """All non-reflexive pairs, in canonical unordered form."""
        out = set()
        for c in self._merged_classes:
            members = sorted(c, key=element_key)
            out.update(itertools.combinations(members, 2))
        return frozenset(out)

    def extend(self, pairs: Iterable[tuple[Element, Element]]) -> "EquivRel":
        """The closure extended by more pairs: the same result as re-closing
        all generators together."""
        fresh = [(a, b) for a, b in pairs if not self.same(a, b)]
        if not fresh:
            return self
        spanning = [(min(c, key=element_key), e) for c in self._merged_classes for e in c]
        return EquivRel.close(spanning + fresh, self.universe)

    def is_identity(self) -> bool:
        return not self._merged_classes

    def __eq__(self, other):
        if not isinstance(other, EquivRel):
            return NotImplemented
        return (self.universe == other.universe
                and self._merged_classes == other._merged_classes)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        body = ", ".join("{" + ", ".join(repr(e) for e in sorted(c, key=element_key)) + "}"
                         for c in self._merged_classes)
        return f"EquivRel([{body}] over {len(self.universe)} elements)"


def eqrel_close(pairs: Iterable[tuple[Element, Element]], universe: Iterable[Element]) -> EquivRel:
    return EquivRel.close(pairs, universe)


def pair_count(e: EquivRel) -> int:
    return e.pair_count()


class ExtendedDatabase:
    """The database induced by an object merge E and a cell merge V.

    An object occurrence is replaced by its E-class; the value in cell (t,i)
    is replaced by the set of values stored in all V-merged cells.  Tid
    positions stay singletons.  `rows` holds this as the compiled query
    engine reads it (see `InternedDatabase`).
    """

    __slots__ = ("db", "obj_merge", "cell_merge", "rows")

    def __init__(self, db: Database, obj_merge: EquivRel, cell_merge: EquivRel, rows: tuple):
        self.db = db
        self.obj_merge = obj_merge
        self.cell_merge = cell_merge
        self.rows = rows


def extend(db: Database, obj_merge: EquivRel, cell_merge: EquivRel) -> ExtendedDatabase:
    """Build the extended database induced by the pair of merge relations."""
    if obj_merge.universe != db.objects():
        raise DomainError("object merge universe does not match Obj(D)")
    if cell_merge.universe != db.cells():
        raise DomainError("cell merge universe does not match Cells(D)")
    return ExtendedDatabase(db, obj_merge, cell_merge,
                            db.interned().rows(obj_merge, cell_merge)[1])


class InternedDatabase:
    """A database with its elements and constants interned to ints, for a
    search that builds many extended databases of one database.

    Objects and cells are numbered in `element_key` order.  Constants get
    codes: an object's code is its number, and tids, values and the null
    constant follow, as do constants that `code` meets later.  A merge state
    is a pair of *label tuples*, one over objects and one over cells, where
    each element is labelled with the least number in its class, so equal
    partitions have equal label tuples.  An extended database is a tuple of
    *rows*, one per fact of `db.facts`; a row holds the code set at the tid
    position (a singleton) and at each argument position.

    In every state the row at a tid position is the singleton of its
    original code, and the row at an object position is the class of its
    original code, so `postings` of the original codes serve every state.
    """

    __slots__ = ("schema", "objects", "cells", "constants", "_codes", "fact_rel", "facts_of",
                 "orig", "cell_of", "_identity", "_obj_at", "_cell_at", "_cell_value",
                 "_postings")

    def __init__(self, db: Database):
        self.schema = db.schema
        self.objects = tuple(sorted(db.objects(), key=element_key))
        self.cells = tuple(sorted(db.cells(), key=element_key))
        self.constants: list[Constant] = list(self.objects)
        self._codes = {c: i for i, c in enumerate(self.objects)}
        self.fact_rel = tuple(f.rel.name for f in db.facts)
        self.facts_of = {name: tuple(i for i, rel in enumerate(self.fact_rel) if rel == name)
                         for name in db.schema}
        self.orig = tuple(tuple(self.code(c) for c in (f.tid,) + f.args) for f in db.facts)
        cell_index = {c: i for i, c in enumerate(self.cells)}
        self.cell_of = {(self.code(c.tid), c.pos): i for c, i in cell_index.items()}
        obj_at: list[list[tuple[int, int]]] = [[] for _ in self.objects]
        cell_at: list[tuple[int, int]] = [(0, 0)] * len(self.cells)
        for fi, f in enumerate(db.facts):
            for pos, a in enumerate(f.args, start=1):
                if a.sort is Sort.OBJ:
                    obj_at[self._codes[a]].append((fi, pos))
                elif f.rel.type_vec[pos - 1] is Sort.VAL:
                    cell_at[cell_index[Cell(f.tid, pos)]] = (fi, pos)
        self._obj_at = tuple(tuple(occ) for occ in obj_at)
        self._cell_at = tuple(cell_at)
        self._cell_value = tuple(self.orig[fi][pos] for fi, pos in cell_at)
        singles = [frozenset((k,)) for k in range(len(self.constants))]
        self._identity = tuple(tuple(singles[k] for k in codes) for codes in self.orig)
        self._postings: dict[tuple[str, int], dict[int, tuple[int, ...]]] = {}

    def code(self, c: Constant) -> int:
        """The code of a constant, interning it on first sight."""
        k = self._codes.get(c)
        if k is None:
            k = self._codes[c] = len(self.constants)
            self.constants.append(c)
        return k

    def identity_rows(self) -> tuple[tuple[frozenset[int], ...], ...]:
        return self._identity

    def postings(self, rel: str, pos: int) -> dict[int, tuple[int, ...]]:
        """The facts of relation `rel` by their original code at position
        `pos`, in fact order; built on first use."""
        post = self._postings.get((rel, pos))
        if post is None:
            lists: dict[int, list[int]] = {}
            for fi in self.facts_of.get(rel, ()):
                lists.setdefault(self.orig[fi][pos], []).append(fi)
            post = self._postings[rel, pos] = {k: tuple(fs) for k, fs in lists.items()}
        return post

    def number(self, e: Element) -> int:
        """The number of an object or a cell."""
        if isinstance(e, Cell):
            return self.cell_of[self._codes[e.tid], e.pos]
        return self._codes[e]

    def rows(self, obj_merge: EquivRel, cell_merge: EquivRel) -> tuple[tuple, tuple]:
        """The label tuples of the two merges and the rows of their extended
        database; rows of facts they do not touch are shared with
        `identity_rows()`."""
        labels = (list(range(len(self.objects))), list(range(len(self.cells))))
        rows = self._identity
        for cells, rel in enumerate((obj_merge, cell_merge)):
            for c in rel.merged_classes():
                members = sorted(self.number(e) for e in c)
                for i in members:
                    labels[cells][i] = members[0]
                rows, _ = self.merged_rows(rows, cells, members)
        return (tuple(labels[0]), tuple(labels[1])), rows

    def merged_rows(self, rows: tuple, cells: bool, members: list[int]):
        """The rows after the objects (or cells) numbered `members` were
        merged into one class, from the rows before it.  Returns the new
        rows and the indices of the facts whose rows changed, grouped by
        relation name; every other row is shared with `rows`."""
        if cells:
            merged = frozenset(self._cell_value[i] for i in members)
            places = [self._cell_at[i] for i in members]
        else:
            merged = frozenset(members)
            places = [p for i in members for p in self._obj_at[i]]
        out = list(rows)
        touched: dict[int, list] = {}
        for fi, pos in places:
            if rows[fi][pos] != merged:
                row = touched.get(fi)
                if row is None:
                    row = touched[fi] = list(rows[fi])
                row[pos] = merged
        changed: dict[str, list[int]] = {}
        for fi, row in touched.items():
            out[fi] = tuple(row)
            changed.setdefault(self.fact_rel[fi], []).append(fi)
        return tuple(out), changed
