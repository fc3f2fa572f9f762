"""Textual language for entity-resolution specifications.

One statement per line (continuation lines are allowed until the closing
`.`), `#` starts a comment, files use the `.erx` extension:

    schema Author(aid: obj, name: val, dob: val, pob: val).
    soft obj s1: Author[t1](x, n1, d, p), Author[t2](y, n2, d, p),
                 sim(n1, n2) >= 95 => EqO(x, y).
    hard val h1: Author[t1](a, n1, _, _), Author[t2](a, n2, _, _),
                 sim(n1, n2) >= 95 => EqV(t1.2, t2.2).
    dc d1: Author[t1](a, n1, _, _), Author[t2](a, n2, _, _), n1 != n2.

Tid variables go in brackets after the relation name and may be omitted (a
fresh one is invented).  `_` is an anonymous fresh variable.  Quoted strings
are constants; they may not appear as head arguments.  Any variable not in a
rule head is existential.  Cell references in `EqV` heads are `tidvar.pos`
with 1-based positions.  Inequality atoms may appear in denial constraints
only, so every rule body is monotone under merges.
"""
from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from typing import Iterable, Union

from .core import EngineError, RelationDecl, Sort


class SpecError(EngineError):
    """Syntax or shape error in a specification, with source position."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        where = f" (line {line}, col {col})" if line else ""
        super().__init__(message + where)


@dataclass(frozen=True, slots=True)
class Var:
    name: str


@dataclass(frozen=True, slots=True)
class TidVar:
    name: str


@dataclass(frozen=True, slots=True)
class ConstTerm:
    """A quoted constant.  `parse_spec` gives it the sort of the position it
    fills, or of the variable it is compared with."""

    text: str
    sort: Sort = Sort.VAL


Term = Union[Var, TidVar, ConstTerm]


@dataclass(frozen=True, slots=True)
class RelAtom:
    rel: str
    tid: TidVar
    args: tuple[Term, ...]


@dataclass(frozen=True, slots=True)
class SimAtom:
    left: Term
    right: Term
    threshold: int


@dataclass(frozen=True, slots=True)
class NeqAtom:
    left: Term
    right: Term


Atom = Union[RelAtom, SimAtom, NeqAtom]


@dataclass(frozen=True, slots=True)
class ObjectRule:
    label: str
    hard: bool
    body: tuple[Atom, ...]
    head: tuple[str, str]


@dataclass(frozen=True, slots=True)
class ValueRule:
    label: str
    hard: bool
    body: tuple[Atom, ...]
    head_tids: tuple[str, str]
    head_pos: tuple[int, int]


@dataclass(frozen=True, slots=True)
class DenialConstraint:
    label: str
    body: tuple[Atom, ...]


Rule = Union[ObjectRule, ValueRule]


@dataclass(frozen=True, eq=False)
class Specification:
    """Compared and hashed by identity: a specification is parsed once and
    passed around.  Rule bodies must be free of inequality atoms, which
    keeps them monotone under merges; the evaluation and search rely on
    that."""

    schema: dict[str, RelationDecl] = field(default_factory=dict)
    object_rules: tuple[ObjectRule, ...] = ()
    value_rules: tuple[ValueRule, ...] = ()
    dcs: tuple[DenialConstraint, ...] = ()

    def __post_init__(self):
        for rule in self.rules():
            if any(isinstance(a, NeqAtom) for a in rule.body):
                raise SpecError(f"{rule.label}: inequality atoms belong in denial constraints only")

    @property
    def restricted(self) -> bool:
        """True iff no denial constraint uses an inequality atom."""
        return not any(
            isinstance(a, NeqAtom) for dc in self.dcs for a in dc.body
        )

    def rules(self) -> tuple[Rule, ...]:
        return self.object_rules + self.value_rules

    def hard_rules(self) -> tuple[Rule, ...]:
        return tuple(r for r in self.rules() if r.hard)

    def rule_by_label(self, label: str) -> Rule:
        for r in self.rules():
            if r.label == label:
                return r
        raise KeyError(label)


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<arrow>=>)
  | (?P<geq>>=)
  | (?P<neq>!=)
  | (?P<num>\d+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_']*)
  | (?P<quoted>"(?:[^"\\]|\\.)*")
  | (?P<punct>[()\[\],.:])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True, slots=True)
class _Tok:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Tok]:
    toks = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise SpecError(f"unexpected character {text[i]!r}", line, col)
        kind = m.lastgroup
        raw = m.group()
        if kind not in ("ws", "comment"):
            toks.append(_Tok(kind, raw, line, col))
        nl = raw.count("\n")
        if nl:
            line += nl
            col = len(raw) - raw.rfind("\n")
        else:
            col += len(raw)
        i = m.end()
    return toks


class _Parser:
    def __init__(self, toks: list[_Tok]):
        self.toks = toks
        self.i = 0

    def peek(self) -> _Tok | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self) -> _Tok:
        t = self.peek()
        if t is None:
            last = self.toks[-1] if self.toks else _Tok("", "", 1, 1)
            raise SpecError("unexpected end of input", last.line, last.col)
        self.i += 1
        return t

    def expect(self, text: str) -> _Tok:
        t = self.next()
        if t.text != text:
            raise SpecError(f"expected {text!r}, got {t.text!r}", t.line, t.col)
        return t

    def expect_name(self) -> _Tok:
        t = self.next()
        if t.kind != "name":
            raise SpecError(f"expected an identifier, got {t.text!r}", t.line, t.col)
        return t


def parse_spec(text: str, schema: dict[str, RelationDecl] | None = None) -> Specification:
    """Parse specification text; `schema` supplies relations declared elsewhere.

    Every atom is arity- and type-checked, rule shapes are validated, and
    the result carries the full schema (external plus inline declarations).
    """
    p = _Parser(_tokenize(text))
    decls: dict[str, RelationDecl] = dict(schema or {})
    object_rules: list[ObjectRule] = []
    value_rules: list[ValueRule] = []
    dcs: list[DenialConstraint] = []
    fresh = itertools.count(1)

    def fresh_var() -> str:
        return f"_{next(fresh)}"

    def parse_term(tok: _Tok) -> Term:
        if tok.kind == "quoted":
            return ConstTerm(tok.text[1:-1].replace('\\"', '"').replace("\\\\", "\\"))
        if tok.kind == "name":
            if tok.text == "_":
                return Var(fresh_var())
            return Var(tok.text)
        raise SpecError(f"expected a term, got {tok.text!r}", tok.line, tok.col)

    def parse_body(rule: bool) -> tuple[Atom, ...]:
        atoms: list[Atom] = []
        neq_toks: list[_Tok] = []
        while True:
            tok = p.next()
            if tok.kind == "name" and tok.text == "sim":
                p.expect("(")
                a = parse_term(p.next())
                p.expect(",")
                b = parse_term(p.next())
                p.expect(")")
                p.expect(">=")
                th = p.next()
                if th.kind != "num":
                    raise SpecError("similarity threshold must be an integer", th.line, th.col)
                thv = int(th.text)
                if not 0 <= thv <= 100:
                    raise SpecError("similarity threshold must be in 0..100", th.line, th.col)
                atoms.append(SimAtom(a, b, thv))
            elif tok.kind == "name" and p.peek() and p.peek().text in ("(", "["):
                rel_tok = tok
                if rel_tok.text not in decls:
                    raise SpecError(f"unknown relation {rel_tok.text!r}", rel_tok.line, rel_tok.col)
                decl = decls[rel_tok.text]
                if p.peek().text == "[":
                    p.expect("[")
                    tv = p.expect_name()
                    tidvar = TidVar(tv.text if tv.text != "_" else fresh_var())
                    p.expect("]")
                else:
                    tidvar = TidVar(fresh_var())
                p.expect("(")
                args: list[Term] = [parse_term(p.next())]
                while p.peek() and p.peek().text == ",":
                    p.next()
                    args.append(parse_term(p.next()))
                close = p.expect(")")
                if len(args) != decl.arity:
                    raise SpecError(
                        f"{decl.name} takes {decl.arity} arguments, got {len(args)}",
                        close.line, close.col,
                    )
                args = [ConstTerm(t.text, sort) if isinstance(t, ConstTerm) else t
                        for t, sort in zip(args, decl.type_vec)]
                atoms.append(RelAtom(decl.name, tidvar, tuple(args)))
            else:
                # bare term: must start an inequality atom
                a = parse_term(tok)
                op = p.next()
                if op.text != "!=":
                    raise SpecError(f"expected an atom, got {tok.text!r}", tok.line, tok.col)
                if rule:
                    raise SpecError("inequality atoms belong in denial constraints only",
                                    op.line, op.col)
                b = parse_term(p.next())
                atoms.append(NeqAtom(a, b))
                neq_toks.append(op)
            nxt = p.peek()
            if nxt is None:
                raise SpecError("unterminated statement", tok.line, tok.col)
            if nxt.text == ",":
                p.next()
                continue
            return _type_inequalities(atoms, neq_toks, decls)

    def parse_schema_stmt():
        name_tok = p.expect_name()
        if name_tok.text in decls:
            raise SpecError(f"relation {name_tok.text!r} declared twice",
                            name_tok.line, name_tok.col)
        p.expect("(")
        attrs: list[str] = []
        sorts: list[Sort] = []
        while True:
            attr = p.expect_name()
            p.expect(":")
            sort_tok = p.expect_name()
            if sort_tok.text not in ("obj", "val"):
                raise SpecError("attribute type must be obj or val",
                                sort_tok.line, sort_tok.col)
            attrs.append(attr.text)
            sorts.append(Sort.OBJ if sort_tok.text == "obj" else Sort.VAL)
            t = p.next()
            if t.text == ")":
                break
            if t.text != ",":
                raise SpecError(f"expected ',' or ')', got {t.text!r}", t.line, t.col)
        p.expect(".")
        decls[name_tok.text] = RelationDecl(name_tok.text, tuple(sorts), tuple(attrs))

    def parse_rule_stmt(hard: bool):
        kind_tok = p.expect_name()
        if kind_tok.text not in ("obj", "val"):
            raise SpecError("rule kind must be obj or val", kind_tok.line, kind_tok.col)
        label = p.expect_name().text
        p.expect(":")
        body = parse_body(rule=True)
        p.expect("=>")
        head_tok = p.expect_name()
        if kind_tok.text == "obj":
            if head_tok.text != "EqO":
                raise SpecError("object rule head must be EqO", head_tok.line, head_tok.col)
            p.expect("(")
            x = p.expect_name().text
            p.expect(",")
            y = p.expect_name().text
            p.expect(")")
            p.expect(".")
            object_rules.append(ObjectRule(label, hard, body, (x, y)))
        else:
            if head_tok.text != "EqV":
                raise SpecError("value rule head must be EqV", head_tok.line, head_tok.col)
            p.expect("(")
            xt = p.expect_name().text
            p.expect(".")
            i_tok = p.next()
            p.expect(",")
            yt = p.expect_name().text
            p.expect(".")
            j_tok = p.next()
            p.expect(")")
            p.expect(".")
            if i_tok.kind != "num" or j_tok.kind != "num":
                raise SpecError("cell positions must be integers", i_tok.line, i_tok.col)
            value_rules.append(
                ValueRule(label, hard, body, (xt, yt), (int(i_tok.text), int(j_tok.text)))
            )

    def parse_dc_stmt():
        label = p.expect_name().text
        p.expect(":")
        body = parse_body(rule=False)
        p.expect(".")
        dcs.append(DenialConstraint(label, body))

    while p.peek() is not None:
        head = p.expect_name()
        if head.text == "schema":
            parse_schema_stmt()
        elif head.text in ("hard", "soft"):
            parse_rule_stmt(hard=(head.text == "hard"))
        elif head.text == "dc":
            parse_dc_stmt()
        else:
            raise SpecError(
                f"expected 'schema', 'hard', 'soft' or 'dc', got {head.text!r}",
                head.line, head.col,
            )

    spec = Specification(decls, tuple(object_rules), tuple(value_rules), tuple(dcs))
    problems = validate_rule_shapes(spec)
    if problems:
        raise SpecError("; ".join(problems))
    return spec


def load_spec(path) -> Specification:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_spec(fh.read())


def _term_positions(body: Iterable[Atom], schema: dict[str, RelationDecl]):
    """Map each variable name to its (relation, position) occurrences.

    Position 0 is the tid slot.  Returns (occurrences, type map), where the
    type map assigns 'tid', 'obj' or 'val' to each variable; a variable used
    at conflicting positions gets 'mixed'.
    """
    occ: dict[str, list[tuple[str, int]]] = {}
    kinds: dict[str, str] = {}

    def note(name: str, rel: str, pos: int, kind: str):
        occ.setdefault(name, []).append((rel, pos))
        prev = kinds.get(name)
        kinds[name] = kind if prev in (None, kind) else "mixed"

    for atom in body:
        if not isinstance(atom, RelAtom):
            continue
        decl = schema[atom.rel]
        note(atom.tid.name, atom.rel, 0, "tid")
        for i, t in enumerate(atom.args, start=1):
            if isinstance(t, Var):
                kind = "obj" if decl.type_vec[i - 1] is Sort.OBJ else "val"
                note(t.name, atom.rel, i, kind)
    return occ, kinds


def _type_inequalities(atoms: list[Atom], neq_toks: list[_Tok],
                       schema: dict[str, RelationDecl]) -> tuple[Atom, ...]:
    """Give each constant in an inequality atom the sort of the variable it
    is compared with.  Inequalities between two constants, or between a
    constant and a tid variable, are rejected."""
    if not neq_toks:
        return tuple(atoms)
    _, kinds = _term_positions(atoms, schema)
    toks = iter(neq_toks)
    out: list[Atom] = []
    for atom in atoms:
        if isinstance(atom, NeqAtom):
            tok = next(toks)
            left, right = atom.left, atom.right
            if isinstance(left, ConstTerm) and isinstance(right, ConstTerm):
                raise SpecError("inequality between two constants", tok.line, tok.col)
            if isinstance(left, ConstTerm) or isinstance(right, ConstTerm):
                var, const = (right, left) if isinstance(left, ConstTerm) else (left, right)
                kind = kinds.get(var.name)
                if kind == "tid":
                    raise SpecError(f"inequality between tid variable {var.name!r} "
                                    "and a constant", tok.line, tok.col)
                sort = Sort.OBJ if kind == "obj" else Sort.VAL
                typed = ConstTerm(const.text, sort)
                atom = NeqAtom(typed, right) if const is left else NeqAtom(left, typed)
        out.append(atom)
    return tuple(out)


def validate_rule_shapes(spec: Specification) -> list[str]:
    """Return one diagnostic per shape violation; empty when the spec is valid."""
    out: list[str] = []
    labels = [r.label for r in spec.rules()] + [d.label for d in spec.dcs]
    for label, count in ((l, labels.count(l)) for l in set(labels)):
        if count > 1:
            out.append(f"label {label!r} is used {count} times")

    def check_basics(label: str, body: tuple[Atom, ...]):
        for atom in body:
            if isinstance(atom, RelAtom):
                if atom.rel not in spec.schema:
                    out.append(f"{label}: unknown relation {atom.rel!r}")
                    return None, None
                if len(atom.args) != spec.schema[atom.rel].arity:
                    out.append(f"{label}: arity mismatch on {atom.rel}")
                    return None, None
        occ, kinds = _term_positions(body, spec.schema)
        for name, kind in kinds.items():
            if kind == "mixed":
                out.append(f"{label}: variable {name!r} used at incompatible positions")
        for atom in body:
            if isinstance(atom, SimAtom):
                for t in (atom.left, atom.right):
                    if isinstance(t, Var) and kinds.get(t.name) not in ("val", None):
                        out.append(f"{label}: similarity over non-value variable {t.name!r}")
                    if isinstance(t, Var) and t.name not in occ:
                        out.append(f"{label}: variable {t.name!r} occurs only in a similarity atom")
                    if isinstance(t, TidVar):
                        out.append(f"{label}: similarity over a tid variable")
            if isinstance(atom, NeqAtom):
                for t in (atom.left, atom.right):
                    if isinstance(t, Var) and t.name not in occ:
                        out.append(f"{label}: variable {t.name!r} occurs only in an inequality atom")
        return occ, kinds

    for rule in spec.object_rules:
        occ, kinds = check_basics(rule.label, rule.body)
        if occ is None:
            continue
        for v in rule.head:
            if v not in occ:
                out.append(f"{rule.label}: head variable {v!r} not in body")
            elif kinds.get(v) != "obj":
                out.append(f"{rule.label}: head variable {v!r} occurs outside object positions")

    for rule in spec.value_rules:
        occ, kinds = check_basics(rule.label, rule.body)
        if occ is None:
            continue
        xt, yt = rule.head_tids
        if xt == yt:
            out.append(f"{rule.label}: head tid variables must be distinct")
        for tv, pos in zip(rule.head_tids, rule.head_pos):
            places = occ.get(tv, [])
            if len(places) != 1 or places[0][1] != 0:
                out.append(f"{rule.label}: tid variable {tv!r} must occur exactly once, in position 0")
                continue
            rel = places[0][0]
            if not spec.schema[rel].is_value_position(pos):
                out.append(f"{rule.label}: position {pos} is not a value position of {rel}")

    for dc in spec.dcs:
        check_basics(dc.label, dc.body)

    return out


def _print_term(t: Term) -> str:
    if isinstance(t, ConstTerm):
        escaped = t.text.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    return t.name


def _print_atom(a: Atom) -> str:
    if isinstance(a, RelAtom):
        args = ", ".join(_print_term(t) for t in a.args)
        return f"{a.rel}[{a.tid.name}]({args})"
    if isinstance(a, SimAtom):
        return f"sim({_print_term(a.left)}, {_print_term(a.right)}) >= {a.threshold}"
    return f"{_print_term(a.left)} != {_print_term(a.right)}"


def print_spec(spec: Specification) -> str:
    """Canonical text form; parse_spec(print_spec(s)) reproduces s."""
    lines = []
    for decl in spec.schema.values():
        attrs = decl.attr_names or tuple(f"a{i}" for i in range(1, decl.arity + 1))
        cols = ", ".join(
            f"{n}: {s.value}" for n, s in zip(attrs, decl.type_vec)
        )
        lines.append(f"schema {decl.name}({cols}).")
    if spec.schema:
        lines.append("")
    for r in spec.object_rules:
        kind = "hard" if r.hard else "soft"
        body = ", ".join(_print_atom(a) for a in r.body)
        lines.append(f"{kind} obj {r.label}: {body} => EqO({r.head[0]}, {r.head[1]}).")
    for r in spec.value_rules:
        kind = "hard" if r.hard else "soft"
        body = ", ".join(_print_atom(a) for a in r.body)
        (xt, yt), (i, j) = r.head_tids, r.head_pos
        lines.append(f"{kind} val {r.label}: {body} => EqV({xt}.{i}, {yt}.{j}).")
    for d in spec.dcs:
        body = ", ".join(_print_atom(a) for a in d.body)
        lines.append(f"dc {d.label}: {body}.")
    return "\n".join(lines) + "\n"
