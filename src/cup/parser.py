"""Concrete syntax for programs, goals and terms, the pretty printer,
and proof-tree serialization.

Program files use: `const c : i -> i.` declarations, `def name = fix \\x. ...`
fixed-point definitions, explicit clauses (`forall x. G => H.`, whose
binders are of type i unless a type follows them, `forall f : i -> i. G`), and
Prolog-style sugar (`head :- body.` with uppercase variables implicitly
universally quantified).
"""

from __future__ import annotations

import json
import re
from collections.abc import Container
from json.encoder import encode_basestring_ascii

from . import engine as eng
from . import formulas as fm
from . import terms as tm
from .errors import (
    CupError,
    GuardednessError,
    MalformedDocument,
    NestingTooDeep,
    ParseError,
    SignatureMismatch,
    SourceTypeError,
)
from .formulas import (
    Atom,
    Conj,
    Disj,
    Exists,
    Forall,
    Formula,
    Impl,
    Program,
    Top,
)
from .guardedness import is_guarded_fixed_point
from .terms import App, Arrow, Base, Con, Fix, IOTA, Lam, Signature, Term, Var

KEYWORDS = {"const", "def", "forall", "exists", "fix", "true"}

_PUNCT = ["->", "=>", ":-", "/\\", "\\/", "(", ")", "[", "]", "|", ".", ":", ",", "=", "\\"]


@tm.record
class Token:
    kind: str  # 'ident', 'punct', 'keyword', 'eof'
    text: str
    line: int
    col: int

    @property
    def span(self):
        return (self.line, self.col)


# One token, newline or stretch of blanks or `%` comment per match; a
# character no token starts with is `bad`.  `[\w']` is `str.isalnum` plus
# `_'`, and `[^\S\n]` is `str.isspace` but for the newline.  Identifiers
# may hold the fresh mark, which `tokenize` rejects unless `allow_fresh`
_LEXER = re.compile(
    rf"(?P<nl>\n)|[^\S\n]+|%[^\n]*|(?P<ident>[\w'{re.escape(tm.FRESH_MARK)}]+)"
    rf"|(?P<punct>{'|'.join(map(re.escape, _PUNCT))})|(?P<bad>.)", re.S)


def tokenize(text: str, allow_fresh: bool = False) -> list[Token]:
    toks: list[Token] = []
    line, start = 1, 0  # the current line and the offset it starts at
    for m in _LEXER.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        if kind == "nl":
            line, start = line + 1, m.end()
            continue
        word, col = m.group(), m.start() - start + 1
        if kind == "ident":
            if not allow_fresh and tm.FRESH_MARK in word:
                at = col + word.index(tm.FRESH_MARK)
                raise ParseError(f"reserved marker {tm.FRESH_MARK!r} in identifier", (line, at))
            toks.append(Token("keyword" if word in KEYWORDS else "ident", word, line, col))
        elif kind == "punct":
            toks.append(Token("punct", word, line, col))
        else:
            raise ParseError(f"unexpected character {word!r}", (line, col))
    # a comment leaves the column where it starts: on the last line, at its `%`
    end = text.find("%", start)
    toks.append(Token("eof", "", line, (len(text) if end < 0 else end) - start + 1))
    return toks


# The binary connectives, loosest first; each is right-associative.  The
# parser and `pp_formula` both read this table.
_CONNECTIVES = ((Impl, "=>"), (Disj, "\\/"), (Conj, "/\\"))


class _Parser:
    """Recursive descent straight to `Term`s and `Formula`s.  Each
    identifier is resolved as it is read: a bound variable, a fix
    definition or a declared constant (one of `names`).  Any other name is
    read as a variable and kept in `unknown`, in textual order, for
    `resolved` to report once the production has parsed, so that a syntax
    error anywhere in it is reported first."""

    def __init__(self, toks: list[Token], names: Container[str], fix_defs: dict[str, Term]):
        self.toks = toks
        self.pos = 0
        self.names = names
        self.fix_defs = fix_defs
        self.bound: frozenset[str] = frozenset()
        self.unknown: list[tuple[str, tuple]] = []

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def at(self, text: str) -> bool:
        t = self.peek()
        return t.text == text and t.kind in ("punct", "keyword")

    def eat(self, text: str) -> Token:
        if not self.at(text):
            t = self.peek()
            raise ParseError(f"expected {text!r}, found {t.text!r}", t.span)
        return self.next()

    def ident(self) -> Token:
        t = self.peek()
        if t.kind != "ident":
            raise ParseError(f"expected an identifier, found {t.text!r}", t.span)
        return self.next()

    def declaration(self) -> tuple[Token, tm.SimpleType]:
        """`name : type`, in a `const` declaration or a signature addition."""
        name = self.ident()
        self.eat(":")
        return name, self.type_()

    def name(self, text: str, span: tuple) -> Term:
        if text in self.bound:
            return Var(text)
        if text in self.fix_defs:
            return self.fix_defs[text]
        if text in self.names:
            return Con(text)
        self.unknown.append((text, span))
        return Var(text)

    def resolved(self, implicit: bool) -> list[str]:
        """Raise on the first unknown name or, for Prolog sugar (`implicit`),
        on the first that is not capitalised.  Returns the capitalised
        names, the clause's implicit universals, in order of first use, and
        starts the next production with none."""
        unknown, self.unknown = self.unknown, []
        for text, span in unknown:
            if not (implicit and text[0].isupper()):
                raise SourceTypeError(f"unknown identifier {text!r}", span)
        return list(dict.fromkeys(text for text, _ in unknown))

    # ---- types ----

    def type_(self) -> tm.SimpleType:
        left = self.type_atom()
        if self.at("->"):
            self.next()
            return Arrow(left, self.type_())
        return left

    def type_atom(self) -> tm.SimpleType:
        if self.at("("):
            self.next()
            ty = self.type_()
            self.eat(")")
            return ty
        name = self.ident()
        if name.text not in ("i", "o"):
            raise SourceTypeError(f"unknown base type {name.text!r}", name.span)
        return Base(name.text)

    # ---- terms ----

    def term(self) -> Term:
        if self.at("\\"):
            self.next()
            var = self.ident().text
            self.eat(".")
            outer, self.bound = self.bound, self.bound | {var}
            body = self.term()
            self.bound = outer
            return Lam(var, body)
        if self.at("fix"):
            self.next()
            return Fix(self.term())
        return self.term_app()

    def term_app(self) -> Term:
        t = self.term_atom()
        while self.peek().kind == "ident" or self.peek().text in ("(", "["):
            t = App(t, self.term_atom())
        return t

    def term_atom(self) -> Term:
        t = self.peek()
        if t.kind == "ident":
            self.next()
            return self.name(t.text, t.span)
        if self.at("("):
            self.next()
            inner = self.term()
            self.eat(")")
            return inner
        if self.at("["):
            self.next()
            cons = self.name("scons", t.span)
            items = [self.term()]
            while self.at("|"):
                self.next()
                items.append(self.term())
            self.eat("]")
            if len(items) < 2:
                raise ParseError("bracket sugar needs [head|tail]", t.span)
            out = items[-1]
            for it in reversed(items[:-1]):
                out = App(App(cons, it), out)
            return out
        raise ParseError(f"expected a term, found {t.text!r}", t.span)

    # ---- formulas ----

    def formula(self) -> Formula:
        if self.at("forall") or self.at("exists"):
            quant = Forall if self.next().text == "forall" else Exists
            names = [self.ident().text]
            while self.peek().kind == "ident":
                names.append(self.next().text)
            # one optional type for all the names, else i
            ty = IOTA
            if self.at(":"):
                self.next()
                ty = self.type_()
            self.eat(".")
            outer, self.bound = self.bound, self.bound | set(names)
            f = self.formula()
            self.bound = outer
            for n in reversed(names):
                f = quant(n, ty, f)
            return f
        return self.binary(0)

    def binary(self, level: int) -> Formula:
        left = self.binary(level + 1) if level + 1 < len(_CONNECTIVES) else self.formula_atom()
        ctor, op = _CONNECTIVES[level]
        if self.at(op):
            self.next()
            return ctor(left, self.binary(level))
        return left

    def formula_atom(self) -> Formula:
        if self.at("true"):
            self.next()
            return fm.TOP
        if self.at("("):
            # a parenthesised formula, else a term: the failed attempt's
            # position, binders and unknown names are dropped
            pos, unknown, bound = self.pos, len(self.unknown), self.bound
            self.next()
            try:
                inner = self.formula()
                self.eat(")")
            except ParseError:
                self.pos, self.bound = pos, bound
                del self.unknown[unknown:]
                return Atom(self.term())
            return inner
        if self.at("forall") or self.at("exists"):
            return self.formula()
        return Atom(self.term())

    # ---- clauses ----

    def clause(self) -> Formula:
        """One clause, up to its closing dot: sugar when `:-` follows its
        head, read again from its start as a term (which reads `(p) X`
        further than a formula), or when it is a bare atom, whose capitalised
        unknown names are then universally quantified; else explicit syntax."""
        start = self.pos
        f = self.formula()
        end, read, head = self.pos, self.unknown, None
        if not self.at("."):
            self.pos, self.unknown = start, []
            try:
                head = Atom(self.term())
                self.eat(":-")
            except ParseError:
                if self.toks[end].text == ":-":
                    raise
                self.pos, self.unknown, head = end, read, None  # the formula's own error follows
        if head is not None:
            body = [Atom(self.term())]
            while self.at(","):
                self.next()
                body.append(Atom(self.term()))
            f = Impl(fm.conjoin(body), head)
        for v in reversed(self.resolved(implicit=head is not None or isinstance(f, Atom))):
            f = Forall(v, IOTA, f)
        return f


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def parse_program(text: str) -> Program:
    try:
        return _parse_program(text)
    except RecursionError:
        raise NestingTooDeep("nesting too deep") from None


def _parse_program(text: str) -> Program:
    # one signature per `const`: the later definitions and clauses share it
    sig_map: dict[str, tm.SimpleType] = {}
    sig = Signature.of(sig_map)
    fix_defs: dict[str, Term] = {}
    p = _Parser(tokenize(text), sig_map, fix_defs)
    clauses: list[Formula] = []
    while p.peek().kind != "eof":
        if p.at("const"):
            p.next()
            name_tok, ty = p.declaration()
            name = name_tok.text
            p.eat(".")
            if name in sig_map or name in fix_defs:
                raise ParseError(f"{name!r} declared twice", name_tok.span)
            sig_map[name] = ty
            sig = Signature.of(sig_map)
            try:
                sig.check_first_order()
            except tm.NonFirstOrderSignature as exc:
                raise SourceTypeError(str(exc), name_tok.span) from exc
            continue
        if p.at("def"):
            p.next()
            name_tok = p.ident()
            name = name_tok.text
            p.eat("=")
            body = p.term()
            p.eat(".")
            p.resolved(implicit=False)
            if name in sig_map or name in fix_defs:
                raise ParseError(f"{name!r} declared twice", name_tok.span)
            # only a body that type-checks is beta-normalised, which then
            # terminates; the normal form is checked again, since a vanished
            # argument may have been all that fixed a binder's type
            try:
                tm.typecheck(sig, {}, body)
                body = tm.beta_normalize(body)
            except CupError:
                pass
            report = is_guarded_fixed_point(sig, body)
            if not report.verdict:
                raise GuardednessError(
                    f"definition {name!r} is not a guarded fixed point term: "
                    + "; ".join(msg for _, msg in report.violations),
                    name_tok.span,
                )
            try:
                tm.typecheck(sig, {}, body)
            except CupError as exc:
                raise SourceTypeError(str(exc), name_tok.span) from exc
            fix_defs[name] = body
            continue
        start = p.peek()
        f = p.clause()
        p.eat(".")
        try:
            first_order = fm.in_fragment(sig, f, "clause", fm.Calculus.FOHC)
        except CupError as exc:
            raise SourceTypeError(f"ill-typed clause: {exc}", start.span) from exc
        if not first_order:
            raise SourceTypeError("clause is outside the first-order clause grammar", start.span)
        # after the type check, so beta-normalising terminates
        clauses.append(fm.map_atoms(f, tm.beta_normalize))
    return Program(sig, tuple(clauses), tuple(fix_defs.items()))


def _parse_with(text: str, program: Program, production: str, allow_fresh: bool = False):
    """A "term" or "formula" `production` spanning text, save one optional final dot."""
    p = _Parser(tokenize(text, allow_fresh=allow_fresh), program.signature, dict(program.fix_definitions))
    out = p.term() if production == "term" else p.formula()
    p.resolved(implicit=False)
    if p.at("."):
        p.next()
    t = p.peek()
    if t.kind != "eof":
        raise ParseError(f"trailing input {t.text!r}", t.span)
    return out


# Both type-check before they beta-normalise, which need not terminate on
# ill-typed input.  A term's normal form keeps its type but may lose the
# argument that made the type unique, so it is checked again, a memo hit if
# the text was normal; an atom's type is o either way.  Any step may exhaust
# the stack.
def parse_term(text: str, program: Program, allow_fresh: bool = False) -> Term:
    try:
        t = _parse_with(text, program, "term", allow_fresh)
        tm.typecheck(program.signature, {}, t)
        t = tm.beta_normalize(t)
        tm.typecheck(program.signature, {}, t)
        return t
    except RecursionError:
        raise NestingTooDeep("nesting too deep") from None


def parse_goal(text: str, program: Program, allow_fresh: bool = False) -> Formula:
    try:
        f = _parse_with(text, program, "formula", allow_fresh)
        fm.typecheck_formula(program.signature, f)
        return fm.map_atoms(f, tm.beta_normalize)
    except RecursionError:
        raise NestingTooDeep("nesting too deep") from None


# ---------------------------------------------------------------------------
# Pretty printer
# ---------------------------------------------------------------------------


def _match_fix_def(t: Term, program: Program | None) -> str | None:
    if program is None or not isinstance(t, Fix):
        return None
    return next((name for name, d in program.fix_definitions if tm.alpha_eq(t, d)), None)


def pp_term(t: Term, program: Program | None = None) -> str:
    used = set(tm.free_vars(t))

    def clean(name: str) -> str:
        if tm.FRESH_MARK not in name:
            return name
        base = name.split(tm.FRESH_MARK, 1)[0] or "x"
        cand, n = base, 0
        while cand in used:
            n += 1
            cand = f"{base}{n}"
        return cand

    def atom_str(u: Term, ren: dict[str, str]) -> str:
        s = go(u, ren)
        if isinstance(u, (Var, Con)) or s.startswith("[") or _match_fix_def(u, program) is not None:
            return s
        return f"({s})"

    def go(u: Term, ren: dict[str, str]) -> str:
        name = _match_fix_def(u, program)
        if name is not None:
            return name
        if isinstance(u, Var):
            return ren.get(u.name, u.name)
        if isinstance(u, Con):
            return u.name
        if isinstance(u, App):
            head, args = tm.spine(u)
            if isinstance(head, Con) and head.name == "scons" and len(args) == 2:
                items, tail = [args[0]], args[1]
                while True:
                    h2, a2 = tm.spine(tail)
                    if not (isinstance(h2, Con) and h2.name == "scons" and len(a2) == 2) or _match_fix_def(tail, program):
                        break
                    items.append(a2[0])
                    tail = a2[1]
                inner = "|".join(go(x, ren) for x in items) + "|" + go(tail, ren)
                return f"[{inner}]"
            return " ".join([atom_str(head, ren)] + [atom_str(a, ren) for a in args])
        if isinstance(u, Lam):
            v = clean(u.var)
            used.add(v)
            return f"\\{v}. {go(u.body, {**ren, u.var: v})}"
        return f"fix {go(u.body, ren)}"

    return go(t, {})


def pp_formula(f: Formula, program: Program | None = None) -> str:
    def go(g: Formula, prec: int) -> str:
        if isinstance(g, Top):
            return "true"
        if isinstance(g, Atom):
            return pp_term(g.term, program)
        if isinstance(g, (Forall, Exists)):
            kw = "forall" if isinstance(g, Forall) else "exists"
            # one group of binders per type; a type other than i is written
            names, body = [g.var], g.body
            while isinstance(body, type(g)) and body.ty == g.ty:
                names.append(body.var)
                body = body.body
            typed = "" if g.ty == IOTA else f" : {g.ty!r}"
            s = f"{kw} {' '.join(names)}{typed}. {go(body, 0)}"
            return f"({s})" if prec > 0 else s
        for level, (ctor, op) in enumerate(_CONNECTIVES, 1):
            if isinstance(g, ctor):
                s = f"{go(g.left, level + 1)} {op} {go(g.right, level)}"
                return f"({s})" if prec > level else s

    return go(f, 0)


# ---------------------------------------------------------------------------
# Proof documents
# ---------------------------------------------------------------------------


# the keys that state a sequent, the first four on every node that does
_STATED = ("signature_additions", "program_additions", "goal", "guarded", "program_removals", "mode", "focus")
_SOURCES = {src.value: src for src in eng.Src}


def _base(rule: str, parent: tuple | None, program: Program) -> tuple:
    """What a stated node's sequent is written against, its parent's (rule,
    sequent)'s signature and entries or at the root the program's, then the
    source of its program additions and its mode where it names none."""
    if parent is None:
        mode = eng.COINDUCTIVE if rule == "co-fix" else eng.PLAIN
        return program.signature, eng.base_entries(program), eng.Src.LEMMA, mode
    src = eng.Src.COHYP if parent[0] == "co-fix" else eng.Src.HYPOTHESIS
    return parent[1].signature, parent[1].entries, src, eng.PLAIN


def _stated(node: eng.ProofTree, parent: eng.ProofTree | None, program: Program) -> str:
    """The keys, signature_additions to mode, of a node that states its
    sequent: what it adds to `_base` once the last program_removals entries
    are dropped.  An addition is its formula, or [source, formula] where the
    source is not the default; mode is written where it is not."""
    seq = node.sequent
    sig, base, src, mode = _base(node.rule, parent and (parent.rule, parent.sequent), program)
    same = [e.src == b.src and fm.formula_alpha_eq(e.formula, b.formula) for e, b in zip(seq.entries, base)]
    kept = same.index(False) if False in same else len(same)
    sig_add = [] if seq.signature is sig else [f"{n} : {ty!r}" for n, ty in seq.signature.constants if n not in sig]
    text = lambda f: encode_basestring_ascii(pp_formula(f, program))
    adds = [text(e.formula) if e.src == src else f'["{e.src.value}", {text(e.formula)}]' for e in seq.entries[kept:]]
    out = f', "signature_additions": [{", ".join(map(encode_basestring_ascii, sig_add))}], "program_additions": '
    out += f'[{", ".join(adds)}]' + (f', "program_removals": {len(base) - kept}' if kept < len(base) else "")
    out += f', "goal": {text(seq.goal)}' + ("" if seq.focus is None else f', "focus": {text(seq.focus)}')
    out += f', "guarded": {"true" if seq.guarded else "false"}'
    return out if seq.mode == mode else out + f', "mode": "{seq.mode}"'


def export_proof(tree: eng.ProofTree, program: Program) -> str:
    """Serialize a proof tree to its flat JSON document: the object
    `{"format": "flat", "nodes": [...]}` whose nodes are listed in
    pre-order, one a line.  Each node is the text `json.dumps` gives for a
    dict of rule, children (its number of premises), `_stated` where it
    states its sequent, then witness, eigen and premises where present:
    premises is the index of the premise tuple its children's sequents are
    (`engine.premise_index`), so only they state none."""
    lines: list[str] = []
    todo: list = [(tree, None, False)]  # (node, parent, is its sequent derived) still to write, the next on top
    while todo:
        node, parent, derived = todo.pop()
        line = f'{{"rule": {encode_basestring_ascii(node.rule)}, "children": {len(node.children)}'
        if not derived:
            line += _stated(node, parent, program)
        if node.witness is not None:
            line += f', "witness": {encode_basestring_ascii(pp_term(node.witness, program))}'
        if node.eigen is not None:
            line += f', "eigen": {encode_basestring_ascii(node.eigen)}'
        index = eng.premise_index(node)
        lines.append(line + ("}" if index is None else f', "premises": {index}}}'))
        todo += ((kid, node, index is not None) for kid in reversed(node.children))
    return '{"format": "flat", "nodes": [\n' + ",\n".join(lines) + "\n]}"


def _parse_sig_addition(s: str, addition: bool = True):
    """A signature addition's (name, type), or without `addition` the identifier s is."""
    try:
        p = _Parser(tokenize(s, allow_fresh=True), (), {})
        name, ty = p.declaration() if addition else (p.ident(), None)
        if p.peek().kind == "eof":
            return (name.text, ty) if addition else name.text
    except ParseError:
        pass
    raise MalformedDocument(f"bad {'signature addition' if addition else 'eigenvariable'} {s!r}")


def _payload(parse, text: str, sig: Signature, program: Program, what: str):
    """parse(text) for `parse_goal` or `parse_term` over the program with
    signature sig; an error raises as a malformed document naming `what`."""
    try:
        return parse(text, Program(sig, program.clauses, program.fix_definitions), allow_fresh=True)
    except CupError as exc:
        raise MalformedDocument(f"unparseable {what}: {exc}") from exc


# what each node field must be, and the test of it
_FIELDS = {
    **dict.fromkeys(("rule", "goal", "focus", "witness", "eigen", "mode"), ("a string", lambda v: isinstance(v, str))),
    "signature_additions": ("a list of strings", lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v)),
    "program_additions": ("a list of strings and [source, string] pairs", lambda v: isinstance(v, list) and all(
        isinstance(a, str) or (type(a) is list and len(a) == 2 and a[0] in _SOURCES and type(a[1]) is str) for a in v)),
    "guarded": ("a boolean", lambda v: isinstance(v, bool)),
    **dict.fromkeys(("children", "premises", "program_removals"),
                    ("a non-negative integer", lambda v: type(v) is int and v >= 0)),
}


def _import_node(doc, program: Program, parent: tuple | None, derived: eng.Sequent | None):
    """One node's (rule, sequent, witness, eigenvariable, number of
    premises, the premise tuple its premises index names or None), its
    sequent `derived` from its parent's premise tuple or else stated."""
    required = {"rule", "children"} if derived else {"rule", "children", *_STATED[:4]}
    if not isinstance(doc, dict) or not required.issubset(doc):
        missing = required - set(doc) if isinstance(doc, dict) else required
        raise MalformedDocument(f"proof node missing fields: {sorted(missing)}")
    if derived and not doc.keys().isdisjoint(_STATED):
        raise MalformedDocument("proof node states a sequent that its parent's premises give")
    for key, (kind, test) in _FIELDS.items():
        if key in doc and not test(doc[key]):
            raise MalformedDocument(f"proof node field {key!r} must be {kind}")
    rule, count, seq = doc["rule"], doc["children"], derived
    if seq is None:
        sig, entries, src, mode = _base(rule, parent, program)
        mode, removals = doc.get("mode", mode), doc.get("program_removals", 0)
        if mode not in (eng.PLAIN, eng.COINDUCTIVE) or removals > len(entries):
            raise MalformedDocument(f"proof node has a bad mode or more than {len(entries)} program removals")
        for s in doc["signature_additions"]:
            name, ty = _parse_sig_addition(s)
            if name in sig:
                raise SignatureMismatch(f"signature addition {name!r} already declared")
            sig = sig.extend(name, ty)
        entries = entries[:len(entries) - removals]
        for a in doc["program_additions"]:
            source, s = (src, a) if isinstance(a, str) else (_SOURCES[a[0]], a[1])
            entries += (eng.Entry(_payload(parse_goal, s, sig, program, f"program addition {s!r}"), source),)
        goal = _payload(parse_goal, doc["goal"], sig, program, "proof payload")
        focus = _payload(parse_goal, doc["focus"], sig, program, "proof payload") if "focus" in doc else None
        seq = eng.Sequent(sig, entries, focus, goal, mode, doc["guarded"])
    witness = _payload(parse_term, doc["witness"], seq.signature, program, "proof payload") \
        if "witness" in doc else None
    eigen = _parse_sig_addition(doc["eigen"], addition=False) if "eigen" in doc else None
    premises = None
    if "premises" in doc:
        known, index = eng.premises(seq, eigen, witness), doc["premises"]
        if index >= len(known) or len(known[index]) != count:
            raise MalformedDocument(f"proof node field 'premises' names no premise tuple of {count} sequents")
        premises = known[index]
    return rule, seq, witness, eigen, count, premises


def import_proof(document: str, program: Program) -> eng.ProofTree:
    """Rebuild a proof tree from its flat JSON document (see
    `export_proof`).  A forward pass reads the nodes in pre-order; a
    backward pass gives each node its premises, the trees it built last.
    Neither pass recurses, so a proof of any depth reads."""
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as exc:
        raise MalformedDocument(f"not valid JSON: {exc}") from exc
    except RecursionError:
        # JSON nested past the stack, such as a deep document of the nested form
        raise MalformedDocument("proof document nested too deeply") from None
    if not isinstance(doc, dict) or doc.get("format") != "flat":
        raise MalformedDocument('proof document must be a JSON object with "format": "flat"')
    nodes = doc.get("nodes")
    if not isinstance(nodes, list) or not nodes:
        raise MalformedDocument("proof document field 'nodes' must be a non-empty list")
    read: list[tuple] = []  # (rule, sequent, witness, eigenvariable, number of premises) by node
    # [(rule, sequent), sequents of its premise tuple or None, premises to come] by open node, root's parent first
    open_: list[list] = [[None, None, 1]]
    for node in nodes:
        if not open_:
            raise MalformedDocument("proof document has nodes past its root's tree")
        top = open_[-1]
        rule, seq, witness, eigen, count, premises = _import_node(node, program, top[0], top[1] and next(top[1]))
        read.append((rule, seq, witness, eigen, count))
        top[2] -= 1
        if not top[2]:
            open_.pop()
        if count:
            open_.append([(rule, seq), premises and iter(premises), count])
    if open_:
        raise MalformedDocument("proof document ends before its nodes' premises")
    built: list[eng.ProofTree] = []  # the trees whose parent is not built yet, the next one's first premise on top
    for rule, seq, witness, eigen, count in reversed(read):
        built.append(eng.ProofTree(seq, rule, witness, eigen, tuple(built.pop() for _ in range(count))))
    return built[0]
