"""Concrete syntax for programs, goals and terms, the pretty printer,
and proof-tree serialization.

Program files use: `const c : i -> i.` declarations, `def name = fix \\x. ...`
fixed-point definitions, explicit clauses (`forall x. G => H.`), and
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


def _lexer(ident: str) -> re.Pattern:
    """One token, newline or stretch of blanks or `%` comment per match; a
    character no token starts with is `bad`.  `[\\w']` is `str.isalnum`
    plus `_'`, and `[^\\S\\n]` is `str.isspace` but for the newline."""
    punct = "|".join(map(re.escape, _PUNCT))
    return re.compile(rf"(?P<nl>\n)|[^\S\n]+|%[^\n]*|(?P<ident>{ident}+)|(?P<punct>{punct})|(?P<bad>.)", re.S)


# by `allow_fresh`: identifiers take the fresh mark only where it is allowed
_LEXERS = (_lexer(r"[\w']"), _lexer(rf"[\w'{re.escape(tm.FRESH_MARK)}]"))


def tokenize(text: str, allow_fresh: bool = False) -> list[Token]:
    toks: list[Token] = []
    line, start = 1, 0  # the current line and the offset it starts at
    for m in _LEXERS[allow_fresh].finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        if kind == "nl":
            line, start = line + 1, m.end()
            continue
        word, col = m.group(), m.start() - start + 1
        if kind == "ident":
            toks.append(Token("keyword" if word in KEYWORDS else "ident", word, line, col))
        elif kind == "punct":
            toks.append(Token("punct", word, line, col))
        elif word == tm.FRESH_MARK:
            raise ParseError(f"reserved marker {tm.FRESH_MARK!r} in identifier", (line, col))
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
        return Base(self.ident().text)

    # ---- terms ----

    def term(self) -> Term:
        if self.at("\\"):
            self.next()
            var = self.ident().text
            self.eat(".")
            outer = self.bound
            self.bound = outer | {var}
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
            self.eat(".")
            outer = self.bound
            self.bound = outer | set(names)
            f = self.formula()
            self.bound = outer
            for n in reversed(names):
                f = quant(n, IOTA, f)
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

    def has_neck(self) -> bool:
        """Does `:-` come before the dot that closes the clause?  A binder's
        own dot, right after `\\ x` or after `forall`/`exists` and their
        names, closes nothing."""
        toks, i = self.toks, self.pos
        while toks[i].kind != "eof" and toks[i].text != ".":
            if toks[i].text == ":-":
                return True
            binder = toks[i].text
            if binder in ("\\", "forall", "exists"):
                j = i + 1
                while toks[j].kind == "ident" and (binder != "\\" or j == i + 1):
                    j += 1
                if j > i + 1 and toks[j].text == ".":
                    i = j
            i += 1
        return False

    def clause(self) -> Formula:
        """One clause, up to its closing dot: Prolog-style sugar when `:-`
        comes before that dot or the clause is a bare atom, whose
        capitalised unknown names are universally quantified; explicit
        formula syntax otherwise."""
        sugar = self.has_neck()
        if sugar:
            head = Atom(self.term())
            self.eat(":-")
            body = [Atom(self.term())]
            while self.at(","):
                self.next()
                body.append(Atom(self.term()))
            f: Formula = Impl(fm.conjoin(body), head)
        else:
            f = self.formula()
        for v in reversed(self.resolved(implicit=sugar or isinstance(f, Atom))):
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
    sig_map: dict[str, tm.SimpleType] = {}
    fix_defs: dict[str, Term] = {}
    p = _Parser(tokenize(text), sig_map, fix_defs)
    clauses: list[Formula] = []
    while p.peek().kind != "eof":
        if p.at("const"):
            p.next()
            name_tok = p.ident()
            name = name_tok.text
            p.eat(":")
            ty = p.type_()
            p.eat(".")
            if name in sig_map or name in fix_defs:
                raise ParseError(f"{name!r} declared twice", name_tok.span)
            sig_map[name] = ty
            try:
                Signature.of(sig_map).check_first_order()
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
            sig = Signature.of(sig_map)
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
            if name in sig_map or name in fix_defs:
                raise ParseError(f"{name!r} declared twice", name_tok.span)
            fix_defs[name] = body
            continue
        start = p.peek()
        f = p.clause()
        p.eat(".")
        sig = Signature.of(sig_map)
        try:
            first_order = fm.in_fragment(sig, f, "clause", fm.Calculus.FOHC)
        except CupError as exc:
            raise SourceTypeError(f"ill-typed clause: {exc}", start.span) from exc
        if not first_order:
            raise SourceTypeError("clause is outside the first-order clause grammar", start.span)
        # after the type check, so beta-normalising terminates
        clauses.append(fm.map_atoms(f, tm.beta_normalize))
    return Program(Signature.of(sig_map), tuple(clauses), tuple(fix_defs.items()))


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
    for name, d in program.fix_definitions:
        if tm.alpha_eq(t, d):
            return name
    return None


def pp_term(t: Term, program: Program | None = None) -> str:
    used = set(tm.free_vars(t))

    def clean(name: str) -> str:
        if tm.FRESH_MARK not in name:
            return name
        base = name.split(tm.FRESH_MARK, 1)[0] or "x"
        cand = base
        n = 0
        while cand in used:
            n += 1
            cand = f"{base}{n}"
        return cand

    def atom_str(u: Term, ren: dict[str, str]) -> str:
        s = go(u, ren)
        if isinstance(u, (Var, Con)) or s.startswith("["):
            return s
        name = _match_fix_def(u, program)
        if name is not None:
            return name
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
                items = [args[0]]
                tail = args[1]
                while True:
                    h2, a2 = tm.spine(tail)
                    if isinstance(h2, Con) and h2.name == "scons" and len(a2) == 2 and _match_fix_def(tail, program) is None:
                        items.append(a2[0])
                        tail = a2[1]
                    else:
                        break
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
            names = [g.var]
            body = g.body
            while isinstance(body, type(g)):
                names.append(body.var)
                body = body.body
            s = f"{kw} {' '.join(names)}. {go(body, 0)}"
            return f"({s})" if prec > 0 else s
        for level, (ctor, op) in enumerate(_CONNECTIVES, 1):
            if isinstance(g, ctor):
                s = f"{go(g.left, level + 1)} {op} {go(g.right, level)}"
                return f"({s})" if prec > level else s

    return go(f, 0)


# ---------------------------------------------------------------------------
# Proof documents
# ---------------------------------------------------------------------------


def export_proof(tree: eng.ProofTree, program: Program | None = None) -> str:
    """Serialize a proof tree to its flat JSON document: the object
    `{"format": "flat", "nodes": [...]}` whose nodes are listed in
    pre-order, one a line.  Each node is the text `json.dumps` gives for a
    dict whose keys are rule, signature_additions, program_additions, goal,
    guarded, children (its number of premises), then focus and witness
    where present.  A node's additions are what its sequent adds to its
    parent's; at the root they are the entries not from the program.  Each
    formula object is printed once."""
    printed: dict[int, str] = {}

    def text(f: Formula) -> str:
        s = printed.get(id(f))
        if s is None:
            s = printed[id(f)] = encode_basestring_ascii(pp_formula(f, program))
        return s

    lines: list[str] = []
    todo: list = [(tree, None)]  # (node, parent) still to write, the next on top
    while todo:
        node, parent = todo.pop()
        seq = node.sequent
        if parent is None:
            sig_add = []
            prog_add = [text(e.formula) for e in seq.entries if e.src != eng.Src.ORIGINAL]
        else:
            psig = parent.sequent.signature
            sig_add = [] if seq.signature is psig else [
                encode_basestring_ascii(f"{n} : {ty!r}") for n, ty in seq.signature.constants if n not in psig
            ]
            prog_add = [text(e.formula) for e in seq.entries[len(parent.sequent.entries):]]
        line = (
            f'{{"rule": {encode_basestring_ascii(node.rule)}, "signature_additions": [{", ".join(sig_add)}], '
            f'"program_additions": [{", ".join(prog_add)}], "goal": {text(seq.goal)}, '
            f'"guarded": {"true" if seq.guarded else "false"}, "children": {len(node.children)}'
        )
        if seq.focus is not None:
            line += f', "focus": {text(seq.focus)}'
        if node.witness is not None:
            line += f', "witness": {encode_basestring_ascii(pp_term(node.witness, program))}'
        lines.append(line + "}")
        todo += ((kid, node) for kid in reversed(node.children))
    return '{"format": "flat", "nodes": [\n' + ",\n".join(lines) + "\n]}"


def _parse_sig_addition(s: str) -> tuple[str, tm.SimpleType]:
    if ":" not in s:
        raise MalformedDocument(f"bad signature addition {s!r}")
    name, tytext = s.split(":", 1)
    name = name.strip()
    p = _Parser(tokenize(tytext.strip(), allow_fresh=True), (), {})
    ty = p.type_()
    if p.peek().kind != "eof":
        raise MalformedDocument(f"bad type in signature addition {s!r}")
    return name, ty


def _payload(memo: dict, parse, text: str, shadow: Program, what: str):
    """parse(text, shadow) for `parse_goal` or `parse_term`, once per
    (parse, text, signature) and import: memo keeps what each returned.  An
    error is not kept, so it raises again each time, as a malformed
    document naming `what` was parsed."""
    key = (parse, text, shadow.signature)
    out = memo.get(key)
    if out is None:
        try:
            out = memo[key] = parse(text, shadow, allow_fresh=True)
        except CupError as exc:
            raise MalformedDocument(f"unparseable {what}: {exc}") from exc
    return out


def _import_node(doc, program: Program, parent: eng.Sequent | None, parent_rule: str | None, memo: dict):
    """One node's (rule, sequent, witness, number of premises), its sequent
    built on its parent's, or on the program's at the root."""
    required = {"rule", "signature_additions", "program_additions", "goal", "guarded", "children"}
    if not isinstance(doc, dict) or not required.issubset(doc):
        missing = required - set(doc) if isinstance(doc, dict) else required
        raise MalformedDocument(f"proof node missing fields: {sorted(missing)}")
    for key in ("rule", "goal", "focus", "witness"):
        if key in doc and not isinstance(doc[key], str):
            raise MalformedDocument(f"proof node field {key!r} must be a string")
    for key in ("signature_additions", "program_additions"):
        if not isinstance(doc[key], list) or not all(isinstance(x, str) for x in doc[key]):
            raise MalformedDocument(f"proof node field {key!r} must be a list of strings")
    if not isinstance(doc["guarded"], bool):
        raise MalformedDocument("proof node field 'guarded' must be a boolean")
    count = doc["children"]
    if type(count) is not int or count < 0:
        raise MalformedDocument("proof node field 'children' must be a non-negative integer")
    rule = doc["rule"]
    if parent is None:
        sig, entries = program.signature, tuple(eng.Entry(c, eng.Src.ORIGINAL) for c in program.clauses)
        mode, src = (eng.COINDUCTIVE if rule == "co-fix" else eng.PLAIN), eng.Src.LEMMA
    else:
        sig, entries = parent.signature, parent.entries
        mode, src = eng.PLAIN, (eng.Src.COHYP if parent_rule == "co-fix" else eng.Src.HYPOTHESIS)
    for s in doc["signature_additions"]:
        name, ty = _parse_sig_addition(s)
        if name in sig:
            raise SignatureMismatch(f"signature addition {name!r} already declared")
        sig = sig.extend(name, ty)
    shadow = Program(sig, program.clauses, program.fix_definitions)
    for s in doc["program_additions"]:
        entries = entries + (eng.Entry(_payload(memo, parse_goal, s, shadow, f"program addition {s!r}"), src),)
    goal = _payload(memo, parse_goal, doc["goal"], shadow, "proof payload")
    focus = _payload(memo, parse_goal, doc["focus"], shadow, "proof payload") if "focus" in doc else None
    witness = _payload(memo, parse_term, doc["witness"], shadow, "proof payload") if "witness" in doc else None
    return rule, eng.Sequent(sig, entries, focus, goal, mode, doc["guarded"]), witness, count


def import_proof(document: str, program: Program) -> eng.ProofTree:
    """Rebuild a proof tree from its flat JSON document (see
    `export_proof`).  A forward pass reads the nodes in pre-order and
    replays each node's signature and program additions on its parent's
    sequent, keeping each node whose premises are still to come with how
    many are.  A backward pass then gives each node its premises, the trees
    it built last.  Neither pass recurses, so a proof of any depth reads."""
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
    read: list[tuple] = []  # (rule, sequent, witness, number of premises) by node
    open_: list[list[int]] = []  # [node, premises still to read] of each node not yet complete
    memo: dict = {}  # one parse per distinct payload text and signature (see `_payload`)
    for node in nodes:
        if read and not open_:
            raise MalformedDocument("proof document has nodes past its root's tree")
        parent = open_[-1] if open_ else None
        rule, seq = read[parent[0]][:2] if parent else (None, None)
        read.append(_import_node(node, program, seq, rule, memo))
        if parent:
            parent[1] -= 1
            if not parent[1]:
                open_.pop()
        if read[-1][3]:
            open_.append([len(read) - 1, read[-1][3]])
    if open_:
        raise MalformedDocument("proof document ends before its nodes' premises")
    built: list[eng.ProofTree] = []  # the trees whose parent is not built yet, the next one's first premise on top
    for rule, seq, witness, count in reversed(read):
        children = tuple(built.pop() for _ in range(count))
        # the universal right rules own the eigenvariable their premise declares
        eigen = None
        if rule in ("forall-r", "forall-r<>") and children:
            new = [n for n, _ in children[0].sequent.signature.constants if n not in seq.signature]
            eigen = new[0] if new else None
        built.append(eng.ProofTree(seq, rule, witness, eigen, children))
    return built[0]
