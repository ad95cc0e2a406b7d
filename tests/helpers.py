"""Shared test fixtures: term builders, independent oracles, generators."""

from __future__ import annotations

import itertools
import random
from dataclasses import replace

from cup import engine as eng
from cup import formulas as fm
from cup import parser as ps
from cup import terms as tm
from cup import trees as tr
from cup.errors import MissingEigenvariableBinding, ParseError
from cup.guardedness import _snap_term
from cup.terms import App, Arrow, Con, Fix, IOTA, Lam, O, Signature, Var, fn_type

V = Var
C = Con


def A(*ts):
    return tm.app(*ts)


def L(v, body):
    return Lam(v, body)


def F(body):
    return Fix(body)


STREAM_SIG = Signature.of(
    {
        "0": IOTA,
        "1": IOTA,
        "nil": IOTA,
        "s": fn_type(IOTA, IOTA),
        "scons": fn_type(IOTA, IOTA, IOTA),
        "bit": fn_type(IOTA, O),
        "bitstream": fn_type(IOTA, O),
        "member": fn_type(IOTA, IOTA, O),
        "eq": fn_type(IOTA, IOTA, O),
        "from": fn_type(IOTA, IOTA, O),
    }
)

Z_STR = F(L("x", A(C("scons"), C("0"), V("x"))))
N_STR = F(L("f", L("n", A(C("scons"), V("n"), A(V("f"), V("n"))))))
FR_STR = F(L("f", L("n", A(C("scons"), V("n"), A(V("f"), A(C("s"), V("n")))))))


def scons(h, t):
    return A(C("scons"), h, t)


def slist(*items):
    """[a|b|...|t] built right-nested; last item is the tail."""
    out = items[-1]
    for x in reversed(items[:-1]):
        out = scons(x, out)
    return out


# ---------------------------------------------------------------------------
# de Bruijn oracle for alpha-equivalence
# ---------------------------------------------------------------------------


def debruijn(t, env=()):
    if isinstance(t, Var):
        if t.name in env:
            return ("b", env.index(t.name))
        return ("fv", t.name)
    if isinstance(t, Con):
        return ("c", t.name)
    if isinstance(t, App):
        return ("a", debruijn(t.fn, env), debruijn(t.arg, env))
    if isinstance(t, Lam):
        return ("l", debruijn(t.body, (t.var,) + env))
    return ("f", debruijn(t.body, env))


def alpha_eq_oracle(t1, t2) -> bool:
    return debruijn(t1) == debruijn(t2)


def formula_alpha_eq_reference(f, g) -> bool:
    """Formula alpha-equivalence by renaming both binders to one fresh
    variable through substitution, which also beta-normalises the atoms
    under them: the reference for `formulas.formula_alpha_eq`."""
    if isinstance(f, fm.Atom) and isinstance(g, fm.Atom):
        return alpha_eq_oracle(f.term, g.term)
    if isinstance(f, fm.Top) and isinstance(g, fm.Top):
        return True
    if type(f) is type(g) and isinstance(f, (fm.Conj, fm.Disj, fm.Impl)):
        return formula_alpha_eq_reference(f.left, g.left) and formula_alpha_eq_reference(f.right, g.right)
    if type(f) is type(g) and isinstance(f, (fm.Forall, fm.Exists)):
        if f.ty != g.ty:
            return False
        z = tm.fresh_name(f.var, fm.formula_free_vars(f.body) | fm.formula_free_vars(g.body))
        return formula_alpha_eq_reference(
            fm.formula_substitute(f.body, f.var, Var(z)),
            fm.formula_substitute(g.body, g.var, Var(z)),
        )
    return False


# ---------------------------------------------------------------------------
# Brute-force greatest fixed point over a finite atom space
# ---------------------------------------------------------------------------


def exact_gfp(atoms: list[str], clauses: list[tuple[str, frozenset]]) -> frozenset:
    """Union of all post-fixed points of the clause-step operator, found by
    enumerating the full powerset."""

    def step(interp: frozenset) -> frozenset:
        return frozenset(h for h, body in clauses if body <= interp)

    out: set[str] = set()
    for k in range(len(atoms) + 1):
        for combo in itertools.combinations(atoms, k):
            interp = frozenset(combo)
            if interp <= step(interp):
                out |= interp
    return frozenset(out)


def random_propositional_program(rng: random.Random, n_preds: int, n_clauses: int):
    """Random propositional program text plus its (head, body) clause list."""
    preds = [f"p{i}" for i in range(n_preds)]
    decls = "".join(f"const {p} : o.\n" for p in preds)
    clauses = []
    lines = []
    for _ in range(n_clauses):
        head = rng.choice(preds)
        body = frozenset(rng.sample(preds, rng.randint(0, min(3, n_preds))))
        clauses.append((head, body))
        if body:
            lines.append(f"{head} :- {', '.join(sorted(body))}.")
        else:
            lines.append(f"{head}.")
    return decls + "\n".join(lines) + "\n", preds, clauses


# ---------------------------------------------------------------------------
# Random well-typed term generation (plain `random`, driven by a seed)
# ---------------------------------------------------------------------------

GEN_SIG = Signature.of(
    {
        "0": IOTA,
        "1": IOTA,
        "s": fn_type(IOTA, IOTA),
        "scons": fn_type(IOTA, IOTA, IOTA),
    }
)

_GEN_TYPES = [IOTA, fn_type(IOTA, IOTA), fn_type(IOTA, IOTA, IOTA)]


def gen_term(rng: random.Random, ty, ctx: dict, depth: int):
    """A random well-typed term of the given type over GEN_SIG and ctx."""
    leaves = [Con(n) for n, t in GEN_SIG.constants if t == ty]
    leaves += [Var(v) for v, t in ctx.items() if t == ty]
    choices = []
    if leaves:
        choices.append("leaf")
    if depth > 0:
        choices.append("app")
        choices.append("fix")
        if isinstance(ty, Arrow):
            choices.append("lam")
    if not choices:
        choices = ["fallback"]
    kind = rng.choice(choices)
    if kind == "leaf":
        return rng.choice(leaves)
    if kind == "lam":
        v = f"v{rng.randrange(4)}"
        body = gen_term(rng, ty.res, {**ctx, v: ty.arg}, depth - 1)
        return Lam(v, body)
    if kind == "app":
        arg_ty = rng.choice(_GEN_TYPES[:2])
        fn = gen_term(rng, Arrow(arg_ty, ty), ctx, depth - 1)
        arg = gen_term(rng, arg_ty, ctx, depth - 1)
        return App(fn, arg)
    if kind == "fix":
        v = f"w{rng.randrange(4)}"
        body = gen_term(rng, ty, {**ctx, v: ty}, depth - 1)
        return Fix(Lam(v, body))
    # fallback: a small closed term of type i, wrapped to fit arrows
    if ty == IOTA:
        return Con("0")
    if isinstance(ty, Arrow):
        v = f"u{rng.randrange(4)}"
        return Lam(v, gen_term(rng, ty.res, {**ctx, v: ty.arg}, 0))
    return Con("0")


def rename_binders(rng: random.Random, t):
    """An alpha-variant of t with randomly renamed bound variables."""
    if isinstance(t, (Var, Con)):
        return t
    if isinstance(t, App):
        return App(rename_binders(rng, t.fn), rename_binders(rng, t.arg))
    if isinstance(t, Fix):
        return Fix(rename_binders(rng, t.body))
    fresh = f"r{rng.randrange(1000)}"
    if fresh in tm.free_vars(t.body):
        fresh = fresh + "x"
    body = tm.rename_free(t.body, t.var, fresh)
    return Lam(fresh, rename_binders(rng, body))


def gen_tree(rng: random.Random, depth: int):
    """Random finite tree over a tiny symbol alphabet, for metric tests."""
    from cup.trees import Tree

    arities = {"a": 0, "b": 0, "g": 1, "h": 2}
    label = rng.choice(list(arities))
    if depth == 0:
        label = rng.choice(["a", "b"])
    kids = tuple(gen_tree(rng, depth - 1) for _ in range(arities[label]))
    return Tree(label, kids)


# ---------------------------------------------------------------------------
# Tree-level word-indexed substitution: the reference for `theta_term`
# ---------------------------------------------------------------------------


def tree_substitute(t, name: str, s):
    """Graft s below every position labelled `name`."""
    if t.label == name and not t.children:
        return s
    return tr.Tree(t.label, tuple(tree_substitute(c, name, s) for c in t.children))


def tree_height(t) -> int:
    """Length of the longest root-to-leaf path of a tree."""
    return 1 + max(tree_height(c) for c in t.children) if t.children else 0


def diamond_min_depth(t):
    """Depth of the shallowest snapshot placeholder in a tree, None if it has
    none."""
    depths = [len(pos) for pos, label in t.positions() if label == tm.DIAMOND]
    return min(depths) if depths else None


def guarded_term_to_tree(sig: Signature, t, depth: int):
    """Truncated tree of a first-order or guarded full term (eigenvariables
    render as leaves), by its own snapshot-and-unfold loop."""
    if tm.is_first_order(sig, {}, t):
        return tr.truncate(tr.term_to_tree(sig, t), depth)
    budget = depth + 8
    u = tm.beta_normalize(t)
    for _ in range(budget + 1):
        tree = tr.term_to_tree(sig, _snap_term(sig, u))
        dmin = diamond_min_depth(tree)
        if dmin is None or dmin >= depth:
            return tr.truncate(tree, depth)
        u = tm.fair_unfold(u)
    raise tr.DepthUnreachable(f"term {t!r} not determined to depth {depth}")


def theta(w, deltas, eigens, base: dict, depth: int, sig: Signature) -> dict:
    """The word-indexed substitution built on trees: the base trees for the
    empty word, otherwise each eigenvariable bound to the tree of its
    recorded binding with the shorter word's trees grafted in, truncated at
    the given depth."""
    for c in eigens:
        if c not in base:
            raise MissingEigenvariableBinding(f"no base tree for eigenvariable {c}")
    if not w:
        return {c: tr.truncate(base[c], depth) for c in eigens}
    prev = theta(w[:-1], deltas, eigens, base, depth, sig)
    j = w[-1]
    if not 1 <= j <= len(deltas):
        raise MissingEigenvariableBinding(f"word index {j} has no delta record")
    out = {}
    for c, (_x, l_term) in zip(eigens, deltas[j - 1].bindings):
        tree = guarded_term_to_tree(sig, l_term, depth)
        for e in eigens:
            tree = tree_substitute(tree, e, prev[e])
        out[c] = tr.truncate(tree, depth)
    return out


def _other_closed_term(sig: Signature, w):
    """A closed term of the witness's type other than the witness: a
    constant of that type, or a unary constructor applied to the witness."""
    ty = tm.typecheck(sig, {}, w)
    candidates = [Con(n) for n, t in sig.constructors() if t == ty]
    candidates += [A(Con(n), w) for n, t in sig.constructors() if t == fn_type(ty, ty)]
    return next((c for c in candidates if not tm.alpha_eq(c, w)), None)


def node_mutations(node):
    """Copies of one proof node with one thing broken, each named: a goal
    made `true`, the last entry dropped, the guard flipped, the rule renamed,
    a premise dropped or duplicated, the witness replaced, the
    eigenvariable cleared, the conjuncts of a conjunctive focus or goal
    swapped.  Copies equal to the node are left out."""
    seq = node.sequent
    out = [
        ("goal-true", replace(node, sequent=seq.with_(goal=fm.TOP))),
        ("drop-entry", replace(node, sequent=seq.with_(entries=seq.entries[:-1]))),
        ("flip-guard", replace(node, sequent=seq.with_(guarded=not seq.guarded))),
        ("rename-tag", replace(node, rule=node.rule[:-2] if node.rule.endswith("<>") else node.rule + "<>")),
        ("rename-top", replace(node, rule="top-r")),
        ("clear-eigen", replace(node, eigen=None)),
    ]
    kids = node.children
    for i in range(len(kids)):
        out.append((f"drop-premise-{i}", replace(node, children=kids[:i] + kids[i + 1:])))
        out.append((f"dup-premise-{i}", replace(node, children=kids[:i + 1] + kids[i:])))
    if node.witness is not None:
        other = _other_closed_term(seq.signature, node.witness)
        if other is not None:
            out.append(("other-witness", replace(node, witness=other)))
    if isinstance(seq.focus, fm.Conj):
        swapped = fm.Conj(seq.focus.right, seq.focus.left)
        out.append(("swap-conj-focus", replace(node, sequent=seq.with_(focus=swapped))))
    if isinstance(seq.goal, fm.Conj):
        swapped = fm.Conj(seq.goal.right, seq.goal.left)
        out.append(("swap-conj-goal", replace(node, sequent=seq.with_(goal=swapped))))
    return [(name, m) for name, m in out if m != node]


def proof_paths(t, path=()):
    """(path, node) for every node of a proof tree; a path is the child
    indices from the root."""
    yield path, t
    for i, c in enumerate(t.children):
        yield from proof_paths(c, path + (i,))


def replace_at(t, path, new):
    """The proof tree t with the node at path replaced by new."""
    if not path:
        return new
    i = path[0]
    return replace(t, children=t.children[:i] + (replace_at(t.children[i], path[1:], new),) + t.children[i + 1:])


def proof_mutations(tree):
    """(path, mutation name, mutated tree) for every node of the tree and
    every mutation of `node_mutations`."""
    for path, node in proof_paths(tree):
        for name, mutated in node_mutations(node):
            yield path, name, replace_at(tree, path, mutated)


def deep_document(depth: int) -> str:
    """The text of a proof document whose root has a chain of `depth`
    single-child nodes below it, built without recursion."""
    node = '"signature_additions": [], "program_additions": [], "goal": "true", "guarded": false'
    return ('{"rule": "and-r", ' + node + ', "children": [') * depth + \
        '{"rule": "top-r", ' + node + ', "children": []}' + "]}" * depth


# ---------------------------------------------------------------------------
# the proof round trip's references: a per-character lexer, the node dicts
# ---------------------------------------------------------------------------

PUNCT = ["->", "=>", ":-", "/\\", "\\/", "(", ")", "[", "]", "|", ".", ":", ",", "=", "\\"]


def tokenize_reference(text: str, allow_fresh: bool = False) -> list[tuple]:
    """The lexer as a loop over characters: (kind, text, line, col) per
    token.  A `%` comment runs to the end of its line and leaves the column
    where it starts."""
    toks = []
    i, line, col = 0, 1, 1
    n = len(text)

    def ident_char(ch):
        return ch.isalnum() or ch in "_'"

    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == tm.FRESH_MARK and not allow_fresh:
            raise ParseError(f"reserved marker {tm.FRESH_MARK!r} in identifier", (line, col))
        if ident_char(ch) or ch == tm.FRESH_MARK:
            j = i
            while j < n and (ident_char(text[j]) or (allow_fresh and text[j] == tm.FRESH_MARK)):
                j += 1
            word = text[i:j]
            toks.append(("keyword" if word in ps.KEYWORDS else "ident", word, line, col))
            col += j - i
            i = j
            continue
        for p in PUNCT:
            if text.startswith(p, i):
                toks.append(("punct", p, line, col))
                i += len(p)
                col += len(p)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", (line, col))
    toks.append(("eof", "", line, col))
    return toks


def export_dict_reference(node, parent=None, program=None) -> dict:
    """One proof node as the dict whose `json.dumps(..., indent=1)` is its
    document: what its sequent adds to its parent's, its formulas printed
    where they occur, the children in order."""
    seq = node.sequent
    if parent is None:
        sig_add = []
        prog_add = [ps.pp_formula(e.formula, program) for e in seq.entries if e.src != eng.Src.ORIGINAL]
    else:
        psig = parent.sequent.signature
        sig_add = [f"{n} : {ty!r}" for n, ty in seq.signature.constants if n not in psig]
        prog_add = [ps.pp_formula(e.formula, program) for e in seq.entries[len(parent.sequent.entries):]]
    out = {
        "rule": node.rule,
        "signature_additions": sig_add,
        "program_additions": prog_add,
        "goal": ps.pp_formula(seq.goal, program),
        "guarded": seq.guarded,
        "children": [export_dict_reference(c, node, program) for c in node.children],
    }
    if seq.focus is not None:
        out["focus"] = ps.pp_formula(seq.focus, program)
    if node.witness is not None:
        out["witness"] = ps.pp_term(node.witness, program)
    return out
