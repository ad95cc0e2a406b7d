"""Shared test fixtures: term builders, independent oracles, generators."""

from __future__ import annotations

import itertools
import json
import random

from cup import engine as eng
from cup import formulas as fm
from cup import parser as ps
from cup import terms as tm
from cup import trees as tr
from cup.errors import MissingEigenvariableBinding, ParseError
from cup.guardedness import _snap_term
from cup.terms import App, Arrow, Con, Fix, IOTA, Lam, O, Signature, Var, replace

V = Var
C = Con


def A(*ts):
    return tm.app(*ts)


def L(v, body):
    return Lam(v, body)


def F(body):
    return Fix(body)


def fn_type(*parts):
    """Build arg1 -> ... -> argn -> target from its parts."""
    ty = parts[-1]
    for p in reversed(parts[:-1]):
        ty = Arrow(p, ty)
    return ty


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


def formula_as_term(f) -> tm.Term:
    """f encoded as a term whose alpha key partitions formulas as alpha
    equivalence does: connectives become constants whose names no
    signature can hold, and a quantifier becomes its tag applied to a
    lambda, the binder's type part of the tag.  The reference for the
    partition `formulas.formula_key` makes."""
    if isinstance(f, fm.Atom):
        return f.term
    if isinstance(f, fm.Top):
        return Con(" Top")
    if isinstance(f, (fm.Conj, fm.Disj, fm.Impl)):
        return tm.app(Con(" " + type(f).__name__), formula_as_term(f.left), formula_as_term(f.right))
    return App(Con(f" {type(f).__name__} {f.ty!r}"), Lam(f.var, formula_as_term(f.body)))


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
# Tree-level word-indexed substitution: the reference for `soundness._thetas`
# ---------------------------------------------------------------------------


def tree_substitute(t, name: str, s):
    """Graft s below every position labelled `name`."""
    if t.label == name and not t.children:
        return s
    return tr.Tree(t.label, tuple(tree_substitute(c, name, s) for c in t.children))


def positions(t, prefix=()):
    """(position, label) of every node of a tree, in pre-order; a position
    is the child indices from the root."""
    yield prefix, t.label
    for i, c in enumerate(t.children):
        yield from positions(c, prefix + (i,))


def tree_height(t) -> int:
    """Length of the longest root-to-leaf path of a tree."""
    return 1 + max(tree_height(c) for c in t.children) if t.children else 0


def diamond_min_depth(t):
    """Depth of the shallowest snapshot placeholder in a tree, None if it has
    none."""
    depths = [len(pos) for pos, label in positions(t) if label == tm.DIAMOND]
    return min(depths) if depths else None


def tree_from_text(s: str) -> tr.Tree:
    """Read back the text `trees.tree_to_text` writes."""
    pos = 0

    def parse() -> tr.Tree:
        nonlocal pos
        start = pos
        while pos < len(s) and s[pos] not in "(),":
            pos += 1
        label = s[start:pos].strip()
        if not label:
            raise ValueError(f"empty node label in {s!r}")
        children: list[tr.Tree] = []
        if pos < len(s) and s[pos] == "(":
            pos += 1
            children.append(parse())
            while pos < len(s) and s[pos] == ",":
                pos += 1
                children.append(parse())
            if pos >= len(s) or s[pos] != ")":
                raise ValueError(f"unbalanced parentheses in {s!r}")
            pos += 1
        return tr.Tree(label, tuple(children))

    out = parse()
    if pos != len(s.strip()) and s[pos:].strip():
        raise ValueError(f"trailing input in {s!r}")
    return out


def check_arities(sig: Signature, t) -> bool:
    """Children counts must match symbol arities; `*`, the snapshot
    placeholder, and variables are exempt leaves."""
    if t.label in (tr.STAR, tm.DIAMOND):
        return not t.children
    ty = sig.lookup(t.label)
    if ty is None:
        return not t.children  # a variable leaf
    if len(t.children) != len(tm.argument_types(ty)):
        return False
    return all(check_arities(sig, c) for c in t.children)


def import_interpretation(text: str) -> tr.Interpretation:
    """Read back the listing `trees.export_interpretation` writes."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("depth "):
        raise ValueError("interpretation listing must start with 'depth N'")
    depth = int(lines[0].split()[1])
    return tr.Interpretation(depth, frozenset(tree_from_text(ln) for ln in lines[1:]))


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


def unshared_copy(tree):
    """The proof tree rebuilt node by node, each sequent a new `Sequent`
    with a new entries tuple of new entries: no sequent or entry is shared
    with the tree or between nodes, and none has premises memoised."""
    def go(node):
        seq = node.sequent
        entries = tuple([eng.Entry(e.formula, e.src) for e in seq.entries])
        copy = eng.Sequent(seq.signature, entries, seq.focus, seq.goal, seq.mode, seq.guarded)
        return eng.ProofTree(copy, node.rule, node.witness, node.eigen, tuple(go(c) for c in node.children))

    return go(tree)


def rename_constants(t, names: dict):
    """t with each constant named in names renamed to its value."""
    if isinstance(t, Con):
        return Con(names.get(t.name, t.name))
    if isinstance(t, App):
        return App(rename_constants(t.fn, names), rename_constants(t.arg, names))
    if isinstance(t, Lam):
        return Lam(t.var, rename_constants(t.body, names))
    if isinstance(t, Fix):
        return Fix(rename_constants(t.body, names))
    return t


def reify_reference(tree, s, calculus):
    """Reification as each node's sequent resolved on its own: each
    distinct formula and entries tuple of the found tree, by identity,
    through the final substitution, with dangling metavariables (those
    of witnesses and goal atoms) filled first, each with the smallest
    closed term of the type of the binder that drew it; and with each
    eigenvariable renamed canonically, after the number of its node among
    the proof's nodes that draw a name, in pre-order.  A witness naming a
    constant outside its node's signature gives no proof.  The reference
    for `engine._reify`, which derives each child from its reified parent."""
    names, drawn = {}, 0
    for node in tree.nodes():
        drawn += node.eigen is not None or node.witness is not None
        if node.eigen is not None:
            names[node.eigen] = f"{node.eigen.split(tm.FRESH_MARK)[0]}{tm.FRESH_MARK}{drawn}"
    dangling, types = set(), {}
    for node in tree.nodes():
        seq = node.sequent
        if node.witness is not None:
            types[node.witness.name] = (seq.goal if seq.focus is None else seq.focus).ty
            dangling |= eng.unresolved_metas(node.witness, s)
        if isinstance(seq.goal, fm.Atom):
            dangling |= eng.unresolved_metas(seq.goal.term, s)
    for name in sorted(dangling):
        # indexed, not defaulted: a metavariable no node drew raises
        t = eng.smallest_closed_term(tree.sequent.signature, types[name])
        if t is None:
            return None
        s = {**s, name: t}
    fo = not calculus.higher_order
    formulas, tuples = {}, {}

    def term(t):
        return rename_constants(tm.beta_normalize(eng.resolve_term(t, s)), names)

    def formula(f):
        if id(f) not in formulas:
            formulas[id(f)] = fm.map_atoms(f, term)
        return formulas[id(f)]

    def entries(es):
        if id(es) not in tuples:
            new = tuple(e if (f := formula(e.formula)) is e.formula else eng.Entry(f, e.src) for e in es)
            tuples[id(es)] = es if all(a is b for a, b in zip(new, es)) else new
        return tuples[id(es)]

    def go(node):
        seq = node.sequent
        sig = Signature.of({names.get(n, n): ty for n, ty in seq.signature.constants})
        new_seq = seq.with_(signature=sig, entries=entries(seq.entries),
                            focus=None if seq.focus is None else formula(seq.focus), goal=formula(seq.goal))
        witness = None
        if node.witness is not None:
            witness = tm.beta_normalize(eng.resolve_term(node.witness, s))
            if any(tm.is_meta(n) for n in tm.free_vars(witness)):
                return None
            if any(isinstance(u, Con) and u.name not in seq.signature for u in tm.subterms(witness)):
                return None
            witness = rename_constants(witness, names)
            if fo and not tm.is_first_order(sig, {}, witness):
                return None
        children = [go(c) for c in node.children]
        if None in children:
            return None
        return eng.ProofTree(new_seq, node.rule, witness, names.get(node.eigen), tuple(children))

    return go(tree)


def search_reference(cfg, root):
    """Plain iterative deepening: the bound one step at a time from 1, each
    bound drawing its names from a supply of its own. The reference for
    `engine._search`, which goes straight to IDA*'s next bound and draws
    each sequent's names once per search: the same reasons, final bounds
    and proofs, in no more expansions than this one counts."""
    ctx = eng._Ctx(cfg, tm.NameSupply(), eng.SearchStats())
    start = eng.premises(root)[0][0] if root.mode == eng.COINDUCTIVE else root
    for bound in range(1, cfg.depth_limit + 1):
        ctx.supply, ctx.need = tm.NameSupply(), eng._NEVER
        ctx.stats.max_depth = bound
        try:
            for tree, s in eng._solve(ctx, start, bound, {}):
                if start is not root:
                    tree = eng.ProofTree(root, "co-fix", children=(tree,))
                reified = eng._reify(tree, s, cfg.calculus)
                if reified is not None:
                    return eng.SearchOutcome(reified, "proved", ctx.stats)
        except RecursionError:
            return eng.SearchOutcome(None, "depth-exceeded", ctx.stats)
        if ctx.need == eng._NEVER:
            return eng.SearchOutcome(None, "no-proof", ctx.stats)
    return eng.SearchOutcome(None, "depth-exceeded", ctx.stats)


def check_reference(tree, program, calculus, fixbeta_bound=tm.UNFOLD_BOUND):
    """The checker that classifies the goal and the focus of every node.
    The reference for `engine.check`, which classifies them only where a
    formula enters the proof: the same verdict and the same diagnostic."""

    def fail(path, msg):
        return False, f"{path}: {msg}"

    def initial_ok(focus, goal):
        if calculus.higher_order:
            return tm.fixbeta_equiv(focus, goal, fixbeta_bound) == tm.EQUAL
        return tm.alpha_eq(focus, goal)

    base = eng.base_entries(program)
    todo = [(tree, "root", True)]
    while todo:
        node, path, is_root = todo.pop()
        seq = node.sequent
        rule = node.rule
        kids = node.children
        expected = eng._rule(seq)

        if expected == "co-fix":
            if not is_root or rule != "co-fix":
                return fail(path, "coinductive sequents may only appear at a co-fix root")
            if seq.guarded or seq.focus is not None:
                return fail(path, "malformed coinductive root sequent")
        elif expected is None:
            return fail(path, f"no rule applies to the {'guarded' if seq.focus is None else 'focused'} sequent")
        elif rule != expected:
            return fail(path, f"the sequent requires {expected}, not {rule}")
        if node.witness is not None and rule not in eng._WITNESS_RULES:
            return fail(path, f"{rule} takes no witness")
        if node.eigen is not None and rule not in eng._EIGEN_RULES:
            return fail(path, f"{rule} takes no eigenvariable")

        if is_root:
            if seq.signature != program.signature:
                return fail(path, "root signature differs from the program's")
            if len(seq.entries) < len(base):
                return fail(path, "root sequent lost program clauses")
            for e, b in zip(seq.entries, base):
                if e.src != eng.Src.ORIGINAL or not fm.formula_alpha_eq(e.formula, b.formula):
                    return fail(path, "root program entries differ from the program")
            for e in seq.entries[len(base):]:
                if e.src == eng.Src.ORIGINAL:
                    return fail(path, "unexpected extra original clause at the root")

        principal = seq.goal if seq.focus is None else seq.focus
        if rule in eng._EIGEN_RULES:
            if node.eigen is None or node.eigen in seq.signature:
                return fail(path, "forall-r eigenvariable missing or not fresh")
        elif rule in eng._WITNESS_RULES:
            if node.witness is None:
                return fail(path, f"{rule} needs a witness")
            ok, msg = eng._witness_ok(seq.signature, node.witness, principal.ty, calculus)
            if not ok:
                return fail(path, msg)
        elif rule in ("imp-r", "imp-r<>"):
            if not eng._grammar_ok(seq.signature, principal.left, "clause", calculus):
                return fail(path, "imp-r antecedent is not a program clause of the calculus")
        elif rule in ("initial", "initial<>"):
            if not initial_ok(principal.term, seq.goal.term):
                rel = "fix-beta equal" if calculus.higher_order else "alpha-equal"
                return fail(path, f"initial atoms are not {rel}")

        if eng.premise_index(node) is None:
            msg = f"{rule} premises do not match the rule"
            if rule == "decide<>":
                msg += "; the guarded decide focuses only clauses of the original program"
            return fail(path, msg)

        # every node's formulas, whether or not they enter the proof here
        if seq.focus is not None and not eng._grammar_ok(seq.signature, seq.focus, "clause", calculus):
            return fail(path, f"focus is outside the clause grammar of {calculus.value}")
        role = "core" if seq.guarded or expected == "co-fix" else "goal"
        if not eng._grammar_ok(seq.signature, seq.goal, role, calculus):
            return fail(path, f"goal is outside the {role} grammar of {calculus.value}")

        todo += ((kids[i], f"{path}.{i}", False) for i in reversed(range(len(kids))))
    return True, None


def deep_document(depth: int) -> str:
    """The text of a proof document whose root has a chain of `depth`
    single-premise nodes below it."""
    node = '"signature_additions": [], "program_additions": [], "goal": "true", "guarded": false'
    chain = [f'{{"rule": "and-r", "children": 1, {node}}}'] * depth + [f'{{"rule": "top-r", "children": 0, {node}, "premises": 0}}']
    return '{"format": "flat", "nodes": [\n' + ",\n".join(chain) + "\n]}"


def nested_document(depth: int) -> str:
    """`deep_document(depth)` in the nested layout that proof documents had
    before they were flat: each node holds its premises' objects."""
    node = '"signature_additions": [], "program_additions": [], "goal": "true", "guarded": false'
    return ('{"rule": "and-r", ' + node + ', "children": [') * depth + \
        '{"rule": "top-r", ' + node + ', "children": []}' + "]}" * depth


def flat_document(root: dict) -> str:
    """The document text of a proof written as nested node dicts, each
    with its premises' dicts as its `children` list."""
    nodes, todo = [], [root]
    while todo:
        node = todo.pop()
        nodes.append({**node, "children": len(node["children"])})
        todo += reversed(node["children"])
    return json.dumps({"format": "flat", "nodes": nodes})


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


def export_dict_reference(tree, program, derive: bool = True) -> list[dict]:
    """The proof's nodes in pre-order, each as the dict whose `json.dumps`
    is its line of the document: its rule and number of premises; where
    its parent's premises do not give its sequent (or without `derive`),
    what the sequent adds to its parent's, or at the root to the
    program's, after dropping its last program_removals entries there, its
    formulas printed where they occur; its witness and eigenvariable; with
    `derive`, the index of the first premise tuple its children's
    sequents are."""
    out, todo = [], [(tree, None, False)]
    while todo:
        node, parent, derived = todo.pop()
        seq = node.sequent
        d = {"rule": node.rule, "children": len(node.children)}
        if not derived:
            if parent is None:
                sig, base = program.signature, [eng.Entry(c, eng.Src.ORIGINAL) for c in program.clauses]
                src, mode = eng.Src.LEMMA, eng.COINDUCTIVE if node.rule == "co-fix" else eng.PLAIN
            else:
                sig, base = parent.sequent.signature, parent.sequent.entries
                src, mode = eng.Src.COHYP if parent.rule == "co-fix" else eng.Src.HYPOTHESIS, eng.PLAIN
            kept = 0
            while (kept < min(len(base), len(seq.entries)) and base[kept].src == seq.entries[kept].src
                   and fm.formula_alpha_eq(base[kept].formula, seq.entries[kept].formula)):
                kept += 1
            d["signature_additions"] = [f"{n} : {ty!r}" for n, ty in seq.signature.constants if n not in sig]
            d["program_additions"] = [ps.pp_formula(e.formula, program) if e.src == src
                                      else [e.src.value, ps.pp_formula(e.formula, program)] for e in seq.entries[kept:]]
            if kept < len(base):
                d["program_removals"] = len(base) - kept
            d["goal"] = ps.pp_formula(seq.goal, program)
            if seq.focus is not None:
                d["focus"] = ps.pp_formula(seq.focus, program)
            d["guarded"] = seq.guarded
            if seq.mode != mode:
                d["mode"] = seq.mode
        if node.witness is not None:
            d["witness"] = ps.pp_term(node.witness, program)
        if node.eigen is not None:
            d["eigen"] = node.eigen
        kids = [k.sequent for k in node.children]
        matches = [i for i, premises in enumerate(eng._premises(seq, node.eigen, node.witness))
                   if len(premises) == len(kids) and all(map(eng._sequent_equal, kids, premises))]
        if derive and matches:
            d["premises"] = matches[0]
        out.append(d)
        todo += [(c, node, derive and bool(matches)) for c in reversed(node.children)]
    return out


def stated_document(tree, program) -> str:
    """The document text of a proof in which every node states its sequent."""
    return json.dumps({"format": "flat", "nodes": export_dict_reference(tree, program, derive=False)})
