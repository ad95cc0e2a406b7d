"""Proof search and proof checking for the four coinductive calculi.

Search is goal-directed uniform proving: right rules fire deterministically
on the goal shape, DECIDE opens a left focus on one program clause, and the
focus is consumed by left rules down to INITIAL.  A coinductive proof starts
with the fixed-point rule, which installs the goal simultaneously as a
coinductive hypothesis and as a guarded goal; guarded rules keep the guard
until a program-clause focus discharges it.
"""

from __future__ import annotations

import enum
from collections.abc import Iterator

from . import terms as tm
from .errors import (
    CupError,
    FlexibleAtomUnsupported,
    NotCoreFormula,
    ProofInvalid,
    UsageError,
)
from .formulas import (
    Atom,
    Calculus,
    Conj,
    Disj,
    Exists,
    Forall,
    Formula,
    HClause,
    Impl,
    Program,
    Top,
    classify,
    focus_reach,
    formula_alpha_eq,
    formula_substitute,
    in_fragment,
)
from .terms import App, Con, Fix, Lam, NameSupply, Signature, Term, Var, field, record

# the search depth limit when none is given, and the one at which the
# CLI's corpus runs the goals it expects to be inconclusive: deep enough
# to reach the bound, shallow enough to reach it fast
DEPTH_LIMIT = 32
INCONCLUSIVE_DEPTH_LIMIT = 12

PLAIN = "plain"
COINDUCTIVE = "coinductive"


class Src(enum.Enum):
    ORIGINAL = "original"
    LEMMA = "lemma"
    HYPOTHESIS = "hypothesis"
    COHYP = "coinductive-hypothesis"


_DECIDE_ORDER = {Src.ORIGINAL: 0, Src.LEMMA: 1, Src.HYPOTHESIS: 2, Src.COHYP: 3}

_SAME = object()  # a field `Sequent.with_` keeps
_NEVER = float("inf")  # the chain length of an INITIAL a focus does not reach


@record
class Entry:
    formula: Formula
    src: Src


@record
class Sequent:
    signature: Signature
    entries: tuple[Entry, ...]
    focus: Formula | None
    goal: Formula
    mode: str = PLAIN
    guarded: bool = False
    # the premise tuples `premises` built, by (eigenvariable, witness): a
    # pure function of the frozen fields, so it can never disagree with
    # them; and the name each search drew for it, by that search's supply
    _derived: dict | None = field(default=None, init=False, repr=False, compare=False)

    def with_(
        self, signature=_SAME, entries=_SAME, focus=_SAME, goal=_SAME, mode=_SAME, guarded=_SAME
    ) -> "Sequent":
        """A copy with the given fields replaced, through the constructor:
        `terms.replace` costs about 2.5 times as much, and search makes a
        copy per premise."""
        return Sequent(
            self.signature if signature is _SAME else signature,
            self.entries if entries is _SAME else entries,
            self.focus if focus is _SAME else focus,
            self.goal if goal is _SAME else goal,
            self.mode if mode is _SAME else mode,
            self.guarded if guarded is _SAME else guarded,
        )


@record
class ProofTree:
    sequent: Sequent
    rule: str
    witness: Term | None = None
    eigen: str | None = None
    children: tuple["ProofTree", ...] = ()

    def nodes(self) -> Iterator["ProofTree"]:
        """The nodes in pre-order, walked on a stack of their own."""
        todo = [self]
        while todo:
            node = todo.pop()
            yield node
            todo += reversed(node.children)

    def size(self) -> int:
        return sum(1 for _ in self.nodes())

    def equal(self, other: "ProofTree") -> bool:
        """Node-for-node equality, comparing formulas up to alpha: the two
        pre-order walks stay aligned while every child count agrees."""
        return all(map(_node_equal, self.nodes(), other.nodes()))


def _node_equal(a: ProofTree, b: ProofTree) -> bool:
    if a.rule != b.rule or a.eigen != b.eigen or (a.witness is None) != (b.witness is None):
        return False
    if a.witness is not None and not tm.alpha_eq(a.witness, b.witness):
        return False
    return _sequent_equal(a.sequent, b.sequent) and len(a.children) == len(b.children)


def _sequent_equal(a: Sequent, b: Sequent) -> bool:
    # a premise is most often the derived sequent itself; else the cheap
    # fields and the formulas a rule changes first, so a wrong candidate
    # fails before the entries are compared. A formula built anew is most
    # often `==` the one it is compared with, which needs no alpha keys
    if a is b:
        return True
    if a.mode != b.mode or a.guarded != b.guarded or (a.focus is None) != (b.focus is None):
        return False
    if a.focus is not None and not (a.focus == b.focus or formula_alpha_eq(a.focus, b.focus)):
        return False
    if not (a.goal == b.goal or formula_alpha_eq(a.goal, b.goal)) or len(a.entries) != len(b.entries):
        return False
    if a.signature != b.signature:
        return False
    return a.entries is b.entries or all(
        x.src == y.src and formula_alpha_eq(x.formula, y.formula)
        for x, y in zip(a.entries, b.entries)
    )


@record
class SearchConfig:
    calculus: Calculus
    depth_limit: int = DEPTH_LIMIT
    fixbeta_bound: int = tm.UNFOLD_BOUND

    def __post_init__(self):
        if self.depth_limit < 1:
            raise UsageError(f"depth limit must be >= 1, got {self.depth_limit}")


@record(frozen=False)
class SearchStats:
    nodes: int = 0
    max_depth: int = 0


@record(frozen=False)
class SearchOutcome:
    tree: ProofTree | None
    reason: str  # "proved" | "no-proof" | "depth-exceeded"
    stats: SearchStats

    @property
    def proved(self) -> bool:
        return self.tree is not None


@record
class LemmaStore:
    entries: tuple[tuple[HClause, ProofTree], ...] = ()

    def formulas(self) -> list[Formula]:
        return [h.to_formula() for h, _ in self.entries]


# ---------------------------------------------------------------------------
# Unification
# ---------------------------------------------------------------------------


def resolve_term(t: Term, s: dict[str, Term]) -> Term:
    if s.keys().isdisjoint(tm.free_vars(t)):
        return t
    if isinstance(t, Var):
        # bound, by the test above; unify's occurs check keeps s acyclic
        return resolve_term(s[t.name], s)
    if isinstance(t, Con):
        return t
    if isinstance(t, App):
        return App(resolve_term(t.fn, s), resolve_term(t.arg, s))
    if isinstance(t, Lam):
        return Lam(t.var, resolve_term(t.body, s))
    return Fix(resolve_term(t.body, s))


def _occurs(name: str, t: Term, s: dict[str, Term]) -> bool:
    """Does `name`, which s leaves unbound, occur free in t once t is
    resolved through s?"""
    todo, seen = [t], set()
    while todo:
        for v in tm.free_vars(todo.pop()):
            if v == name:
                return True
            if v in s and v not in seen:
                seen.add(v)
                todo.append(s[v])
    return False


def unify(a: Term, b: Term, s: dict[str, Term]) -> dict[str, Term] | None:
    """First-order structural unification with occurs check.

    Binders are compared rigidly (alpha-equality after resolution);
    metavariables unify, all other variables are rigid symbols.
    """
    while isinstance(a, Var) and a.name in s:
        a = s[a.name]
    while isinstance(b, Var) and b.name in s:
        b = s[b.name]
    if isinstance(a, Var) and isinstance(b, Var) and a.name == b.name:
        return s
    if isinstance(a, Var) and tm.is_meta(a.name):
        if _occurs(a.name, b, s):
            return None
        return {**s, a.name: b}
    if isinstance(b, Var) and tm.is_meta(b.name):
        return unify(b, a, s)
    if isinstance(a, Var) or isinstance(b, Var):
        return None
    if isinstance(a, Con) and isinstance(b, Con):
        return s if a.name == b.name else None
    if isinstance(a, App) and isinstance(b, App):
        s1 = unify(a.fn, b.fn, s)
        if s1 is None:
            return None
        return unify(a.arg, b.arg, s1)
    if isinstance(a, (Lam, Fix)) and type(a) is type(b):
        ra, rb = resolve_term(a, s), resolve_term(b, s)
        return s if tm.alpha_eq(ra, rb) else None
    return None


def unify_modulo(a: Term, b: Term, s: dict[str, Term], bound: int) -> dict[str, Term] | None:
    """Unify up to a bounded number of fix unfoldings on either side,
    preferring the least-unfolded match: the first pair of
    `tm.unfolding_walk` that unifies.  None both when the walk refutes
    every pair and when the bound cut a chain (UNKNOWN)."""
    s1 = tm.unfolding_walk(resolve_term(a, s), resolve_term(b, s), bound, lambda va, vb: unify(va, vb, s))
    return None if s1 is tm.UNKNOWN else s1


# ---------------------------------------------------------------------------
# The rules
# ---------------------------------------------------------------------------

# the rule names, (unguarded, guarded), by the goal's shape for the right
# rules and by the focus's for the left rules; None where the guard forbids
# the rule
_RIGHT = {
    Top: ("top-r", None), Conj: ("and-r", "and-r<>"), Disj: ("or-r", None),
    Impl: ("imp-r", "imp-r<>"), Forall: ("forall-r", "forall-r<>"),
    Exists: ("exists-r", None), Atom: ("decide", "decide<>"),
}
_LEFT = {
    Atom: ("initial", "initial<>"), Conj: ("and-l", "and-l<>"),
    Forall: ("forall-l", "forall-l<>"), Impl: ("imp-l", "imp-l<>"),
}
_NO_RULE = (None, None)


def _rule(seq: Sequent) -> str | None:
    """The one rule that applies to the sequent: co-fix on a coinductive
    sequent, else the left rule of the focus's shape (its goal must be an
    atom), else the right rule of the goal's shape.  None when no rule
    applies."""
    if seq.mode == COINDUCTIVE:
        return "co-fix"
    if seq.focus is None:
        return _RIGHT.get(type(seq.goal), _NO_RULE)[seq.guarded]
    if not isinstance(seq.goal, Atom):
        return None
    return _LEFT.get(type(seq.focus), _NO_RULE)[seq.guarded]


def _premises(
    seq: Sequent, eigen: str | None = None, witness: Term | None = None
) -> Iterator[tuple[Sequent, ...]]:
    """Each premise tuple of `_rule(seq)`, in the order search tries them.
    forall-r takes the eigenvariable, exists-r and forall-l the witness:
    without it they have none."""
    rule = _rule(seq)
    if rule is None:
        return
    g, d = seq.goal, seq.focus
    if rule == "co-fix":
        # the goal becomes the coinductive hypothesis and the guarded goal
        yield (seq.with_(entries=seq.entries + (Entry(g, Src.COHYP),), mode=PLAIN, guarded=True),)
    elif d is not None:
        if isinstance(d, Atom):
            yield ()
        elif isinstance(d, Conj):
            yield (seq.with_(focus=d.left),)
            yield (seq.with_(focus=d.right),)
        elif isinstance(d, Forall):
            if witness is not None:
                yield (seq.with_(focus=formula_substitute(d.body, d.var, witness)),)
        else:
            # imp-l: the focused premise first; the guard is dropped on both
            yield seq.with_(focus=d.right, guarded=False), seq.with_(focus=None, goal=d.left, guarded=False)
    elif isinstance(g, Top):
        yield ()
    elif isinstance(g, Conj):
        yield seq.with_(goal=g.left), seq.with_(goal=g.right)
    elif isinstance(g, Disj):
        yield (seq.with_(goal=g.left),)
        yield (seq.with_(goal=g.right),)
    elif isinstance(g, Impl):
        yield (seq.with_(entries=seq.entries + (Entry(g.left, Src.HYPOTHESIS),), goal=g.right),)
    elif isinstance(g, Forall):
        if eigen is not None:
            yield (seq.with_(
                signature=seq.signature.extend(eigen, g.ty),
                goal=formula_substitute(g.body, g.var, Con(eigen)),
            ),)
    elif isinstance(g, Exists):
        if witness is not None:
            yield (seq.with_(goal=formula_substitute(g.body, g.var, witness)),)
    else:
        # decide: the guarded form only on the original program
        for e in sorted(seq.entries, key=lambda e: _DECIDE_ORDER[e.src]):
            if not (seq.guarded and e.src != Src.ORIGINAL):
                yield (seq.with_(focus=e.formula),)


def premises(seq: Sequent, eigen: str | None = None, witness: Term | None = None) -> tuple[tuple[Sequent, ...], ...]:
    """`_premises(seq, eigen, witness)` as a tuple, built once and kept on
    the sequent, where search, reification, import and check all read it."""
    memo = seq._derived
    if memo is None:
        memo = {}
        object.__setattr__(seq, "_derived", memo)
    known = memo.get((eigen, witness))
    if known is None:
        known = memo[eigen, witness] = tuple(_premises(seq, eigen, witness))
    return known


def premise_index(node: ProofTree) -> int | None:
    """The index of the first premise tuple of the node's sequent, given
    its eigenvariable and witness, whose sequents its children have; None
    when there is none.  `check` and the proof document writer both ask."""
    kids = [k.sequent for k in node.children]
    found = enumerate(premises(node.sequent, node.eigen, node.witness))
    return next((i for i, p in found if len(p) == len(kids) and all(map(_sequent_equal, kids, p))), None)


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------


@record(frozen=False)
class _Ctx:
    cfg: SearchConfig
    supply: NameSupply
    stats: SearchStats
    need: float = _NEVER  # the least extra depth any cut of this bound needs


def _draw(ctx: _Ctx, seq: Sequent, var: str, meta: bool) -> str | Var:
    """The eigenvariable, or with `meta` the witness metavariable, that seq
    draws for its binder var once per search, kept in its premise table
    under the search's supply: a deeper bound meets the same sequents with
    the same names and reads their premise tuples. Sound, as each sequent
    object hangs from one premise tuple of one parent, so two draws in one
    proof are two sequents; and the substitution is persistent, so a reused
    name never carries a binding from another path."""
    memo = seq._derived or {}
    name = memo.get(ctx.supply)
    if name is None:
        name = memo[ctx.supply] = Var(tm.META + ctx.supply.fresh(var)) if meta else ctx.supply.fresh(var)
        object.__setattr__(seq, "_derived", memo)
    return name


def _solve(ctx: _Ctx, seq: Sequent, depth: int, s: dict[str, Term]) -> Iterator[tuple[ProofTree, dict[str, Term]]]:
    """The proofs of seq within depth, with the substitution each needs.
    Premises are solved here, not through a helper, so that a search level
    costs one generator frame of the interpreter stack."""
    if depth <= 0:
        ctx.need = 1  # the least any cut needs
        return
    ctx.stats.nodes += 1
    rule = _rule(seq)
    if rule is None:
        return
    g, d = seq.goal, seq.focus
    eigen = witness = pred = None
    if d is not None:
        if isinstance(d, Atom):
            if ctx.cfg.calculus.higher_order:
                s1 = unify_modulo(d.term, g.term, s, ctx.cfg.fixbeta_bound)
            else:
                s1 = unify(d.term, g.term, s)
            if s1 is not None:
                yield ProofTree(seq, rule), s1
            return
        if isinstance(d, Forall):
            witness = _draw(ctx, seq, d.var, True)
    elif isinstance(g, Forall):
        eigen = _draw(ctx, seq, g.var, False)
    elif isinstance(g, Exists):
        witness = _draw(ctx, seq, g.var, True)
    elif isinstance(g, Atom):
        head = tm.spine(g.term)[0]
        while isinstance(head, Var) and head.name in s:
            head = tm.spine(s[head.name])[0]
        if isinstance(head, Var) and not tm.is_meta(head.name):
            raise FlexibleAtomUnsupported(f"flexible atom goal {tm.brief(g.term)}")
        if isinstance(head, Var):
            raise FlexibleAtomUnsupported(f"goal head is an unresolved witness in {tm.brief(g.term)}")
        pred = head.name if isinstance(head, Con) else None
    for seqs in premises(seq, eigen, witness):
        if not seqs:
            yield ProofTree(seq, rule), s
            continue
        # the focus needs n sequents below this DECIDE to reach an INITIAL
        # that can meet the goal: with n >= depth it reaches none, so it is
        # neither searched nor counted, and it is first searched at the
        # bound n - depth + 1 deeper; never, if it reaches no such INITIAL
        if pred is not None:
            reach = focus_reach(seqs[0].focus)
            n = min(reach.get(pred, _NEVER), reach.get(None, _NEVER))
            if n >= depth:
                ctx.need = min(ctx.need, n - depth + 1)
                continue
        for t1, s1 in _solve(ctx, seqs[0], depth - 1, s):
            if len(seqs) == 1:
                yield ProofTree(seq, rule, witness, eigen, (t1,)), s1
                continue
            for t2, s2 in _solve(ctx, seqs[1], depth - 1, s1):
                yield ProofTree(seq, rule, witness, eigen, (t1, t2)), s2


# ---------------------------------------------------------------------------
# Reification: apply final substitution, fill dangling witnesses
# ---------------------------------------------------------------------------


def smallest_closed_term(sig: Signature, ty: tm.SimpleType) -> Term | None:
    """The smallest closed term of the given type that fully applied
    constants build, if any: the first constant of that type that is no
    predicate.  A parsed signature gives every other constant a type
    i -> ... -> i, so an application has type i, and a smallest one would
    have a smaller closed argument of type i."""
    return next((Con(n) for n, t in sig.constructors() if t == ty), None)


def unresolved_metas(t: Term, s: dict[str, Term]) -> set[str]:
    return {n for n in tm.free_vars(resolve_term(t, s)) if tm.is_meta(n)}


def _reify(tree: ProofTree, s: dict[str, Term], calculus: Calculus) -> ProofTree | None:
    # fill metas that no rule constrained with the smallest closed terms of
    # their types. A meta enters a sequent only as a forall-l or exists-r
    # witness, and the sequents below derive from it: the witnesses hold
    # every goal's metas, each of the type of the binder, the focus's or
    # the goal's, of the node that drew it. s binds metas only at the
    # INITIALs of the path that found the tree, all of whose nodes are in
    # the tree, so a meta missing from the table is a search bug, and
    # indexing the table makes it raise. Each eigenvariable is renamed
    # canonically: the n-th node in pre-order that draws a name draws
    # number n, so a proof's text depends on the proof alone
    dangling: set[str] = set()
    types: dict[str, tm.SimpleType] = {}
    canon, names = NameSupply(), {}
    for node in tree.nodes():
        if node.eigen is not None:
            names[node.eigen] = canon.fresh(node.eigen)
        elif node.witness is not None:
            canon.fresh("")  # its metavariable is resolved away
            seq = node.sequent
            types[node.witness.name] = (seq.goal if seq.focus is None else seq.focus).ty
            dangling |= unresolved_metas(node.witness, s)
    for name in sorted(dangling):
        t = smallest_closed_term(tree.sequent.signature, types[name])
        if t is None:
            return None
        s = {**s, name: t}

    fo = not calculus.higher_order

    def go(node: ProofTree, seq: Sequent) -> ProofTree | None:
        # seq is the node's sequent reified; its children are the premises
        # it derives at the place search took, which the first child names:
        # each premise search built is a sequent of its own. Every meta of
        # a witness is now bound to a closed term, so the witness is closed
        witness, eigen = None, names.get(node.eigen)
        if node.witness is not None:
            # an eigenvariable outside the node's signature, drawn below it,
            # turns into a free variable: `check` would refuse the witness
            sig = node.sequent.signature
            witness = tm.replace_cons(tm.beta_normalize(resolve_term(node.witness, s)), {
                old: Con(new) if old in sig else Var(old) for old, new in names.items()})
            if tm.free_vars(witness) or fo and not tm.is_first_order(seq.signature, {}, witness):
                return None
        children = []
        if node.children:
            first = node.children[0].sequent
            found = premises(node.sequent, node.eigen, node.witness)
            index = next(i for i, p in enumerate(found) if p and p[0] is first)
            for c, premise in zip(node.children, premises(seq, eigen, witness)[index]):
                rc = go(c, premise)
                if rc is None:
                    return None
                children.append(rc)
        return ProofTree(seq, node.rule, witness, eigen, tuple(children))

    # search's own root: it holds no meta, since `coprove` and `prove` take
    # only a goal `classify` types and its entries are program clauses and
    # proven lemmas. So the nodes above the first witness keep the premises
    # search derived
    return go(tree, tree.sequent)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def base_entries(program: Program, lemmas: LemmaStore | None = None) -> tuple[Entry, ...]:
    """The entries of a root sequent: the program's clauses, then the lemmas."""
    entries = tuple(Entry(c, Src.ORIGINAL) for c in program.clauses)
    if lemmas is not None:
        entries += tuple(Entry(f, Src.LEMMA) for f in lemmas.formulas())
    return entries


def _search(cfg: SearchConfig, root: Sequent) -> SearchOutcome:
    """Iterative deepening from the root, under one name supply. A
    coinductive root's co-fix is not searched: its one premise is, and
    each proof found of it is wrapped in the co-fix node."""
    ctx = _Ctx(cfg, NameSupply(), SearchStats())
    start = premises(root)[0][0] if root.mode == COINDUCTIVE else root
    bound = 1
    while bound <= cfg.depth_limit:
        ctx.need = _NEVER
        ctx.stats.max_depth = bound
        try:
            for tree, s in _solve(ctx, start, bound, {}):
                if start is not root:
                    tree = ProofTree(root, "co-fix", children=(tree,))
                reified = _reify(tree, s, cfg.calculus)
                if reified is not None:
                    return SearchOutcome(reified, "proved", ctx.stats)
        except RecursionError:
            # the interpreter stack bounds the depth too
            return SearchOutcome(None, "depth-exceeded", ctx.stats)
        if ctx.need == _NEVER:
            return SearchOutcome(None, "no-proof", ctx.stats)
        # every bound short of bound + need repeats this one node for node
        # (IDA*'s next threshold, Korf, AIJ 1985)
        bound += ctx.need
    ctx.stats.max_depth = cfg.depth_limit
    return SearchOutcome(None, "depth-exceeded", ctx.stats)


def coprove(program: Program, m: Formula, cfg: SearchConfig) -> SearchOutcome:
    """Search for a coinductive proof of the core formula m.

    The root applies the coinductive fixed-point rule: m is added to the
    program as coinductive hypothesis and re-appears as the guarded goal.
    """
    if cfg.calculus not in classify(program.signature, m, "core"):
        raise NotCoreFormula(f"the goal is not a core formula of {cfg.calculus.value}")
    return _search(cfg, Sequent(program.signature, base_entries(program), None, m, COINDUCTIVE))


def prove(program: Program, lemmas: LemmaStore | None, g: Formula, cfg: SearchConfig) -> SearchOutcome:
    """Uniform proof search for a goal over the program plus proven lemmas."""
    if cfg.calculus not in classify(program.signature, g, "goal"):
        raise NotCoreFormula(f"the goal is not a goal formula of {cfg.calculus.value}")
    return _search(cfg, Sequent(program.signature, base_entries(program, lemmas), None, g))


# ---------------------------------------------------------------------------
# Checking
# ---------------------------------------------------------------------------


def _grammar_ok(sig: Signature, f: Formula, role: str, calc: Calculus) -> bool:
    """Is f in the calculus's grammar for the role?  An ill-typed f is not."""
    try:
        return in_fragment(sig, f, role, calc)
    except CupError:
        return False


# the rules whose node names a witness, and those whose node names an eigenvariable
_WITNESS_RULES = ("exists-r", "forall-l", "forall-l<>")
_EIGEN_RULES = ("forall-r", "forall-r<>")


def check(
    tree: ProofTree,
    program: Program,
    calculus: Calculus,
    fixbeta_bound: int = tm.UNFOLD_BOUND,
) -> tuple[bool, str | None]:
    """Verify that every node instantiates exactly one rule with all side
    conditions; returns (ok, first-failure diagnostic).

    The premises a rule allows come from `_premises`, as in search; the
    side conditions, the INITIAL match and the grammar checks are the
    checker's own.

    The grammar is checked only where a formula enters the proof: the
    root's goal and focus, the focus of each DECIDE premise, which takes
    a clause, a root lemma, a hypothesis or the coinductive hypothesis,
    and, in the higher-order calculi, the formula a witness rule
    substituted into. Every other formula is in its grammar, by induction
    on the tree, once each node's children are a premise tuple of it:
    - the premises of and, or, imp and co-fix take subformulas in their
      roles, which the uniform-proof grammars are closed under (Miller,
      Nadathur, Pfenning & Scedrov, APAL 1991); a guarded goal stays a
      core formula, and core is inside both clause and goal, so the
      coinductive hypothesis is a clause. imp-r's antecedent, which
      becomes a hypothesis, is checked as its side condition;
    - forall-r substitutes an eigenvariable constant of the binder's
      type, which only widens a grammar: a flexible atom becomes rigid;
    - a first-order witness, which `_witness_ok` requires in the
      first-order calculi, keeps each atom first order. A λ or fixed-point
      witness can give a flexible atom a head no grammar admits, so the
      higher-order calculi check that premise.
    So checking every node's goal and focus finds no other first failure:
    a derived formula out of its grammar derives from one out of its
    grammar above it, and the first in pre-order is where a formula enters."""

    def fail(path: str, msg: str) -> tuple[bool, str]:
        return False, f"{path}: {msg}"

    def initial_ok(focus: Term, goal: Term) -> bool:
        if calculus.higher_order:
            return tm.fixbeta_equiv(focus, goal, fixbeta_bound) == tm.EQUAL
        return tm.alpha_eq(focus, goal)

    base = base_entries(program)
    # pre-order on a stack of its own, so the first failure reported is the
    # first in pre-order whatever the tree's height
    todo = [(tree, "root", True)]
    while todo:
        node, path, enters = todo.pop()
        is_root = path == "root"
        seq = node.sequent
        rule = node.rule
        kids = node.children
        expected = _rule(seq)

        if expected == "co-fix":
            if not is_root or rule != "co-fix":
                return fail(path, "coinductive sequents may only appear at a co-fix root")
            if seq.guarded or seq.focus is not None:
                return fail(path, "malformed coinductive root sequent")
        elif expected is None:
            return fail(path, f"no rule applies to the {'guarded' if seq.focus is None else 'focused'} sequent")
        elif rule != expected:
            return fail(path, f"the sequent requires {expected}, not {rule}")
        if node.witness is not None and rule not in _WITNESS_RULES:
            return fail(path, f"{rule} takes no witness")
        if node.eigen is not None and rule not in _EIGEN_RULES:
            return fail(path, f"{rule} takes no eigenvariable")

        if is_root:
            if seq.signature != program.signature:
                return fail(path, "root signature differs from the program's")
            if len(seq.entries) < len(base):
                return fail(path, "root sequent lost program clauses")
            for e, b in zip(seq.entries, base):
                if e.src != Src.ORIGINAL or not formula_alpha_eq(e.formula, b.formula):
                    return fail(path, "root program entries differ from the program")
            for e in seq.entries[len(base):]:
                if e.src == Src.ORIGINAL:
                    return fail(path, "unexpected extra original clause at the root")

        # side conditions
        principal = seq.goal if seq.focus is None else seq.focus
        if rule in _EIGEN_RULES:
            if node.eigen is None or node.eigen in seq.signature:
                return fail(path, "forall-r eigenvariable missing or not fresh")
        elif rule in _WITNESS_RULES:
            if node.witness is None:
                return fail(path, f"{rule} needs a witness")
            ok, msg = _witness_ok(seq.signature, node.witness, principal.ty, calculus)
            if not ok:
                return fail(path, msg)
        elif rule in ("imp-r", "imp-r<>"):
            if not _grammar_ok(seq.signature, principal.left, "clause", calculus):
                return fail(path, "imp-r antecedent is not a program clause of the calculus")
        elif rule in ("initial", "initial<>"):
            if not initial_ok(principal.term, seq.goal.term):
                rel = "fix-beta equal" if calculus.higher_order else "alpha-equal"
                return fail(path, f"initial atoms are not {rel}")

        if premise_index(node) is None:
            msg = f"{rule} premises do not match the rule"
            if rule == "decide<>":
                msg += "; the guarded decide focuses only clauses of the original program"
            return fail(path, msg)

        # the formulas that enter the proof here must fit the calculus's grammars
        if enters and seq.focus is not None and not _grammar_ok(seq.signature, seq.focus, "clause", calculus):
            return fail(path, f"focus is outside the clause grammar of {calculus.value}")
        role = "core" if seq.guarded or expected == "co-fix" else "goal"
        if enters and (is_root or seq.focus is None) and not _grammar_ok(seq.signature, seq.goal, role, calculus):
            return fail(path, f"goal is outside the {role} grammar of {calculus.value}")

        enters = rule in ("decide", "decide<>") or calculus.higher_order and rule in _WITNESS_RULES
        todo += ((kids[i], f"{path}.{i}", enters) for i in reversed(range(len(kids))))
    return True, None


def _witness_ok(sig: Signature, w: Term, ty: tm.SimpleType, calculus: Calculus) -> tuple[bool, str]:
    try:
        wty = tm.typecheck(sig, {}, w)
    except CupError as exc:
        return False, f"witness {tm.brief(w)} is not a closed well-typed term: {exc}"
    if wty != ty:
        return False, f"witness {tm.brief(w)} has type {wty!r}, expected {ty!r}"
    if not calculus.higher_order and not tm.is_first_order(sig, {}, w):
        return False, f"witness {tm.brief(w)} is not first order (required in {calculus.value})"
    return True, ""


# ---------------------------------------------------------------------------
# Lemma promotion
# ---------------------------------------------------------------------------


def assumed_lemmas(proof: ProofTree) -> list[Formula]:
    """The formulas of the root entries that are not original clauses: in a
    proof that `check` accepts, the lemmas past the program's clauses that
    it takes as given, so that the proof shows nothing alone."""
    return [e.formula for e in proof.sequent.entries if e.src != Src.ORIGINAL]


def promote_lemma(
    program: Program,
    lemma: HClause,
    proof: ProofTree,
    store: LemmaStore,
    fixbeta_bound: int = tm.UNFOLD_BOUND,
) -> LemmaStore:
    """Record a coinductively proven lemma, checked in co-hohh at the
    fix unfolding bound; DECIDE may use it afterwards, the guarded DECIDE
    never does."""
    ok, diag = check(proof, program, Calculus.HOHH, fixbeta_bound)
    if not ok:
        raise ProofInvalid(f"lemma proof does not check: {diag}")
    assumed = assumed_lemmas(proof)
    if assumed:
        raise ProofInvalid(f"lemma proof assumes {len(assumed)} unproven root lemma(s)")
    if proof.sequent.mode != COINDUCTIVE:
        raise ProofInvalid("lemma proof must be a coinductive proof")
    if not formula_alpha_eq(lemma.to_formula(), proof.sequent.goal):
        raise ProofInvalid("lemma does not match the proof's root goal")
    return LemmaStore(store.entries + ((lemma, proof),))
