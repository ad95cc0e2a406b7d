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
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

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
    formula_alpha_eq,
    formula_substitute,
    in_fragment,
    map_atoms,
)
from .terms import App, Con, Fix, IOTA, Lam, NameSupply, Signature, Term, Var, frozen_slots

PLAIN = "plain"
COINDUCTIVE = "coinductive"


class Src(enum.Enum):
    ORIGINAL = "original"
    LEMMA = "lemma"
    HYPOTHESIS = "hypothesis"
    COHYP = "coinductive-hypothesis"


_DECIDE_ORDER = {Src.ORIGINAL: 0, Src.LEMMA: 1, Src.HYPOTHESIS: 2, Src.COHYP: 3}

_SAME = object()  # a field `Sequent.with_` keeps


@frozen_slots
class Entry:
    formula: Formula
    src: Src


@frozen_slots
class Sequent:
    signature: Signature
    entries: tuple[Entry, ...]
    focus: Optional[Formula]
    goal: Formula
    mode: str = PLAIN
    guarded: bool = False

    def with_(
        self, signature=_SAME, entries=_SAME, focus=_SAME, goal=_SAME, mode=_SAME, guarded=_SAME
    ) -> "Sequent":
        """A copy with the given fields replaced, through the constructor:
        `dataclasses.replace` costs about twice as much, and search makes a
        copy per premise."""
        return Sequent(
            self.signature if signature is _SAME else signature,
            self.entries if entries is _SAME else entries,
            self.focus if focus is _SAME else focus,
            self.goal if goal is _SAME else goal,
            self.mode if mode is _SAME else mode,
            self.guarded if guarded is _SAME else guarded,
        )


@frozen_slots
class ProofTree:
    sequent: Sequent
    rule: str
    witness: Optional[Term] = None
    eigen: Optional[str] = None
    children: tuple["ProofTree", ...] = ()

    def nodes(self) -> Iterator["ProofTree"]:
        yield self
        for c in self.children:
            yield from c.nodes()

    def size(self) -> int:
        return sum(1 for _ in self.nodes())

    def equal(self, other: "ProofTree") -> bool:
        """Node-for-node equality, comparing formulas up to alpha."""
        if self.rule != other.rule or self.eigen != other.eigen:
            return False
        if (self.witness is None) != (other.witness is None):
            return False
        if self.witness is not None and not tm.alpha_eq(self.witness, other.witness):
            return False
        if not _sequent_equal(self.sequent, other.sequent):
            return False
        if len(self.children) != len(other.children):
            return False
        return all(a.equal(b) for a, b in zip(self.children, other.children))


def _sequent_equal(a: Sequent, b: Sequent) -> bool:
    # the cheap fields and the formulas a rule changes first, so a wrong
    # premise candidate fails before the entries are compared
    if a.mode != b.mode or a.guarded != b.guarded or (a.focus is None) != (b.focus is None):
        return False
    if a.focus is not None and not formula_alpha_eq(a.focus, b.focus):
        return False
    if not formula_alpha_eq(a.goal, b.goal) or len(a.entries) != len(b.entries):
        return False
    if a.signature != b.signature:
        return False
    return a.entries is b.entries or all(
        x.src == y.src and formula_alpha_eq(x.formula, y.formula)
        for x, y in zip(a.entries, b.entries)
    )


@dataclass(frozen=True)
class SearchConfig:
    calculus: Calculus
    depth_limit: int = 32
    fixbeta_bound: int = tm.UNFOLD_BOUND

    def __post_init__(self):
        if self.depth_limit < 1:
            raise UsageError(f"depth limit must be >= 1, got {self.depth_limit}")


@dataclass
class SearchStats:
    nodes: int = 0
    max_depth: int = 0


@dataclass
class SearchOutcome:
    tree: Optional[ProofTree]
    reason: str  # "proved" | "no-proof" | "depth-exceeded"
    stats: SearchStats

    @property
    def proved(self) -> bool:
        return self.tree is not None


@dataclass(frozen=True)
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
        seen = set()
        while isinstance(t, Var) and t.name in s:
            if t.name in seen:
                break
            seen.add(t.name)
            t = s[t.name]
        if isinstance(t, Var):
            return t
        return resolve_term(t, s)
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


def unify(a: Term, b: Term, s: dict[str, Term]) -> Optional[dict[str, Term]]:
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


def unify_modulo(a: Term, b: Term, s: dict[str, Term], bound: int) -> Optional[dict[str, Term]]:
    """Unify up to a bounded number of fix unfoldings on either side,
    preferring the least-unfolded match: the first pair of
    `tm.UnfoldingWalk` that unifies."""
    a, b = tm.beta_normalize(resolve_term(a, s)), tm.beta_normalize(resolve_term(b, s))
    if not (tm.has_fix(a) or tm.has_fix(b)):
        # the walk's one pair, or none if they clash, which unify rejects
        return unify(a, b, s)
    for va, vb in tm.UnfoldingWalk(a, b, bound):
        s1 = unify(va, vb, s)
        if s1 is not None:
            return s1
    return None


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


def _rule(seq: Sequent) -> Optional[str]:
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
    seq: Sequent, eigen: Optional[str] = None, witness: Optional[Term] = None
) -> Iterator[tuple[Sequent, ...]]:
    """Each premise tuple of `_rule(seq)`, in the order search tries them.
    forall-r takes the eigenvariable, exists-r and forall-l the witness."""
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
        yield (seq.with_(
            signature=seq.signature.extend(eigen, g.ty),
            goal=formula_substitute(g.body, g.var, Con(eigen)),
        ),)
    elif isinstance(g, Exists):
        yield (seq.with_(goal=formula_substitute(g.body, g.var, witness)),)
    else:
        # decide: the guarded form only on the original program
        for e in sorted(seq.entries, key=lambda e: _DECIDE_ORDER[e.src]):
            if not (seq.guarded and e.src != Src.ORIGINAL):
                yield (seq.with_(focus=e.formula),)


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------


@dataclass
class _Ctx:
    program: Program
    cfg: SearchConfig
    supply: NameSupply
    stats: SearchStats
    meta_types: dict[str, tm.SimpleType]
    cut: bool = False

    def fresh_meta(self, base: str, ty: tm.SimpleType) -> Var:
        name = tm.META + self.supply.fresh(base)
        self.meta_types[name] = ty
        return Var(name)


def _initial_match(ctx: _Ctx, a_focus: Term, a_goal: Term, s: dict[str, Term]) -> Optional[dict[str, Term]]:
    if ctx.cfg.calculus.higher_order:
        return unify_modulo(a_focus, a_goal, s, ctx.cfg.fixbeta_bound)
    return unify(a_focus, a_goal, s)


def _solve(ctx: _Ctx, seq: Sequent, depth: int, s: dict[str, Term]) -> Iterator[tuple[ProofTree, dict[str, Term]]]:
    """The proofs of seq within depth, with the substitution each needs.
    Premises are solved here, not through a helper, so that a search level
    costs one generator frame of the interpreter stack."""
    if depth <= 0:
        ctx.cut = True
        return
    ctx.stats.nodes += 1
    rule = _rule(seq)
    if rule is None:
        return
    g, d = seq.goal, seq.focus
    eigen = witness = None
    if d is not None:
        if isinstance(d, Atom):
            s1 = _initial_match(ctx, d.term, g.term, s)
            if s1 is not None:
                yield ProofTree(seq, rule), s1
            return
        if isinstance(d, Forall):
            witness = ctx.fresh_meta(d.var, d.ty)
    elif isinstance(g, Forall):
        eigen = ctx.supply.fresh(g.var)
    elif isinstance(g, Exists):
        witness = ctx.fresh_meta(g.var, g.ty)
    elif isinstance(g, Atom):
        head, _args = tm.spine(resolve_term(g.term, s))
        if isinstance(head, Var) and not tm.is_meta(head.name):
            raise FlexibleAtomUnsupported(f"flexible atom goal {tm.brief(g.term)}")
        if isinstance(head, Var):
            raise FlexibleAtomUnsupported(f"goal head is an unresolved witness in {tm.brief(g.term)}")
    for premises in _premises(seq, eigen, witness):
        if not premises:
            yield ProofTree(seq, rule), s
            continue
        for t1, s1 in _solve(ctx, premises[0], depth - 1, s):
            if len(premises) == 1:
                yield ProofTree(seq, rule, witness, eigen, (t1,)), s1
                continue
            for t2, s2 in _solve(ctx, premises[1], depth - 1, s1):
                yield ProofTree(seq, rule, witness, eigen, (t1, t2)), s2


# ---------------------------------------------------------------------------
# Reification: apply final substitution, fill dangling witnesses
# ---------------------------------------------------------------------------


def _smallest_closed_term(sig: Signature, ty: tm.SimpleType) -> Optional[Term]:
    """The smallest closed first-order term of the given type, if one is
    built within three rounds of constructor application."""
    cons = sig.constructors()
    first: dict[tm.SimpleType, Term] = {}
    for n, t in cons:
        if isinstance(t, tm.Base):
            first.setdefault(t, Con(n))
    for _round in range(3):
        new: dict[tm.SimpleType, Term] = {}
        for name, cty in cons:
            args = tm.argument_types(cty)
            if args and all(a in first for a in args):
                new.setdefault(tm.target_type(cty), tm.app(Con(name), *(first[a] for a in args)))
        for t_ty, t in new.items():
            first.setdefault(t_ty, t)
    return first.get(ty)


def unresolved_metas(t: Term, s: dict[str, Term]) -> set[str]:
    return {n for n in tm.free_vars(resolve_term(t, s)) if tm.is_meta(n)}


def _reify(ctx: _Ctx, tree: ProofTree, s: dict[str, Term]) -> Optional[ProofTree]:
    # fill metas that no rule constrained with the smallest closed terms
    dangling: set[str] = set()
    for node in tree.nodes():
        if node.witness is not None:
            dangling |= unresolved_metas(node.witness, s)
        if isinstance(node.sequent.goal, Atom):
            dangling |= unresolved_metas(node.sequent.goal.term, s)
    for name in sorted(dangling):
        ty = ctx.meta_types.get(name, IOTA)
        t = _smallest_closed_term(ctx.program.signature, ty)
        if t is None:
            return None
        s = {**s, name: t}

    fo = not ctx.cfg.calculus.higher_order
    # the tree shares formulas and entries tuples across nodes: each
    # distinct one, by identity, is resolved once, and comes back itself
    # when s changes nothing in it, with its cached keys
    formulas: dict[int, Formula] = {}
    tuples: dict[int, tuple[Entry, ...]] = {}

    def formula(f: Formula) -> Formula:
        out = formulas.get(id(f))
        if out is None:
            out = formulas[id(f)] = map_atoms(f, lambda t: tm.beta_normalize(resolve_term(t, s)))
        return out

    def entries(es: tuple[Entry, ...]) -> tuple[Entry, ...]:
        out = tuples.get(id(es))
        if out is None:
            new = tuple(e if (f := formula(e.formula)) is e.formula else Entry(f, e.src) for e in es)
            out = tuples[id(es)] = es if all(a is b for a, b in zip(new, es)) else new
        return out

    def go(node: ProofTree) -> Optional[ProofTree]:
        seq = node.sequent
        new_seq = seq.with_(
            entries=entries(seq.entries),
            focus=None if seq.focus is None else formula(seq.focus),
            goal=formula(seq.goal),
        )
        witness = None
        if node.witness is not None:
            witness = tm.beta_normalize(resolve_term(node.witness, s))
            if any(tm.is_meta(n) for n in tm.free_vars(witness)):
                return None
            if fo and not tm.is_first_order(seq.signature, {}, witness):
                return None
        children = []
        for c in node.children:
            rc = go(c)
            if rc is None:
                return None
            children.append(rc)
        return ProofTree(new_seq, node.rule, witness, node.eigen, tuple(children))

    return go(tree)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def _base_entries(program: Program, lemmas: Optional[LemmaStore] = None) -> tuple[Entry, ...]:
    entries = tuple(Entry(c, Src.ORIGINAL) for c in program.clauses)
    if lemmas is not None:
        entries += tuple(Entry(f, Src.LEMMA) for f in lemmas.formulas())
    return entries


def _search(ctx: _Ctx, root_child: Sequent, make_root: Callable[[ProofTree], ProofTree]) -> SearchOutcome:
    limit = ctx.cfg.depth_limit
    for bound in range(1, limit + 1):
        ctx.cut = False
        ctx.stats.max_depth = max(ctx.stats.max_depth, bound)
        try:
            for tree, s in _solve(ctx, root_child, bound, {}):
                reified = _reify(ctx, make_root(tree), s)
                if reified is not None:
                    return SearchOutcome(reified, "proved", ctx.stats)
        except RecursionError:
            # the interpreter stack bounds the depth too
            return SearchOutcome(None, "depth-exceeded", ctx.stats)
        if not ctx.cut:
            return SearchOutcome(None, "no-proof", ctx.stats)
    return SearchOutcome(None, "depth-exceeded", ctx.stats)


def coprove(program: Program, m: Formula, cfg: SearchConfig) -> SearchOutcome:
    """Search for a coinductive proof of the core formula m.

    The root applies the coinductive fixed-point rule: m is added to the
    program as coinductive hypothesis and re-appears as the guarded goal.
    """
    if cfg.calculus not in classify(program.signature, m, "core"):
        raise NotCoreFormula(f"{m!r} is not a core formula of {cfg.calculus.value}")
    entries = _base_entries(program)
    root_seq = Sequent(program.signature, entries, None, m, COINDUCTIVE, False)
    (child_seq,) = next(_premises(root_seq))
    ctx = _Ctx(program, cfg, NameSupply(), SearchStats(), {})

    def make_root(child: ProofTree) -> ProofTree:
        return ProofTree(root_seq, "co-fix", children=(child,))

    return _search(ctx, child_seq, make_root)


def prove(program: Program, lemmas: Optional[LemmaStore], g: Formula, cfg: SearchConfig) -> SearchOutcome:
    """Uniform proof search for a goal over the program plus proven lemmas."""
    if cfg.calculus not in classify(program.signature, g, "goal"):
        raise NotCoreFormula(f"{g!r} is not a goal formula of {cfg.calculus.value}")
    entries = _base_entries(program, lemmas)
    root_seq = Sequent(program.signature, entries, None, g, PLAIN, False)
    ctx = _Ctx(program, cfg, NameSupply(), SearchStats(), {})
    return _search(ctx, root_seq, lambda child: child)


# ---------------------------------------------------------------------------
# Checking
# ---------------------------------------------------------------------------


def _grammar_ok(sig: Signature, f: Formula, role: str, calc: Calculus) -> bool:
    """Is f in the calculus's grammar for the role?  An ill-typed f is not."""
    try:
        return in_fragment(sig, f, role, calc)
    except CupError:
        return False


def check(
    tree: ProofTree,
    program: Program,
    calculus: Calculus,
    fixbeta_bound: int = tm.UNFOLD_BOUND,
) -> tuple[bool, Optional[str]]:
    """Verify that every node instantiates exactly one rule with all side
    conditions; returns (ok, first-failure diagnostic).

    The premises a rule allows come from `_premises`, as in search; the
    side conditions, the INITIAL match and the grammar checks are the
    checker's own."""

    def fail(path: str, msg: str) -> tuple[bool, str]:
        return False, f"{path}: {msg}"

    def initial_ok(focus: Term, goal: Term) -> bool:
        if calculus.higher_order:
            return tm.fixbeta_equiv(focus, goal, fixbeta_bound) == tm.EQUAL
        return tm.alpha_eq(focus, goal)

    base = _base_entries(program)

    def go(node: ProofTree, path: str, is_root: bool) -> tuple[bool, Optional[str]]:
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
            return fail(path, f"no rule applies to goal {seq.goal!r} with focus {seq.focus!r}")
        elif rule != expected:
            return fail(path, f"the sequent requires {expected}, not {rule}")

        if is_root:
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
        if rule in ("forall-r", "forall-r<>"):
            if node.eigen is None or node.eigen in seq.signature:
                return fail(path, "forall-r eigenvariable missing or not fresh")
        elif rule in ("exists-r", "forall-l", "forall-l<>"):
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

        if not any(
            len(premises) == len(kids) and all(map(_sequent_equal, (k.sequent for k in kids), premises))
            for premises in _premises(seq, node.eigen, node.witness)
        ):
            msg = f"{rule} premises do not match the rule"
            if rule == "decide<>":
                msg += "; the guarded decide focuses only clauses of the original program"
            return fail(path, msg)

        # formulas of this node must fit the calculus's grammars
        if seq.focus is not None and not _grammar_ok(seq.signature, seq.focus, "clause", calculus):
            return fail(path, f"focus is outside the clause grammar of {calculus.value}")
        role = "core" if seq.guarded or expected == "co-fix" else "goal"
        if not _grammar_ok(seq.signature, seq.goal, role, calculus):
            return fail(path, f"goal is outside the {role} grammar of {calculus.value}")

        for i, kid in enumerate(kids):
            ok, msg = go(kid, f"{path}.{i}", False)
            if not ok:
                return ok, msg
        return True, None

    return go(tree, "root", True)


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
    if proof.sequent.mode != COINDUCTIVE:
        raise ProofInvalid("lemma proof must be a coinductive proof")
    if not formula_alpha_eq(lemma.to_formula(), proof.sequent.goal):
        raise ProofInvalid("lemma does not match the proof's root goal")
    return LemmaStore(store.entries + ((lemma, proof),))
