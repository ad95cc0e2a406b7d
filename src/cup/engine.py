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
import itertools
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Optional

from . import formulas as fm
from . import terms as tm
from .errors import (
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
)
from .terms import App, Con, Fix, IOTA, Lam, NameSupply, Signature, Term, Var

PLAIN = "plain"
COINDUCTIVE = "coinductive"

_META = "?"


class Src(enum.Enum):
    ORIGINAL = "original"
    LEMMA = "lemma"
    HYPOTHESIS = "hypothesis"
    COHYP = "coinductive-hypothesis"


_DECIDE_ORDER = {Src.ORIGINAL: 0, Src.LEMMA: 1, Src.HYPOTHESIS: 2, Src.COHYP: 3}


@dataclass(frozen=True)
class Entry:
    formula: Formula
    src: Src


@dataclass(frozen=True)
class Sequent:
    signature: Signature
    entries: tuple[Entry, ...]
    focus: Optional[Formula]
    goal: Formula
    mode: str = PLAIN
    guarded: bool = False

    def with_(self, **kw) -> "Sequent":
        return replace(self, **kw)


@dataclass(frozen=True)
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
    if a.signature.as_dict() != b.signature.as_dict():
        return False
    if len(a.entries) != len(b.entries):
        return False
    for x, y in zip(a.entries, b.entries):
        if x.src != y.src or not formula_alpha_eq(x.formula, y.formula):
            return False
    if (a.focus is None) != (b.focus is None):
        return False
    if a.focus is not None and not formula_alpha_eq(a.focus, b.focus):
        return False
    return (
        formula_alpha_eq(a.goal, b.goal)
        and a.mode == b.mode
        and a.guarded == b.guarded
    )


@dataclass(frozen=True)
class SearchConfig:
    calculus: Calculus
    depth_limit: int = 32
    fixbeta_bound: int = 8
    witness_pool_policy: str = "unifier-first"
    clause_selection_order: str = "program"

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


def _is_meta(name: str) -> bool:
    return name.startswith(_META)


def resolve_term(t: Term, s: dict[str, Term]) -> Term:
    if not s:
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
    t = resolve_term(t, s)
    return any(isinstance(u, Var) and u.name == name for u in tm.subterms(t))


def unify(a: Term, b: Term, s: dict[str, Term], is_var: Callable[[str], bool] = _is_meta) -> Optional[dict[str, Term]]:
    """First-order structural unification with occurs check.

    Binders are compared rigidly (alpha-equality after resolution); variables
    recognized by `is_var` unify, all other variables are rigid symbols.
    """
    while isinstance(a, Var) and a.name in s:
        a = s[a.name]
    while isinstance(b, Var) and b.name in s:
        b = s[b.name]
    if isinstance(a, Var) and isinstance(b, Var) and a.name == b.name:
        return s
    if isinstance(a, Var) and is_var(a.name):
        if _occurs(a.name, b, s):
            return None
        return {**s, a.name: b}
    if isinstance(b, Var) and is_var(b.name):
        return unify(b, a, s, is_var)
    if isinstance(a, Var) or isinstance(b, Var):
        return None
    if isinstance(a, Con) and isinstance(b, Con):
        return s if a.name == b.name else None
    if isinstance(a, App) and isinstance(b, App):
        s1 = unify(a.fn, b.fn, s, is_var)
        if s1 is None:
            return None
        return unify(a.arg, b.arg, s1, is_var)
    if isinstance(a, (Lam, Fix)) and type(a) is type(b):
        ra, rb = resolve_term(a, s), resolve_term(b, s)
        return s if tm.alpha_eq(ra, rb) else None
    return None


def unify_first_order(a1: Term, a2: Term) -> Optional[tm.Substitution]:
    """Most general unifier of two first-order atoms (all variables unify)."""
    s = unify(a1, a2, {}, is_var=lambda _n: True)
    if s is None:
        return None
    return [(n, resolve_term(v, s)) for n, v in s.items()]


def _rigid_clash(a: Term, b: Term) -> bool:
    """Both spines have constant heads that differ in name or argument
    count; neither resolution nor fix unfolding changes such a head."""
    ha, aa = tm.spine(a)
    hb, ab = tm.spine(b)
    return isinstance(ha, Con) and isinstance(hb, Con) and (ha.name != hb.name or len(aa) != len(ab))


def unify_modulo(a: Term, b: Term, s: dict[str, Term], bound: int) -> Optional[dict[str, Term]]:
    """Unify up to a bounded number of fix unfoldings on either side,
    preferring the least-unfolded match.

    Pairs (i, j) of i and j fair unfoldings are tried in (i + j, i, j)
    order; each side's unfoldings are built only when a pair first needs
    them, so a match stops the unfolding."""
    if _rigid_clash(a, b):
        return None
    chains = ([tm.beta_normalize(resolve_term(a, s))], [tm.beta_normalize(resolve_term(b, s))])

    def variant(side: int, k: int) -> Optional[Term]:
        chain = chains[side]
        if k < len(chain):
            return chain[k]
        if k > len(chain) or k > bound or not tm.has_fix(chain[-1]):
            return None
        chain.append(tm.fair_unfold(chain[-1]))
        return chain[k]

    for total in range(2 * bound + 1):
        tried = False
        for i in range(total + 1):
            va = variant(0, i)
            if va is None:
                break
            vb = variant(1, total - i)
            if vb is not None:
                tried = True
                s1 = unify(va, vb, s)
                if s1 is not None:
                    return s1
        if not tried:
            # both chains have ended: no pair has a larger sum either
            return None
    return None


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
        name = _META + self.supply.fresh(base)
        self.meta_types[name] = ty
        return Var(name)


def _atom_term(f: Formula) -> Term:
    assert isinstance(f, Atom)
    return f.term


def _goal_atom_head(t: Term, s: dict[str, Term]) -> Term:
    head, _ = tm.spine(resolve_term(t, s))
    return head


def _solve_goal(ctx: _Ctx, seq: Sequent, depth: int, s: dict[str, Term]) -> Iterator[tuple[ProofTree, dict[str, Term]]]:
    if depth <= 0:
        ctx.cut = True
        return
    ctx.stats.nodes += 1
    g = seq.goal
    gr = seq.guarded
    if isinstance(g, Top):
        if not gr:
            yield ProofTree(seq, "top-r"), s
        return
    if isinstance(g, Conj):
        rule = "and-r<>" if gr else "and-r"
        left = seq.with_(goal=g.left)
        right = seq.with_(goal=g.right)
        for t1, s1 in _solve_goal(ctx, left, depth - 1, s):
            for t2, s2 in _solve_goal(ctx, right, depth - 1, s1):
                yield ProofTree(seq, rule, children=(t1, t2)), s2
        return
    if isinstance(g, Disj):
        if gr:
            return
        for branch in (g.left, g.right):
            child = seq.with_(goal=branch)
            for t1, s1 in _solve_goal(ctx, child, depth - 1, s):
                yield ProofTree(seq, "or-r", children=(t1,)), s1
        return
    if isinstance(g, Impl):
        rule = "imp-r<>" if gr else "imp-r"
        child = seq.with_(
            entries=seq.entries + (Entry(g.left, Src.HYPOTHESIS),),
            goal=g.right,
        )
        for t1, s1 in _solve_goal(ctx, child, depth - 1, s):
            yield ProofTree(seq, rule, children=(t1,)), s1
        return
    if isinstance(g, Forall):
        rule = "forall-r<>" if gr else "forall-r"
        eigen = ctx.supply.fresh(g.var)
        child = seq.with_(
            signature=seq.signature.extend(eigen, g.ty),
            goal=formula_substitute(g.body, g.var, Con(eigen)),
        )
        for t1, s1 in _solve_goal(ctx, child, depth - 1, s):
            yield ProofTree(seq, rule, eigen=eigen, children=(t1,)), s1
        return
    if isinstance(g, Exists):
        if gr:
            return
        meta = ctx.fresh_meta(g.var, g.ty)
        child = seq.with_(goal=formula_substitute(g.body, g.var, meta))
        for t1, s1 in _solve_goal(ctx, child, depth - 1, s):
            yield ProofTree(seq, "exists-r", witness=meta, children=(t1,)), s1
        return
    # atomic goal: DECIDE
    assert isinstance(g, Atom)
    head = _goal_atom_head(g.term, s)
    if isinstance(head, Var) and not _is_meta(head.name):
        raise FlexibleAtomUnsupported(f"flexible atom goal {g.term!r}")
    if isinstance(head, Var):
        raise FlexibleAtomUnsupported(f"goal head is an unresolved witness in {g.term!r}")
    rule = "decide<>" if gr else "decide"
    candidates = [e for e in seq.entries if not (gr and e.src != Src.ORIGINAL)]
    if ctx.cfg.clause_selection_order == "program":
        candidates.sort(key=lambda e: _DECIDE_ORDER[e.src])
    else:
        candidates.sort(key=lambda e: _DECIDE_ORDER[e.src], reverse=True)
    for entry in candidates:
        child = seq.with_(focus=entry.formula)
        for t1, s1 in _solve_focus(ctx, child, depth - 1, s):
            yield ProofTree(seq, rule, children=(t1,)), s1
    return


def _initial_match(ctx: _Ctx, a_focus: Term, a_goal: Term, s: dict[str, Term]) -> Optional[dict[str, Term]]:
    if ctx.cfg.calculus.higher_order:
        return unify_modulo(a_focus, a_goal, s, ctx.cfg.fixbeta_bound)
    return unify(a_focus, a_goal, s)


def _solve_focus(ctx: _Ctx, seq: Sequent, depth: int, s: dict[str, Term]) -> Iterator[tuple[ProofTree, dict[str, Term]]]:
    if depth <= 0:
        ctx.cut = True
        return
    ctx.stats.nodes += 1
    d = seq.focus
    gr = seq.guarded
    goal_term = _atom_term(seq.goal)
    if isinstance(d, Atom):
        s1 = _initial_match(ctx, d.term, goal_term, s)
        if s1 is not None:
            yield ProofTree(seq, "initial<>" if gr else "initial"), s1
        return
    if isinstance(d, Conj):
        rule = "and-l<>" if gr else "and-l"
        for side in (d.left, d.right):
            child = seq.with_(focus=side)
            for t1, s1 in _solve_focus(ctx, child, depth - 1, s):
                yield ProofTree(seq, rule, children=(t1,)), s1
        return
    if isinstance(d, Forall):
        rule = "forall-l<>" if gr else "forall-l"
        meta = ctx.fresh_meta(d.var, d.ty)
        child = seq.with_(focus=formula_substitute(d.body, d.var, meta))
        for t1, s1 in _solve_focus(ctx, child, depth - 1, s):
            yield ProofTree(seq, rule, witness=meta, children=(t1,)), s1
        return
    if isinstance(d, Impl):
        rule = "imp-l<>" if gr else "imp-l"
        # the focused premise is searched first; the guard is dropped on both
        focused = seq.with_(focus=d.right, guarded=False)
        for t1, s1 in _solve_focus(ctx, focused, depth - 1, s):
            side = seq.with_(focus=None, goal=d.left, guarded=False)
            for t2, s2 in _solve_goal(ctx, side, depth - 1, s1):
                yield ProofTree(seq, rule, children=(t1, t2)), s2
        return
    return


# ---------------------------------------------------------------------------
# Reification: apply final substitution, fill dangling witnesses
# ---------------------------------------------------------------------------


def _smallest_closed_terms(sig: Signature, ty: tm.SimpleType, limit: int = 64) -> list[Term]:
    """Closed first-order terms of the given type, smallest first."""
    by_ty: dict[tm.SimpleType, list[Term]] = {}
    cons = sig.constructors()
    frontier: list[tuple[Term, tm.SimpleType]] = [
        (Con(n), t) for n, t in cons if isinstance(t, tm.Base)
    ]
    for t, t_ty in frontier:
        by_ty.setdefault(t_ty, []).append(t)
    for _round in range(3):
        new: list[tuple[Term, tm.SimpleType]] = []
        for name, cty in cons:
            args = tm.argument_types(cty)
            if not args:
                continue
            pools = [by_ty.get(a, [])[:4] for a in args]
            if any(not p for p in pools):
                continue
            for combo in itertools.product(*pools):
                new.append((tm.app(Con(name), *combo), tm.target_type(cty)))
        for t, t_ty in new:
            bucket = by_ty.setdefault(t_ty, [])
            if len(bucket) < limit and not any(tm.alpha_eq(t, u) for u in bucket):
                bucket.append(t)
    return by_ty.get(ty, [])


def _resolve_formula(f: Formula, s: dict[str, Term]) -> Formula:
    if isinstance(f, Atom):
        return Atom(tm.beta_normalize(resolve_term(f.term, s)))
    if isinstance(f, Top):
        return f
    if isinstance(f, (Conj, Disj, Impl)):
        return type(f)(_resolve_formula(f.left, s), _resolve_formula(f.right, s))
    return type(f)(f.var, f.ty, _resolve_formula(f.body, s))


def _unresolved_metas(t: Term, s: dict[str, Term]) -> set[str]:
    return {n for n in tm.free_vars(resolve_term(t, s)) if _is_meta(n)}


def _reify(ctx: _Ctx, tree: ProofTree, s: dict[str, Term]) -> Optional[ProofTree]:
    # fill metas that no rule constrained with the smallest closed terms
    dangling: set[str] = set()
    for node in tree.nodes():
        if node.witness is not None:
            dangling |= _unresolved_metas(node.witness, s)
        if isinstance(node.sequent.goal, Atom):
            dangling |= _unresolved_metas(node.sequent.goal.term, s)
    for name in sorted(dangling):
        ty = ctx.meta_types.get(name, IOTA)
        pool = _smallest_closed_terms(ctx.program.signature, ty)
        if not pool:
            return None
        s = {**s, name: pool[0]}

    fo = not ctx.cfg.calculus.higher_order

    def go(node: ProofTree) -> Optional[ProofTree]:
        seq = node.sequent
        new_seq = seq.with_(
            entries=tuple(Entry(_resolve_formula(e.formula, s), e.src) for e in seq.entries),
            focus=None if seq.focus is None else _resolve_formula(seq.focus, s),
            goal=_resolve_formula(seq.goal, s),
        )
        witness = None
        if node.witness is not None:
            witness = tm.beta_normalize(resolve_term(node.witness, s))
            if any(_is_meta(n) for n in tm.free_vars(witness)):
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
        for tree, s in _solve_goal(ctx, root_child, bound, {}):
            full = make_root(tree)
            reified = _reify(ctx, full, s)
            if reified is not None:
                return SearchOutcome(reified, "proved", ctx.stats)
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
    child_seq = Sequent(
        program.signature,
        entries + (Entry(m, Src.COHYP),),
        None,
        m,
        PLAIN,
        True,
    )
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
    try:
        return calc in classify(sig, f, role)
    except Exception:
        return False


def check(
    tree: ProofTree,
    program: Program,
    calculus: Calculus,
    fixbeta_bound: int = 8,
) -> tuple[bool, Optional[str]]:
    """Verify that every node instantiates exactly one rule with all side
    conditions; returns (ok, first-failure diagnostic)."""

    def fail(path: str, msg: str) -> tuple[bool, str]:
        return False, f"{path}: {msg}"

    def initial_ok(sig: Signature, focus: Term, goal: Term) -> bool:
        if calculus.higher_order:
            return tm.fixbeta_equiv(focus, goal, fixbeta_bound) == tm.EQUAL
        return tm.alpha_eq(focus, goal)

    base = _base_entries(program)

    def go(node: ProofTree, path: str, is_root: bool) -> tuple[bool, Optional[str]]:
        seq = node.sequent
        rule = node.rule
        kids = node.children

        if seq.mode == COINDUCTIVE:
            if not is_root or rule != "co-fix":
                return fail(path, "coinductive sequents may only appear at a co-fix root")
            if seq.guarded or seq.focus is not None:
                return fail(path, "malformed coinductive root sequent")
            if not _grammar_ok(seq.signature, seq.goal, "core", calculus):
                return fail(path, f"coinductive goal is not a core formula of {calculus.value}")
            if len(kids) != 1:
                return fail(path, "co-fix takes exactly one premise")
            child = kids[0].sequent
            expected = seq.with_(
                entries=seq.entries + (Entry(seq.goal, Src.COHYP),),
                mode=PLAIN,
                guarded=True,
            )
            if not _sequent_equal(child, expected):
                return fail(path, "co-fix premise must add the goal as coinductive hypothesis and guard it")
            return go(kids[0], path + ".0", False)
        if rule == "co-fix":
            return fail(path, "co-fix outside a coinductive root")

        if is_root:
            if len(seq.entries) < len(base):
                return fail(path, "root sequent lost program clauses")
            for e, b in zip(seq.entries, base):
                if e.src != Src.ORIGINAL or not formula_alpha_eq(e.formula, b.formula):
                    return fail(path, "root program entries differ from the program")
            for e in seq.entries[len(base):]:
                if e.src == Src.ORIGINAL:
                    return fail(path, "unexpected extra original clause at the root")

        guard_tag = "<>" if seq.guarded else ""

        if seq.focus is None:
            g = seq.goal
            if isinstance(g, Top):
                if rule != "top-r" or kids or seq.guarded:
                    return fail(path, "expected a top-r leaf on a true goal")
                return True, None
            if isinstance(g, Conj):
                if rule != "and-r" + guard_tag or len(kids) != 2:
                    return fail(path, f"conjunction goal requires and-r{guard_tag} with two premises")
                for i, (kid, sub) in enumerate(zip(kids, (g.left, g.right))):
                    if not _sequent_equal(kid.sequent, seq.with_(goal=sub)):
                        return fail(path, f"and-r premise {i} mismatch")
            elif isinstance(g, Disj):
                if seq.guarded or rule != "or-r" or len(kids) != 1:
                    return fail(path, "disjunction goal requires or-r with one premise")
                k = kids[0].sequent
                if not (
                    _sequent_equal(k, seq.with_(goal=g.left))
                    or _sequent_equal(k, seq.with_(goal=g.right))
                ):
                    return fail(path, "or-r premise is neither disjunct")
            elif isinstance(g, Impl):
                if rule != "imp-r" + guard_tag or len(kids) != 1:
                    return fail(path, f"implication goal requires imp-r{guard_tag}")
                expected = seq.with_(
                    entries=seq.entries + (Entry(g.left, Src.HYPOTHESIS),),
                    goal=g.right,
                )
                if not _sequent_equal(kids[0].sequent, expected):
                    return fail(path, "imp-r premise must add the antecedent to the program")
                if not _grammar_ok(seq.signature, g.left, "clause", calculus):
                    return fail(path, "imp-r antecedent is not a program clause of the calculus")
            elif isinstance(g, Forall):
                if rule != "forall-r" + guard_tag or len(kids) != 1:
                    return fail(path, f"universal goal requires forall-r{guard_tag}")
                c = node.eigen
                if c is None or c in seq.signature:
                    return fail(path, "forall-r eigenvariable missing or not fresh")
                expected = seq.with_(
                    signature=seq.signature.extend(c, g.ty),
                    goal=formula_substitute(g.body, g.var, Con(c)),
                )
                if not _sequent_equal(kids[0].sequent, expected):
                    return fail(path, "forall-r premise mismatch")
            elif isinstance(g, Exists):
                if seq.guarded or rule != "exists-r" or len(kids) != 1:
                    return fail(path, "existential goal requires exists-r")
                w = node.witness
                if w is None:
                    return fail(path, "exists-r needs a witness")
                ok, msg = _witness_ok(seq.signature, w, g.ty, calculus)
                if not ok:
                    return fail(path, msg)
                if not _sequent_equal(kids[0].sequent, seq.with_(goal=formula_substitute(g.body, g.var, w))):
                    return fail(path, "exists-r premise mismatch")
            elif isinstance(g, Atom):
                if rule != "decide" + guard_tag or len(kids) != 1:
                    return fail(path, f"atomic goal requires decide{guard_tag}")
                kid = kids[0].sequent
                chosen = None
                for e in seq.entries:
                    if kid.focus is not None and formula_alpha_eq(e.formula, kid.focus):
                        if seq.guarded and e.src != Src.ORIGINAL:
                            continue
                        chosen = e
                        break
                if chosen is None:
                    extra = " from the original program" if seq.guarded else ""
                    return fail(path, f"decide{guard_tag} focus is not a clause{extra}")
                if not _sequent_equal(kid, seq.with_(focus=chosen.formula)):
                    return fail(path, "decide premise mismatch")
            else:
                return fail(path, f"no rule for goal {g!r}")
        else:
            if not isinstance(seq.goal, Atom):
                return fail(path, "focused sequents need an atomic goal")
            d = seq.focus
            if isinstance(d, Atom):
                if rule != "initial" + guard_tag or kids:
                    return fail(path, f"atomic focus requires initial{guard_tag} leaf")
                if not initial_ok(seq.signature, d.term, seq.goal.term):
                    rel = "fix-beta equal" if calculus.higher_order else "alpha-equal"
                    return fail(path, f"initial atoms are not {rel}")
            elif isinstance(d, Conj):
                if rule != "and-l" + guard_tag or len(kids) != 1:
                    return fail(path, f"conjunctive focus requires and-l{guard_tag}")
                k = kids[0].sequent
                if not (
                    _sequent_equal(k, seq.with_(focus=d.left))
                    or _sequent_equal(k, seq.with_(focus=d.right))
                ):
                    return fail(path, "and-l premise focuses neither conjunct")
            elif isinstance(d, Forall):
                if rule != "forall-l" + guard_tag or len(kids) != 1:
                    return fail(path, f"universal focus requires forall-l{guard_tag}")
                w = node.witness
                if w is None:
                    return fail(path, "forall-l needs a witness")
                ok, msg = _witness_ok(seq.signature, w, d.ty, calculus)
                if not ok:
                    return fail(path, msg)
                if not _sequent_equal(kids[0].sequent, seq.with_(focus=formula_substitute(d.body, d.var, w))):
                    return fail(path, "forall-l premise mismatch")
            elif isinstance(d, Impl):
                if rule != "imp-l" + guard_tag or len(kids) != 2:
                    return fail(path, f"implicative focus requires imp-l{guard_tag} with two premises")
                left = seq.with_(focus=d.right, guarded=False)
                right = seq.with_(focus=None, goal=d.left, guarded=False)
                if not _sequent_equal(kids[0].sequent, left):
                    return fail(path, "imp-l focused premise mismatch")
                if not _sequent_equal(kids[1].sequent, right):
                    return fail(path, "imp-l side premise mismatch")
            else:
                return fail(path, f"no left rule for focus {d!r}")

        # formulas of this node must fit the calculus's grammars
        if seq.focus is not None and not _grammar_ok(seq.signature, seq.focus, "clause", calculus):
            return fail(path, f"focus is outside the clause grammar of {calculus.value}")
        if seq.guarded:
            ok_goal = _grammar_ok(seq.signature, seq.goal, "core", calculus)
        else:
            ok_goal = _grammar_ok(seq.signature, seq.goal, "goal", calculus)
        if not ok_goal:
            return fail(path, f"goal is outside the {calculus.value} grammar")

        for i, kid in enumerate(kids):
            ok, msg = go(kid, f"{path}.{i}", False)
            if not ok:
                return ok, msg
        return True, None

    return go(tree, "root", True)


def _witness_ok(sig: Signature, w: Term, ty: tm.SimpleType, calculus: Calculus) -> tuple[bool, str]:
    try:
        wty = tm.typecheck(sig, {}, w)
    except Exception as exc:
        return False, f"witness {w!r} is not a closed well-typed term: {exc}"
    if wty != ty:
        return False, f"witness {w!r} has type {wty!r}, expected {ty!r}"
    if not calculus.higher_order and not tm.is_first_order(sig, {}, w):
        return False, f"witness {w!r} is not first order (required in {calculus.value})"
    return True, ""


# ---------------------------------------------------------------------------
# Witness pool and lemma promotion
# ---------------------------------------------------------------------------


def witness_pool(seq: Sequent, program: Program, cfg: SearchConfig) -> list[Term]:
    """Candidate witness terms for existential/universal instantiation,
    unifier-produced bindings first (under the default policy), then
    subterms, then fixed-point definitions applied to subterm arguments
    (higher-order calculi only)."""
    sig = seq.signature
    out: list[Term] = []
    unifier_bucket: list[Term] = []

    def push(t: Term) -> None:
        try:
            if tm.typecheck(sig, {}, t) != IOTA:
                return
        except Exception:
            return
        if not cfg.calculus.higher_order and not tm.is_first_order(sig, {}, t):
            return
        if not any(tm.alpha_eq(t, u) for u in out):
            out.append(t)

    goal_terms = [seq.goal.term] if isinstance(seq.goal, Atom) else []
    ch_formulas = [e.formula for e in seq.entries if e.src == Src.COHYP]

    # (i) unifier-produced bindings from matching entry heads against the goal
    if goal_terms:
        goal = goal_terms[0]
        for e in seq.entries:
            f = e.formula
            metas = 0
            while True:
                if isinstance(f, Forall):
                    metas += 1
                    f = formula_substitute(f.body, f.var, Var(f"{_META}p{metas}"))
                elif isinstance(f, Impl):
                    f = f.right
                elif isinstance(f, Conj):
                    f = f.left
                else:
                    break
            if not isinstance(f, Atom):
                continue
            s = (
                unify_modulo(f.term, goal, {}, cfg.fixbeta_bound)
                if cfg.calculus.higher_order
                else unify(f.term, goal, {})
            )
            if s:
                for v in s.values():
                    push(tm.beta_normalize(resolve_term(v, s)))
        unifier_bucket = list(out)

    # (ii) subterms of the goal and the coinductive hypothesis
    seeds: list[Term] = []
    for t in goal_terms:
        seeds.extend(u for u in tm.subterms(t) if not isinstance(u, (Lam,)))
    for f in ch_formulas:
        g = f
        while isinstance(g, (Forall, Exists)):
            g = g.body
        for sub in fm.conjuncts(g):
            if isinstance(sub, Atom):
                seeds.extend(tm.subterms(sub.term))
    for t in seeds:
        push(t)

    # (iii) named fixed-point definitions applied to pool terms
    if cfg.calculus.higher_order:
        base_args = [t for t in out if tm.is_first_order(sig, {}, t)]
        for _name, d in program.fix_definitions:
            try:
                arity = len(tm.argument_types(tm.typecheck(sig, {}, d)))
            except Exception:
                continue
            if arity == 0:
                push(d)
                continue
            for combo in itertools.product(base_args[:6], repeat=arity):
                push(tm.beta_normalize(tm.app(d, *combo)))
    if cfg.witness_pool_policy != "unifier-first":
        rest = [t for t in out if all(t is not u for u in unifier_bucket)]
        out = rest + unifier_bucket
    return out


def promote_lemma(
    program: Program,
    lemma: HClause,
    proof: ProofTree,
    store: LemmaStore,
) -> LemmaStore:
    """Record a coinductively proven lemma; DECIDE may use it afterwards,
    the guarded DECIDE never does."""
    ok, diag = check(proof, program, Calculus.HOHH)
    if not ok:
        raise ProofInvalid(f"lemma proof does not check: {diag}")
    if proof.sequent.mode != COINDUCTIVE:
        raise ProofInvalid("lemma proof must be a coinductive proof")
    if not formula_alpha_eq(lemma.to_formula(), proof.sequent.goal):
        raise ProofInvalid("lemma does not match the proof's root goal")
    return LemmaStore(store.entries + ((lemma, proof),))
