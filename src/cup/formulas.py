"""Program clauses, goals, core formulae, and fragment classification.

The four calculi share one clause grammar shape and differ in which atoms
are admitted (first-order vs. rigid) and whether goals may contain
implications and universal quantifiers.
"""

from __future__ import annotations

import enum

from . import terms as tm
from .errors import CupError, IllTyped, NonHConvertibleClause, UsageError
from .terms import Con, Context, IOTA, O, Signature, SimpleType, Term, Var, field, record


class Calculus(enum.Enum):
    FOHC = "co-fohc"
    FOHH = "co-fohh"
    HOHC = "co-hohc"
    HOHH = "co-hohh"

    @property
    def higher_order(self) -> bool:
        return self in (Calculus.HOHC, Calculus.HOHH)

    @property
    def hereditary(self) -> bool:
        return self in (Calculus.FOHH, Calculus.HOHH)

    @staticmethod
    def parse(name: str) -> "Calculus":
        for c in Calculus:
            if c.value == name or c.value.removeprefix("co-") == name:
                return c
        raise UsageError(f"unknown calculus {name!r}; known: {', '.join(c.value for c in Calculus)}")


ALL_CALCULI = frozenset(Calculus)


# ---------------------------------------------------------------------------
# Formulae
# ---------------------------------------------------------------------------


# formula nodes cache `formula_key` and `focus_reach` when first asked, outside ==, hash, repr
_UNSEEN = object()


@record
class _FNode:
    _ak: str | None = field(default=None, init=False, repr=False, compare=False)
    _fh: dict[str | None, int] = field(default=_UNSEEN, init=False, repr=False, compare=False)


@record
class Atom(_FNode):
    term: Term


@record
class Top(_FNode):
    pass


@record
class Conj(_FNode):
    left: "Formula"
    right: "Formula"


@record
class Disj(_FNode):
    left: "Formula"
    right: "Formula"


@record
class Impl(_FNode):
    # antecedent => consequent
    left: "Formula"
    right: "Formula"


@record
class Forall(_FNode):
    var: str
    ty: SimpleType
    body: "Formula"


@record
class Exists(_FNode):
    var: str
    ty: SimpleType
    body: "Formula"


Formula = Atom | Top | Conj | Disj | Impl | Forall | Exists

TOP = Top()


def formula_free_vars(f: Formula) -> set[str]:
    if isinstance(f, Atom):
        return tm.free_vars(f.term)
    if isinstance(f, Top):
        return set()
    if isinstance(f, (Conj, Disj, Impl)):
        return formula_free_vars(f.left) | formula_free_vars(f.right)
    return formula_free_vars(f.body) - {f.var}


def formula_substitute(f: Formula, name: str, value: Term) -> Formula:
    """Capture-avoiding substitution of a term for a free formula variable,
    atoms beta-normalised; f itself, and each part of it, where nothing
    changes, so unchanged parts keep their cached keys."""
    if isinstance(f, Atom):
        t = tm.beta_normalize(tm.subst1(f.term, name, value))
        return f if t is f.term else Atom(t)
    if isinstance(f, Top):
        return f
    if isinstance(f, (Conj, Disj, Impl)):
        left, right = formula_substitute(f.left, name, value), formula_substitute(f.right, name, value)
        return f if left is f.left and right is f.right else type(f)(left, right)
    if f.var == name:
        return f
    if f.var in tm.free_vars(value) and name in formula_free_vars(f.body):
        z = tm.fresh_name(f.var, tm.free_vars(value) | formula_free_vars(f.body) | {name})
        body = formula_substitute(f.body, f.var, Var(z))
        return type(f)(z, f.ty, formula_substitute(body, name, value))
    body = formula_substitute(f.body, name, value)
    return f if body is f.body else type(f)(f.var, f.ty, body)


def map_atoms(f: Formula, fn) -> Formula:
    """f with fn(t) for each atom's term t; f itself, and each part of it,
    where fn changes nothing, so unchanged parts keep their cached keys."""
    if isinstance(f, Atom):
        t = fn(f.term)
        return f if t is f.term else Atom(t)
    if isinstance(f, Top):
        return f
    if isinstance(f, (Conj, Disj, Impl)):
        left, right = map_atoms(f.left, fn), map_atoms(f.right, fn)
        return f if left is f.left and right is f.right else type(f)(left, right)
    body = map_atoms(f.body, fn)
    return f if body is f.body else type(f)(f.var, f.ty, body)


# the tags of formula keys; no term key starts with one (see `terms.alpha_key`)
_TAGS = {Top: "T", Conj: "&", Disj: "|", Impl: ">", Forall: "A", Exists: "E"}


def formula_key(f: Formula) -> str:
    """The alpha key of f, computed once per node: an atom's is its term's,
    any other formula's its tag, then a quantifier's binder type, then its
    parts' keys.  Prefix-free, as the term keys are."""
    if f._ak is None:
        object.__setattr__(f, "_ak", _key(f, {}, 0))
    return f._ak


def _key(f: Formula, env: dict[str, int], depth: int) -> str:
    # f's key inside `depth` binders, env mapping each variable they bind
    # to its binder's depth; a part under no binder keys as a formula of
    # its own, so it reads, or caches, its own key
    if isinstance(f, Atom):
        return tm.alpha_key_within(f.term, env, depth)
    tag = _TAGS[type(f)]
    if isinstance(f, Top):
        return tag
    if isinstance(f, (Conj, Disj, Impl)):
        if not env:
            return tag + formula_key(f.left) + formula_key(f.right)
        return tag + _key(f.left, env, depth) + _key(f.right, env, depth)
    ty = repr(f.ty)
    return f"{tag}{len(ty)}:{ty}" + _key(f.body, {**env, f.var: depth}, depth + 1)


def formula_alpha_eq(f: Formula, g: Formula) -> bool:
    """Identity modulo renaming of bound variables, for beta-normal atoms."""
    return f is g or formula_key(f) == formula_key(g)


def focus_reach(f: Formula) -> dict[str | None, int]:
    """The fewest sequents from a left focus on f to an INITIAL on each
    predicate it reaches, that INITIAL included: an atom counts 1, a ∀ or ⊃
    adds 1 to its body's or consequent's count, a ∧ to the smaller of its
    sides' (Top, ∨ and ∃ have no left rule and reach none).  An atom whose
    head is not a constant is keyed None."""
    if f._fh is _UNSEEN:
        if isinstance(f, Atom):
            head = tm.spine(f.term)[0]
            reach = {head.name if isinstance(head, Con) else None: 1}
        elif isinstance(f, Conj):
            left, right = focus_reach(f.left), focus_reach(f.right)
            reach = {k: 1 + min(left.get(k, n), n) for k, n in right.items()}
            reach.update((k, 1 + n) for k, n in left.items() if k not in right)
        elif isinstance(f, (Forall, Impl)):
            reach = {k: 1 + n for k, n in focus_reach(f.body if isinstance(f, Forall) else f.right).items()}
        else:
            reach = {}
        object.__setattr__(f, "_fh", reach)
    return f._fh


def conjoin(fs: list[Formula]) -> Formula:
    if not fs:
        return TOP
    out = fs[-1]
    for f in reversed(fs[:-1]):
        out = Conj(f, out)
    return out


def typecheck_formula(sig: Signature, f: Formula) -> None:
    """Every embedded atom of the closed formula f must be a term of type o.
    Success is remembered on the signature under f's alpha key, so f is
    checked once per signature; an error is raised again on every call."""
    key = formula_key(f)
    if key not in sig._memo:
        _typecheck_formula(sig, {}, f)
        sig._memo[key] = True


def _typecheck_formula(sig: Signature, ctx: Context, f: Formula) -> None:
    if isinstance(f, Atom):
        ty = tm.typecheck(sig, ctx, f.term)
        if ty != O:
            raise IllTyped(f"atom {tm.brief(f.term)} has type {ty!r}, expected o")
        return
    if isinstance(f, Top):
        return
    if isinstance(f, (Conj, Disj, Impl)):
        _typecheck_formula(sig, ctx, f.left)
        _typecheck_formula(sig, ctx, f.right)
        return
    _typecheck_formula(sig, {**ctx, f.var: f.ty}, f.body)


# ---------------------------------------------------------------------------
# Fragment classification
# ---------------------------------------------------------------------------


_HIGHER_ORDER = frozenset(c for c in Calculus if c.higher_order)
_HEREDITARY = frozenset(c for c in Calculus if c.hereditary)
# an implication's antecedent: a clause's is a goal, a goal's a clause
_DUAL = {"clause": "goal", "goal": "clause", "core": "core"}


def _calculi(sig: Signature, ctx: Context, f: Formula, role: str) -> frozenset[Calculus]:
    """The calculi whose clause/goal/core grammar generates f in the role,
    f a part of a formula that type-checks: the intersection of what f's
    own connective admits and what its parts' walks return."""
    if isinstance(f, Atom):
        head = tm.spine(f.term)[0]
        if isinstance(head, Var):
            # flexible atoms: higher-order goals only
            return _HIGHER_ORDER if role == "goal" else frozenset()
        if not isinstance(head, Con):
            return frozenset()
        return ALL_CALCULI if tm.is_first_order_atom(sig, ctx, f.term) else _HIGHER_ORDER
    if isinstance(f, (Top, Disj, Exists)) and role != "goal":
        # ⊤, ∨ and ∃ occur only in goals
        return frozenset()
    if isinstance(f, Top):
        return ALL_CALCULI
    # ⊃ and ∀ outside a clause need a hereditary calculus
    calculi = _HEREDITARY if isinstance(f, (Impl, Forall)) and role != "clause" else ALL_CALCULI
    if isinstance(f, (Forall, Exists)):
        return calculi & _calculi(sig, {**ctx, f.var: f.ty}, f.body, role)
    calculi &= _calculi(sig, ctx, f.left, _DUAL[role] if isinstance(f, Impl) else role)
    return calculi and calculi & _calculi(sig, ctx, f.right, role)


def classify(sig: Signature, f: Formula, role: str) -> frozenset[Calculus]:
    """The set of calculi whose clause/goal/core grammar generates the
    closed formula f.  f is type-checked first, and the set is remembered
    on the signature under f's alpha key and the role; an ill-typed f
    raises IllTyped on every call."""
    key = (formula_key(f), role)
    calculi = sig._memo.get(key)
    if calculi is None:
        try:
            typecheck_formula(sig, f)
        except CupError as exc:
            raise IllTyped(str(exc)) from exc
        calculi = sig._memo[key] = _calculi(sig, {}, f, role)
    return calculi


def in_fragment(sig: Signature, f: Formula, role: str, calc: Calculus) -> bool:
    """Does calc's clause/goal/core grammar generate the closed formula f?"""
    return calc in classify(sig, f, role)


# ---------------------------------------------------------------------------
# H-clauses
# ---------------------------------------------------------------------------


@record
class HClause:
    """forall x1..xm (A1 /\\ ... /\\ An => A) with atomic body and head."""

    universals: tuple[str, ...]
    body: tuple[Term, ...]
    head: Term

    def to_formula(self) -> Formula:
        f: Formula = Atom(self.head)
        if self.body:
            f = Impl(conjoin([Atom(a) for a in self.body]), f)
        for v in reversed(self.universals):
            f = Forall(v, IOTA, f)
        return f


def _flatten_goal(g: Formula) -> list[Term]:
    if isinstance(g, Top):
        return []
    if isinstance(g, Atom):
        return [g.term]
    if isinstance(g, Conj):
        return _flatten_goal(g.left) + _flatten_goal(g.right)
    raise NonHConvertibleClause("clause body is not a conjunction of atoms")


def to_h_clauses(d: Formula) -> list[HClause]:
    """Clausal normal form: distribute conjunction in consequents, fuse
    nested implications into conjunctive bodies, hoist universals."""

    def go(f: Formula, universals: list[str], body: list[Term]) -> list[HClause]:
        if isinstance(f, Atom):
            return [HClause(tuple(universals), tuple(body), f.term)]
        if isinstance(f, Conj):
            return go(f.left, universals, body) + go(f.right, universals, body)
        if isinstance(f, Impl):
            return go(f.right, universals, body + _flatten_goal(f.left))
        if isinstance(f, Forall):
            var = f.var
            fbody = f.body
            taken = set(universals) | set().union(*[tm.free_vars(b) for b in body], set())
            if var in taken:
                z = tm.fresh_name(var, taken | formula_free_vars(fbody))
                fbody = formula_substitute(fbody, var, Var(z))
                var = z
            return go(fbody, universals + [var], body)
        raise NonHConvertibleClause("formula is not in the clause grammar")

    return go(d, [], [])


def h_substitute(h: HClause, binding: dict[str, Term]) -> HClause:
    subs = [(v, binding[v]) for v in h.universals if v in binding]
    remaining = tuple(v for v in h.universals if v not in binding)
    body = tuple(tm.beta_normalize(tm.substitute(b, subs)) for b in h.body)
    head = tm.beta_normalize(tm.substitute(h.head, subs))
    return HClause(remaining, body, head)


# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------


@record
class Program:
    """A first-order signature, an ordered list of clause formulae, and named
    guarded fixed-point definitions available as witnesses; it keeps a
    `trees._Universe` per term size that `trees.gfp_approx` explored."""

    signature: Signature
    clauses: tuple[Formula, ...] = ()
    fix_definitions: tuple[tuple[str, Term], ...] = ()
    _universes: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def fix_def(self, name: str) -> Term | None:
        for n, t in self.fix_definitions:
            if n == name:
                return t
        return None

    def h_clauses(self) -> list[HClause]:
        out = []
        for c in self.clauses:
            out.extend(to_h_clauses(c))
        return out
