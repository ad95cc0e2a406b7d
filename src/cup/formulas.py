"""Program clauses, goals, core formulae, and fragment classification.

The four calculi share one clause grammar shape and differ in which atoms
are admitted (first-order vs. rigid) and whether goals may contain
implications and universal quantifiers.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Iterator, Optional

from . import terms as tm
from .errors import CupError, IllTyped, NonHConvertibleClause, UsageError
from .terms import App, Con, Context, IOTA, Lam, O, Signature, SimpleType, Term, Var, frozen_slots


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


# Every formula node caches its alpha key on first request, as term nodes do
# (see `formula_key`).  The cached field takes no part in equality, hash or
# repr; the constructor sets it to None with the node's own fields.


@frozen_slots
class _FNode:
    _ak: Optional[str] = field(default=None, init=False, repr=False, compare=False)


@frozen_slots
class Atom(_FNode):
    term: Term


@frozen_slots
class Top(_FNode):
    pass


@frozen_slots
class Conj(_FNode):
    left: "Formula"
    right: "Formula"


@frozen_slots
class Disj(_FNode):
    left: "Formula"
    right: "Formula"


@frozen_slots
class Impl(_FNode):
    # antecedent => consequent
    left: "Formula"
    right: "Formula"


@frozen_slots
class Forall(_FNode):
    var: str
    ty: SimpleType
    body: "Formula"


@frozen_slots
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


def _as_term(f: Formula) -> Term:
    """f encoded as a term whose alpha key is f's: connectives become
    constants whose names no signature can hold, and a quantifier becomes
    its tag applied to a lambda, the binder's type part of the tag."""
    if isinstance(f, Atom):
        return f.term
    if isinstance(f, Top):
        return Con(" Top")
    if isinstance(f, (Conj, Disj, Impl)):
        return tm.app(Con(" " + type(f).__name__), _as_term(f.left), _as_term(f.right))
    return App(Con(f" {type(f).__name__} {f.ty!r}"), Lam(f.var, _as_term(f.body)))


def formula_key(f: Formula) -> str:
    """The alpha key of f encoded as a term; computed once per node."""
    if f._ak is None:
        object.__setattr__(f, "_ak", tm.alpha_key(_as_term(f)))
    return f._ak


def formula_alpha_eq(f: Formula, g: Formula) -> bool:
    """Identity modulo renaming of bound variables, for beta-normal atoms."""
    return f is g or formula_key(f) == formula_key(g)


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


def _atom_admitted(sig: Signature, ctx: Context, t: Term, calc: Calculus, clause_side: bool) -> bool:
    """Does the calculus admit t, a term of type o (every caller type-checks
    the whole formula first), as an atom on this side?"""
    head, _args = tm.spine(t)
    if isinstance(head, Var):
        # flexible atoms: higher-order goals only
        return calc.higher_order and not clause_side
    if not isinstance(head, Con):
        return False
    return calc.higher_order or tm.is_first_order_atom(sig, ctx, t)


def _clause_in(sig, ctx, f: Formula, calc: Calculus) -> bool:
    if isinstance(f, Atom):
        return _atom_admitted(sig, ctx, f.term, calc, clause_side=True)
    if isinstance(f, Conj):
        return _clause_in(sig, ctx, f.left, calc) and _clause_in(sig, ctx, f.right, calc)
    if isinstance(f, Impl):
        return _goal_in(sig, ctx, f.left, calc) and _clause_in(sig, ctx, f.right, calc)
    if isinstance(f, Forall):
        return _clause_in(sig, {**ctx, f.var: f.ty}, f.body, calc)
    return False


def _goal_in(sig, ctx, f: Formula, calc: Calculus) -> bool:
    if isinstance(f, Top):
        return True
    if isinstance(f, Atom):
        return _atom_admitted(sig, ctx, f.term, calc, clause_side=False)
    if isinstance(f, (Conj, Disj)):
        return _goal_in(sig, ctx, f.left, calc) and _goal_in(sig, ctx, f.right, calc)
    if isinstance(f, Exists):
        return _goal_in(sig, {**ctx, f.var: f.ty}, f.body, calc)
    if isinstance(f, Impl):
        return calc.hereditary and _clause_in(sig, ctx, f.left, calc) and _goal_in(sig, ctx, f.right, calc)
    if isinstance(f, Forall):
        return calc.hereditary and _goal_in(sig, {**ctx, f.var: f.ty}, f.body, calc)
    return False


def _core_in(sig, ctx, f: Formula, calc: Calculus) -> bool:
    if isinstance(f, Atom):
        return _atom_admitted(sig, ctx, f.term, calc, clause_side=True)
    if isinstance(f, Conj):
        return _core_in(sig, ctx, f.left, calc) and _core_in(sig, ctx, f.right, calc)
    if isinstance(f, Impl):
        return calc.hereditary and _core_in(sig, ctx, f.left, calc) and _core_in(sig, ctx, f.right, calc)
    if isinstance(f, Forall):
        return calc.hereditary and _core_in(sig, {**ctx, f.var: f.ty}, f.body, calc)
    return False


_GRAMMARS = {"clause": _clause_in, "goal": _goal_in, "core": _core_in}


def in_fragment(sig: Signature, f: Formula, role: str, calc: Calculus) -> bool:
    """Does calc's clause/goal/core grammar generate the closed formula f?
    f is type-checked first, and the answer is remembered on the signature
    under f's alpha key, the role and calc; an ill-typed f raises IllTyped
    on every call."""
    key = (formula_key(f), role, calc)
    ok = sig._memo.get(key)
    if ok is None:
        try:
            typecheck_formula(sig, f)
        except CupError as exc:
            raise IllTyped(str(exc)) from exc
        ok = sig._memo[key] = _GRAMMARS[role](sig, {}, f, calc)
    return ok


def classify(sig: Signature, f: Formula, role: str) -> frozenset[Calculus]:
    """The set of calculi whose clause/goal/core grammar generates f."""
    return frozenset(c for c in Calculus if in_fragment(sig, f, role, c))


# ---------------------------------------------------------------------------
# H-clauses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
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
    raise NonHConvertibleClause(f"clause body {g!r} is not a conjunction of atoms")


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
        raise NonHConvertibleClause(f"{f!r} is not in the clause grammar")

    return go(d, [], [])


def h_substitute(h: HClause, binding: dict[str, Term]) -> HClause:
    subs = [(v, binding[v]) for v in h.universals if v in binding]
    remaining = tuple(v for v in h.universals if v not in binding)
    body = tuple(tm.beta_normalize(tm.substitute(b, subs)) for b in h.body)
    head = tm.beta_normalize(tm.substitute(h.head, subs))
    return HClause(remaining, body, head)


def ground_instances(h: HClause, universe: list[Term], limit: Optional[int] = None) -> Iterator[HClause]:
    """All closed instances of h over the given term universe, deduplicated
    modulo alpha-equivalence of the instantiating tuples."""
    if not h.universals:
        yield h
        return
    count = 0
    seen: set[tuple] = set()
    for combo in itertools.product(universe, repeat=len(h.universals)):
        key = tuple(tm.alpha_key(t) for t in combo)
        if key in seen:
            continue
        seen.add(key)
        yield h_substitute(h, dict(zip(h.universals, combo)))
        count += 1
        if limit is not None and count >= limit:
            return


# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Program:
    """A first-order signature, an ordered list of clause formulae, and named
    guarded fixed-point definitions available as witnesses; it keeps a
    `trees._Universe` per term size that `trees.gfp_approx` explored."""

    signature: Signature
    clauses: tuple[Formula, ...] = ()
    fix_definitions: tuple[tuple[str, Term], ...] = ()
    _universes: dict = field(default_factory=dict, init=False, repr=False, compare=False, hash=False)

    def fix_def(self, name: str) -> Optional[Term]:
        for n, t in self.fix_definitions:
            if n == name:
                return t
        return None

    def h_clauses(self) -> list[HClause]:
        out = []
        for c in self.clauses:
            out.extend(to_h_clauses(c))
        return out
