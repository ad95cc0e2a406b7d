"""Program clauses, goals, core formulae, and fragment classification.

The four calculi share one clause grammar shape and differ in which atoms
are admitted (first-order vs. rigid) and whether goals may contain
implications and universal quantifiers.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

from . import terms as tm
from .errors import IllTyped, NonHConvertibleClause, UsageError
from .terms import Con, Context, IOTA, O, Signature, SimpleType, Term, Var


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


@dataclass(frozen=True)
class Atom:
    term: Term


@dataclass(frozen=True)
class Top:
    pass


@dataclass(frozen=True)
class Conj:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Disj:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Impl:
    # antecedent => consequent
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Forall:
    var: str
    ty: SimpleType
    body: "Formula"


@dataclass(frozen=True)
class Exists:
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
    """Capture-avoiding substitution of a term for a free formula variable."""
    if isinstance(f, Atom):
        return Atom(tm.beta_normalize(tm.subst1(f.term, name, value)))
    if isinstance(f, Top):
        return f
    if isinstance(f, (Conj, Disj, Impl)):
        return type(f)(formula_substitute(f.left, name, value), formula_substitute(f.right, name, value))
    if f.var == name:
        return f
    if f.var in tm.free_vars(value) and name in formula_free_vars(f.body):
        z = tm.fresh_name(f.var, tm.free_vars(value) | formula_free_vars(f.body) | {name})
        body = formula_substitute(f.body, f.var, Var(z))
        return type(f)(z, f.ty, formula_substitute(body, name, value))
    return type(f)(f.var, f.ty, formula_substitute(f.body, name, value))


def formula_alpha_eq(f: Formula, g: Formula) -> bool:
    if isinstance(f, Atom) and isinstance(g, Atom):
        return tm.alpha_eq(f.term, g.term)
    if isinstance(f, Top) and isinstance(g, Top):
        return True
    if type(f) is type(g) and isinstance(f, (Conj, Disj, Impl)):
        return formula_alpha_eq(f.left, g.left) and formula_alpha_eq(f.right, g.right)
    if type(f) is type(g) and isinstance(f, (Forall, Exists)):
        if f.ty != g.ty:
            return False
        z = tm.fresh_name(f.var, formula_free_vars(f.body) | formula_free_vars(g.body))
        return formula_alpha_eq(
            formula_substitute(f.body, f.var, Var(z)),
            formula_substitute(g.body, g.var, Var(z)),
        )
    return False


def conjuncts(f: Formula) -> list[Formula]:
    if isinstance(f, Conj):
        return conjuncts(f.left) + conjuncts(f.right)
    return [f]


def conjoin(fs: list[Formula]) -> Formula:
    if not fs:
        return TOP
    out = fs[-1]
    for f in reversed(fs[:-1]):
        out = Conj(f, out)
    return out


def typecheck_formula(sig: Signature, ctx: Context, f: Formula) -> None:
    """Every embedded atom must be a term of type o."""
    if isinstance(f, Atom):
        ty = tm.typecheck(sig, ctx, f.term)
        if ty != O:
            raise IllTyped(f"atom {f.term!r} has type {ty!r}, expected o")
        return
    if isinstance(f, Top):
        return
    if isinstance(f, (Conj, Disj, Impl)):
        typecheck_formula(sig, ctx, f.left)
        typecheck_formula(sig, ctx, f.right)
        return
    typecheck_formula(sig, {**ctx, f.var: f.ty}, f.body)


# ---------------------------------------------------------------------------
# Fragment classification
# ---------------------------------------------------------------------------


def _atom_kinds(sig: Signature, ctx: Context, t: Term) -> tuple[bool, bool, bool]:
    """(is_atom, rigid, first_order) for a term expected to sit at atom position."""
    head, _args = tm.spine(t)
    try:
        if tm.typecheck(sig, ctx, t) != O:
            return False, False, False
    except Exception:
        return False, False, False
    if isinstance(head, Var):
        return True, False, False  # flexible
    if not isinstance(head, Con):
        return False, False, False
    rigid = True
    first_order = tm.is_first_order_atom(sig, ctx, t)
    return True, rigid, first_order


def _atom_admitted(sig: Signature, ctx: Context, t: Term, calc: Calculus, clause_side: bool) -> bool:
    is_atom, rigid, first_order = _atom_kinds(sig, ctx, t)
    if not is_atom:
        return False
    if not calc.higher_order:
        return first_order
    # higher-order: clause side (and core formulae) demand rigid atoms,
    # goal side admits flexible atoms as well
    return rigid if clause_side else True


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


def classify(sig: Signature, f: Formula, role: str) -> frozenset[Calculus]:
    """The set of calculi whose clause/goal/core grammar generates f."""
    try:
        typecheck_formula(sig, {}, f)
    except Exception as exc:
        raise IllTyped(str(exc)) from exc
    check = {"clause": _clause_in, "goal": _goal_in, "core": _core_in}[role]
    return frozenset(c for c in Calculus if check(sig, {}, f, c))


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
        key = tuple(_alpha_key(t) for t in combo)
        if key in seen:
            continue
        seen.add(key)
        yield h_substitute(h, dict(zip(h.universals, combo)))
        count += 1
        if limit is not None and count >= limit:
            return


def _alpha_key(t: Term, env: Optional[dict[str, int]] = None, depth: int = 0):
    """Hashable de Bruijn rendering used for alpha-aware deduplication."""
    env = env or {}
    if isinstance(t, Var):
        return ("v", env.get(t.name, t.name))
    if isinstance(t, Con):
        return ("c", t.name)
    if isinstance(t, tm.App):
        return ("a", _alpha_key(t.fn, env, depth), _alpha_key(t.arg, env, depth))
    if isinstance(t, tm.Lam):
        return ("l", _alpha_key(t.body, {**env, t.var: depth}, depth + 1))
    return ("f", _alpha_key(t.body, env, depth))


# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Program:
    """A first-order signature, an ordered list of clause formulae, and named
    guarded fixed-point definitions available as witnesses."""

    signature: Signature
    clauses: tuple[Formula, ...] = ()
    fix_definitions: tuple[tuple[str, Term], ...] = ()

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

    def validate(self) -> None:
        self.signature.check_first_order()
        for c in self.clauses:
            typecheck_formula(self.signature, {}, c)
            if not _clause_in(self.signature, {}, c, Calculus.FOHC):
                raise IllTyped(f"clause {c!r} is outside the first-order clause grammar")

    def with_clauses(self, extra: list[Formula]) -> "Program":
        return Program(self.signature, self.clauses + tuple(extra), self.fix_definitions)
