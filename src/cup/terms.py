"""Simply-typed lambda terms with a fix primitive.

Types, signatures, type inference, substitution, alpha-equivalence,
beta-normalization, one-step fix unfolding, the bounded three-valued
fix-beta equivalence test, and the first-order predicate on terms.
All values are immutable and safe to share.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from .errors import (
    FixBodyNotAbstraction,
    NoFixRedex,
    NonFirstOrderSignature,
    TypeMismatch,
    UnboundConstant,
    UnboundVariable,
)

# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Base:
    """A type variable such as o or i (the individual type)."""

    name: str

    def __repr__(self):
        return self.name


@dataclass(frozen=True)
class Arrow:
    arg: "SimpleType"
    res: "SimpleType"

    def __repr__(self):
        left = f"({self.arg!r})" if isinstance(self.arg, Arrow) else repr(self.arg)
        return f"{left} -> {self.res!r}"


SimpleType = Base | Arrow

O = Base("o")
IOTA = Base("i")


def fn_type(*parts: SimpleType) -> SimpleType:
    """Build arg1 -> ... -> argn -> target from its parts."""
    ty = parts[-1]
    for p in reversed(parts[:-1]):
        ty = Arrow(p, ty)
    return ty


def type_order(ty: SimpleType) -> int:
    """0 for type variables, max(order(arg)+1, order(res)) for arrows."""
    if isinstance(ty, Base):
        return 0
    return max(type_order(ty.arg) + 1, type_order(ty.res))


def target_type(ty: SimpleType) -> Base:
    while isinstance(ty, Arrow):
        ty = ty.res
    return ty


def argument_types(ty: SimpleType) -> list[SimpleType]:
    args = []
    while isinstance(ty, Arrow):
        args.append(ty.arg)
        ty = ty.res
    return args


def type_mentions(ty: SimpleType, base: Base) -> bool:
    if isinstance(ty, Base):
        return ty == base
    return type_mentions(ty.arg, base) or type_mentions(ty.res, base)


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


# Every node computes its hash and whether it contains a fix subterm once,
# from its children's cached values, so both cost O(1) however deep the term.
# The cached fields take no part in equality or repr.  Build terms only
# through these constructors.


@dataclass(frozen=True)
class Var:
    name: str
    _hash: int = field(init=False, repr=False, compare=False)
    _fix: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.name,)))
        object.__setattr__(self, "_fix", False)

    def __hash__(self):
        return self._hash


@dataclass(frozen=True)
class Con:
    name: str
    _hash: int = field(init=False, repr=False, compare=False)
    _fix: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.name,)))
        object.__setattr__(self, "_fix", False)

    def __hash__(self):
        return self._hash


@dataclass(frozen=True)
class App:
    fn: "Term"
    arg: "Term"
    _hash: int = field(init=False, repr=False, compare=False)
    _fix: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.fn, self.arg)))
        object.__setattr__(self, "_fix", self.fn._fix or self.arg._fix)

    def __hash__(self):
        return self._hash


@dataclass(frozen=True)
class Lam:
    var: str
    body: "Term"
    _hash: int = field(init=False, repr=False, compare=False)
    _fix: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.var, self.body)))
        object.__setattr__(self, "_fix", self.body._fix)

    def __hash__(self):
        return self._hash


@dataclass(frozen=True)
class Fix:
    body: "Term"  # must be a Lam for well-typed terms
    _hash: int = field(init=False, repr=False, compare=False)
    _fix: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.body,)))
        object.__setattr__(self, "_fix", True)

    def __hash__(self):
        return self._hash


Term = Var | Con | App | Lam | Fix

# The snapshot placeholder: a pseudo-constant of type i that the parser can
# never produce, so it is guaranteed to stay outside every signature.
DIAMOND = "<>"

# Prefix reserved for machine-generated names (fresh binders, eigenvariables,
# search metavariables).  The lexer rejects it in source programs.
FRESH_MARK = "#"


def app(*ts: Term) -> Term:
    t = ts[0]
    for u in ts[1:]:
        t = App(t, u)
    return t


def spine(t: Term) -> tuple[Term, list[Term]]:
    """Decompose nested applications into (head, [args])."""
    args: list[Term] = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fn
    args.reverse()
    return t, args


def subterms(t: Term) -> set[Term]:
    """All subterms of t, including t itself."""
    out = {t}
    if isinstance(t, App):
        out |= subterms(t.fn) | subterms(t.arg)
    elif isinstance(t, Lam):
        out |= subterms(t.body)
    elif isinstance(t, Fix):
        out |= subterms(t.body)
    return out


def free_vars(t: Term) -> set[str]:
    if isinstance(t, Var):
        return {t.name}
    if isinstance(t, Con):
        return set()
    if isinstance(t, App):
        return free_vars(t.fn) | free_vars(t.arg)
    if isinstance(t, Lam):
        return free_vars(t.body) - {t.var}
    return free_vars(t.body)


def all_names(t: Term) -> set[str]:
    """Every variable name occurring in t, bound or free."""
    if isinstance(t, Var):
        return {t.name}
    if isinstance(t, Con):
        return set()
    if isinstance(t, App):
        return all_names(t.fn) | all_names(t.arg)
    if isinstance(t, Lam):
        return all_names(t.body) | {t.var}
    return all_names(t.body)


def fresh_name(base: str, avoid: set[str]) -> str:
    base = base.split(FRESH_MARK, 1)[0] or "x"
    if base not in avoid and FRESH_MARK not in base:
        return base
    for n in itertools.count(1):
        cand = f"{base}{FRESH_MARK}{n}"
        if cand not in avoid:
            return cand
    raise AssertionError("unreachable")


class NameSupply:
    """Per-session monotone counter for eigenvariables and metavariables."""

    def __init__(self, prefix: str = ""):
        self._prefix = prefix
        self._next = 0

    def fresh(self, base: str) -> str:
        self._next += 1
        base = base.split(FRESH_MARK, 1)[0] or "c"
        return f"{self._prefix}{base}{FRESH_MARK}{self._next}"


# ---------------------------------------------------------------------------
# Substitution, alpha-equivalence
# ---------------------------------------------------------------------------


def rename_free(t: Term, old: str, new: str) -> Term:
    """Replace every free occurrence of variable `old` by variable `new`."""
    return subst1(t, old, Var(new))


def subst1(t: Term, name: str, value: Term) -> Term:
    """Capture-avoiding substitution of `value` for free occurrences of `name`."""
    if isinstance(t, Var):
        return value if t.name == name else t
    if isinstance(t, Con):
        return t
    if isinstance(t, App):
        return App(subst1(t.fn, name, value), subst1(t.arg, name, value))
    if isinstance(t, Fix):
        return Fix(subst1(t.body, name, value))
    # abstraction
    if t.var == name:
        return t
    if t.var in free_vars(value) and name in free_vars(t.body):
        avoid = free_vars(value) | free_vars(t.body) | {name}
        z = fresh_name(t.var, avoid)
        body = rename_free(t.body, t.var, z)
        return Lam(z, subst1(body, name, value))
    return Lam(t.var, subst1(t.body, name, value))


Substitution = list[tuple[str, Term]]


def substitute(t: Term, subs: Substitution) -> Term:
    """Apply an ordered list of bindings left to right."""
    for name, value in subs:
        t = subst1(t, name, value)
    return t


def alpha_eq(t1: Term, t2: Term) -> bool:
    """Syntactic identity modulo consistent renaming of bound variables."""

    def go(a: Term, b: Term, env1: dict[str, int], env2: dict[str, int], depth: int) -> bool:
        if isinstance(a, Var) and isinstance(b, Var):
            i, j = env1.get(a.name), env2.get(b.name)
            if i is None and j is None:
                return a.name == b.name
            return i == j
        if isinstance(a, Con) and isinstance(b, Con):
            return a.name == b.name
        if isinstance(a, App) and isinstance(b, App):
            return go(a.fn, b.fn, env1, env2, depth) and go(a.arg, b.arg, env1, env2, depth)
        if isinstance(a, Lam) and isinstance(b, Lam):
            e1 = dict(env1)
            e2 = dict(env2)
            e1[a.var] = depth
            e2[b.var] = depth
            return go(a.body, b.body, e1, e2, depth + 1)
        if isinstance(a, Fix) and isinstance(b, Fix):
            return go(a.body, b.body, env1, env2, depth)
        return False

    return go(t1, t2, {}, {}, 0)


def canonicalize(t: Term) -> Term:
    """Beta-normalize and rename binders so no binder shadows another name.

    Applied at module boundaries so later stages may compare structurally.
    """
    t = beta_normalize(t)
    used = set(free_vars(t))

    def go(u: Term) -> Term:
        if isinstance(u, (Var, Con)):
            return u
        if isinstance(u, App):
            return App(go(u.fn), go(u.arg))
        if isinstance(u, Fix):
            return Fix(go(u.body))
        name = u.var
        if name in used or FRESH_MARK in name:
            name = fresh_name(u.var, used)
        used.add(name)
        body = rename_free(u.body, u.var, name) if name != u.var else u.body
        return Lam(name, go(body))

    return go(t)


# ---------------------------------------------------------------------------
# Signatures and contexts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Signature:
    """Finite map from constant names to simple types.

    Only non-logical constants are stored; connectives and quantifiers live
    at the formula level and never occur inside terms.
    """

    constants: tuple[tuple[str, SimpleType], ...] = ()
    # is_first_order results for closed terms, keyed on (term, expected)
    _fo_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False, hash=False)

    @staticmethod
    def of(mapping: dict[str, SimpleType]) -> "Signature":
        return Signature(tuple(sorted(mapping.items())))

    def as_dict(self) -> dict[str, SimpleType]:
        return dict(self.constants)

    def lookup(self, name: str) -> Optional[SimpleType]:
        for n, ty in self.constants:
            if n == name:
                return ty
        return None

    def __contains__(self, name: str) -> bool:
        return self.lookup(name) is not None

    def extend(self, name: str, ty: SimpleType) -> "Signature":
        return Signature.of({**self.as_dict(), name: ty})

    def is_first_order_predicate(self, name: str) -> bool:
        ty = self.lookup(name)
        if ty is None:
            return False
        if target_type(ty) != O or type_order(ty) > 1:
            return False
        return all(not type_mentions(a, O) for a in argument_types(ty))

    def predicates(self) -> list[str]:
        return [n for n, ty in self.constants if target_type(ty) == O]

    def constructors(self) -> list[tuple[str, SimpleType]]:
        return [(n, ty) for n, ty in self.constants if target_type(ty) != O]

    def check_first_order(self) -> None:
        """Reject constants of order > 1 or with o anywhere but as the
        target type of a first-order predicate."""
        for name, ty in self.constants:
            if type_order(ty) > 1:
                raise NonFirstOrderSignature(f"constant {name} has order {type_order(ty)} type {ty!r}")
            if type_mentions(ty, O) and not self.is_first_order_predicate(name):
                raise NonFirstOrderSignature(f"constant {name} uses o outside a first-order predicate type: {ty!r}")


Context = dict[str, SimpleType]


# ---------------------------------------------------------------------------
# Type inference (con/var/app/abs/fp rules, binder types inferred)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _TMeta:
    ident: int


_InfType = Base | Arrow | _TMeta


class _Infer:
    def __init__(self, sig: Signature, ctx: Context):
        self.sig = sig
        self.ctx = ctx
        self.next_meta = 0
        self.sol: dict[int, _InfType] = {}
        self.judgments: list[tuple[Term, _InfType]] = []

    def meta(self) -> _TMeta:
        self.next_meta += 1
        return _TMeta(self.next_meta)

    def resolve(self, ty: _InfType) -> _InfType:
        while isinstance(ty, _TMeta) and ty.ident in self.sol:
            ty = self.sol[ty.ident]
        if isinstance(ty, Arrow):
            return Arrow(self.resolve(ty.arg), self.resolve(ty.res))
        return ty

    def _occurs(self, ident: int, ty: _InfType) -> bool:
        ty = self.resolve(ty)
        if isinstance(ty, _TMeta):
            return ty.ident == ident
        if isinstance(ty, Arrow):
            return self._occurs(ident, ty.arg) or self._occurs(ident, ty.res)
        return False

    def unify(self, a: _InfType, b: _InfType, where: Term) -> None:
        a, b = self.resolve(a), self.resolve(b)
        if a == b:
            return
        if isinstance(a, _TMeta):
            if self._occurs(a.ident, b):
                raise TypeMismatch(f"circular type constraint at {where!r}")
            self.sol[a.ident] = b
            return
        if isinstance(b, _TMeta):
            self.unify(b, a, where)
            return
        if isinstance(a, Arrow) and isinstance(b, Arrow):
            self.unify(a.arg, b.arg, where)
            self.unify(a.res, b.res, where)
            return
        raise TypeMismatch(f"cannot match {a!r} with {b!r} at {where!r}")

    def infer(self, t: Term, env: dict[str, _InfType]) -> _InfType:
        if isinstance(t, Con):
            ty = self.sig.lookup(t.name)
            if ty is None:
                raise UnboundConstant(f"constant {t.name} not in signature")
            self.judgments.append((t, ty))
            return ty
        if isinstance(t, Var):
            if t.name in env:
                ty: _InfType = env[t.name]
            elif t.name in self.ctx:
                ty = self.ctx[t.name]
            else:
                raise UnboundVariable(f"variable {t.name} has no declared type")
            self.judgments.append((t, ty))
            return ty
        if isinstance(t, App):
            fty = self.infer(t.fn, env)
            aty = self.infer(t.arg, env)
            res = self.meta()
            self.unify(fty, Arrow(aty, res), t)
            self.judgments.append((t, res))
            return res
        if isinstance(t, Lam):
            arg = self.meta()
            body = self.infer(t.body, {**env, t.var: arg})
            ty = Arrow(arg, body)
            self.judgments.append((t, ty))
            return ty
        # fix
        if not isinstance(t.body, Lam):
            raise FixBodyNotAbstraction(f"fix body must be an abstraction: {t.body!r}")
        ty = self.meta()
        body = self.infer(t.body.body, {**env, t.body.var: ty})
        self.unify(ty, body, t)
        self.judgments.append((t, ty))
        return ty


def _ground(ty: _InfType, where: Term) -> SimpleType:
    if isinstance(ty, _TMeta):
        raise TypeMismatch(f"ambiguous type for {where!r}; add context or apply the term")
    if isinstance(ty, Arrow):
        return Arrow(_ground(ty.arg, where), _ground(ty.res, where))
    return ty


def typecheck(sig: Signature, ctx: Context, t: Term, expected: Optional[SimpleType] = None) -> SimpleType:
    """Infer the unique simple type of t, or raise."""
    inf = _Infer(sig, ctx)
    ty = inf.infer(t, {})
    if expected is not None:
        inf.unify(ty, expected, t)
    return _ground(inf.resolve(ty), t)


def typed_subterm_judgments(
    sig: Signature, ctx: Context, t: Term, expected: Optional[SimpleType] = None
) -> list[tuple[Term, SimpleType]]:
    """One (occurrence, type) judgment per subterm occurrence of t."""
    inf = _Infer(sig, ctx)
    ty = inf.infer(t, {})
    if expected is not None:
        inf.unify(ty, expected, t)
    return [(u, _ground(inf.resolve(ty), u)) for u, ty in inf.judgments]


# ---------------------------------------------------------------------------
# Reduction
# ---------------------------------------------------------------------------


def beta_normalize(t: Term) -> Term:
    """Normal form under beta-reduction; fix is treated as an opaque constant."""
    if isinstance(t, (Var, Con)):
        return t
    if isinstance(t, (Lam, Fix)):
        body = beta_normalize(t.body)
        if body is t.body:
            return t
        return Lam(t.var, body) if isinstance(t, Lam) else Fix(body)
    fn = beta_normalize(t.fn)
    if isinstance(fn, Lam):
        return beta_normalize(subst1(fn.body, fn.var, t.arg))
    arg = beta_normalize(t.arg)
    if fn is t.fn and arg is t.arg:
        return t
    return App(fn, arg)


def _unfold(fx: Fix) -> Term:
    if not isinstance(fx.body, Lam):
        raise FixBodyNotAbstraction(repr(fx))
    return subst1(fx.body.body, fx.body.var, fx)


def _unfold_leftmost(t: Term) -> Optional[Term]:
    """Unfold the leftmost-outermost fix subterm once; None if there is none."""
    if isinstance(t, Fix):
        return _unfold(t)
    if isinstance(t, (Var, Con)):
        return None
    if isinstance(t, Lam):
        body = _unfold_leftmost(t.body)
        return None if body is None else Lam(t.var, body)
    fn = _unfold_leftmost(t.fn)
    if fn is not None:
        return App(fn, t.arg)
    arg = _unfold_leftmost(t.arg)
    return None if arg is None else App(t.fn, arg)


def fixbeta_unfold(t: Term) -> Term:
    """One fix unfolding at the leftmost-outermost redex, then beta-normalize."""
    u = _unfold_leftmost(t)
    if u is None:
        raise NoFixRedex(f"no fix subterm in {t!r}")
    return beta_normalize(u)


def has_fix(t: Term) -> bool:
    return t._fix


def fair_unfold(t: Term) -> Term:
    """Unfold every outermost fix subterm once, then beta-normalize.

    One round of this schedule reduces each unfoldable position within one
    step, which makes iterating it a fair reduction sequence.
    """

    def go(u: Term) -> Term:
        if isinstance(u, Fix):
            return _unfold(u)
        if isinstance(u, (Var, Con)):
            return u
        if isinstance(u, Lam):
            return Lam(u.var, go(u.body))
        return App(go(u.fn), go(u.arg))

    return beta_normalize(go(t))


# ---------------------------------------------------------------------------
# Bounded fix-beta equivalence
# ---------------------------------------------------------------------------

EQUAL = "Equal"
NOT_EQUAL = "NotEqual"
UNKNOWN = "Unknown"


def _skeleton_conflict(a: Term, b: Term) -> bool:
    """True when the determined first-order skeletons of a and b disagree.

    Positions headed by a fix subterm (or an unresolved binder pair) are
    undetermined and never conflict; reduction cannot change a determined
    constructor, so a conflict refutes fix-beta equivalence.
    """
    ha, aa = spine(a)
    hb, ab = spine(b)
    if isinstance(ha, Fix) or isinstance(hb, Fix):
        return False
    if isinstance(ha, Lam) and isinstance(hb, Lam) and not aa and not ab:
        # compare bodies under a shared fresh name
        z = fresh_name("v", free_vars(ha.body) | free_vars(hb.body))
        return _skeleton_conflict(rename_free(ha.body, ha.var, z), rename_free(hb.body, hb.var, z))
    if isinstance(ha, Lam) or isinstance(hb, Lam):
        return True  # abstraction vs. rigid head: shapes can never meet
    name_a = ha.name if isinstance(ha, (Var, Con)) else None
    name_b = hb.name if isinstance(hb, (Var, Con)) else None
    if type(ha) is not type(hb) or name_a != name_b or len(aa) != len(ab):
        return True
    return any(_skeleton_conflict(x, y) for x, y in zip(aa, ab))


def _unfold_chain(t: Term, bound: int) -> list[Term]:
    chain = [t]
    for _ in range(bound):
        if not has_fix(chain[-1]):
            break
        chain.append(fair_unfold(chain[-1]))
    return chain


def fixbeta_equiv(t1: Term, t2: Term, bound: int = 8) -> str:
    """Three-valued bounded test for fix-beta equivalence.

    Equal if some pair of fair unfoldings (at most `bound` rounds per side)
    is alpha-equal; NotEqual if the most-determined unfoldings conflict on a
    position both sides have fixed; Unknown otherwise.
    """
    t1, t2 = beta_normalize(t1), beta_normalize(t2)
    c1 = _unfold_chain(t1, bound)
    c2 = _unfold_chain(t2, bound)
    for a in c1:
        for b in c2:
            if alpha_eq(a, b):
                return EQUAL
    if _skeleton_conflict(c1[-1], c2[-1]):
        return NOT_EQUAL
    return UNKNOWN


# ---------------------------------------------------------------------------
# First-order terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FirstOrderReport:
    verdict: bool
    violations: tuple[tuple[int, str], ...] = ()


def first_order_report(
    sig: Signature, ctx: Context, t: Term, expected: Optional[SimpleType] = None
) -> FirstOrderReport:
    """Check the five defining conditions of first-order terms, with
    a diagnostic naming each violated condition."""
    judgments = typed_subterm_judgments(sig, ctx, t, expected)
    whole = judgments[-1][1] if judgments else typecheck(sig, ctx, t, expected)
    # the root judgment is the last one appended
    for u, ty in judgments:
        if u == t:
            whole = ty
    violations: list[tuple[int, str]] = []
    if type_order(whole) != 0:
        violations.append((1, f"term has functional type {whole!r}"))
    for u, ty in judgments:
        if isinstance(u, Con) and type_order(ty) not in (0, 1):
            violations.append((2, f"constant {u.name} has order-{type_order(ty)} type"))
        if isinstance(u, Var) and type_order(ty) != 0:
            violations.append((3, f"variable {u.name} has functional type {ty!r}"))
        if ty == O:
            violations.append((4, f"subterm {u!r} has type o"))
        if isinstance(u, Fix):
            violations.append((5, "contains a fixed point subterm"))
    return FirstOrderReport(not violations, tuple(violations))


def is_first_order(sig: Signature, ctx: Context, t: Term, expected: Optional[SimpleType] = None) -> bool:
    """Memoised on the signature for closed terms; only verdicts are
    remembered, so an unbound name raises on every call."""
    if ctx:
        return _first_order_verdict(sig, ctx, t, expected)
    key = (t, expected)
    verdict = sig._fo_memo.get(key)
    if verdict is None:
        verdict = sig._fo_memo[key] = _first_order_verdict(sig, ctx, t, expected)
    return verdict


def _first_order_verdict(sig: Signature, ctx: Context, t: Term, expected: Optional[SimpleType]) -> bool:
    try:
        return first_order_report(sig, ctx, t, expected).verdict
    except TypeMismatch:
        # underconstrained terms (a bare unapplied fix, say) have no unique
        # type; they are never first order
        return False


def is_first_order_atom(sig: Signature, ctx: Context, t: Term) -> bool:
    """Rigid atom with a first-order predicate head and first-order arguments."""
    head, args = spine(t)
    if not isinstance(head, Con) or not sig.is_first_order_predicate(head.name):
        return False
    if len(args) != len(argument_types(sig.lookup(head.name))):
        return False
    return all(is_first_order(sig, ctx, a) for a in args)
