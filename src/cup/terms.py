"""Simply-typed lambda terms with a fix primitive.

Types, signatures, type inference, substitution, alpha-equivalence,
beta-normalization, one-step fix unfolding, the bounded three-valued
fix-beta equivalence test, and the first-order predicate on terms.
All values are immutable and safe to share.
"""

from __future__ import annotations

import itertools
from dataclasses import MISSING, dataclass, field, fields
from functools import cached_property
from typing import Iterator, Optional

from .errors import (
    FixBodyNotAbstraction,
    NoFixRedex,
    NonFirstOrderSignature,
    TypeMismatch,
    UnboundConstant,
    UnboundVariable,
)

# ---------------------------------------------------------------------------
# Immutable values
# ---------------------------------------------------------------------------


def frozen_slots(cls):
    """`cls` as a frozen dataclass with slots, so its instances carry no
    `__dict__`, built in one step: unless `cls` writes its own `__init__`,
    the one made here sets every field, an init=False one to its default,
    through the slot setters (see `_slot_setters`), where a frozen
    dataclass's own calls `object.__setattr__` once per field by name."""
    own = "__init__" in cls.__dict__
    cls = dataclass(frozen=True, slots=True)(cls)
    if not own:
        ns, params, body = {}, [], []
        for i, f in enumerate(fields(cls)):
            ns[f"set{i}"], ns[f"d{i}"] = getattr(cls, f.name).__set__, f.default
            if f.init:
                params.append(f.name if f.default is MISSING else f"{f.name}=d{i}")
            if f.init or f.default is not MISSING:
                body.append(f"set{i}(self, {f.name if f.init else f'd{i}'})")
        exec(f"def __init__(self, {', '.join(params)}):\n    " + "\n    ".join(body or ["pass"]), ns)
        ns["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = ns["__init__"]
    return cls


def _slot_setters(cls) -> tuple:
    """The setters of the slots `cls` itself declares, in order: each
    writes its field in one call, past a frozen class's `__setattr__`."""
    return tuple(getattr(cls, name).__set__ for name in cls.__slots__)


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


@frozen_slots
class Base:
    """A type variable such as o or i (the individual type)."""

    name: str

    def __repr__(self):
        return self.name


@frozen_slots
class Arrow:
    arg: "SimpleType"
    res: "SimpleType"

    def __repr__(self):
        return brief(self, float("inf"))


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


# Every node computes its hash, whether it contains a fix subterm, its free
# variable names and whether it is beta-normal once, from its children's
# cached values, so each costs O(1) however deep the term; the alpha key is
# computed on first request.  The cached fields take no part in equality or
# repr.  Each constructor sets the node's fields and facts through the slot
# setters, in the one call; build terms only through these constructors.

_CLOSED: frozenset[str] = frozenset()


@frozen_slots
class _Node:
    _hash: int = field(init=False, repr=False, compare=False)
    _fix: bool = field(init=False, repr=False, compare=False)
    _fv: frozenset[str] = field(init=False, repr=False, compare=False)
    _nf: bool = field(init=False, repr=False, compare=False)
    _ak: Optional[str] = field(init=False, repr=False, compare=False)

    def __hash__(self):
        return self._hash


_HASH, _FIX, _FV, _NF, _AK = _slot_setters(_Node)


@frozen_slots
class Var(_Node):
    name: str

    def __init__(self, name: str):
        _VAR_NAME(self, name)
        _HASH(self, hash((name,)))
        _FIX(self, False)
        _FV(self, frozenset((name,)))
        _NF(self, True)
        _AK(self, None)


@frozen_slots
class Con(_Node):
    name: str

    def __init__(self, name: str):
        _CON_NAME(self, name)
        _HASH(self, hash((name,)))
        _FIX(self, False)
        _FV(self, _CLOSED)
        _NF(self, True)
        _AK(self, None)


@frozen_slots
class App(_Node):
    fn: "Term"
    arg: "Term"

    def __init__(self, fn: "Term", arg: "Term"):
        a, b = fn._fv, arg._fv
        _APP_FN(self, fn)
        _APP_ARG(self, arg)
        _HASH(self, hash((fn, arg)))
        _FIX(self, fn._fix or arg._fix)
        _FV(self, a | b if a and b and a is not b else a or b)
        # an abstraction applied to an argument is a redex
        _NF(self, fn._nf and arg._nf and not isinstance(fn, Lam))
        _AK(self, None)


@frozen_slots
class Lam(_Node):
    var: str
    body: "Term"

    def __init__(self, var: str, body: "Term"):
        _LAM_VAR(self, var)
        _LAM_BODY(self, body)
        _HASH(self, hash((var, body)))
        _FIX(self, body._fix)
        _FV(self, body._fv - {var} if var in body._fv else body._fv)
        _NF(self, body._nf)
        _AK(self, None)


@frozen_slots
class Fix(_Node):
    body: "Term"  # must be a Lam for well-typed terms

    def __init__(self, body: "Term"):
        _FIX_BODY(self, body)
        _HASH(self, hash((body,)))
        _FIX(self, True)
        _FV(self, body._fv)
        _NF(self, body._nf)
        _AK(self, None)


# the setters of each node's own fields, which its constructor calls
(_VAR_NAME,), (_CON_NAME,), (_APP_FN, _APP_ARG), (_LAM_VAR, _LAM_BODY), (_FIX_BODY,) = map(
    _slot_setters, (Var, Con, App, Lam, Fix))

# @dataclass gives each class a structural hash of its own; use the cached one
for _cls in (Var, Con, App, Lam, Fix):
    _cls.__hash__ = _Node.__hash__

Term = Var | Con | App | Lam | Fix

# The snapshot placeholder: a pseudo-constant of type i that the parser can
# never produce, so it is guaranteed to stay outside every signature.
DIAMOND = "<>"

# Prefix reserved for machine-generated names (fresh binders, eigenvariables,
# search metavariables).  The lexer rejects it in source programs.
FRESH_MARK = "#"

# Prefix of search and grounding metavariables: the variables that unify
# binds.  Every other variable is a rigid symbol.
META = "?"


def is_meta(name: str) -> bool:
    return name.startswith(META)


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


def free_vars(t: Term) -> frozenset[str]:
    return t._fv


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
    if name not in t._fv:
        return t
    if isinstance(t, Var):
        return value
    if isinstance(t, App):
        return App(subst1(t.fn, name, value), subst1(t.arg, name, value))
    if isinstance(t, Fix):
        return Fix(subst1(t.body, name, value))
    # an abstraction whose body has `name` free
    if t.var in value._fv:
        avoid = value._fv | t.body._fv | {name}
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
    return alpha_key(t1) == alpha_key(t2)


def alpha_key(t: Term) -> str:
    """A de Bruijn rendering of t, equal for two terms exactly when they are
    alpha-equal; computed once per node."""
    return _de_bruijn(t, {}, 0) if t._ak is None else t._ak


def _de_bruijn(t: Term, env: dict[str, int], depth: int) -> str:
    # prefix notation; a name is written with its length, so no name can run
    # into the next token.  A subterm with no variable bound here reads the
    # same as on its own: it shares that node's cached key, or computes and
    # caches it, so a new node over keyed subterms costs that node only.
    own = env.keys().isdisjoint(t._fv)
    if own and t._ak is not None:
        return t._ak
    if isinstance(t, Var):
        level = env.get(t.name)
        return f"v{len(t.name)}:{t.name}" if level is None else f"b{depth - level};"
    if isinstance(t, Con):
        return f"c{len(t.name)}:{t.name}"
    if isinstance(t, App):
        key = "@" + _de_bruijn(t.fn, env, depth) + _de_bruijn(t.arg, env, depth)
    elif isinstance(t, Lam):
        key = "l" + _de_bruijn(t.body, {**env, t.var: depth}, depth + 1)
    else:
        key = "f" + _de_bruijn(t.body, env, depth)
    if own:
        _AK(t, key)
    return key


def canonicalize(t: Term) -> Term:
    """Beta-normalize and rename binders so no binder shadows another name.

    Applied at module boundaries so later stages may compare structurally;
    a canonical term comes back itself.
    """
    t = beta_normalize(t)
    used = set(free_vars(t))

    def go(u: Term) -> Term:
        if isinstance(u, (Var, Con)):
            return u
        if isinstance(u, App):
            fn, arg = go(u.fn), go(u.arg)
            return u if fn is u.fn and arg is u.arg else App(fn, arg)
        if isinstance(u, Fix):
            body = go(u.body)
            return u if body is u.body else Fix(body)
        name = u.var
        if name in used or FRESH_MARK in name:
            name = fresh_name(u.var, used)
        used.add(name)
        body = go(rename_free(u.body, u.var, name) if name != u.var else u.body)
        return u if name == u.var and body is u.body else Lam(name, body)

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
    # built once: the types by name, the hash, and the memo of facts about
    # closed terms and formulas, successes only: `is_first_order` verdicts
    # under (term, expected), `typecheck` types under the term, True under
    # the `formulas.formula_key` of a formula that type-checks,
    # `formulas.in_fragment` answers under (key, role, calculus), and
    # `guardedness.is_guarded_fixed_point` reports under (term, GuardReport);
    # and the children `extend` made, under (name, type), whose str first
    # part no other pair key has
    _types: dict = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)
    _memo: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_types", dict(self.constants))
        object.__setattr__(self, "_hash", hash((self.constants,)))
        object.__setattr__(self, "_memo", {})

    def __hash__(self):
        return self._hash

    @staticmethod
    def of(mapping: dict[str, SimpleType]) -> "Signature":
        return Signature(tuple(sorted(mapping.items())))

    def lookup(self, name: str) -> Optional[SimpleType]:
        return self._types.get(name)

    def __contains__(self, name: str) -> bool:
        return self.lookup(name) is not None

    def extend(self, name: str, ty: SimpleType) -> "Signature":
        """The one child per (name, ty), so equal extensions share a memo."""
        child = self._memo.get((name, ty))
        if child is None:
            child = self._memo[name, ty] = Signature.of({**self._types, name: ty})
        return child

    def is_first_order_predicate(self, name: str) -> bool:
        return name in self._first_order_predicates

    @cached_property
    def _first_order_predicates(self) -> frozenset[str]:
        return frozenset(n for n, ty in self.constants if target_type(ty) == O and type_order(ty) <= 1
                         and not any(type_mentions(a, O) for a in argument_types(ty)))

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


@frozen_slots
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
        """ty with every solved unknown put in; ty itself where none is."""
        while isinstance(ty, _TMeta) and ty.ident in self.sol:
            ty = self.sol[ty.ident]
        if isinstance(ty, Arrow):
            arg, res = self.resolve(ty.arg), self.resolve(ty.res)
            return ty if arg is ty.arg and res is ty.res else Arrow(arg, res)
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
                raise TypeMismatch(f"circular type constraint at {brief(where)}")
            self.sol[a.ident] = b
            return
        if isinstance(b, _TMeta):
            self.unify(b, a, where)
            return
        if isinstance(a, Arrow) and isinstance(b, Arrow):
            self.unify(a.arg, b.arg, where)
            self.unify(a.res, b.res, where)
            return
        raise TypeMismatch(f"cannot match {brief(a)} with {brief(b)} at {brief(where)}")

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
            raise FixBodyNotAbstraction(f"fix body must be an abstraction: {brief(t.body)}")
        ty = self.meta()
        body = self.infer(t.body.body, {**env, t.body.var: ty})
        self.unify(ty, body, t)
        self.judgments.append((t, ty))
        return ty


def brief(x: Term | _InfType, cap: float = 60) -> str:
    """A term in source syntax, or a type, cut after `cap` characters."""
    out, todo = "", [x]
    while todo and len(out) <= cap:
        u = todo.pop()
        if isinstance(u, App):
            arg = [u.arg] if isinstance(u.arg, (Var, Con)) else [")", u.arg, "("]
            todo += arg + [" "] + ([u.fn] if isinstance(u.fn, (Var, Con, App)) else [")", u.fn, "("])
        elif isinstance(u, Arrow):
            todo += [u.res, " -> "] + ([")", u.arg, "("] if isinstance(u.arg, Arrow) else [u.arg])
        elif isinstance(u, (Lam, Fix)):
            todo += [u.body, f"\\{u.var}. " if isinstance(u, Lam) else "fix "]
        else:
            out += u if isinstance(u, str) else f"?{u.ident}" if isinstance(u, _TMeta) else u.name
    return out if len(out) <= cap else out[:cap] + "..."


def _ground(ty: _InfType, where: Term) -> SimpleType:
    if isinstance(ty, _TMeta):
        raise TypeMismatch(f"ambiguous type for {brief(where)}; add context or apply the term")
    if isinstance(ty, Arrow):
        return Arrow(_ground(ty.arg, where), _ground(ty.res, where))
    return ty


def typecheck(sig: Signature, ctx: Context, t: Term, expected: Optional[SimpleType] = None) -> SimpleType:
    """Infer the unique simple type of t, or raise.  The type of a closed
    term is memoised on the signature; an error is not, so it is raised
    again on every call."""
    closed = not ctx and expected is None
    ty = sig._memo.get(t) if closed else None
    if ty is None:
        inf, ty = _inferred(sig, ctx, t, expected)
        ty = _ground(inf.resolve(ty), t)
        if closed:
            sig._memo[t] = ty
    return ty


def _inferred(sig: Signature, ctx: Context, t: Term, expected: Optional[SimpleType]) -> tuple[_Infer, _InfType]:
    """An inference over t, with t's type, unified with expected if given;
    its judgments hold one per subterm occurrence, t's own last."""
    inf = _Infer(sig, ctx)
    ty = inf.infer(t, {})
    if expected is not None:
        inf.unify(ty, expected, t)
    return inf, ty


# ---------------------------------------------------------------------------
# Reduction
# ---------------------------------------------------------------------------


def beta_normalize(t: Term) -> Term:
    """Normal form under beta-reduction; fix is treated as an opaque constant."""
    if t._nf:
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
        if not u._fix:
            return u
        if isinstance(u, Lam):
            return Lam(u.var, go(u.body))
        return App(go(u.fn), go(u.arg))

    return beta_normalize(go(t))


# ---------------------------------------------------------------------------
# Bounded fix-beta equivalence
# ---------------------------------------------------------------------------

# Fix unfoldings per side that a bounded match tries: the one default of
# every such bound, `--fixbeta-bound` included.
UNFOLD_BOUND = 8

EQUAL = "Equal"
NOT_EQUAL = "NotEqual"
UNKNOWN = "Unknown"


def clash(a: Term, b: Term) -> bool:
    """Do a and b have different heads or arities at a position that both
    determine, or does a metavariable meet clashing counterparts there?

    A position headed by a fix or a metavariable is undetermined; constants,
    all other variables and abstractions are rigid.  Outside abstraction
    bodies, a metavariable's first occurrence on either side binds it to its
    counterpart on the other; each later counterpart is compared with that
    binding, binding nothing.  Every unifier makes all counterparts of a
    metavariable equal, and no substitution or fair unfolding changes a head
    at a determined position: a clash refutes every unifier of a and b, and
    of their unfoldings, and so their fix-beta equivalence.
    """
    return _clash(a, b, {})


def _clash(a: Term, b: Term, first: Optional[dict[str, Term]]) -> bool:
    # `first` holds each metavariable's first counterpart; None binds nothing
    for x, y in ((a, b), (b, a)) if first is not None else ():
        if isinstance(x, Var) and is_meta(x.name) and first.setdefault(x.name, y) is not y:
            if _clash(first[x.name], y, None):
                return True
    ha, aa = spine(a)
    hb, ab = spine(b)
    if _undetermined(ha) or _undetermined(hb):
        return False
    if len(aa) != len(ab) or type(ha) is not type(hb):
        return True
    if isinstance(ha, Lam):
        # compare bodies under a shared fresh name
        z = fresh_name("v", free_vars(ha.body) | free_vars(hb.body))
        if _clash(rename_free(ha.body, ha.var, z), rename_free(hb.body, hb.var, z), None):
            return True
    elif ha.name != hb.name:
        return True
    return any(_clash(x, y, first) for x, y in zip(aa, ab))


def _undetermined(head: Term) -> bool:
    return isinstance(head, Fix) or (isinstance(head, Var) and is_meta(head.name))


class UnfoldingWalk:
    """The pairs of i and j fair unfoldings of two beta-normal terms, at
    most `bound` per side, in (i + j, i, j) order.

    Each unfolding is built when a pair first needs it, into `chains`.  A
    side's chain ends at an unfolding with no fix, or at one that clashes
    with the other side's first term, which sets `clashed`: a clash refutes
    every later pair too (see `clash`); the bound never sets it.  Two first
    terms that clash give no pairs.
    """

    def __init__(self, a: Term, b: Term, bound: int):
        self.chains = ([a], [b])
        self._bound = bound
        self.clashed = clash(a, b)
        self._open = [True, True]

    def _term(self, side: int, k: int) -> Optional[Term]:
        chain = self.chains[side]
        if k < len(chain):
            return chain[k]
        if k > len(chain) or k > self._bound or not self._open[side] or not has_fix(chain[-1]):
            return None
        nxt = fair_unfold(chain[-1])
        if clash(nxt, self.chains[1 - side][0]):
            self._open[side] = False
            self.clashed = True
            return None
        chain.append(nxt)
        return nxt

    def __iter__(self) -> Iterator[tuple[Term, Term]]:
        if self.clashed:
            return
        for total in range(2 * self._bound + 1):
            tried = False
            for i in range(total + 1):
                a = self._term(0, i)
                if a is None:
                    break
                b = self._term(1, total - i)
                if b is not None:
                    tried = True
                    yield a, b
            if not tried:
                # both chains have ended: no pair has a larger sum either
                return


def fixbeta_equiv(t1: Term, t2: Term, bound: int = UNFOLD_BOUND) -> str:
    """Three-valued bounded test for fix-beta equivalence.

    Equal if some pair of the unfolding walk is alpha-equal; NotEqual if a
    clash ended the walk or the last unfoldings of the two sides clash;
    Unknown otherwise.
    """
    walk = UnfoldingWalk(beta_normalize(t1), beta_normalize(t2), bound)
    for a, b in walk:
        if alpha_key(a) == alpha_key(b):
            return EQUAL
    if walk.clashed or clash(walk.chains[0][-1], walk.chains[1][-1]):
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
    inf, _ty = _inferred(sig, ctx, t, expected)
    judgments = [(u, _ground(inf.resolve(ty), u)) for u, ty in inf.judgments]
    whole = judgments[-1][1]
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
    key = None if ctx else (t, expected)
    verdict = sig._memo.get(key)
    if verdict is None:
        try:
            verdict = first_order_report(sig, ctx, t, expected).verdict
        except TypeMismatch:
            # underconstrained terms (a bare unapplied fix, say) have no
            # unique type; they are never first order
            verdict = False
        if key is not None:
            sig._memo[key] = verdict
    return verdict


def is_first_order_atom(sig: Signature, ctx: Context, t: Term) -> bool:
    """Rigid atom with a first-order predicate head and first-order arguments."""
    head, args = spine(t)
    if not isinstance(head, Con) or not sig.is_first_order_predicate(head.name):
        return False
    if len(args) != len(argument_types(sig.lookup(head.name))):
        return False
    return all(is_first_order(sig, ctx, a) for a in args)
