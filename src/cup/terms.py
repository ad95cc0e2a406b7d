"""Simply-typed lambda terms with a fix primitive.

Types, signatures, type inference, substitution, alpha-equivalence,
beta-normalization, one-step fix unfolding, the bounded three-valued
fix-beta equivalence test, and the first-order predicate on terms.
All values are immutable and safe to share.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable

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


_NONE = object()  # a field with no default


class field:
    """A field declared in the body of a class that `record` builds: its
    default or default factory, and whether `__init__`, the repr and `==`
    take it; the hash takes the fields `==` takes."""

    __slots__ = ("default", "factory", "init", "repr", "compare")

    def __init__(self, default=_NONE, default_factory=None, init=True, repr=True, compare=True):
        self.default, self.factory, self.init, self.repr, self.compare = default, default_factory, init, repr, compare


class FrozenInstanceError(AttributeError):
    """A write to a field of a frozen record."""


def _frozen_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _record_reduce(self):
    # a copy or an unpickled frozen record is built again through `__init__`
    return type(self), tuple(getattr(self, n) for n, f in self._fields.items() if f.init)


def _record_repr(self):
    shown = (f"{n}={getattr(self, n)!r}" for n, f in self._fields.items() if f.repr)
    return f"{type(self).__qualname__}({', '.join(shown)})"


def record(cls=None, *, frozen=True):
    """`cls` as a record of the fields its annotations declare, after those
    of the record it extends, each with its plain default or as a `field`;
    its own fields are its slots, so no record has an instance dict.  What
    `cls` does not write itself it gets: an `__init__` that sets every
    field, an init=False one only to its default, then calls
    `__post_init__` if there is one; a repr of the repr=True fields; `==`
    on the compare=True fields.  A frozen record refuses every write past
    `__init__`, which writes through the slot setters, and its hash is that
    of those fields, or its `_hash` field if it declares one; a mutable one
    is unhashable.  The per-class methods, run per step, are compiled in
    one `exec` as `dataclasses` would write them; the rest is shared."""
    if cls is None:
        return lambda c: record(c, frozen=frozen)
    fields, own = dict(getattr(cls, "_fields", ())), dict(vars(cls))
    mine = {n: own.pop(n, _NONE) for n in own.get("__annotations__", ())}
    fields.update((n, f if isinstance(f, field) else field(f)) for n, f in mine.items())
    own = {k: v for k, v in own.items() if k not in ("__dict__", "__weakref__")}
    own.update(__slots__=tuple(mine), __qualname__=cls.__qualname__)
    cls = type(cls)(cls.__name__, cls.__bases__, own)
    ns, params, body, src = {"_NONE": _NONE}, [], [], []
    for i, (n, f) in enumerate(fields.items()):
        ns[f"d{i}"], ns[f"f{i}"] = f.default, f.factory
        if f.init:
            params.append(f"{n}=_NONE" if f.factory else n if f.default is _NONE else f"{n}=d{i}")
        if f.factory:
            value = f"f{i}() if {n} is _NONE else {n}" if f.init else f"f{i}()"
        elif f.init or f.default is not _NONE:
            value = n if f.init else f"d{i}"
        else:
            continue
        if frozen:
            ns[f"s{i}"] = getattr(cls, n).__set__
            body.append(f"s{i}(self, {value})")
        else:
            body.append(f"self.{n} = {value}")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    if "__init__" not in own:
        src.append(f"def __init__(self, {', '.join(params)}):\n    " + "\n    ".join(body or ["pass"]))
    compared = [n for n, f in fields.items() if f.compare]
    left, right = (f"({''.join(f'{side}.{n},' for n in compared)})" for side in ("self", "other"))
    if "__eq__" not in own:
        src.append("def __eq__(self, other):\n    if other.__class__ is self.__class__:\n"
                   f"        return {left}=={right}\n    return NotImplemented")
    if frozen and "__hash__" not in own:
        src.append(f"def __hash__(self):\n    return {'self._hash' if '_hash' in fields else f'hash({left})'}")
    made = {}
    exec("\n".join(src), ns, made)
    for n, fn in made.items():
        fn.__qualname__ = f"{cls.__qualname__}.{n}"
        setattr(cls, n, fn)
    if "__repr__" not in own:
        cls.__repr__ = _record_repr
    if frozen:
        cls.__setattr__, cls.__delattr__, cls.__reduce__ = _frozen_setattr, _frozen_delattr, _record_reduce
    elif "__hash__" not in own:
        cls.__hash__ = None
    cls._fields = fields
    return cls


def replace(rec, **changes):
    """A copy of a record with the given fields changed, built through its
    `__init__`, which takes no init=False field."""
    return type(rec)(**{n: getattr(rec, n) for n, f in rec._fields.items() if f.init} | changes)


def _slot_setters(cls) -> tuple:
    """The setters of the slots `cls` itself declares, in order: each
    writes its field in one call, past a frozen class's `__setattr__`."""
    return tuple(getattr(cls, name).__set__ for name in cls.__slots__)


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


@record
class Base:
    """A type variable such as o or i (the individual type)."""

    name: str

    def __repr__(self):
        return self.name


@record
class Arrow:
    arg: "SimpleType"
    res: "SimpleType"

    def __repr__(self):
        return brief(self, float("inf"))


SimpleType = Base | Arrow

O = Base("o")
IOTA = Base("i")


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


@record
class _Node:
    _hash: int = field(init=False, repr=False, compare=False)
    _fix: bool = field(init=False, repr=False, compare=False)
    _fv: frozenset[str] = field(init=False, repr=False, compare=False)
    _nf: bool = field(init=False, repr=False, compare=False)
    _ak: str | None = field(init=False, repr=False, compare=False)


_HASH, _FIX, _FV, _NF, _AK = _slot_setters(_Node)


@record
class Var(_Node):
    name: str

    def __init__(self, name: str):
        _VAR_NAME(self, name)
        _HASH(self, hash((name,)))
        _FIX(self, False)
        _FV(self, frozenset((name,)))
        _NF(self, True)
        _AK(self, None)


@record
class Con(_Node):
    name: str

    def __init__(self, name: str):
        _CON_NAME(self, name)
        _HASH(self, hash((name,)))
        _FIX(self, False)
        _FV(self, _CLOSED)
        _NF(self, True)
        _AK(self, None)


@record
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


@record
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


@record
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
    if base not in avoid:
        return base
    for n in itertools.count(1):
        cand = f"{base}{FRESH_MARK}{n}"
        if cand not in avoid:
            return cand
    raise AssertionError("unreachable")


class NameSupply:
    """Per-session monotone counter for eigenvariables and metavariables."""

    def __init__(self):
        self._next = 0

    def fresh(self, base: str) -> str:
        self._next += 1
        base = base.split(FRESH_MARK, 1)[0] or "c"
        return f"{base}{FRESH_MARK}{self._next}"


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


def replace_cons(t: Term, values: dict[str, Term]) -> Term:
    """Substitute terms for constants in one walk: the model construction
    treats eigenvariables as free variables, and reification renames them."""
    if isinstance(t, Con):
        return values.get(t.name, t)
    if isinstance(t, Var) or not values:
        return t
    if isinstance(t, App):
        return App(replace_cons(t.fn, values), replace_cons(t.arg, values))
    if isinstance(t, Lam):
        return Lam(t.var, replace_cons(t.body, values))
    return Fix(replace_cons(t.body, values))


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
    return alpha_key_within(t, {}, 0) if t._ak is None else t._ak


def alpha_key_within(t: Term, env: dict[str, int], depth: int) -> str:
    """The alpha key of t inside `depth` binders, env mapping each variable
    they bind to its binder's depth; with none, `alpha_key(t)`."""
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
        key = "@" + alpha_key_within(t.fn, env, depth) + alpha_key_within(t.arg, env, depth)
    elif isinstance(t, Lam):
        key = "l" + alpha_key_within(t.body, {**env, t.var: depth}, depth + 1)
    else:
        key = "f" + alpha_key_within(t.body, env, depth)
    if own:
        _AK(t, key)
    return key


# ---------------------------------------------------------------------------
# Signatures and contexts
# ---------------------------------------------------------------------------


@record
class Signature:
    """Finite map from constant names to simple types.

    Only non-logical constants are stored; connectives and quantifiers live
    at the formula level and never occur inside terms.
    """

    constants: tuple[tuple[str, SimpleType], ...] = ()
    # built once: the types by name, the hash, and the memo of facts about
    # closed terms and formulas, successes only: `is_first_order` verdicts
    # under (term, None), `typecheck` types under the term, True under
    # the `formulas.formula_key` of a formula that type-checks,
    # `formulas.classify`'s sets of calculi under (key, role), and
    # `guardedness.is_guarded_fixed_point` reports under (term, GuardReport);
    # and the children `extend` made, under (name, type), which no other
    # pair key equals: a term's pairs start with the term, a formula's end
    # in its role; and the first-order predicates' names
    _types: dict = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)
    _memo: dict = field(init=False, repr=False, compare=False)
    _fo_preds: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_types", dict(self.constants))
        object.__setattr__(self, "_hash", hash((self.constants,)))
        object.__setattr__(self, "_memo", {})
        object.__setattr__(self, "_fo_preds", frozenset(
            n for n, ty in self.constants if target_type(ty) == O and type_order(ty) <= 1
            and not any(type_mentions(a, O) for a in argument_types(ty))))

    @staticmethod
    def of(mapping: dict[str, SimpleType]) -> "Signature":
        return Signature(tuple(sorted(mapping.items())))

    def lookup(self, name: str) -> SimpleType | None:
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
        return name in self._fo_preds

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


@record
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


def typecheck(sig: Signature, ctx: Context, t: Term, expected: SimpleType | None = None) -> SimpleType:
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


def _inferred(sig: Signature, ctx: Context, t: Term, expected: SimpleType | None) -> tuple[_Infer, _InfType]:
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
        raise FixBodyNotAbstraction(f"fix body is not an abstraction: {brief(fx)}")
    return subst1(fx.body.body, fx.body.var, fx)


def _unfold_leftmost(t: Term) -> Term | None:
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
        raise NoFixRedex(f"no fix subterm in {brief(t)}")
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


def _clash(a: Term, b: Term, first: dict[str, Term] | None) -> bool:
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


def unfolding_walk(a: Term, b: Term, bound: int, test: Callable[[Term, Term], object]) -> object:
    """test's first answer other than None on the pairs of i and j fair
    unfoldings of a's and b's beta-normal forms, at most `bound` per side,
    in (i + j, i, j) order; else None if the walk refutes every pair, and
    UNKNOWN only if the bound cut a chain.

    Each unfolding is built when a pair first needs it.  A side's chain
    ends at an unfolding with no fix.  The walk stops with None at an
    unfolding that clashes with the other side's first term: a clash
    refutes every later pair too (see `clash`).  Two first terms that
    clash give no pairs.  After the walk, a chain still ends in a fix only
    if the bound cut it; the answer is then UNKNOWN unless the two last
    unfoldings clash.  Two chains that both ended answer None.
    """
    chains = ([beta_normalize(a)], [beta_normalize(b)])
    if clash(chains[0][0], chains[1][0]):
        return None
    for total in range(2 * bound + 1):
        tried = False
        for i in range(total + 1):
            for side, k in ((0, i), (1, total - i)):
                chain = chains[side]
                if k == len(chain) and k <= bound and has_fix(chain[-1]):
                    chain.append(fair_unfold(chain[-1]))
                    if clash(chain[-1], chains[1 - side][0]):
                        return None
            if i == len(chains[0]):
                break
            if total - i < len(chains[1]):
                tried = True
                answer = test(chains[0][i], chains[1][total - i])
                if answer is not None:
                    return answer
        if not tried:
            # both chains have ended: no pair has a larger sum either
            break
    last = chains[0][-1], chains[1][-1]
    return UNKNOWN if (has_fix(last[0]) or has_fix(last[1])) and not clash(*last) else None


def fixbeta_equiv(t1: Term, t2: Term, bound: int = UNFOLD_BOUND) -> str:
    """Three-valued bounded test for fix-beta equivalence: Equal if some
    pair of `unfolding_walk` is alpha-equal, else NotEqual where the walk
    refutes every pair and Unknown where the bound cut a chain."""
    answer = unfolding_walk(t1, t2, bound, lambda x, y: EQUAL if alpha_key(x) == alpha_key(y) else None)
    return NOT_EQUAL if answer is None else answer


# ---------------------------------------------------------------------------
# First-order terms
# ---------------------------------------------------------------------------


def first_order(sig: Signature, ctx: Context, t: Term) -> bool:
    """The five defining conditions of first-order terms, tested on grounded
    judgments: a base type for the term, order 0 or 1 for its constants,
    base types for its variables, no subterm of type o, no fix subterm.  An
    expected type would change no verdict: the only base types are i and o,
    and the term is its own subterm, so a first-order term has type i; any
    other would raise `TypeMismatch`, which `is_first_order` reads as False."""
    inf, _ty = _inferred(sig, ctx, t, None)
    judgments = [(u, _ground(inf.resolve(ty), u)) for u, ty in inf.judgments]
    return type_order(judgments[-1][1]) == 0 and not any(
        isinstance(u, Fix)
        or ty == O
        or (isinstance(u, Con) and type_order(ty) > 1)
        or (isinstance(u, Var) and type_order(ty) > 0)
        for u, ty in judgments
    )


def is_first_order(sig: Signature, ctx: Context, t: Term) -> bool:
    """Memoised on the signature for closed terms, one verdict per term;
    only verdicts are remembered, so an unbound name raises on every call."""
    key = None if ctx else (t, None)
    verdict = sig._memo.get(key)
    if verdict is None:
        try:
            verdict = first_order(sig, ctx, t)
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
