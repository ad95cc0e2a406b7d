"""Syntactic guardedness: guarded fixed-point terms, guarded full terms,
guarded atoms, and the snapshot map onto first-order atoms."""

from __future__ import annotations

import itertools

from . import terms as tm
from .errors import CupError, NotAnAtom, PreconditionViolated
from .terms import (
    Con,
    DIAMOND,
    EQUAL,
    Fix,
    IOTA,
    Lam,
    Signature,
    Term,
    Var,
    record,
)


@record
class GuardReport:
    violations: tuple[tuple[object, str], ...] = ()

    @property
    def verdict(self) -> bool:
        return not self.violations


def _peel_lams(t: Term) -> tuple[list[str], Term]:
    names = []
    while isinstance(t, Lam):
        names.append(t.var)
        t = t.body
    return names, t


def is_guarded_fixed_point(sig: Signature, t: Term) -> GuardReport:
    """Check the four conditions on guarded fixed-point terms.

    The accepted shape is fix \\x. \\y1..ym. f L1..Lk (x N1..Nm) Lk+1..Lr
    with exactly one self-application among the constructor's arguments.
    """
    report = sig._memo.get((t, GuardReport))
    if report is None:
        report = sig._memo[t, GuardReport] = GuardReport(tuple(_violations(sig, t)))
    return report


def _violations(sig: Signature, t: Term) -> list[tuple[object, str]]:
    if not isinstance(t, Fix) or not isinstance(t.body, Lam):
        return [("full-term shape", "not of the form fix \\x. ...")]
    x = t.body.var
    params, core = _peel_lams(t.body.body)
    head, args = tm.spine(core)
    if not isinstance(head, Con):
        return [(2, "body head is not a constant")]
    head_ty = sig.lookup(head.name)
    if head_ty is None:
        return [(2, f"unknown constant {head.name}")]
    arg_tys = tm.argument_types(head_ty)
    if tm.target_type(head_ty) != IOTA or any(a != IOTA for a in arg_tys):
        return [(2, f"constructor {head.name} is not of type i -> ... -> i")]
    if len(args) != len(arg_tys):
        return [(2, f"constructor {head.name} is not fully applied")]
    if len({x, *params}) <= len(params):
        # a shadowed binder never occurs, so no renaming could make it guarded
        return [(4, f"binder names repeat in {[x, *params]}")]

    self_calls = []
    plain_args = []
    for a in args:
        h, sub = tm.spine(a)
        if isinstance(h, Var) and h.name == x:
            self_calls.append(sub)
        else:
            plain_args.append(a)
    if len(self_calls) != 1:
        return [(2, f"expected exactly one self-application, found {len(self_calls)}")]
    recursive_args = self_calls[0]
    violations: list[tuple[object, str]] = []
    if len(recursive_args) != len(params):
        violations.append((1, "self-application arity differs from the parameter count"))

    ctx = {p: IOTA for p in params}
    mentioned: set[str] = set()
    for a in plain_args + recursive_args:
        if x in tm.free_vars(a):
            violations.append((4, f"recursion variable occurs inside argument {tm.brief(a)}"))
            continue
        try:
            ok = tm.first_order(sig, ctx, a) and tm.typecheck(sig, ctx, a) == IOTA
        except CupError as exc:
            violations.append((3, f"argument {tm.brief(a)} cannot be typed: {exc}"))
            continue
        if not ok:
            violations.append((3, f"argument {tm.brief(a)} is not a first-order term of type i"))
        mentioned |= tm.free_vars(a)
    if mentioned != set(params):
        violations.append((4, f"free variables {sorted(mentioned)} differ from parameters {params}"))
    return violations


def is_guarded_full(sig: Signature, t: Term) -> bool:
    """First-order term, or a guarded fixed-point term fully applied to
    first-order arguments of type i."""
    if tm.is_first_order(sig, {}, t, expected=IOTA):
        return True
    head, args = tm.spine(t)
    if not isinstance(head, Fix) or not is_guarded_fixed_point(sig, head).verdict:
        return False
    try:
        # a guarded fixed point may still have an ambiguous type
        head_ty = tm.typecheck(sig, {}, head)
    except CupError:
        return False
    return len(args) == len(tm.argument_types(head_ty)) and all(
        tm.is_first_order(sig, {}, a, expected=IOTA) for a in args
    )


def _fold_candidates(sig: Signature, t: Term) -> bool:
    """Bounded search for a directly guarded full term fix-beta-equal to t."""
    subs = tm.subterms(t)
    fixes = [u for u in subs if isinstance(u, Fix) and is_guarded_fixed_point(sig, u).verdict]
    if not fixes:
        return False
    pool = [u for u in subs if not tm.free_vars(u) and tm.is_first_order(sig, {}, u, expected=IOTA)]
    for fx in fixes:
        arity = len(tm.argument_types(tm.typecheck(sig, {}, fx)))
        for combo in itertools.product(pool, repeat=arity):
            cand = tm.app(fx, *combo)
            if tm.fixbeta_equiv(t, cand, tm.UNFOLD_BOUND) == EQUAL:
                return True
    return False


def is_guarded_full_ext(sig: Signature, t: Term) -> bool:
    """Guarded full, possibly after folding back a bounded number of
    fix unfoldings (the fix-beta-equivalence allowance on guarded atoms)."""
    return is_guarded_full(sig, t) or _fold_candidates(sig, t)


def atom_parts(sig: Signature, t: Term) -> tuple[str, list[Term]]:
    """Head predicate name and argument list of a rigid atom."""
    head, args = tm.spine(t)
    if not isinstance(head, Con):
        raise NotAnAtom(f"{tm.brief(t)} is not a rigid atom")
    ty = sig.lookup(head.name)
    if ty is None or tm.target_type(ty) != tm.O:
        raise NotAnAtom(f"{head.name} is not a predicate")
    if len(args) != len(tm.argument_types(ty)):
        raise NotAnAtom(f"{head.name} is not fully applied in {tm.brief(t)}")
    return head.name, args


def is_guarded_atom(sig: Signature, t: Term) -> bool:
    """Rigid atom with first-order predicate head whose arguments are all
    guarded full terms, possibly up to bounded fix-beta equivalence."""
    name, args = atom_parts(sig, t)
    if not sig.is_first_order_predicate(name):
        return False
    return all(is_guarded_full_ext(sig, a) for a in args)


def _snap_term(sig: Signature, t: Term) -> Term:
    if tm.is_first_order(sig, {}, t, expected=IOTA):
        return t
    if is_guarded_full(sig, t):
        return Con(DIAMOND)
    head, args = tm.spine(t)
    if isinstance(head, Con) and args:
        return tm.app(head, *[_snap_term(sig, a) for a in args])
    raise PreconditionViolated(f"cannot take a snapshot of {tm.brief(t)}")


def snapshot(sig: Signature, atom: Term) -> Term:
    """Replace every non-first-order guarded full subterm of the atom by the
    reserved placeholder constant, yielding a first-order atom."""
    name, args = atom_parts(sig, atom)
    return tm.app(Con(name), *[_snap_term(sig, a) for a in args])
