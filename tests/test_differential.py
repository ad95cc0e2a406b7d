"""Differential tests of the kernel's cached facts, the alpha keys of terms
and formulas, the lazy `unify_modulo` and `fixbeta_equiv`, the occurs check,
the one-walk renderer of guarded atoms, the render memo of `gfp_approx`, the
smallest closed term of reification, the proof round trip's memos
(formula keys, check's grammar answers), its parses and its writer
against straightforward reference code kept here or in `helpers`.

The term checks replay the seeded generator stream of the beta
type-preservation property (seed 102), so they run on cases that suite
already draws and leave the 10,000-case property budget unchanged.
"""

import collections
import itertools
import json
import random
import re
import sys
from pathlib import Path

import pytest

from cup import cli
from cup import engine as eng
from cup import formulas as fm
from cup import guardedness as gd
from cup import parser as ps
from cup import soundness as sd
from cup import terms as tm
from cup import trees as tr
from cup.errors import (
    CupError,
    DepthUnreachable,
    IllTyped,
    MalformedDocument,
    NotFirstOrder,
    PreconditionViolated,
    TypeMismatch,
    UnboundVariable,
    UniverseTooLarge,
)
from cup.formulas import Calculus
from cup.terms import IOTA, O, Con, Fix, Lam, Signature, Var

from helpers import (
    FR_STR, GEN_SIG, N_STR, Z_STR, C, V, A, L, alpha_eq_oracle, check_reference, debruijn, export_dict_reference,
    fn_type, formula_alpha_eq_reference, formula_as_term, gen_term, guarded_term_to_tree,
    proof_mutations, reify_reference, rename_binders, search_reference, slist, flat_document, tree_from_text,
    unshared_copy,
)
from test_properties import CASES

# the benchmark's seeded goals and its layer tracer
sys.path.insert(0, str(Path(__file__).parent.parent / "perfbench"))
import tracing  # noqa: E402
import workloads  # noqa: E402


def replayed_terms():
    """The terms TestTypePreservation.test_beta draws, with their normal
    forms and one fair unfolding of those that contain a fix."""
    rng = random.Random(102)
    out = []
    for _ in range(CASES["type_preservation"] // 3):
        ty = rng.choice([IOTA, fn_type(IOTA, IOTA)])
        t = gen_term(rng, ty, {}, rng.randint(0, 4))
        nf = tm.beta_normalize(t)
        out += [(t, ty), (nf, ty)]
        if tm.has_fix(nf):
            out.append((tm.fair_unfold(nf), ty))
    return out


# ---------------------------------------------------------------------------
# has_fix
# ---------------------------------------------------------------------------


def test_has_fix_matches_subterm_scan():
    for t, _ty in replayed_terms():
        assert tm.has_fix(t) == any(isinstance(u, Fix) for u in tm.subterms(t)), t


def test_cached_hash_is_structural():
    for t, _ty in replayed_terms()[:300]:
        rebuilt = _rebuild(t)
        assert rebuilt == t and rebuilt is not t
        assert hash(rebuilt) == hash(t)
        assert repr(rebuilt) == repr(t)


def _rebuild(t):
    if isinstance(t, Var):
        return Var(t.name)
    if isinstance(t, Con):
        return Con(t.name)
    if isinstance(t, tm.App):
        return tm.App(_rebuild(t.fn), _rebuild(t.arg))
    if isinstance(t, Lam):
        return Lam(t.var, _rebuild(t.body))
    return Fix(_rebuild(t.body))


# ---------------------------------------------------------------------------
# free variables, beta-normal flag, alpha keys
# ---------------------------------------------------------------------------


def free_vars_reference(t):
    if isinstance(t, Var):
        return {t.name}
    if isinstance(t, Con):
        return set()
    if isinstance(t, tm.App):
        return free_vars_reference(t.fn) | free_vars_reference(t.arg)
    if isinstance(t, Lam):
        return free_vars_reference(t.body) - {t.var}
    return free_vars_reference(t.body)


def replayed_subterms():
    """Every subterm of the replayed terms, open ones included, in a fixed
    order."""
    out = {}
    for t, _ty in replayed_terms():
        for u in sorted(tm.subterms(t), key=repr):
            out.setdefault(u, None)
    return list(out)


def test_cached_free_vars_match_a_walk():
    subterms = replayed_subterms()
    assert any(tm.free_vars(u) for u in subterms)
    for u in subterms:
        assert tm.free_vars(u) == free_vars_reference(u), u


def test_beta_normal_flag_matches_normalisation():
    subterms = replayed_subterms()
    redexes = 0
    for u in subterms:
        redexes += not u._nf
        assert u._nf == (tm.beta_normalize(u) == u), u
    assert redexes > 0


# binder shadowing, a constant and a variable of one name, and free and
# bound occurrences of one name
TRICKY_TERMS = [
    L("x", L("x", V("x"))), L("x", L("y", V("x"))), L("y", L("x", V("x"))), L("y", L("x", V("y"))),
    V("x"), C("x"), L("x", V("x")), L("x", C("x")), L("y", V("x")), L("x", V("y")),
    A(L("x", V("x")), V("x")), A(L("y", V("y")), V("x")), A(L("x", V("x")), V("y")),
    tm.Fix(L("x", V("x"))), tm.Fix(L("y", V("y"))), tm.Fix(L("y", V("x"))),
    L("x", A(V("x"), L("x", V("x")))), L("z", A(V("z"), L("x", V("x")))), L("z", A(V("z"), L("x", V("z")))),
    V("1:x"), V("1"), C("1:x"), A(V("1"), V(":x")),
]


def test_alpha_key_agrees_with_alpha_eq_oracle():
    rng = random.Random(7)
    subterms = replayed_subterms()
    pool = subterms[::max(1, len(subterms) // 250)] + TRICKY_TERMS
    pool += [rename_binders(rng, t) for t in pool]
    assert len(pool) > 400
    keys = [tm.alpha_key(t) for t in pool]
    equal_pairs = 0
    for i, a in enumerate(pool):
        for j in range(i + 1, len(pool)):
            same = alpha_eq_oracle(a, pool[j])
            equal_pairs += same and a != pool[j]
            assert (keys[i] == keys[j]) == same, (a, pool[j])
    # alpha-equal pairs that are not structurally equal
    assert equal_pairs > 100


def de_bruijn_walk(t, env=None, depth=0):
    """The alpha key written top-down in one walk, reading and keeping no
    cached key."""
    env = env or {}
    if isinstance(t, Var):
        level = env.get(t.name)
        return f"v{len(t.name)}:{t.name}" if level is None else f"b{depth - level};"
    if isinstance(t, Con):
        return f"c{len(t.name)}:{t.name}"
    if isinstance(t, tm.App):
        return "@" + de_bruijn_walk(t.fn, env, depth) + de_bruijn_walk(t.arg, env, depth)
    if isinstance(t, Lam):
        return "l" + de_bruijn_walk(t.body, {**env, t.var: depth}, depth + 1)
    return "f" + de_bruijn_walk(t.body, env, depth)


def test_alpha_keys_built_from_subterm_keys_match_the_top_down_walk():
    keyed = 0
    for u in replayed_subterms() + TRICKY_TERMS:
        want = de_bruijn_walk(u)
        # on new copies: keyed from the top, and keyed bottom-up, so that
        # each node is keyed over subterms that already are
        top_down, bottom_up = _rebuild(u), _rebuild(u)
        assert tm.alpha_key(top_down) == want, u
        for v in sorted(tm.subterms(bottom_up), key=lambda v: len(repr(v))):
            assert tm.alpha_key(v) == de_bruijn_walk(v), v
        assert tm.alpha_key(bottom_up) == want, u
        # every key the top-down walk kept on a subterm is that subterm's own
        for v in tm.subterms(top_down):
            if v._ak is not None:
                keyed += 1
                assert v._ak == de_bruijn_walk(v), v
    assert keyed > 1000


def _atom(*ts):
    return fm.Atom(A(*ts))


# shadowed binders, a variable and a constant of one name, Forall against
# Exists, one body under binders of types i and o, Conj against Disj, and a
# lambda inside an atom that reuses the formula binder's name
TRICKY_FORMULAS = [
    fm.Forall("x", IOTA, fm.Forall("x", IOTA, _atom(C("p"), V("x")))),
    fm.Forall("x", IOTA, fm.Forall("y", IOTA, _atom(C("p"), V("y")))),
    fm.Forall("y", IOTA, fm.Forall("x", IOTA, _atom(C("p"), V("y")))),
    fm.Forall("x", IOTA, _atom(C("p"), V("x"))),
    fm.Forall("x", IOTA, _atom(C("p"), C("x"))),
    _atom(C("p"), V("x")),
    _atom(C("p"), C("x")),
    fm.Exists("x", IOTA, _atom(C("p"), V("x"))),
    fm.Forall("x", O, _atom(C("p"), V("x"))),
    fm.Exists("z", O, _atom(C("p"), V("z"))),
    fm.Conj(_atom(C("p"), C("0")), _atom(C("p"), C("1"))),
    fm.Disj(_atom(C("p"), C("0")), _atom(C("p"), C("1"))),
    fm.Impl(_atom(C("p"), C("0")), _atom(C("p"), C("1"))),
    fm.Conj(fm.TOP, _atom(C("p"), C("1"))),
    fm.Forall("x", IOTA, _atom(C("q"), L("x", V("x")), V("x"))),
    fm.Forall("y", IOTA, _atom(C("q"), L("x", V("x")), V("y"))),
    fm.Forall("y", IOTA, _atom(C("q"), L("x", V("y")), V("y"))),
    fm.Forall("x", IOTA, _atom(C("q"), L("y", V("x")), V("x"))),
    fm.Forall("x", IOTA, _atom(C("q"), L("y", V("y")), V("x"))),
    fm.Forall("x", IOTA, _atom(C("q"), tm.Fix(L("x", A(C("s"), V("x")))), V("x"))),
]


def rename_formula_binders(rng, f):
    """An alpha-variant of f with its quantifier and lambda binders renamed."""
    if isinstance(f, fm.Atom):
        return fm.Atom(rename_binders(rng, f.term))
    if isinstance(f, fm.Top):
        return f
    if isinstance(f, (fm.Conj, fm.Disj, fm.Impl)):
        return type(f)(rename_formula_binders(rng, f.left), rename_formula_binders(rng, f.right))
    fresh = f"r{rng.randrange(1000)}"
    if fresh in fm.formula_free_vars(f.body):
        fresh = fresh + "x"
    body = fm.formula_substitute(f.body, f.var, Var(fresh))
    return type(f)(fresh, f.ty, rename_formula_binders(rng, body))


def test_formula_key_agrees_with_the_substitution_walk(regression_proofs):
    found = []
    for program, _goal, _calc, res in regression_proofs.values():
        back = ps.import_proof(ps.export_proof(res.tree, program), program)
        for tree in (res.tree, back):
            for node in tree.nodes():
                seq = node.sequent
                found += [e.formula for e in seq.entries] + [seq.goal]
                found += [seq.focus] if seq.focus is not None else []
    rng = random.Random(11)
    pool = list(dict.fromkeys(found + TRICKY_FORMULAS))
    pool += [rename_formula_binders(rng, f) for f in pool]
    assert len(pool) > 100

    def atoms(f):
        if isinstance(f, fm.Atom):
            return [f.term]
        if isinstance(f, fm.Top):
            return []
        if isinstance(f, (fm.Conj, fm.Disj, fm.Impl)):
            return atoms(f.left) + atoms(f.right)
        return atoms(f.body)

    # the key does not beta-normalise; the parser and every rule keep atoms normal
    assert all(tm.beta_normalize(a) == a for f in pool for a in atoms(f))
    equal_pairs = 0
    for i, f in enumerate(pool):
        for g in pool[i + 1:]:
            same = formula_alpha_eq_reference(f, g)
            equal_pairs += same and f != g
            assert fm.formula_alpha_eq(f, g) == same, (f, g)
    # alpha-equal pairs that are not structurally equal
    assert equal_pairs > 50


# ---------------------------------------------------------------------------
# resolution and the occurs check
# ---------------------------------------------------------------------------


def resolve_reference(t, s):
    """Rebuilds every node, resolving variables through s."""
    if isinstance(t, Var):
        seen = set()
        while isinstance(t, Var) and t.name in s:
            if t.name in seen:
                break
            seen.add(t.name)
            t = s[t.name]
        return t if isinstance(t, Var) else resolve_reference(t, s)
    if isinstance(t, Con):
        return t
    if isinstance(t, tm.App):
        return tm.App(resolve_reference(t.fn, s), resolve_reference(t.arg, s))
    if isinstance(t, Lam):
        return Lam(t.var, resolve_reference(t.body, s))
    return Fix(resolve_reference(t.body, s))


def occurs_reference(name, t, s):
    return any(isinstance(u, Var) and u.name == name for u in tm.subterms(resolve_reference(t, s)))


def test_occurs_check_matches_resolve_then_scan():
    # metavariables are never binders: the free variables of the replayed
    # subterms become metavariables, and each substitution binds some of
    # them, acyclically, as unification does
    rng = random.Random(11)
    pool = [tm.substitute(u, [(n, Var("?" + n)) for n in sorted(tm.free_vars(u))])
            for u in replayed_subterms()[:1500]]
    metas = sorted({n for u in pool for n in tm.free_vars(u)})
    assert metas
    hits = 0
    for _case in range(300):
        order = rng.sample(metas, len(metas))
        s = {}
        for i, m in enumerate(order[: rng.randrange(len(order))]):
            later = set(order[i + 1:])
            choices = [u for u in rng.sample(pool, 40) if tm.free_vars(u) <= later]
            if choices:
                s[m] = rng.choice(choices)
        for t in rng.sample(pool, 20):
            assert eng.resolve_term(t, s) == resolve_reference(t, s), (t, s)
            for name in metas:
                if name in s:
                    continue
                want = occurs_reference(name, t, s)
                hits += want
                assert eng._occurs(name, t, s) == want, (name, t, s)
    assert hits > 0


# ---------------------------------------------------------------------------
# is_first_order
# ---------------------------------------------------------------------------


def first_order_reference(sig, t, expected):
    """Uncached verdict, or the type of the error it raises."""
    try:
        return tm.first_order(sig, {}, t, expected)
    except TypeMismatch:
        return False
    except CupError as exc:
        return type(exc)


def first_order_memoised(sig, t, expected):
    try:
        return tm.is_first_order(sig, {}, t, expected)
    except CupError as exc:
        return type(exc)


def test_memoised_first_order_agrees_with_report():
    # a signature without s makes some generated terms raise UnboundConstant
    small = Signature.of({n: ty for n, ty in GEN_SIG.constants if n != "s"})
    extra = [(Fix(Lam("x", Var("x"))), None), (Var("y"), None), (Var("y"), IOTA),
             (Con("0"), IOTA), (Con("0"), fn_type(IOTA, IOTA)), (Con("scons"), None)]
    raised = 0
    for sig in (Signature.of(dict(GEN_SIG.constants)), small):
        for t, ty in replayed_terms() + extra:
            for expected in (None, ty):
                want = first_order_reference(sig, t, expected)
                raised += isinstance(want, type)
                # twice: the second call is answered from the memo, or
                # raises again when the first one raised
                assert first_order_memoised(sig, t, expected) == want, (t, expected)
                assert first_order_memoised(sig, t, expected) == want, (t, expected)
    assert raised > 0


# ---------------------------------------------------------------------------
# type resolution
# ---------------------------------------------------------------------------


def type_resolve_reference(inf, ty):
    """Resolves solved type unknowns, rebuilding every arrow."""
    while isinstance(ty, tm._TMeta) and ty.ident in inf.sol:
        ty = inf.sol[ty.ident]
    if isinstance(ty, tm.Arrow):
        return tm.Arrow(type_resolve_reference(inf, ty.arg), type_resolve_reference(inf, ty.res))
    return ty


def _atoms_in_context(f, ctx):
    """(context, term) for every atom of the formula f, the context holding
    the types of the quantifiers above it."""
    if isinstance(f, fm.Atom):
        yield ctx, f.term
    elif isinstance(f, (fm.Conj, fm.Disj, fm.Impl)):
        yield from _atoms_in_context(f.left, ctx)
        yield from _atoms_in_context(f.right, ctx)
    elif isinstance(f, (fm.Forall, fm.Exists)):
        yield from _atoms_in_context(f.body, {**ctx, f.var: f.ty})


def test_resolve_keeps_every_inferred_type_and_returns_an_unchanged_one_itself():
    # the replayed stream, and every clause atom and fixed-point definition
    # of the corpus
    cases = [(GEN_SIG, {}, t) for t, _ty in replayed_terms()]
    for name in CORPUS:
        program = ps.parse_program((Path(ps.__file__).parent / "corpus" / f"{name}.cup").read_text())
        sig = program.signature
        cases += [(sig, ctx, t) for c in program.clauses for ctx, t in _atoms_in_context(c, {})]
        cases += [(sig, {}, t) for _n, t in program.fix_definitions]
    kept = 0
    for sig, ctx, t in cases:
        inf, _ty = tm._inferred(sig, ctx, t, None)
        for u, ty in inf.judgments:
            got, want = inf.resolve(ty), type_resolve_reference(inf, ty)
            assert got == want, (tm.brief(u), got, want)
            assert (got is ty) == (want == ty), (tm.brief(u), ty)
            kept += got is ty and isinstance(ty, tm.Arrow)
    assert kept > 0


# ---------------------------------------------------------------------------
# unify_modulo
# ---------------------------------------------------------------------------


def unify_modulo_reference(a, b, s, bound):
    """Build both unfolding chains, then try every pair in (i + j, i, j)
    order: the first unifier; else None if neither chain ends in a fix,
    since no bound cut either; else None if some pair clashes, which
    refutes every pair, and UNKNOWN if none does: the bound cut a chain."""

    def fixed(t):
        return any(isinstance(u, Fix) for u in tm.subterms(t))

    def chain(t):
        out = [tm.beta_normalize(t)]
        for _ in range(bound):
            if not fixed(out[-1]):
                break
            out.append(tm.fair_unfold(out[-1]))
        return out

    va = chain(eng.resolve_term(a, s))
    vb = chain(eng.resolve_term(b, s))
    pairs = sorted(((i, j) for i in range(len(va)) for j in range(len(vb))), key=lambda ij: (ij[0] + ij[1], ij))
    for i, j in pairs:
        s1 = eng.unify(va[i], vb[j], s)
        if s1 is not None:
            return s1
    if not (fixed(va[-1]) or fixed(vb[-1])):
        return None
    return None if any(tm.clash(x, y) for x in va for y in vb) else tm.UNKNOWN


def matched(answer):
    """A three-valued answer as `unify_modulo` gives it: UNKNOWN is no match."""
    return None if answer is tm.UNKNOWN else answer


def walk_unify(a, b, s, bound):
    """The unfolding walk read with `unify`: a unifier, None or UNKNOWN."""
    return tm.unfolding_walk(eng.resolve_term(a, s), eng.resolve_term(b, s), bound, lambda x, y: eng.unify(x, y, s))


def _recorded_calls(monkeypatch, run):
    calls = []
    real = eng.unify_modulo

    def record(a, b, s, bound):
        calls.append((a, b, dict(s), bound))
        return real(a, b, s, bound)

    with monkeypatch.context() as m:
        m.setattr(eng, "unify_modulo", record)
        run()
    return calls


def _head_matches(monkeypatch, run):
    """(head, atom, path) of each head match that `justifications` makes
    while run() runs, in order: path "match" for the one-way matcher,
    whose recursion goes through the patched name too and is left out, and
    "modulo" for `unify_modulo`."""
    calls, nesting = [], [0]
    real_match, real_modulo = tr._match, eng.unify_modulo

    def match(p, t, s):
        if not nesting[0]:
            calls.append((p, t, "match"))
        nesting[0] += 1
        try:
            return real_match(p, t, s)
        finally:
            nesting[0] -= 1

    def modulo(a, b, s, bound):
        calls.append((a, b, "modulo"))
        return real_modulo(a, b, s, bound)

    with monkeypatch.context() as m:
        m.setattr(tr, "_match", match)
        m.setattr(eng, "unify_modulo", modulo)
        run()
    return calls


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_lazy_unify_modulo_matches_eager_at_the_bound(k):
    # a pattern k cells deep matches a stream only after k unfoldings
    pattern = A(C("bitstream"), slist(*[V(f"?x{i}") for i in range(k)], V("?tail")))
    for stream in (Z_STR, A(N_STR, C("1"))):
        atom = A(C("bitstream"), stream)
        for bound in (k - 1, k, k + 1):
            got = eng.unify_modulo(pattern, atom, {}, bound)
            assert got == matched(unify_modulo_reference(pattern, atom, {}, bound)), (k, bound)
            assert (got is not None) == (bound >= k), (k, bound)
            # and from the other side
            assert eng.unify_modulo(atom, pattern, {}, bound) == matched(unify_modulo_reference(atom, pattern, {}, bound))


# (pattern, stream): the stream's k-th fair unfolding is the first to
# clash with the pattern, for k = 1 and k = 2; the None pair matches after
# two unfoldings; in the last pair the clash is with the rigid variable x
ZEROS = A(N_STR, C("0"))
CLASH_AFTER = [
    (1, A(C("bitstream"), slist(C("1"), V("?t"))), A(C("bitstream"), ZEROS)),
    (2, A(C("bitstream"), slist(V("?x"), C("1"), V("?t"))), A(C("bitstream"), ZEROS)),
    (1, A(C("bitstream"), slist(V("?x"), C("1"), V("?t"))), A(C("bitstream"), slist(V("?y"), ZEROS))),
    (2, A(C("eq"), V("?x"), slist(C("0"), C("1"), V("?t"))), A(C("eq"), C("0"), ZEROS)),
    (None, A(C("bitstream"), slist(V("?x"), C("0"), V("?t"))), A(C("bitstream"), ZEROS)),
    (1, A(C("bitstream"), slist(V("x"), V("?t"))), A(C("bitstream"), ZEROS)),
]


@pytest.mark.parametrize("k,pattern,stream", CLASH_AFTER)
def test_unify_modulo_ends_a_chain_at_a_stable_clash(monkeypatch, k, pattern, stream):
    unfolds = []
    real = tm.fair_unfold

    def counted(t):
        unfolds.append(t)
        return real(t)

    for bound in (1, 2, 3, 8):
        for a, b in ((pattern, stream), (stream, pattern)):
            want = unify_modulo_reference(a, b, {}, bound)
            assert (matched(want) is not None) == (k is None and bound >= 2), (a, b, bound)
            # a clash within the bound is refuted, not undecided
            assert (want is None) == (k is not None and bound >= k), (a, b, bound)
            assert walk_unify(a, b, {}, bound) == want, (a, b, bound)
            unfolds.clear()
            with monkeypatch.context() as m:
                m.setattr(tm, "fair_unfold", counted)
                assert eng.unify_modulo(a, b, {}, bound) == matched(want), (a, b, bound)
            # the stream is unfolded up to the clash, not up to the bound
            assert len(unfolds) <= min(bound, k or 2), (a, b, bound)


def _heads(program):
    """The program's clause heads, as `gfp_approx` matches them: universals
    renamed to metavariables."""
    return [head for head, _body, _metas in tr._clauses_with_metas(program.h_clauses())]


def test_nonlinear_heads_match_eager_and_fail_after_one_unfolding(monkeypatch, from_program, fibs_program):
    # the head's two occurrences of a metavariable meet counterparts that
    # differ after one unfolding of the atom, or agree (the matching cases)
    (from_head,) = _heads(from_program)
    add_head = _heads(fibs_program)[0]
    assert add_head == A(C("add"), C("0"), V("?u0#0"), V("?u0#0"))

    def atom(program, text):
        return ps.parse_goal(text, program).term

    cases = [
        (from_head, atom(from_program, "from 0 (fr_str (s 0))"), {}),
        (from_head, atom(from_program, "from (s 0) (fr_str 0)"), {}),
        (from_head, atom(from_program, "from 0 (fr_str 0)"), {}),
        (from_head, atom(from_program, "from (s 0) (fr_str (s 0))"), {}),
        (A(C("eq"), V("?x"), V("?x")), A(C("eq"), Z_STR, A(N_STR, C("1"))), {}),
        (add_head, atom(fibs_program, "add 0 (fib_str 0 (s 0)) 0"), {}),
        (add_head, atom(fibs_program, "add 0 (s 0) (fib_str 0 (s 0))"), {}),
        (add_head, atom(fibs_program, "add 0 (fib_str 0 (s 0)) (fib_str (s 0) 0)"), {}),
        # metavariables on both sides, the atom's partly bound, as search
        # passes them
        (from_head, A(C("from"), V("?k"), A(FR_STR, V("?m"))), {"?k": C("0"), "?m": A(C("s"), V("?n"))}),
        (from_head, A(C("from"), V("?k"), A(FR_STR, V("?m"))), {"?k": V("?m"), "?m": A(C("s"), V("?n"))}),
    ]
    unfolds, unifies = [], []
    real_unfold, real_unify = tm.fair_unfold, eng.unify

    def counted_unfold(t):
        unfolds.append(t)
        return real_unfold(t)

    def counted_unify(a, b, s):
        # the nesting of the call: 0 for unify_modulo's own, more for
        # unify's recursion, which goes through the patched name too
        unifies.append(nesting[0])
        nesting[0] += 1
        try:
            return real_unify(a, b, s)
        finally:
            nesting[0] -= 1

    nesting = [0]
    outcomes = collections.Counter()
    for head, atom, s in cases:
        for bound in (1, 2, 3, 8):
            for a, b in ((head, atom), (atom, head)):
                want = matched(unify_modulo_reference(a, b, s, bound))
                unfolds.clear()
                unifies.clear()
                with monkeypatch.context() as m:
                    m.setattr(tm, "fair_unfold", counted_unfold)
                    m.setattr(eng, "unify", counted_unify)
                    assert eng.unify_modulo(a, b, s, bound) == want, (a, b, s, bound)
                outcomes[want is not None] += 1
                if want is None:
                    assert len(unfolds) <= 1 and unifies.count(0) <= 1, (a, b, s, bound, unifies.count(0))
    assert outcomes == {False: 56, True: 24}, outcomes


WALK_PROGRAM = """
const 0 : i. const 1 : i. const scons : i -> i -> i.
const p : i -> o. const q : i -> i -> o.
def z_str = fix \\x. scons 0 x.
p [0|0|0|0|0|0|0|0|0|0|X].
q X [X|Y].
"""


def test_unfolding_walk_tells_a_clash_from_the_bound():
    # the p atom would match only past the bound, so only the bound ends its
    # walk; the q atom's second argument starts with 0, not 1, after one
    # unfolding, which is a clash
    program = ps.parse_program(WALK_PROGRAM)
    p_head, q_head = _heads(program)
    for head, goal, pairs, answer in ((p_head, "p z_str", 9, tm.UNKNOWN), (q_head, "q 1 z_str", 1, None)):
        atom = ps.parse_goal(goal, program).term
        for a, b in ((head, atom), (atom, head)):
            seen = []
            # a test that answers None on every pair counts the pairs the walk reads
            got = tm.unfolding_walk(a, b, 8, lambda x, y: seen.append((x, y)))
            assert (len(seen), got) == (pairs, answer), (goal, a)


# (a, b, answer): each pair fails `unify` only by the occurs check, which
# `clash` cannot see. The first two walks end within the bound, s ?x being
# fix-free and (fix \f. \y. s y) ?x fix-free after one unfolding, so
# nothing is left undecided: None. z_str never ends, so the bound cuts the
# last walk: UNKNOWN, though no unfolding would ever match
FIX_S = Fix(L("f", L("y", A(C("s"), V("y")))))
ENDED_OR_CUT = [
    (V("?x"), A(C("s"), V("?x")), None),
    (V("?x"), A(FIX_S, V("?x")), None),
    (A(C("p"), V("?x"), Z_STR), A(C("p"), A(C("s"), V("?x")), Z_STR), tm.UNKNOWN),
]


@pytest.mark.parametrize("a,b,answer", ENDED_OR_CUT)
def test_the_walk_answers_unknown_only_where_the_bound_cut_a_chain(a, b, answer):
    for x, y in ((a, b), (b, a)):
        assert walk_unify(x, y, {}, 8) is unify_modulo_reference(x, y, {}, 8) is answer, (x, y)
        assert eng.unify_modulo(x, y, {}, 8) is None, (x, y)


def test_a_fix_free_walk_clashes_once_and_unfolds_nothing(monkeypatch):
    calls = []
    real_clash, real_unfold = tm.clash, tm.fair_unfold
    monkeypatch.setattr(tm, "clash", lambda x, y: calls.append("clash") or real_clash(x, y))
    monkeypatch.setattr(tm, "fair_unfold", lambda t: calls.append("unfold") or real_unfold(t))
    assert walk_unify(V("?x"), A(C("s"), V("?x")), {}, 8) is None
    assert calls == ["clash"]


TWO_STREAMS = """
const 0 : i. const scons : i -> i -> i. const eq : i -> i -> o.
def z_str = fix \\x. scons 0 x.
eq X X.
"""
RENDER_CASES = [
    ("bitstream", "bitstream z_str"),
    ("bitstream", "bitstream (n_str 0)"),
    ("bitstream", "bitstream [0|1|1|z_str]"),
    ("bitstream", "bitstream [1|0|n_str 1]"),
    ("from", "from 0 (fr_str 0)"),
    ("from", "from (s 0) [s 0|s (s 0)|fr_str (s (s (s 0)))]"),
    ("fibs", "fibs 0 (s 0) (fib_str 0 0)"),
    ("fibs", "fibs 0 (s 0) [0|s 0|s 0|s (s 0)|s (s (s 0))|fib_str 0 0]"),
    ("two_streams", "eq z_str (scons 0 z_str)"),
]


def _render_program(name, request):
    if name == "two_streams":
        return ps.parse_program(TWO_STREAMS)
    return request.getfixturevalue(f"{name}_program")


@pytest.mark.parametrize("name,goal", RENDER_CASES)
def test_one_walk_renderer_matches_the_round_based_reference(name, goal, request):
    program = _render_program(name, request)
    sig = program.signature
    atom = ps.parse_goal(goal, program).term
    for depth in range(9):
        got = tr.atom_to_tree(sig, atom, depth)
        assert got == guarded_term_to_tree(sig, atom, depth), (goal, depth)


def test_one_walk_renderer_raises_as_the_reference_does(bitstream_program):
    sig = bitstream_program.signature
    higher = Signature.of({"q": fn_type(fn_type(IOTA, IOTA), O)})
    cases = [
        (sig, ps.parse_goal("bitstream (fix \\x. x)", bitstream_program).term, 3),
        # the unguarded stream sits below the cut, yet the check sees it
        (sig, ps.parse_goal("bitstream [0|0|0|0|0|fix \\x. x]", bitstream_program).term, 2),
        (higher, A(C("q"), L("x", V("x"))), 2),
    ]
    for s, atom, depth in cases:
        got = _outcome(lambda: tr.atom_to_tree(s, atom, depth))
        want = _outcome(lambda: guarded_term_to_tree(s, atom, depth))
        assert isinstance(got, tuple) and got[0] is want[0], (tm.brief(atom), got, want)


CORPUS = ("bitstream", "comember", "fibs", "from", "member")
# `s 0` sits at node depth 1 and, once `fr_str (s 0)` unfolds, at node depth
# 2: one call meets it at two remaining depths
TWO_DEPTHS_GOAL = {"from": "from (s 0) (fr_str (s 0))"}


def _argumentwise_reference(sig):
    """The round-based reference on atoms, each argument's tree found once
    per remaining depth: a fair unfolding of an atom unfolds every argument
    in step, so its tree is its arguments' trees under its predicate.  An
    atom without a snapshot gets the whole-atom reference's error."""
    refs = {}

    def reference(atom, depth):
        if tm.is_first_order_atom(sig, {}, atom):
            return tr.truncate(tr.term_to_tree(sig, atom), depth)
        t = tm.beta_normalize(atom)
        try:
            gd.snapshot(sig, t)
        except CupError:
            return _outcome(lambda: guarded_term_to_tree(sig, atom, depth))
        if depth == 0:
            return tr.STAR_LEAF
        head, args = tm.spine(t)
        for a in args:
            if (a, depth - 1) not in refs:
                refs[a, depth - 1] = guarded_term_to_tree(sig, a, depth - 1)
        return tr.Tree(head.name, tuple(refs[a, depth - 1] for a in args))

    return reference


# the guarded atoms of the model and audit workloads: bitstream prefixes over
# z_str, n_str 0 and n_str 1, and from k (fr_str m)
WORKLOAD_ATOMS = {
    "bitstream": [f"bitstream [{bits}|{tail}]" if bits else f"bitstream ({tail})"
                  for bits in ("", "0", "1|0", "0|1|1") for tail in ("z_str", "n_str 0", "n_str 1")],
    "from": [f"from {k} (fr_str {m})" for k in ("0", "(s 0)", "(s (s 0))") for m in ("0", "(s 0)", "(s (s 0))")],
}
ONES = "fix \\x. scons 1 x"
# atoms over the bitstream signature that do not render, with the class of
# their error; the `ONES` atom raises only while no unfolding exposes a
# constructor, which the test brings about
ERROR_ATOMS = [
    ("bitstream (fix \\x. x)", PreconditionViolated),
    ("bitstream [0|fix \\x. x]", PreconditionViolated),
    (A(C("bit"), A(L("x", V("x")), C("0"))), NotFirstOrder),
    (f"bitstream ({ONES})", DepthUnreachable),
]


def _alike_through_one_memo(sig, atom, depth, memo):
    """The atom's outcome through the memo, asserted equal on a second call
    through it and on a call through a fresh memo."""
    got = _outcome(lambda: tr.atom_to_tree(sig, atom, depth, memo))
    assert _outcome(lambda: tr.atom_to_tree(sig, atom, depth, memo)) == got, (tm.brief(atom), depth)
    assert _outcome(lambda: tr.atom_to_tree(sig, atom, depth)) == got, (tm.brief(atom), depth)
    return got


@pytest.mark.parametrize("name", CORPUS)
def test_memoised_walk_matches_the_references_on_universe_atoms(name, fresh_program, monkeypatch):
    # one memo per depth across all the atoms, as a grounding shares it; each
    # atom rendered twice through it and once through a fresh memo
    program = fresh_program(name)
    sig = program.signature
    reference = _argumentwise_reference(sig)
    atoms = tr._universe_seeds(tr.grounding(program, tr.InstanceConfig(), 0))
    if name in TWO_DEPTHS_GOAL:
        atoms = [ps.parse_goal(TWO_DEPTHS_GOAL[name], program).term] + atoms
    guarded = [ps.parse_goal(text, program).term for text in WORKLOAD_ATOMS.get(name, ())]
    for depth in range(9):
        memo = {}
        for atom in atoms + (guarded if 1 <= depth <= 6 else []):
            got = _alike_through_one_memo(sig, atom, depth, memo)
            assert got == reference(atom, depth), (tm.brief(atom), depth)
        if name == "bitstream" and 1 <= depth <= 6:
            # a failure is raised alike on every call and stored nowhere
            for text, error in ERROR_ATOMS:
                atom = ps.parse_goal(text, program).term if isinstance(text, str) else text
                with monkeypatch.context() as m:
                    # no unfolding exposes a constructor
                    m.setattr(tm, "fair_unfold", lambda t: t)
                    got = _alike_through_one_memo(sig, atom, depth, memo)
                raised = got[0] if isinstance(got, tuple) else None
                assert raised is (None if error is DepthUnreachable and depth == 1 else error), (tm.brief(atom), depth)
                # once unfoldings expose one, only the ONES atom renders
                got = _alike_through_one_memo(sig, atom, depth, memo)
                assert isinstance(got, tr.Tree) == (error is DepthUnreachable), (tm.brief(atom), depth)
        if name in TWO_DEPTHS_GOAL and depth >= 3:
            s0 = A(C("s"), C("0"))
            assert {k[1] for k in memo if isinstance(k, tuple) and k[0] == s0} >= {depth - 1, depth - 2}
        if name == "from":
            # the argument-wise reference agrees with the whole-atom one
            for atom in atoms:
                assert reference(atom, depth) == _outcome(lambda: guarded_term_to_tree(sig, atom, depth))


@pytest.mark.parametrize("depth", [0, 2, 4])
def test_gfp_approx_raises_the_render_error_of_a_seed(depth, fresh_program):
    # an atom that does not render is never dropped from the approximation:
    # it raises what `atom_to_tree` raises for it, and so does an open atom
    program = fresh_program("bitstream")
    cases = [(text, error) for text, error in ERROR_ATOMS if error is not DepthUnreachable]
    for text, error in cases + [(A(C("bitstream"), V(f"{tm.META}x")), UnboundVariable)]:
        atom = ps.parse_goal(text, program).term if isinstance(text, str) else text
        with pytest.raises(error):
            tr.atom_to_tree(program.signature, atom, depth)
        with pytest.raises(error):
            tr.gfp_approx(program, depth, tr.InstanceConfig(seed_atoms=(atom,)))


@pytest.mark.parametrize("name", CORPUS)
def test_justifications_tries_every_clause_in_order(monkeypatch, name, fresh_program):
    program = fresh_program(name)
    g = tr.grounding(program, tr.InstanceConfig(), 3)
    # a flexible atom, which no one-way match serves
    atoms = tr._universe_seeds(g) + [A(V("P"), C("0"))]
    for atom in atoms:
        got = []
        # every head match, one way or through unify_modulo
        calls = _head_matches(monkeypatch, lambda: got.extend(tr.justifications(atom, g)))
        assert [h for h, _atom, _path in calls] == [head for head, _body, _metas in g.uni.renamed], tm.brief(atom)
        # one-way matching for closed fix-free pairs, unify_modulo for the rest
        closed = not (tm.free_vars(atom) or tm.has_fix(atom)) and tm.beta_normalize(atom) == atom
        for head, _atom, path in calls:
            one_way = closed and not tm.has_fix(head) and tm.beta_normalize(head) == head
            assert path == ("match" if one_way else "modulo"), (tm.brief(atom), tm.brief(head))
        # the same bodies, in the same order, as the reference
        assert got == [body for body, _open in justifications_reference(atom, g)], tm.brief(atom)


def justifications_reference(atom, g):
    """(body, whether the head left a body variable open) of each clause
    instance, each body resolved from the clause under the head's
    substitution with the open variables bound to one pool combination."""
    for head, body, metas in g.uni.renamed:
        s = eng.unify_modulo(head, atom, {}, tm.UNFOLD_BOUND)
        if s is None:
            continue
        unbound = [m for m in metas if eng.unresolved_metas(Var(m), s)]
        for combo in itertools.product(*[g.uni.pool[:tr.BODY_VAR_POOL] for _ in unbound]):
            s2 = {**s, **dict(zip(unbound, combo))}
            resolved = [tm.beta_normalize(eng.resolve_term(b, s2)) for b in body]
            if not any(tm.is_meta(n) for r in resolved for n in tm.free_vars(r)):
                yield resolved, bool(unbound)


def kept_universe(program, term_size=3):
    """The one universe the program keeps, which must be that of the term
    size."""
    assert list(program._universes) == [term_size]
    return program._universes[term_size]


@pytest.mark.parametrize("name", CORPUS)
def test_justifications_match_the_per_combination_resolution(name, fresh_program):
    # every atom the universe justified at depth 2, in the order found, then
    # the gfp seeds: the fibs universe seeds are all `add` atoms, so in fibs
    # only the gfp seed leaves a body variable open
    program = fresh_program(name)
    tr.gfp_approx(program, 2, tr.InstanceConfig())
    uni = kept_universe(program)
    g = tr.grounding(program, tr.InstanceConfig(), 2)
    seeds = [ps.parse_goal(goal, program).term for n, goal in GFP_SEEDS if n == name]
    opened = collections.Counter()
    for atom in list(uni.bodies) + seeds:
        want = list(justifications_reference(atom, g))
        assert list(tr.justifications(atom, g)) == [body for body, _open in want], tm.brief(atom)
        if atom in uni.bodies:
            assert uni.bodies[atom] == tuple(tuple(body) for body, _open in want), tm.brief(atom)
        opened.update(open_ for _body, open_ in want)
    assert bool(opened[True]) == (name in ("comember", "fibs"))
    if name == "comember":
        # the universe's 1 304 bodies and the seed's one
        assert (opened[True], opened.total()) == (1000, 1305)


MODEL_CASES = [
    ("bitstream", "bitstream [0|1|n_str 0]", 3),
    ("from", "from (s 0) (fr_str (s 0))", 2),
    ("member", "member 0 [1|0|nil]", 3),
    ("comember", "comember_bit 0 [1|0|0]", 2),
]


@pytest.mark.parametrize("name,goal,depth", MODEL_CASES)
def test_lazy_unify_modulo_matches_eager_on_gfp_atoms(monkeypatch, name, goal, depth, fresh_program):
    program = fresh_program(name)
    atom = ps.parse_goal(goal, program).term
    cfg = tr.InstanceConfig(seed_atoms=(atom,))
    calls = _head_matches(monkeypatch, lambda: tr.gfp_approx(program, depth, cfg))
    assert calls
    heads = {a for a, _b, _path in calls}
    atoms = {b for _a, b, _path in calls}
    bound = tm.UNFOLD_BOUND
    # the fix-free programs match every head one way, so the matcher stands
    # in for unify_modulo there
    fix_free = name in ("member", "comember")
    assert {path for _a, _b, path in calls} == ({"match"} if fix_free else {"match", "modulo"})
    unify = (lambda head, a: tr._match(head, a, {})) if fix_free else (lambda head, a: eng.unify_modulo(head, a, {}, bound))
    # every corpus clause head against every atom gfp_approx tried to justify
    answers = collections.Counter()
    for head in heads:
        for a in atoms:
            want = unify_modulo_reference(head, a, {}, bound)
            assert unify(head, a) == matched(want), (head, a)
            # the walk read with `unify` gives the reference's third answer too
            assert walk_unify(head, a, {}, bound) == want, (head, a)
            answers["match" if isinstance(want, dict) else want] += 1
    assert answers["match"] > 0 and answers[None] > 0, answers


def _meta_occurrences(t):
    """The metavariable occurrences of a first-order term, left to right."""
    if isinstance(t, tm.App):
        return _meta_occurrences(t.fn) + _meta_occurrences(t.arg)
    return [t.name] if isinstance(t, Var) and tm.is_meta(t.name) else []


# the predicates of each fix-free program's heads with a repeated
# metavariable: drop X [X|T] T, eq X X and member X [X|T]
NONLINEAR = {"member67": {"eq"}, "member": {"eq", "member"}, "comember": {"drop"}}


@pytest.mark.parametrize("name", NONLINEAR)
def test_the_matcher_is_unify_modulo_on_every_pair_gfp_approx_tries(monkeypatch, name, fresh_program):
    # every (renamed head, atom) pair of the fix-free programs at depths 2-4
    # takes the matcher, whose substitution is the eager reference's
    program = fresh_program(name)
    calls = []
    for depth in (2, 3, 4):
        calls += _head_matches(monkeypatch, lambda: tr.gfp_approx(program, depth, tr.InstanceConfig()))
    assert calls and {path for _h, _a, path in calls} == {"match"}
    outcomes = collections.Counter()
    for head, atom, _path in set(calls):
        got = tr._match(head, atom, {})
        # the matcher is exact: the reference never answers UNKNOWN here
        want = unify_modulo_reference(head, atom, {}, tm.UNFOLD_BOUND)
        assert got == want == walk_unify(head, atom, {}, tm.UNFOLD_BOUND), (head, atom)
        metas = _meta_occurrences(head)
        if len(set(metas)) < len(metas):
            outcomes[tm.spine(head)[0].name, got is not None] += 1
    # each non-linear head both admits and rejects some atom
    assert {p for p, _ok in outcomes} == NONLINEAR[name]
    assert all(outcomes[p, True] and outcomes[p, False] for p in NONLINEAR[name]), outcomes


def test_a_fix_headed_lemma_keeps_unify_modulo(monkeypatch, fresh_program):
    # the lemma's head holds n_str's fix: only the unfolding walk matches it
    program = fresh_program("bitstream")
    lemma = fm.HClause((), (), ps.parse_goal("bitstream [0|n_str 0]", program).term)
    reports = []
    calls = _head_matches(monkeypatch, lambda: reports.append(sd.conservative_extension_check(program, [lemma], 4)))
    paths = {path for head, _atom, path in calls if head == lemma.head}
    assert tm.has_fix(lemma.head) and paths == {"modulo"}
    assert reports[0].equal and not (reports[0].only_in_original or reports[0].only_in_extended)


@pytest.mark.parametrize("name,goal,calc", [
    ("bitstream", "bitstream [0|n_str 0]", Calculus.HOHC),
    ("from", "forall x. from x (fr_str x)", Calculus.HOHH),
])
def test_lazy_unify_modulo_matches_eager_in_search(monkeypatch, name, goal, calc, request):
    # search passes partial substitutions, which the model side never does
    program = request.getfixturevalue(f"{name}_program")
    g = ps.parse_goal(goal, program)
    calls = _recorded_calls(monkeypatch, lambda: eng.coprove(program, g, eng.SearchConfig(calculus=calc)))
    assert any(s for _a, _b, s, _bound in calls)
    for a, b, s, bound in calls:
        want = unify_modulo_reference(a, b, s, bound)
        assert eng.unify_modulo(a, b, s, bound) == matched(want), (a, b, s)
        assert walk_unify(a, b, s, bound) == want, (a, b, s)


# ---------------------------------------------------------------------------
# fixbeta_equiv
# ---------------------------------------------------------------------------


def fixbeta_equiv_reference(t1, t2, bound):
    """Build both chains, then compare every pair with the alpha oracle."""

    def chain(t):
        out = [tm.beta_normalize(t)]
        for _ in range(bound):
            if not tm.has_fix(out[-1]):
                break
            out.append(tm.fair_unfold(out[-1]))
        return out

    c1, c2 = chain(t1), chain(t2)
    if any(alpha_eq_oracle(a, b) for a in c1 for b in c2):
        return tm.EQUAL
    if tm.clash(c1[-1], c2[-1]):
        return tm.NOT_EQUAL
    return tm.UNKNOWN


def test_fixbeta_equiv_unfolds_only_as_far_as_a_match(monkeypatch):
    # one unfolding of each side meets: z_str against its own first unfolding
    unfolds = []
    real = tm.fair_unfold

    def counted(t):
        unfolds.append(t)
        return real(t)

    monkeypatch.setattr(tm, "fair_unfold", counted)
    assert tm.fixbeta_equiv(Z_STR, A(C("scons"), C("0"), Z_STR), 8) == tm.EQUAL
    assert len(unfolds) <= 2


def _fold_candidate_pairs(fresh_program):
    """(t1, t2, bound) of every fixbeta_equiv call of _fold_candidates on
    the gfp atoms of the model cases and on their first two unfoldings,
    which fold back, then pairs that stay undecided, or meet only after
    unfolding both sides, one of them up to the bound."""
    calls = []
    real = tm.fixbeta_equiv

    def record(t1, t2, bound=8):
        calls.append((t1, t2, bound))
        return real(t1, t2, bound)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(tm, "fixbeta_equiv", record)
        for name, goal, depth in MODEL_CASES:
            program = fresh_program(name)
            cfg = tr.InstanceConfig(seed_atoms=(ps.parse_goal(goal, program).term,))
            for reps in tr.gfp_approx(program, depth, cfg).reps.values():
                for atom in reps:
                    for _ in range(3):
                        gd.is_guarded_atom(program.signature, atom)
                        if not tm.has_fix(atom):
                            break
                        atom = tm.fair_unfold(atom)
    zeros_twice = Fix(L("y", slist(C("0"), C("0"), Z_STR)))
    for bound in range(4):
        calls += [(Z_STR, ZEROS, bound), (Z_STR, zeros_twice, bound), (zeros_twice, Z_STR, bound)]
    return calls


def test_fixbeta_equiv_matches_reference_on_fold_candidates(fresh_program):
    verdicts = collections.Counter()
    for t1, t2, bound in _fold_candidate_pairs(fresh_program):
        want = fixbeta_equiv_reference(t1, t2, bound)
        verdicts[want] += 1
        assert tm.fixbeta_equiv(t1, t2, bound) == want, (t1, t2)
    assert verdicts[tm.EQUAL] and verdicts[tm.NOT_EQUAL] and verdicts[tm.UNKNOWN], verdicts


# ---------------------------------------------------------------------------
# gfp_approx
# ---------------------------------------------------------------------------


def test_cached_tree_hash_is_structural(bitstream_program, member_program):
    # the value the dataclass-generated hash gives, so set orders stay put
    def nodes(t):
        yield t
        for c in t.children:
            yield from nodes(c)

    trees = set()
    for program in (bitstream_program, member_program):
        trees |= tr.gfp_approx(program, 4, tr.InstanceConfig()).atoms
    assert trees
    for t in trees:
        rebuilt = tree_from_text(tr.tree_to_text(t))
        assert rebuilt == t and hash(rebuilt) == hash(t) and repr(rebuilt) == repr(t)
        assert all(hash(u) == hash((u.label, u.children)) for u in nodes(t))


def gfp_approx_reference(program, depth, cfg):
    """The loop without a render memo: an atom is rendered again on every
    visit, and a representative is skipped only after a scan of the alpha
    oracle's encodings of those seen behind its key."""
    sig = program.signature
    g = tr.grounding(program, cfg, depth)
    nodes, reps_seen, codes_seen, derived_count, expansions = {}, {}, {}, {}, {}
    # the configured seeds under the universe seeds, popped from the end
    work = [(a, True) for a in list(cfg.seed_atoms) + tr._universe_seeds(g)]
    while work:
        a, is_seed = work.pop()
        key = tr.atom_to_tree(sig, a, depth)
        reps_here = reps_seen.setdefault(key, [])
        # the encodings of reps_here, in its order
        codes_here = codes_seen.setdefault(key, [])
        code = debruijn(a)
        if any(code == c for c in codes_here):
            continue
        if not is_seed and derived_count.get(key, 0) >= 4:
            continue
        if key not in nodes:
            nodes[key] = a
            expansions[key] = []
        reps_here.append(a)
        codes_here.append(code)
        if not is_seed:
            derived_count[key] = derived_count.get(key, 0) + 1
        for body in tr.justifications(a, g):
            expansions[key].append([tr.atom_to_tree(sig, b, depth) for b in body])
            work.extend((b, False) for b in body)
    alive = set(nodes)
    changed = True
    while changed:
        changed = False
        for key in list(alive):
            if not any(all(k in alive for k in body) for body in expansions[key]):
                alive.discard(key)
                changed = True
    return alive, {k: tuple(reps_seen[k]) for k in alive}


def _share_justifications(monkeypatch):
    """Patch `trees.justifications` to find each atom's bodies once: they do
    not depend on the depth and are not under test here, and sharing them
    between the loops and the depths keeps fibs affordable."""
    bodies = {}
    real_justifications = tr.justifications

    def shared_justifications(atom, g):
        if atom not in bodies:
            bodies[atom] = list(real_justifications(atom, g))
        return iter(bodies[atom])

    monkeypatch.setattr(tr, "justifications", shared_justifications)


GFP_SEEDS = [(name, goal) for name, goal, _depth in MODEL_CASES] + [("fibs", "fibs 0 0 [0|0]")]


@pytest.mark.parametrize("name,goal", GFP_SEEDS)
def test_memoised_gfp_approx_matches_reference(monkeypatch, name, goal, fresh_program):
    # the default InstanceConfig plus one seeded atom, as `cup model --goal`
    program = fresh_program(name)
    cfg = tr.InstanceConfig(seed_atoms=(ps.parse_goal(goal, program).term,))
    rendered = []
    real_render = tr.atom_to_tree

    def counted_render(sig, atom, depth, memo=None):
        rendered.append(atom)
        return real_render(sig, atom, depth, memo)

    _share_justifications(monkeypatch)
    for depth in (2, 3, 4):
        expected = gfp_approx_reference(program, depth, cfg)
        rendered.clear()
        with monkeypatch.context() as m:
            m.setattr(tr, "atom_to_tree", counted_render)
            got = tr.gfp_approx(program, depth, cfg)
        assert (set(got.atoms), got.reps) == expected, (name, depth)
        # each distinct term is rendered at most once per call
        assert rendered and len(rendered) == len(set(rendered)), (name, depth)


# a dead chain that whole-pass elimination drops one link per pass (t has
# no clause, so t dies first, then r, q and p), a cycle that stays alive, and
# a key k with one dead body and one live one
ELIMINATION_TEXT = """
const 0 : i.
const s : i -> i.
const p : i -> o.
const q : i -> o.
const r : i -> o.
const t : i -> o.
const c : i -> o.
const k : i -> o.
p X :- q X.
q X :- r X.
r X :- t X.
c X :- c X.
k X :- t X.
k X :- c X.
"""


def test_whole_pass_elimination_matches_the_in_place_loop_beyond_the_corpus():
    program = ps.parse_program(ELIMINATION_TEXT)
    cfg = tr.InstanceConfig()
    for depth in (2, 3, 4):
        got = tr.gfp_approx(program, depth, cfg)
        assert _listing(got) == gfp_approx_reference(program, depth, cfg), depth
        if depth == 2:
            assert tr.export_interpretation(got) == "depth 2\nc(0)\nc(s(*))\nk(0)\nk(s(*))\n"
    assert tr.export_interpretation(got).splitlines()[1:] == [
        f"{p}({t})" for p in "ck" for t in ("0", "s(0)", "s(s(0))")
    ]


# a second seed for each model case; the member one adds keys to those the
# universe reaches: 23 atoms at depth 4, against 21 without it
SECOND_SEEDS = {
    "bitstream": "bitstream [1|0|z_str]",
    "from": "from 0 (fr_str 0)",
    "member": "member 0 [1|1|0|nil]",
    "comember": "comember_bit (f 0) [1|0]",
}


def _listing(approx):
    return set(approx.atoms), approx.reps


@pytest.mark.parametrize("name,goal,_depth", MODEL_CASES)
def test_gfp_approx_on_an_explored_universe_matches_fresh_and_reference(
        monkeypatch, name, goal, _depth, fresh_program):
    # one program across seeds A, B, A at each depth: the first call explores
    # the universe, the next two resume from what it kept
    _share_justifications(monkeypatch)
    program = fresh_program(name)
    seeds = {s: ps.parse_goal(s, program).term for s in (goal, SECOND_SEEDS[name])}
    for depth in (2, 3, 4):
        expected = {}
        for s in (goal, SECOND_SEEDS[name], goal):
            cfg = tr.InstanceConfig(seed_atoms=(seeds[s],))
            got = _listing(tr.gfp_approx(program, depth, cfg))
            if s not in expected:
                assert got == _listing(tr.gfp_approx(fresh_program(name), depth, cfg)), (name, depth, s)
                expected[s] = gfp_approx_reference(program, depth, cfg)
            assert got == expected[s], (name, depth, s)


def _snapshot(explored):
    return (
        {k: tuple(v.items()) for k, v in explored.reps.items()},
        dict(explored.derived_count),
        {k: frozenset(v) for k, v in explored.expansions.items()},
    )


def _universe_snapshot(uni):
    return (
        {d: _snapshot(explored) for d, explored in uni.explored.items()},
        list(uni.pool),
        list(uni.seeds),
        list(uni.atoms.items()),
        list(uni.bodies.items()),
        {d: list(keys.items()) for d, keys in uni.keys.items()},
        list(uni.renamed),
    )


def _copied_states(monkeypatch):
    """The states `gfp_approx` copies from a kept one, as the calls leave
    them."""
    states = []
    real_copy = tr._Explored.copy
    monkeypatch.setattr(tr._Explored, "copy", lambda self: states.append(real_copy(self)) or states[-1])
    return states


def _grown_keys(kept, state):
    """The keys of a kept state's snapshot to which `state` adds a
    representative or a body."""
    reps, _counts, expansions = kept
    now = _snapshot(state)
    return [k for k in reps if now[0][k] != reps[k] or now[2][k] != expansions[k]]


# per program a depth, a seed whose exploration adds a representative or a
# body to a key that the depth's kept state holds, and the atoms listed
# without and with it; the bitstream seed adds two keys as well
GROWING_SEEDS = {
    "bitstream": (4, "bitstream [0|1|1|z_str]", 4, 6),
    "comember": (2, "comember_bit 0 [1|0|0]", 14, 14),
    "from": (3, "from 0 [0|fr_str 0]", 5, 5),
    "member": (2, "member 0 [1|1|0|nil]", 7, 7),
}


@pytest.mark.parametrize("name", sorted(GROWING_SEEDS))
def test_gfp_approx_leaves_the_explored_universe_unchanged(name, fresh_program, monkeypatch):
    depth, text, plain, seeded = GROWING_SEEDS[name]
    program = fresh_program(name)
    assert len(tr.gfp_approx(program, depth, tr.InstanceConfig()).atoms) == plain
    uni = kept_universe(program)
    (explored,) = uni.explored.values()
    assert list(uni.explored) == [depth]
    before = _universe_snapshot(uni)
    seed = ps.parse_goal(text, program).term
    cfg = tr.InstanceConfig(seed_atoms=(seed,))
    expected = _listing(tr.gfp_approx(fresh_program(name), depth, cfg))
    states = _copied_states(monkeypatch)
    got = tr.gfp_approx(program, depth, cfg)
    assert len(got.atoms) == seeded and _listing(got) == expected
    assert _grown_keys(before[0][depth], states[0])
    assert len(tr.gfp_approx(program, depth, tr.InstanceConfig()).atoms) == plain
    kept = kept_universe(program)
    assert kept is uni and list(uni.explored.items()) == [(depth, explored)]
    # the seeded call neither read nor filled the universe's bodies
    assert _universe_snapshot(uni) == before
    assert seed not in uni.atoms


def test_a_seeded_call_that_raises_leaves_the_universe_as_it_was(fresh_program, monkeypatch):
    # at depth 4 the seed adds to kept keys and meets two keys that the
    # depth does not keep, one more than the cap lets in
    program = fresh_program("bitstream")
    tr.gfp_approx(program, 4, tr.InstanceConfig())
    uni = kept_universe(program)
    before = _universe_snapshot(uni)
    cfg = tr.InstanceConfig(seed_atoms=(ps.parse_goal(GROWING_SEEDS["bitstream"][1], program).term,))
    states = _copied_states(monkeypatch)
    monkeypatch.setattr(tr, "MAX_ATOMS", len(uni.explored[4].expansions) + 1)
    for _ in range(2):
        with pytest.raises(UniverseTooLarge):
            tr.gfp_approx(program, 4, cfg)
    assert len(states) == 2 and all(_grown_keys(before[0][4], state) for state in states)
    assert _universe_snapshot(uni) == before
    monkeypatch.undo()
    assert _listing(tr.gfp_approx(program, 4, cfg)) == _listing(tr.gfp_approx(fresh_program("bitstream"), 4, cfg))


def test_universe_too_large_is_raised_on_every_call(fresh_program, monkeypatch):
    program = fresh_program("bitstream")
    monkeypatch.setattr(tr, "MAX_ATOMS", 3)
    for _ in range(2):
        with pytest.raises(UniverseTooLarge):
            tr.gfp_approx(program, 4, tr.InstanceConfig())
    assert not program._universes


def test_a_depth_too_large_leaves_the_kept_universe_as_it_was(fresh_program, monkeypatch):
    # from's universe meets atoms at depth 6 that it does not at depth 2;
    # one key fewer than depth 6 needs makes it run out after meeting them
    deep = fresh_program("from")
    tr.gfp_approx(deep, 6, tr.InstanceConfig())
    deep_uni = kept_universe(deep)
    program = fresh_program("from")
    listing = tr.export_interpretation(tr.gfp_approx(program, 2, tr.InstanceConfig()))
    uni = kept_universe(program)
    bodies_before = len(uni.bodies)
    monkeypatch.setattr(tr, "MAX_ATOMS", len(deep_uni.explored[6].expansions) - 1)
    added = []
    real_bodies_of = tr._Universe.bodies_of

    def watched_bodies_of(self, atom, g):
        added.append(atom not in self.bodies)
        return real_bodies_of(self, atom, g)

    monkeypatch.setattr(tr._Universe, "bodies_of", watched_bodies_of)
    for _ in range(2):
        with pytest.raises(UniverseTooLarge):
            tr.gfp_approx(program, 6, tr.InstanceConfig())
    assert any(added)
    kept = kept_universe(program)
    assert kept is uni and list(uni.keys) == [2] and list(uni.explored) == [2]
    # the bodies the failed depth added stay, and no depth changes a body:
    # each equals a fresh program's, and depth 2 lists as a fresh program's
    assert len(uni.bodies) > bodies_before
    fresh = fresh_program("from")
    g = tr.grounding(fresh, tr.InstanceConfig(), 6)
    for atom, bodies in uni.bodies.items():
        assert bodies == tuple(tuple(body) for body in tr.justifications(atom, g)), tm.brief(atom)
    monkeypatch.undo()
    assert tr.export_interpretation(tr.gfp_approx(program, 2, tr.InstanceConfig())) == listing
    assert tr.export_interpretation(tr.gfp_approx(fresh, 2, tr.InstanceConfig())) == listing


# the depths each corpus program's universe is explored at: from and
# comember cost the most per depth
SHARED_DEPTHS = {"member": (2, 3, 4, 5, 6), "bitstream": (2, 3, 4, 5, 6), "from": (2, 3), "comember": (2, 3)}


def _outputs(approx, atom, sig):
    reps = {tr.tree_to_text(k): [tm.alpha_key(r) for r in v] for k, v in approx.reps.items()}
    verdict = None if atom is None else tr.member_of_model(atom, approx, sig)
    return tr.export_interpretation(approx), reps, verdict


@pytest.mark.parametrize("name", sorted(SHARED_DEPTHS))
def test_one_universe_across_depths_matches_a_fresh_program_per_depth(name, fresh_program):
    # the model block's queries on this program, asked at every depth
    queries = [q.atom for block in workloads.blocks("model", 1, 2) for q in block if q.program == name]
    depths = list(SHARED_DEPTHS[name])
    random.Random(f"shared-universe:{name}").shuffle(depths)
    shared = fresh_program(name)
    for depth in depths:
        fresh = fresh_program(name)
        for text in [None] + queries:
            atom = None if text is None else ps.parse_goal(text, shared).term
            cfg = tr.InstanceConfig(seed_atoms=() if atom is None else (atom,))
            got = _outputs(tr.gfp_approx(shared, depth, cfg), atom, shared.signature)
            want = _outputs(tr.gfp_approx(fresh, depth, cfg), atom, fresh.signature)
            assert got == want, (name, depth, text)
    uni = kept_universe(shared)
    assert sorted(uni.explored) == sorted(depths)


def test_each_universe_atom_is_justified_once_across_depths(fresh_program, monkeypatch):
    program = fresh_program("member")
    calls = collections.Counter()
    real_justifications = tr.justifications

    def counted(atom, g):
        calls[atom] += 1
        return real_justifications(atom, g)

    monkeypatch.setattr(tr, "justifications", counted)
    for depth in (2, 3, 4, 5, 6):
        tr.gfp_approx(program, depth, tr.InstanceConfig())
    uni = kept_universe(program)
    assert set(calls) == set(uni.bodies)
    assert set(calls.values()) == {1}
    # a fresh program per depth justifies the shared atoms again
    calls.clear()
    for depth in (2, 3, 4, 5, 6):
        tr.gfp_approx(fresh_program("member"), depth, tr.InstanceConfig())
    assert sum(calls.values()) > len(uni.bodies)


@pytest.mark.parametrize("name", ["member", "bitstream"])
def test_stored_bodies_are_interned_and_equal_a_fresh_recomputation(name, fresh_program):
    program = fresh_program(name)
    for depth in (2, 4):
        tr.gfp_approx(program, depth, tr.InstanceConfig())
    uni = kept_universe(program)
    assert all(uni.atoms[a] is a for a in uni.seeds)
    g = tr.grounding(program, tr.InstanceConfig(), 3)
    for atom, bodies in uni.bodies.items():
        assert uni.atoms[atom] is atom
        assert all(uni.atoms[b] is b for body in bodies for b in body), atom
        assert bodies == tuple(tuple(body) for body in tr.justifications(atom, g)), atom


def test_verify_postfixed_builds_its_pool_once(monkeypatch, regression_proofs):
    program, _goal, calc, res = regression_proofs["bitstream"]
    cfg = tr.InstanceConfig()
    cand = sd.build_candidate(res.tree, program, 2, 1, calc)
    merged = sd.merge_with_model(cand, program, cfg)
    calls = collections.Counter()

    def counted(name):
        real = getattr(tr, name)

        def run(*args):
            calls[name] += 1
            return real(*args)

        return run

    for name in ("universe_terms", "justify"):
        monkeypatch.setattr(tr, name, counted(name))
    # through the merge's grounding no pool is built, through a new one once
    assert sd.verify_postfixed(merged, program, cfg) == (True, None)
    assert calls["justify"] > 1 and calls["universe_terms"] == 0
    assert sd.verify_postfixed(tm.replace(merged, grounding=None), program, cfg) == (True, None)
    assert calls["universe_terms"] == 1


def _counted(monkeypatch, name, counts, at=0):
    """Patch `trees.<name>` to record its positional argument `at` in
    `counts`."""
    real = getattr(tr, name)

    def run(*args):
        counts.append(args[at])
        return real(*args)

    monkeypatch.setattr(tr, name, run)


@pytest.mark.parametrize("name,goal,depth", MODEL_CASES)
def test_a_warm_gfp_approx_renders_only_what_the_depth_did_not_keep(monkeypatch, name, goal, depth, fresh_program):
    texts = [goal, SECOND_SEEDS[name]] + [g for n, g in RENDER_CASES if n == name]
    # a cold call with a seed the universe does not reach keeps what one
    # without seeds does
    program, plain = fresh_program(name), fresh_program(name)
    tr.gfp_approx(program, depth, tr.InstanceConfig(seed_atoms=(ps.parse_goal(texts[-1], program).term,)))
    tr.gfp_approx(plain, depth, tr.InstanceConfig())
    uni, plain_uni = kept_universe(program), kept_universe(plain)
    before = _universe_snapshot(uni)
    assert before == _universe_snapshot(plain_uni)
    rendered = []
    for text in texts:
        seed = ps.parse_goal(text, program).term
        cfg = tr.InstanceConfig(seed_atoms=(seed,))
        with monkeypatch.context() as m:
            _counted(m, "atom_to_tree", rendered, at=1)
            got = _listing(tr.gfp_approx(program, depth, cfg))
        assert got == _listing(tr.gfp_approx(fresh_program(name), depth, cfg)), text
    assert rendered and not set(rendered) & uni.keys[depth].keys()
    assert _universe_snapshot(uni) == before


@pytest.mark.parametrize("name", ["member67", "bitstream", "from", "comember"])
def test_verify_postfixed_reads_the_universe_gfp_approx_kept(monkeypatch, name, regression_proofs, fresh_program):
    _session_program, _goal, calc, res = regression_proofs[name]
    program, cfg, depth = fresh_program(name), tr.InstanceConfig(), 3
    merged = sd.merge_with_model(sd.build_candidate(res.tree, program, depth, 2, calc), program, cfg)
    uni = kept_universe(program)
    rendered, justified = [], []
    _counted(monkeypatch, "atom_to_tree", rendered, at=1)
    _counted(monkeypatch, "justifications", justified)
    assert sd.verify_postfixed(merged, program, cfg) == (True, None)
    assert not set(rendered) & uni.keys[depth].keys()
    assert not set(justified) & uni.bodies.keys()
    # the universe's own atoms are among the representatives justified
    assert {r for reps in merged.reps.values() for r in reps} & uni.bodies.keys()


@pytest.mark.parametrize("name", ["member67", "bitstream", "from", "comember"])
def test_an_audit_keeps_in_the_universe_what_gfp_approx_alone_keeps(name, regression_proofs, fresh_program):
    # depth 2 explored first; the audit at depth 3 explores it through the
    # candidate's grounding, the one at depth 2 reads what the depth kept
    _session_program, _goal, calc, res = regression_proofs[name]
    program, plain, cfg = fresh_program(name), fresh_program(name), tr.InstanceConfig()
    for p in (program, plain):
        tr.gfp_approx(p, 2, cfg)
    for depth in (3, 2):
        assert sd.audit_proof(res.tree, program, depth, 2, calc).verified, depth
    tr.gfp_approx(plain, 3, cfg)
    assert _universe_snapshot(kept_universe(program)) == _universe_snapshot(kept_universe(plain))


def test_a_candidate_checked_before_its_merge_keeps_nothing_in_the_universe(regression_proofs, fresh_program):
    # the check renders into the candidate's grounding before the merge
    # explores the depth through it; the depth keeps its exploration's keys
    _session_program, _goal, calc, res = regression_proofs["bitstream"]
    program, plain, cfg = fresh_program("bitstream"), fresh_program("bitstream"), tr.InstanceConfig()
    cand = sd.build_candidate(res.tree, program, 4, 2, calc)
    sd.verify_postfixed(cand.interpretation, program, cfg)
    assert cand.interpretation.grounding.keys and not program._universes
    assert sd.verify_postfixed(sd.merge_with_model(cand, program, cfg), program, cfg) == (True, None)
    tr.gfp_approx(plain, 4, cfg)
    assert _universe_snapshot(kept_universe(program)) == _universe_snapshot(kept_universe(plain))


def test_verify_postfixed_on_kept_state_matches_a_program_that_kept_nothing(regression_proofs, fresh_program):
    # the acceptance grid on the session programs, whose kept universes grow
    # from cell to cell, against a program parsed for the cell alone; the
    # bare candidates give counterexamples
    cfg = tr.InstanceConfig()
    verdicts = collections.Counter()
    for name, (program, _goal, calc, res) in regression_proofs.items():
        for depth in range(2, 7):
            for budget in range(4):
                cand = sd.build_candidate(res.tree, program, depth, budget, calc)
                merged = sd.merge_with_model(cand, program, cfg)
                for interp in (merged, cand.interpretation):
                    cold = fresh_program(name)
                    got = sd.verify_postfixed(interp, program, cfg)
                    want = sd.verify_postfixed(interp, cold, cfg)
                    assert (got[0], repr(got[1])) == (want[0], repr(want[1])), (name, depth, budget)
                    assert not cold._universes
                    verdicts[interp is merged, got[0]] += 1
    assert verdicts[True, True] == 80 and verdicts[False, False] > 0


def merge_with_model_reference(cand, program, cfg):
    """The merge as a loop over the members: the approximation's
    representatives, then the candidate's not alpha-equal to one of them."""
    depth = cand.interpretation.depth
    seeds = tuple(t for reps in cand.interpretation.reps.values() for t in reps) + tuple(cand.side_atoms)
    approx = tr.gfp_approx(program, depth, tm.replace(cfg, seed_atoms=seeds))
    atoms = cand.interpretation.atoms | approx.atoms
    reps = {}
    for key in atoms:
        merged = list(approx.reps.get(key, ()))
        seen = {tm.alpha_key(u) for u in merged}
        for t in cand.interpretation.reps.get(key, ()):
            if tm.alpha_key(t) not in seen:
                seen.add(tm.alpha_key(t))
                merged.append(t)
        reps[key] = tuple(merged)
    return tr.Interpretation(depth, frozenset(atoms), reps), approx


def test_merge_takes_the_representatives_the_seeded_approximation_lists(regression_proofs):
    # on the acceptance grid, every candidate representative of a key the
    # approximation keeps is listed there, so the merge matches the loop
    cfg = tr.InstanceConfig()
    kept = 0
    for name, (program, _goal, calc, res) in regression_proofs.items():
        for depth in range(2, 7):
            for budget in range(4):
                cand = sd.build_candidate(res.tree, program, depth, budget, calc)
                want, approx = merge_with_model_reference(cand, program, cfg)
                for key, reps in cand.interpretation.reps.items():
                    if key in approx.atoms:
                        kept += 1
                        listed = {tm.alpha_key(u) for u in approx.reps[key]}
                        assert {tm.alpha_key(t) for t in reps} <= listed, (name, depth, budget, key)
                got = sd.merge_with_model(cand, program, cfg)
                assert got.depth == want.depth and got.atoms == want.atoms, (name, depth, budget)
                assert got.reps.keys() == want.reps.keys(), (name, depth, budget)
                for key, reps in want.reps.items():
                    assert list(map(repr, got.reps[key])) == list(map(repr, reps)), (name, depth, budget, key)
    assert kept > 0


# TestConservativeExtension's lemma instances, each against its program, and
# (equal, only_in_original, only_in_extended) of the report at depths 2-5,
# pinned from the exploration that took the lemma instances as extra clauses
BITSTREAM_TEXT = (Path(__file__).parent.parent / "src" / "cup" / "corpus" / "bitstream.cup").read_text()
EXTENSIONS = {
    "bitstream": (lambda fresh: fresh("bitstream"), ["bitstream [0|n_str 0]"], [(True, [], [])] * 4),
    "from": (lambda fresh: fresh("from"), ["from 0 (fr_str 0)", "from (s 0) (fr_str (s 0))"], [(True, [], [])] * 4),
    "alien": (lambda fresh: ps.parse_program(BITSTREAM_TEXT + "const s : i -> i.\n"), ["bit (s 0)"], [
        (False, [], ["bit(s(*))"]),
        (False, [], ["bit(s(0))", "bitstream(scons(s(*),scons(*,*)))"]),
        (False, [], ["bit(s(0))", "bitstream(scons(s(0),scons(s(*),scons(*,*))))"]),
        (False, [], ["bit(s(0))", "bitstream(scons(s(0),scons(s(0),scons(s(*),scons(*,*)))))"]),
    ]),
}


@pytest.mark.parametrize("name", sorted(EXTENSIONS))
def test_a_lemma_extension_matches_the_reference_and_keeps_nothing_on_the_program(name, fresh_program):
    load, texts, reports = EXTENSIONS[name]
    program, plain = load(fresh_program), load(fresh_program)
    lemmas = [fm.HClause((), (), ps.parse_goal(text, program).term) for text in texts]
    cfg = tr.InstanceConfig(seed_atoms=tuple(h.head for h in lemmas))
    for depth, want in zip(range(2, 6), reports):
        report = sd.conservative_extension_check(program, lemmas, depth)
        got = report.equal, *(sorted(map(tr.tree_to_text, ts)) for ts in (report.only_in_original, report.only_in_extended))
        assert got == want, depth
        # the extended program the check explores, cold and then warm
        extended = tm.replace(program, clauses=program.clauses + tuple(h.to_formula() for h in lemmas))
        expected = gfp_approx_reference(extended, depth, cfg)
        assert _listing(tr.gfp_approx(extended, depth, cfg)) == expected, depth
        assert _listing(tr.gfp_approx(extended, depth, cfg)) == expected, depth
        tr.gfp_approx(plain, depth, cfg)
    # the program keeps what the original model's calls alone keep
    assert _universe_snapshot(kept_universe(program)) == _universe_snapshot(kept_universe(plain))


@pytest.mark.parametrize("name", CORPUS)
def test_a_kept_pool_is_the_pool_of_its_term_size(name, fresh_program, monkeypatch):
    # both t_operator calls enumerate the pool in one order, so a lower
    # instance cap cuts them alike; it keeps fibs' 30-term pool affordable
    monkeypatch.setattr(tr, "MAX_INSTANCES", 1000)
    program = fresh_program(name)
    for size in (3, 2):
        cfg, cold = tr.InstanceConfig(term_size=size), fresh_program(name)
        want = [tm.alpha_key(t) for t in tr.universe_terms(cold, cfg)]
        assert not cold._universes
        # at size 2, the program keeps the universe of size 3 only
        assert [tm.alpha_key(t) for t in tr.universe_terms(program, cfg)] == want
        approx = tr.gfp_approx(program, 2, cfg)
        assert tr.universe_terms(program, cfg) is program._universes[size].pool
        assert [tm.alpha_key(t) for t in tr.universe_terms(program, cfg)] == want
        assert tr.t_operator(program, approx, cfg) == tr.t_operator(cold, approx, cfg)
        assert not cold._universes
    assert sorted(program._universes) == [2, 3]


def t_operator_reference(program, interp, cfg):
    """T with no grounding: each clause's universals range over every pool
    tuple, at most `MAX_INSTANCES` a clause, and every atom of every
    instance is rendered anew."""
    atoms, pool = set(), tr.universe_terms(program, cfg)
    for h in program.h_clauses():
        for n, combo in enumerate(itertools.product(pool, repeat=len(h.universals))):
            if n == tr.MAX_INSTANCES:
                break
            inst = fm.h_substitute(h, dict(zip(h.universals, combo)))
            trees = [tr.atom_to_tree(program.signature, b, interp.depth) for b in inst.body + (inst.head,)]
            if all(t in interp.atoms for t in trees[:-1]):
                atoms.add(trees[-1])
    return tr.Interpretation(interp.depth, frozenset(atoms))


@pytest.mark.parametrize("name", ["bitstream", "from", "member"])
def test_t_operator_renders_each_distinct_atom_at_most_once_per_call(name, fresh_program, monkeypatch):
    # on a cold program every atom is rendered; on the program whose model
    # it is, only those the depth did not keep.  Comember's instances cost
    # seconds per call; test_a_kept_pool_is_the_pool_of_its_term_size
    # compares its warm and cold T
    program, cfg = fresh_program(name), tr.InstanceConfig()
    for depth in (2, 3):
        approx = tr.gfp_approx(program, depth, cfg)
        want = t_operator_reference(program, approx, cfg)
        for target in (fresh_program(name), program):
            rendered = []
            with monkeypatch.context() as m:
                _counted(m, "atom_to_tree", rendered, at=1)
                assert tr.t_operator(target, approx, cfg) == want, (name, depth)
            assert rendered and len(rendered) == len(set(rendered)), (name, depth)
        assert not set(rendered) & program._universes[3].keys[depth].keys()


def test_the_benchmark_tracer_sees_the_pool_lookups_of_warm_calls(fresh_program):
    # perfbench/selftest.py wants nonzero trees.universe_terms calls on the
    # warm traced model and audit rounds: grounding must call it through the
    # module global that the tracer patches, on every call
    program, cfg = fresh_program("bitstream"), tr.InstanceConfig()
    tr.gfp_approx(program, 3, cfg)
    tracer = tracing.Tracer()
    tracer.install()
    patched = list(tracer._saved)
    try:
        approx = tr.gfp_approx(program, 3, cfg)
        assert sd.verify_postfixed(approx, program, cfg) == (True, None)
    finally:
        tracer.uninstall()
    calls = dict(zip(tracer.names, tracer.calls))
    assert calls["trees.universe_terms"] > 0 and calls["trees.justify"] > 0
    assert patched and all(getattr(obj, attr) is value for obj, attr, value in patched)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_one_traced_block_calls_every_layer_its_layers_rows_name(workload):
    # the rule perfbench/selftest.py applies to a whole traced run: every
    # layer metric that a layers.json row says moves the workload has its
    # calls, or its count, above 0; here on one block of seed 3
    tracer = tracing.Tracer()
    tracer.install(workloads)
    try:
        ctx = workloads.setup(workload, 3, 1)
        for op in ctx["blocks"][0]:
            workloads.WORKLOADS[workload].run(ctx, op)
    finally:
        tracer.uninstall()
    values = {name: value for name, (value, _unit) in tracer.metrics().items()}
    rows = json.loads((Path(tracing.__file__).parent / "layers.json").read_text(encoding="utf-8"))["rows"]
    named = [m for row in rows if workload in row["moves"] for m in row["layer_metrics"]]
    assert named
    for metric in named:
        key = f"{metric}.calls" if f"{metric}.calls" in values else metric
        if key.endswith((".calls", "_nodes", "_atoms")):
            assert values[key] > 0, key


def smallest_closed_terms_reference(sig, ty, limit=64):
    """Closed terms of the given type, smallest first: every constant that
    is no predicate, then, up to `limit` a type, in rounds until one adds no
    term, each round applying every constructor to the first four terms of
    each argument type."""
    by_ty = {}
    cons = sig.constructors()
    frontier = [(Con(n), t) for n, t in cons]
    for t, t_ty in frontier:
        by_ty.setdefault(t_ty, []).append(t)
    seen = {tm.alpha_key(t) for t, _ty in frontier}
    grew = True
    while grew:
        grew = False
        new = []
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
            if len(bucket) < limit and tm.alpha_key(t) not in seen:
                seen.add(tm.alpha_key(t))
                bucket.append(t)
                grew = True
    return by_ty.get(ty, [])


NO_CLOSED_INDIVIDUAL_SIGNATURES = [
    Signature.of({"s": fn_type(IOTA, IOTA), "scons": fn_type(IOTA, IOTA, IOTA), "p": fn_type(IOTA, O)}),
    ps.parse_program("const s : i -> i. const scons : i -> i -> i. const p : i -> o.\np (s X) :- p X.").signature,
]


def test_smallest_closed_term_is_the_first_of_the_reference_pool(
        member_program, bitstream_program, from_program, comember_program, fibs_program):
    cases = 0
    for sig in [p.signature for p in (member_program, bitstream_program, from_program,
                                      comember_program, fibs_program)] + NO_CLOSED_INDIVIDUAL_SIGNATURES:
        types = {IOTA}
        for _name, ty in sig.constants:
            types |= {ty, tm.target_type(ty), *tm.argument_types(ty)}
        for ty in sorted(types, key=repr):
            pool = smallest_closed_terms_reference(sig, ty)
            assert eng.smallest_closed_term(sig, ty) == (pool[0] if pool else None), (sig, ty)
            cases += 1
    for sig in NO_CLOSED_INDIVIDUAL_SIGNATURES:
        assert eng.smallest_closed_term(sig, IOTA) is None
    assert cases > 15


def universe_terms_reference(program, size):
    """The pool's order derived by sorting: the first-order terms up to the
    size by size, then by their head's place in the signature, then by
    their arguments' sizes, then by their arguments' own places; then each
    fixed-point definition, in order, applied to every tuple of the first
    eight first-order terms, β-normalised."""
    cons = program.signature.constructors()
    ranked = []  # (term, size), in pool order
    for n in range(1, size + 1):
        found = []
        for k, (name, ty) in enumerate(cons):
            arity = len(tm.argument_types(ty))
            if not arity:
                if n == 1:
                    found.append(((k,), Con(name)))
                continue
            for places in itertools.product(range(len(ranked)), repeat=arity):
                sizes = tuple(ranked[i][1] for i in places)
                if 1 + sum(sizes) == n:
                    found.append(((k, sizes, places), tm.app(Con(name), *(ranked[i][0] for i in places))))
        ranked += [(t, n) for _key, t in sorted(found, key=lambda f: f[0])]
    first_order = [t for t, _n in ranked][:tr.MAX_TERMS]
    out = list(first_order)
    for _name, d in program.fix_definitions:
        arity = len(tm.argument_types(tm.typecheck(program.signature, {}, d)))
        out += [tm.beta_normalize(tm.app(d, *combo)) for combo in itertools.product(first_order[:8], repeat=arity)]
    return out


# the pool's length per corpus program at term sizes 1-4
POOL_LENGTHS = {"member": (3, 3, 12, 12), "bitstream": (5, 5, 13, 13), "from": (2, 4, 8, 16),
                "comember": (2, 4, 10, 24), "fibs": (2, 6, 30, 76)}


@pytest.mark.parametrize("name", sorted(POOL_LENGTHS))
def test_the_pool_order_is_pinned_at_term_sizes_1_to_4(name, fresh_program):
    # `universe_terms`' first eight terms are what the fixed-point
    # definitions are applied to, and the pool's first BODY_VAR_POOL are
    # what `justifications` tries, so its order is part of every model
    program = fresh_program(name)
    for size, length in zip((1, 2, 3, 4), POOL_LENGTHS[name]):
        pool = [tm.alpha_key(t) for t in tr.universe_terms(program, tr.InstanceConfig(term_size=size))]
        assert pool == [tm.alpha_key(t) for t in universe_terms_reference(program, size)], (name, size)
        assert len(pool) == length == len(set(pool)), (name, size)


# ---------------------------------------------------------------------------
# the proof round trip's memos (formula keys, check grammar) and its parses
# ---------------------------------------------------------------------------


def _rebuild_formula(f):
    """A structurally equal copy of f made of new nodes, keys uncomputed."""
    if isinstance(f, fm.Atom):
        return fm.Atom(_rebuild(f.term))
    if isinstance(f, fm.Top):
        return fm.Top()
    if isinstance(f, (fm.Conj, fm.Disj, fm.Impl)):
        return type(f)(_rebuild_formula(f.left), _rebuild_formula(f.right))
    return type(f)(f.var, f.ty, _rebuild_formula(f.body))


def _sequent_formulas(tree):
    for node in tree.nodes():
        seq = node.sequent
        yield from (e.formula for e in seq.entries)
        yield seq.goal
        if seq.focus is not None:
            yield seq.focus


def _search_goal_proofs(seeds):
    """(program, calculus, proof) for each distinct proved goal of the four
    blocks a benchmark search run draws for each seed."""
    programs = workloads.load_programs()
    seen = set()
    for seed in seeds:
        for goal in itertools.chain(*workloads.blocks("search", seed, 4)):
            key = (goal.program, goal.text, goal.kind)
            if goal.want != workloads.PROVED or key in seen:
                continue
            seen.add(key)
            program = programs[goal.program]
            f = ps.parse_goal(goal.text, program)
            cfg = eng.SearchConfig(calculus=goal.calculus, depth_limit=goal.depth)
            res = (eng.coprove(program, f, cfg) if goal.kind == "coprove"
                   else eng.prove(program, eng.LemmaStore(), f, cfg))
            yield program, goal.calculus, res.tree


def _search_goal_round_trips(seeds):
    """(found proof, re-imported proof) for each proved goal of the four
    blocks a benchmark search run draws for each seed."""
    return _round_trips(_search_goal_proofs(seeds))


def _round_trips(proofs):
    """(found proof, re-imported proof) for each (program, calculus, proof)."""
    for program, calc, tree in proofs:
        back = ps.import_proof(ps.export_proof(tree, program), program)
        assert eng.check(back, program, calc) == (True, None)
        assert tree.equal(back)
        yield tree, back


def _shape(f):
    """An alpha-invariant coarsening of a formula: its connectives and
    binder types, and the constants of its atoms."""
    if isinstance(f, fm.Atom):
        return "a" + ",".join(sorted(u.name for u in tm.subterms(f.term) if isinstance(u, Con)))
    if isinstance(f, fm.Top):
        return "t"
    if isinstance(f, (fm.Conj, fm.Disj, fm.Impl)):
        return f"{type(f).__name__}({_shape(f.left)};{_shape(f.right)})"
    return f"{type(f).__name__}[{f.ty!r}]({_shape(f.body)})"


def test_a_reimported_proof_holds_the_signatures_of_the_found_one():
    extended = 0
    for tree, back in _search_goal_round_trips((1, 2)):
        for node, again in zip(tree.nodes(), back.nodes()):
            assert again.sequent.signature is node.sequent.signature
            extended += node.rule in ("forall-r", "forall-r<>")
    assert extended > 5


def _interned(sig):
    """How many extensions sig and its interned children hold."""
    kids = [v for v in sig._memo.values() if isinstance(v, Signature)]
    return len(kids) + sum(map(_interned, kids))


def test_a_second_search_round_interns_no_extension():
    programs = workloads.load_programs()
    goals = list(itertools.chain(*workloads.blocks("search", 7, 4)))
    counts = []
    for _round in range(2):
        for goal in goals:
            workloads.run_goal(programs, goal)
        counts.append(sum(_interned(p.signature) for p in programs.values()))
    assert counts[0] > 0 and counts[1] == counts[0]


def test_cached_formula_keys_match_fresh_ones_and_the_reference():
    # the search workload's proofs and the search set's: `check` keys only
    # the formulas that enter a proof, so one set caches too few keys
    objects = {}
    proofs = itertools.chain(_search_goal_proofs((1, 2)), _proofs(workloads.load_programs(), _search_set()))
    for tree, back in _round_trips(proofs):
        for f in itertools.chain(_sequent_formulas(tree), _sequent_formulas(back)):
            objects[id(f)] = f
    formulas = list(objects.values())
    # the keys the round trips cached, against keys of new copies
    cached = [f for f in formulas if f._ak is not None]
    assert len(cached) > 200
    for f in cached:
        fresh = _rebuild_formula(f)
        assert fresh._ak is None
        assert f._ak == fm.formula_key(fresh)
    rng = random.Random(12)
    pool = list(dict.fromkeys(formulas))
    pool += [rename_formula_binders(rng, f) for f in pool]
    assert len(pool) > 150
    # the keys partition the pool as the keys of the formulas encoded as
    # terms do: each class of one is a class of the other
    pairs = {(fm.formula_key(f), tm.alpha_key(formula_as_term(f))) for f in pool}
    assert len(pairs) == len({a for a, _b in pairs}) == len({b for _a, b in pairs})
    # alpha-equal formulas share a shape, so only pairs of one shape can
    # be equal; across shapes the keys must differ
    by_shape = collections.defaultdict(list)
    for f in pool:
        by_shape[_shape(f)].append(f)
    keys = {}
    for shape, group in by_shape.items():
        for f in group:
            assert keys.setdefault(fm.formula_key(f), shape) == shape
    equal_pairs = 0
    for group in by_shape.values():
        for i, f in enumerate(group):
            for g in group[i + 1:]:
                same = formula_alpha_eq_reference(f, g)
                equal_pairs += same and f != g
                assert (fm.formula_key(f) == fm.formula_key(g)) == same, (f, g)
    assert equal_pairs > 50


def _reachable_chains(f):
    """(head, sequents from the focus to its INITIAL) for each atom a left
    focus on f reaches, walked afresh."""
    if isinstance(f, fm.Atom):
        return [(tm.spine(f.term)[0], 1)]
    if isinstance(f, fm.Conj):
        chains = _reachable_chains(f.left) + _reachable_chains(f.right)
    elif isinstance(f, fm.Forall):
        chains = _reachable_chains(f.body)
    elif isinstance(f, fm.Impl):
        chains = _reachable_chains(f.right)
    else:
        return []
    return [(head, n + 1) for head, n in chains]


def test_cached_focus_reach_matches_fresh_ones_and_the_reference():
    objects = {}
    for tree, back in _search_goal_round_trips((1, 2)):
        for f in itertools.chain(_sequent_formulas(tree), _sequent_formulas(back)):
            objects[id(f)] = f
    # the searches cached the reach of every entry they decided on
    cached = [f for f in objects.values() if f._fh is not fm._UNSEEN]
    assert len(cached) > 20
    lengths = collections.Counter()
    for f in itertools.chain(cached, objects.values()):
        want = {}
        for head, n in _reachable_chains(f):
            key = head.name if isinstance(head, Con) else None
            want[key] = min(want.get(key, n), n)
        lengths.update(want.values())
        fresh = _rebuild_formula(f)
        assert fresh._fh is fm._UNSEEN
        assert fm.focus_reach(f) == fm.focus_reach(fresh) == want
    # chains of several lengths, so a wrong count per connective shows
    assert len(lengths) >= 4


def _canonical_steps(tree, program):
    """The proof's pre-order (rule, eigenvariable, witness), its
    eigenvariables renamed e1, e2, ... by first appearance."""
    names = {}
    for node in tree.nodes():
        if node.eigen is not None:
            names.setdefault(node.eigen, f"e{len(names) + 1}")

    def renamed(text):
        return re.sub(r"\w+#\d+", lambda m: names[m.group(0)], text)

    return [(node.rule, names.get(node.eigen),
             None if node.witness is None else renamed(ps.pp_term(node.witness, program)))
            for node in tree.nodes()]


def _search_outputs(programs, searches, documents=False):
    """The reason, final bound, proof size and canonical steps of each
    (program, goal, calculus, entry point, depth) search, or the error it
    raised, and the node count of each.  With `documents`, each proof also
    carries its exported document, whose text shows the fresh names drawn."""
    out, nodes = [], []
    for name, text, calc, kind, depth in searches:
        program = programs[name]
        cfg = eng.SearchConfig(calculus=calc, depth_limit=depth)
        try:
            f = ps.parse_goal(text, program)
            res = (eng.coprove(program, f, cfg) if kind == "coprove"
                   else eng.prove(program, eng.LemmaStore(), f, cfg))
        except CupError as exc:
            out.append((type(exc).__name__, str(exc)))
            nodes.append(0)
            continue
        proof = (res.tree.size(), _canonical_steps(res.tree, program)) if res.proved else None
        if proof is not None and documents:
            proof += (ps.export_proof(res.tree, program),)
        out.append((res.reason, res.stats.max_depth, proof))
        nodes.append(res.stats.nodes)
    return out, nodes


def _search_set():
    """The search-workload goals of seeds 1-3, the four regressions and the
    `cup examples` runs, at their own depths and at depth limits 1-6, each
    once."""
    runs = [(g.program, g.text, g.calculus, g.kind, g.depth)
            for seed in (1, 2, 3) for g in itertools.chain(*workloads.blocks("search", seed, 4))]
    runs += [(name, text, calc, "coprove", eng.DEPTH_LIMIT) for name, text, calc, _size in workloads.REGRESSIONS]
    runs += [(name, text, calc, kind, eng.INCONCLUSIVE_DEPTH_LIMIT if want == "inconclusive" else eng.DEPTH_LIMIT)
             for name, entry in cli.CORPUS.items() for kind, text, calc, want in entry["runs"]]
    searches = list(dict.fromkeys(run[:4] + (depth,) for run in runs for depth in (run[4], *range(1, 7))))
    assert len(searches) > 300
    return searches


def _random_horn_program(rng, deep=False):
    """A small random first-order Horn program over unary predicates p0-p2,
    with its text, and ground goals on each predicate. A predicate may have
    no clause and a body may loop, so searches end in every reason. With
    `deep`, heads and bodies may also hold `s (s 0)` up to five `s`, so a
    body-only variable may need a witness deeper than the model's term pool."""
    terms = ["0", "1", "X", "s X", "s 0", "Y"]
    nested = ["s (" * n + "s 0" + ")" * n for n in range(1, 5)] if deep else []
    lines = []
    for _ in range(rng.randint(1, 5)):
        head = f"p{rng.randrange(3)} ({rng.choice(terms[:5] + nested)})"
        body = [f"p{rng.randrange(3)} ({rng.choice(terms + nested)})" for _ in range(rng.randint(0, 2))]
        lines.append(f"{head} :- {', '.join(body)}." if body else f"{head}.")
    text = ("const 0 : i.\nconst 1 : i.\nconst s : i -> i.\n"
            + "".join(f"const p{k} : i -> o.\n" for k in range(3)) + "\n".join(lines) + "\n")
    goals = [f"p{k} {t}" for k in range(3) for t in ("0", "(s 1)")]
    return text, goals


def _random_horn_searches(seeds):
    programs, searches = {}, []
    for seed in seeds:
        text, goals = _random_horn_program(random.Random(seed))
        programs[seed] = ps.parse_program(text)
        searches += [(seed, g, Calculus.FOHC, kind, depth)
                     for g in goals for kind in ("prove", "coprove") for depth in range(1, 7)]
    return programs, searches


def test_skipping_decides_that_cannot_meet_the_goal_changes_no_search_output(monkeypatch):
    # the shallow depth limits make the depth run out inside skipped chains.
    # A skipped focus meets no INITIAL on the goal's predicate within the
    # depth left, and walking it would have set the cut exactly when it has
    # such a chain; so the skip changes no answer or proof, only the nodes
    # spent. No eigenvariable here is drawn after a skipped entry, so the
    # documents match too (`test_a_skipped_chain_draws_no_names` has one
    # that is). The length test is turned off by giving every chain
    # one sequent: a focus that reaches the goal's predicate is then always
    # searched, and one that does not is still skipped with no cut. The
    # seeded random programs add searches that end `no-proof`, which only a
    # cut set rightly gives. On the corpus both skips are also turned off at
    # once by giving every focus one sequent to every predicate: each entry
    # is then walked, bar at depth 1, where walking it sets the cut and
    # counts nothing
    corpus = (workloads.load_programs(), _search_set())
    horn = _random_horn_searches(range(60))
    reasons = collections.Counter()
    arms = [(corpus, lambda f: dict.fromkeys(fm.focus_reach(f), 1)),
            (corpus, lambda f: {None: 1}),
            (horn, lambda f: dict.fromkeys(fm.focus_reach(f), 1))]
    for (programs, searches), reach in arms:
        skipped, skipped_nodes = _search_outputs(programs, searches, documents=True)
        with monkeypatch.context() as m:
            m.setattr(eng, "focus_reach", reach)
            searched, searched_nodes = _search_outputs(programs, searches, documents=True)
        assert skipped == searched
        assert all(a <= b for a, b in zip(skipped_nodes, searched_nodes))
        assert sum(skipped_nodes) < sum(searched_nodes)
        reasons.update(o[0] for o in searched)
    assert {"proved", "no-proof", "depth-exceeded"} <= reasons.keys()
    assert reasons["no-proof"] > 50


def test_no_atom_that_search_proves_is_certainly_out_of_the_model():
    # the paper's soundness theorem between the two halves of `cup`: a
    # ground atom with a proof, inductive or coinductive, is in the greatest
    # fixed point, and `gfp_approx` over-approximates that at every depth.
    # Both sides are the code under test, so this is a check, not an oracle
    proved = 0
    for seed in range(60):
        text, goals = _random_horn_program(random.Random(seed))
        program = ps.parse_program(text)
        cfg = eng.SearchConfig(calculus=Calculus.FOHC, depth_limit=12)
        for goal in goals:
            f = ps.parse_goal(goal, program)
            if not (eng.prove(program, eng.LemmaStore(), f, cfg).proved or eng.coprove(program, f, cfg).proved):
                continue
            proved += 1
            for depth in range(1, 6):
                approx = tr.gfp_approx(program, depth, tr.InstanceConfig(seed_atoms=(f.term,)))
                assert tr.member_of_model(f.term, approx, program.signature) == tr.IN_APPROX, (seed, goal, depth)
    assert proved == 30


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 21: a key dies when a body-only variable's witness lies outside the term pool, "
    "so the model refutes atoms that search proves"))
def test_no_deep_witness_atom_that_search_proves_is_certainly_out_of_the_model():
    # the check above on programs whose proofs may need deep witnesses; the
    # goals are the shallow ones and every ground clause head
    proved, refuted = 0, []
    for seed in range(300):
        text, goals = _random_horn_program(random.Random(seed), deep=True)
        program = ps.parse_program(text)
        atoms = [ps.parse_goal(goal, program).term for goal in goals]
        atoms += [h.head for h in program.h_clauses() if not tm.free_vars(h.head)]
        cfg = eng.SearchConfig(calculus=Calculus.FOHC, depth_limit=12)
        for atom in dict.fromkeys(atoms):
            f = fm.Atom(atom)
            if not (eng.prove(program, eng.LemmaStore(), f, cfg).proved or eng.coprove(program, f, cfg).proved):
                continue
            proved += 1
            for depth in range(1, 6):
                approx = tr.gfp_approx(program, depth, tr.InstanceConfig(seed_atoms=(atom,)))
                if tr.member_of_model(atom, approx, program.signature) == tr.CERTAINLY_OUT:
                    refuted.append((seed, ps.pp_term(atom), depth))
                    break
    assert proved == 494
    assert refuted == []


def test_the_premise_table_changes_no_search_output(monkeypatch):
    # a deeper bound redraws the names of the shallower one, meets its
    # sequents again and reads their premises from what each sequent keeps.
    # With that emptied before every lookup, the same proofs, documents (and
    # so the same fresh names), node counts and final bounds
    programs = workloads.load_programs()
    searches = _search_set()
    tabled = _search_outputs(programs, searches, documents=True)
    solve = eng._solve

    def rebuilt(ctx, seq, depth, s):
        object.__setattr__(seq, "_derived", None)
        return solve(ctx, seq, depth, s)

    monkeypatch.setattr(eng, "_solve", rebuilt)
    assert _search_outputs(programs, searches, documents=True) == tabled
    assert sum(o[0] == "proved" for o in tabled[0]) > 40


def test_deepening_to_the_next_bound_answers_as_plain_iterative_deepening(monkeypatch):
    # search goes from a bound straight to the next one at which some cut
    # can be passed, and draws each sequent's names once; plain iterative
    # deepening steps the bound by one and draws names afresh at each. The
    # same reasons, final bounds, proofs and documents, the last through
    # reification's canonical names, in never more expansions
    horn = _random_horn_searches(range(360))
    for programs, searches in ((workloads.load_programs(), _search_set()), horn):
        jumped, jumped_nodes = _search_outputs(programs, searches, documents=True)
        with monkeypatch.context() as m:
            m.setattr(eng, "_search", search_reference)
            stepped, stepped_nodes = _search_outputs(programs, searches, documents=True)
        assert jumped == stepped
        assert all(a <= b for a, b in zip(jumped_nodes, stepped_nodes))
        assert sum(jumped_nodes) < sum(stepped_nodes)
    assert {o[0] for o in stepped} == {"proved", "no-proof", "depth-exceeded"}


def test_a_larger_depth_limit_keeps_each_proof_and_each_no_proof():
    # ROADMAP item 26's law on the random Horn programs, `deep` on the odd
    # seeds: a search that ends before the limit, with a proof or with
    # `no-proof`, ends the same way, at the same bound and with the same
    # document, under every larger limit; one that reaches the limit names
    # it as its bound. The law alone holds for any bound schedule that does
    # not depend on the limit; the reasons counted are plain iterative
    # deepening's, so a jump past the bound where a proof first appears
    # shows there
    reasons = collections.Counter()
    for seed in range(360):
        text, goals = _random_horn_program(random.Random(seed), deep=seed % 2 == 1)
        program = ps.parse_program(text)
        for goal in goals:
            f = ps.parse_goal(goal, program)
            for search in (eng.coprove, lambda p, f, cfg: eng.prove(p, None, f, cfg)):
                before = None
                for limit in range(1, 13):
                    res = search(program, f, eng.SearchConfig(Calculus.FOHC, limit))
                    now = (res.reason, res.stats.max_depth, res.proved and ps.export_proof(res.tree, program))
                    assert res.reason != "depth-exceeded" or res.stats.max_depth == limit
                    assert before is None or before[0] == "depth-exceeded" or now == before, (seed, goal, limit)
                    before = now
                    reasons[now[0]] += 1
    assert reasons == {"no-proof": 36250, "depth-exceeded": 10010, "proved": 5580}


def test_the_calculus_and_the_clause_order_keep_each_reason_and_final_bound():
    # ROADMAP item 26's other two laws, on the search set and the random
    # Horn programs (`deep` on the odd seeds, limits 1-6 by seed). At the
    # same limit, co-fohc and co-hohh give the same reason and final bound
    # on each goal both accept, and the same proof and document too; co-hohh
    # matches its INITIAL atoms, all fix-free here, through the unfolding
    # walk. Shuffling a program's clauses keeps each search's reason and
    # final bound, since a bound holds a proof or a cut whatever the order
    horn, horn_searches = {}, []
    for seed in range(360):
        text, goals = _random_horn_program(random.Random(seed), deep=seed % 2 == 1)
        horn[seed] = ps.parse_program(text)
        horn_searches += [(seed, g, Calculus.FOHC, kind, 1 + seed % 6) for g in goals for kind in ("prove", "coprove")]
    rng, reasons, both = random.Random(0), collections.Counter(), 0
    for programs, searches in ((workloads.load_programs(), _search_set()), (horn, horn_searches)):
        shuffled = {name: fm.Program(p.signature, tuple(rng.sample(p.clauses, len(p.clauses))), p.fix_definitions)
                    for name, p in programs.items()}
        assert [o[:2] for o in _search_outputs(shuffled, searches)[0]] == [
            o[:2] for o in _search_outputs(programs, searches)[0]]
        fo, ho = (_search_outputs(programs, [(n, t, calc, k, d) for n, t, _c, k, d in searches], documents=True)[0]
                  for calc in (Calculus.FOHC, Calculus.HOHH))
        accepted = [(a, b) for a, b in zip(fo, ho) if len(a) == len(b) == 3]
        assert all(a == b for a, b in accepted)
        both += len(accepted)
        reasons.update(a[0] for a, _b in accepted)
    assert (both, reasons) == (4446, {"no-proof": 2574, "depth-exceeded": 1491, "proved": 381})


def _proofs(programs, searches):
    """(program, calculus, proof) of each search that finds one."""
    for name, text, calc, kind, depth in searches:
        program = programs[name]
        cfg = eng.SearchConfig(calculus=calc, depth_limit=depth)
        try:
            f = ps.parse_goal(text, program)
            res = (eng.coprove(program, f, cfg) if kind == "coprove"
                   else eng.prove(program, eng.LemmaStore(), f, cfg))
        except CupError:
            continue
        if res.proved:
            yield program, calc, res.tree


def test_reification_by_derivation_is_reification_by_resolution(monkeypatch):
    # each child of a reified node is derived from its reified parent: the
    # sequent every node gets is the one resolving its own formulas gives,
    # equal and not only alpha-equal, so proofs and documents stay the same
    compared = []
    reify = eng._reify

    def both(tree, s, calculus):
        out = reify(tree, s, calculus)
        want = reify_reference(tree, s, calculus)
        assert (out is None) == (want is None)
        if out is not None:
            assert out == want
            compared.extend((a.sequent, b.sequent) for a, b in zip(out.nodes(), want.nodes()))
        return out

    monkeypatch.setattr(eng, "_reify", both)
    horn = _random_horn_searches(range(200))
    proofs = [*_proofs(workloads.load_programs(), _search_set()), *_proofs(*horn)]
    assert all(a == b for a, b in compared)
    # the sequents below the proofs' roots: those derived from a parent
    assert (len(proofs), len(compared) - len(proofs)) == (1251, 3425)


def test_reification_names_and_refuses_as_the_reference(monkeypatch):
    # trees whose search names are not the canonical ones, since a failed
    # disjunct drew first, and trees whose witness names an eigenvariable
    # drawn below it, which no proof may hold
    reify, seen = eng._reify, collections.Counter()

    def both(tree, s, calculus):
        out = reify(tree, s, calculus)
        assert out == reify_reference(tree, s, calculus)
        seen["refused" if out is None else "renamed" if any(
            a.eigen != b.eigen for a, b in zip(tree.nodes(), out.nodes())) else "kept"] += 1
        return out

    monkeypatch.setattr(eng, "_reify", both)
    program = ps.parse_program("const a : i. const p : i -> i -> o. const q : i -> o. p X X.")
    for goal in ("(exists z. q z) \\/ (forall x. forall y. p x x /\\ p y y)", "exists z. forall x. p z x",
                 "forall x. exists z. p z x", "forall x. exists z. forall y. p z y"):
        for calc in (Calculus.FOHH, Calculus.HOHH):
            eng.prove(program, None, ps.parse_goal(goal, program), eng.SearchConfig(calc))
    assert seen == {"renamed": 2, "refused": 4, "kept": 2}


def _initial_pairs():
    """(focus, goal, bound) of every INITIAL of the search set's proofs."""
    programs = workloads.load_programs()
    return [(n.sequent.focus.term, n.sequent.goal.term, tm.UNFOLD_BOUND)
            for _program, _calc, tree in _proofs(programs, _search_set())
            for n in tree.nodes() if n.rule in ("initial", "initial<>")]


def test_fixbeta_equiv_answers_as_the_unfolding_walk():
    # the lazy walk answers as the eager reference, which builds both
    # chains and compares every pair by the alpha oracle. The pairs: every
    # INITIAL of the search set's proofs, every fold candidate
    # `is_guarded_atom` meets on the search workload's goals, and pairs
    # that stay undecided or clash up to the bound
    pairs = _initial_pairs()
    initials = len(pairs)
    real = tm.fixbeta_equiv

    def record(t1, t2, bound=tm.UNFOLD_BOUND):
        pairs.append((t1, t2, bound))
        return real(t1, t2, bound)

    fresh = workloads.load_programs()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(tm, "fixbeta_equiv", record)
        for seed in (1, 2, 3):
            for goal in itertools.chain(*workloads.blocks("search", seed, 4)):
                program = fresh[goal.program]
                f = ps.parse_goal(goal.text, program)
                if isinstance(f, fm.Atom) and not tm.free_vars(f.term):
                    gd.is_guarded_atom(program.signature, f.term)
    folds = len(pairs) - initials
    zeros_twice = Fix(L("y", slist(C("0"), C("0"), Z_STR)))
    for bound in range(4):
        pairs += [(Z_STR, ZEROS, bound), (Z_STR, zeros_twice, bound), (ZEROS, Z_STR, bound), (Z_STR, Z_STR, bound)]
    verdicts = collections.Counter()
    for t1, t2, bound in pairs:
        want = fixbeta_equiv_reference(t1, t2, bound)
        verdicts[want] += 1
        assert tm.fixbeta_equiv(t1, t2, bound) == want, (t1, t2, bound)
    assert initials > 80 and folds > 50
    assert verdicts[tm.EQUAL] and verdicts[tm.NOT_EQUAL] and verdicts[tm.UNKNOWN], verdicts


def test_the_reader_with_unify_answers_as_fixbeta_equiv_without_metavariables(fresh_program):
    # on meta-free pairs `unify` is alpha-equality, so the walk read with
    # `unify` answers as fixbeta_equiv: a unifier is Equal, None is
    # NotEqual and UNKNOWN is Unknown. The pairs: every INITIAL of the
    # seeded search set's proofs and every pair of the fold-candidate
    # reference test
    pairs = _initial_pairs() + _fold_candidate_pairs(fresh_program)
    verdicts = collections.Counter()
    for t1, t2, bound in pairs:
        assert not any(tm.is_meta(v) for t in (t1, t2) for v in tm.free_vars(t)), (t1, t2)
        answer = walk_unify(t1, t2, {}, bound)
        assert answer in (None, tm.UNKNOWN) or answer == {}, answer
        got = tm.NOT_EQUAL if answer is None else tm.UNKNOWN if answer is tm.UNKNOWN else tm.EQUAL
        assert got == tm.fixbeta_equiv(t1, t2, bound), (t1, t2, bound)
        verdicts[got] += 1
    assert verdicts[tm.EQUAL] > 80 and verdicts[tm.NOT_EQUAL] and verdicts[tm.UNKNOWN], verdicts


def _mutation_grids(regression_proofs):
    """(program, calculus, copy) of each mutation copy of the regression
    proofs, then of the search workload's proofs of seeds 1-8."""
    grids = [(program, calc, t) for program, _goal, calc, res in regression_proofs.values()
             for _path, _name, t in proof_mutations(res.tree)]
    grids += [(program, calc, t) for program, calc, tree in _search_goal_proofs(range(1, 9))
              for _path, _name, t in proof_mutations(tree)]
    assert len(grids) == 382 + 2591
    return grids


def test_identity_decides_no_verdict_and_no_document(regression_proofs):
    # a tree whose every node is a new sequent, none shared and none with
    # premises kept, checks and exports as the tree does: the regression
    # proofs, the search set's proofs and both mutation grids
    programs = workloads.load_programs()
    trees = [(program, calc, res.tree) for program, _goal, calc, res in regression_proofs.values()]
    grids = _mutation_grids(regression_proofs)
    trees += list(_proofs(programs, _search_set())) + grids
    verdicts = collections.Counter()
    for program, calc, tree in trees:
        copy = unshared_copy(tree)
        assert copy == tree
        verdict = eng.check(tree, program, calc)
        assert eng.check(copy, program, calc) == verdict
        assert ps.export_proof(copy, program) == ps.export_proof(tree, program)
        verdicts[verdict[0]] += 1
    assert verdicts[True] > 50 and verdicts[False] == len(grids)


def test_check_answers_as_the_per_node_reference(regression_proofs):
    # `check` classifies a formula only where it enters the proof, the
    # reference the goal and the focus of every node: the same verdict and
    # diagnostic, in the calculus each proof was found in, on both mutation
    # grids and on the proofs of the search set and the random Horn programs
    grids = _mutation_grids(regression_proofs)
    proofs = [*_proofs(workloads.load_programs(), _search_set()), *_proofs(*_random_horn_searches(range(60)))]
    verdicts = collections.Counter()
    for program, calc, tree in grids + proofs:
        verdict = eng.check(tree, program, calc)
        assert verdict == check_reference(tree, program, calc), verdict
        verdicts[verdict[0]] += 1
    assert verdicts == {True: len(proofs), False: len(grids)}


def test_a_proof_checks_in_every_larger_calculus():
    # ROADMAP item 26's nesting law: co-fohc lies in co-fohh and in
    # co-hohc, and both in co-hohh. Each grammar lies in the larger
    # calculus's, alpha-equal atoms are fix-beta equal, and a higher-order
    # calculus takes every well-typed witness, so a proof that search finds
    # in a calculus checks in each larger one
    proofs = [*_proofs(workloads.load_programs(), _search_set()), *_proofs(*_random_horn_searches(range(60)))]
    checks = collections.Counter()
    for program, calc, tree in proofs:
        for wider in Calculus:
            if wider != calc and wider.higher_order >= calc.higher_order and wider.hereditary >= calc.hereditary:
                assert eng.check(tree, program, wider) == (True, None), (calc, wider)
                checks[calc, wider] += 1
    assert sum(checks.values()) == 742 and len(checks) == 5, checks


def test_the_node_count_is_the_number_of_sequents_search_expands(monkeypatch):
    # a call of `_solve` with depth left expands its sequent; one without
    # only marks the cut
    programs = workloads.load_programs()
    searches = [(g.program, g.text, g.calculus, g.kind, g.depth)
                for g in itertools.chain(*workloads.blocks("search", 1, 4))]
    searches += [(name, text, calc, "coprove", eng.DEPTH_LIMIT) for name, text, calc, _size in workloads.REGRESSIONS]
    expanded = [0]
    solve = eng._solve

    def counted(ctx, seq, depth, s):
        expanded[0] += depth > 0
        return solve(ctx, seq, depth, s)

    monkeypatch.setattr(eng, "_solve", counted)
    for search in searches:
        expanded[0] = 0
        _out, (nodes,) = _search_outputs(programs, [search])
        assert nodes == expanded[0] > 0, search


def test_reified_proofs_share_their_unchanged_formulas(regression_proofs):
    for program, _goal, _calc, res in regression_proofs.values():
        for node in res.tree.nodes():
            entries = node.sequent.entries
            assert all(e.formula is c for e, c in zip(entries, program.clauses))
            # the co-fix root's goal is also the coinductive hypothesis
            if node.sequent.mode == eng.PLAIN and len(entries) > len(program.clauses):
                assert entries[len(program.clauses)].formula is res.tree.sequent.goal


def test_a_reified_proof_shares_each_unchanged_entries_tuple_with_its_parent(regression_proofs):
    trees = [res.tree for _program, _goal, _calc, res in regression_proofs.values()]
    trees += [tree for _program, _calc, tree in _search_goal_proofs((1, 2))]
    shared = 0
    for tree in trees:
        for node in tree.nodes():
            for kid in node.children:
                # rules only ever add entries: a premise with as many as
                # its conclusion has the same ones
                if len(kid.sequent.entries) == len(node.sequent.entries):
                    assert kid.sequent.entries == node.sequent.entries
                    assert kid.sequent.entries is node.sequent.entries
                    shared += 1
    assert shared > 300


def _dumped(tree, program):
    """The document's lines: `json.dumps` of each node dict, in pre-order,
    inside the document object's first and last lines."""
    nodes = [json.dumps(d) for d in export_dict_reference(tree, program)]
    return ['{"format": "flat", "nodes": ['] + [s + "," for s in nodes[:-1]] + nodes[-1:] + ["]}"]


def test_the_writer_gives_json_dumps_of_the_node_dicts(regression_proofs):
    documents = 0
    for program, _goal, _calc, res in regression_proofs.values():
        for tree in [res.tree] + [t for _path, _name, t in proof_mutations(res.tree)]:
            assert ps.export_proof(tree, program).splitlines() == _dumped(tree, program)
            documents += 1
    # the benchmark's goals: the regression proofs, every corpus example
    # and the seeded families
    for program, _calc, tree in _search_goal_proofs((1, 2, 3)):
        doc = ps.export_proof(tree, program)
        assert doc.splitlines() == _dumped(tree, program)
        assert json.loads(doc) == {"format": "flat", "nodes": export_dict_reference(tree, program)}
        documents += 1
    assert documents > 400


def test_the_writer_escapes_strings_as_json_dumps_does():
    # names and a rule only a hand-built tree has: quotes, backslashes,
    # control characters, letters past ASCII and past the basic plane
    sig = Signature.of({"n\u00e4t": IOTA, "p\u2028": fn_type(IOTA, O), 'q"\\': O})
    goal = fm.Atom(A(C("p\u2028"), C("n\u00e4t")))
    hyp = fm.Atom(C('q"\\'))
    root_entries = (eng.Entry(goal, eng.Src.ORIGINAL), eng.Entry(hyp, eng.Src.LEMMA))
    kid_sig = sig.extend("\u00e9\U0001f600", IOTA)
    kid = eng.ProofTree(
        eng.Sequent(kid_sig, root_entries + (eng.Entry(hyp, eng.Src.HYPOTHESIS),), goal, hyp, eng.PLAIN, True),
        "leaf\t\x01", witness=C("w\u20ac"),
    )
    root = eng.ProofTree(eng.Sequent(sig, root_entries, None, goal), 'r"\\\U0001f600', children=(kid, kid))
    program = fm.Program(sig, (goal,))
    doc = ps.export_proof(root, program)
    assert doc.splitlines() == _dumped(root, program) and doc.isascii()
    for escaped in ("\\u00e4", "\\u2028", '\\"\\\\', "\\ud83d\\ude00", "\\t\\u0001", "\\u20ac"):
        assert escaped in doc, escaped
    assert json.loads(doc)["nodes"][2]["signature_additions"] == ["\u00e9\U0001f600 : i"]


def _counted_parses(monkeypatch):
    """The (production, text, signature) of each `_parse_with` call from
    now on, in order."""
    parsed = []
    real = ps._parse_with

    def counting(text, program, production, allow_fresh=False):
        parsed.append((production, text, program.signature))
        return real(text, program, production, allow_fresh)

    monkeypatch.setattr(ps, "_parse_with", counting)
    return parsed


def test_the_round_trip_is_the_identity_on_document_text(regression_proofs):
    # the regression proofs with every copy of their mutation grids, and
    # the proofs the search set finds; `test_memo_state_does_not_change_a_verdict`
    # checks the benchmark goals' mutation grid
    programs = workloads.load_programs()
    searches = _search_set()
    outputs, _nodes = _search_outputs(programs, searches, documents=True)
    docs = [(programs[search[0]], out[2][-1]) for search, out in zip(searches, outputs) if len(out) == 3 and out[2]]
    for program, _goal, _calc, res in regression_proofs.values():
        docs.append((program, ps.export_proof(res.tree, program)))
    # the proofs search finds state only their root's sequent
    for _program, doc in docs:
        assert not any("goal" in node for node in json.loads(doc)["nodes"][1:]), doc
    for program, _goal, _calc, res in regression_proofs.values():
        for _path, _name, tree in proof_mutations(res.tree):
            doc = ps.export_proof(tree, program)
            assert ps.import_proof(doc, program).equal(tree)
            docs.append((program, doc))
    for program, doc in docs:
        assert ps.export_proof(ps.import_proof(doc, program), program) == doc
    assert len(docs) > 300


def _two_signature_document(second_type):
    """A document that repeats the goal text `member k nil` under two
    signatures, twice under each: k is declared as `i` in one branch and as
    second_type in the other."""
    def node(sig_add, children):
        return {"rule": "decide", "signature_additions": sig_add, "program_additions": [],
                "goal": "member k nil", "guarded": False, "children": children}
    return json.dumps({"format": "flat", "nodes": [
        {"rule": "and-r", "signature_additions": [], "program_additions": [],
         "goal": "member 0 nil /\\ member 0 nil", "guarded": False, "children": 2},
        node(["k : i"], 1), node([], 0), node(["j : i", f"k : {second_type}"], 1), node([], 0)]})


@pytest.mark.parametrize("second_type", ["i", "i -> i"])
def test_memoised_import_keys_on_the_signature(monkeypatch, member_program, second_type):
    doc = _two_signature_document(second_type)
    parsed = _counted_parses(monkeypatch)
    if second_type == "i":
        assert isinstance(ps.import_proof(doc, member_program), eng.ProofTree)
    else:
        # k : i -> i makes `member k nil` ill-typed in the second branch only
        with pytest.raises(MalformedDocument, match="unparseable proof payload"):
            ps.import_proof(doc, member_program)
    # once per occurrence: the second branch's text is parsed anew, and
    # its error is raised, not taken from the first branch's parse
    assert [text for _production, text, _sig in parsed].count("member k nil") == (4 if second_type == "i" else 3)


def test_memoised_import_keys_on_what_is_parsed(monkeypatch, member_program):
    # one text as a goal and as a witness: a formula, then a term
    doc = flat_document({"rule": "exists-r", "signature_additions": [], "program_additions": [], "goal": "eq 0 0",
                         "guarded": False, "witness": "eq 0 0", "children": []})
    parsed = _counted_parses(monkeypatch)
    back = ps.import_proof(doc, member_program)
    assert isinstance(back.sequent.goal, fm.Atom) and back.witness == A(C("eq"), C("0"), C("0"))
    assert [production for production, _text, _sig in parsed] == ["formula", "term"]


def _grammar_checks(tree, calculus):
    """(formula, role, signature) of every grammar check `check` makes on
    a valid proof: each imp-r antecedent, and each formula that enters the
    proof, at the root, at a DECIDE premise, and in the higher-order
    calculi at a witness premise."""
    todo = [(tree, True)]
    while todo:
        node, enters = todo.pop()
        seq = node.sequent
        if node.rule in ("imp-r", "imp-r<>"):
            yield seq.goal.left, "clause", seq.signature
        if enters and seq.focus is not None:
            yield seq.focus, "clause", seq.signature
        if enters and (node is tree or seq.focus is None):
            yield seq.goal, "core" if seq.guarded or node.rule == "co-fix" else "goal", seq.signature
        enters = node.rule in ("decide", "decide<>") or calculus.higher_order and node.rule in eng._WITNESS_RULES
        todo += ((kid, enters) for kid in node.children)


def _count_walks(monkeypatch, calls, entry):
    """Patch the fragment walk so that each top-level walk, not the walks
    of its parts, appends entry(sig, f, role) to calls."""
    walk, depth = fm._calculi, [0]

    def counting(sig, ctx, f, role):
        if not depth[0]:
            calls.append(entry(sig, f, role))
        depth[0] += 1
        try:
            return walk(sig, ctx, f, role)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(fm, "_calculi", counting)


def test_round_trip_parses_and_classifies_each_formula_once(monkeypatch, regression_proofs):
    _program, _goal, calc, res = regression_proofs["comember"]
    # a new program, whose signatures have classified nothing yet
    program = workloads.load_programs()["comember"]
    doc = ps.export_proof(res.tree, program)
    classified = []
    parsed = _counted_parses(monkeypatch)
    _count_walks(monkeypatch, classified, lambda sig, f, role: (fm.formula_key(f), role, sig))
    back = ps.import_proof(doc, program)
    # one parse per payload field, in the order the node lists them
    fields = []
    for node, tree_node in zip(json.loads(doc)["nodes"], back.nodes(), strict=True):
        sig = tree_node.sequent.signature
        fields += [("formula", a if isinstance(a, str) else a[1], sig) for a in node.get("program_additions", [])]
        fields += [("formula", node[k], sig) for k in ("goal", "focus") if k in node]
        fields += [("term", node["witness"], sig)] if "witness" in node else []
    assert parsed == fields
    assert eng.check(back, program, calc) == (True, None)
    checks = [(fm.formula_key(f), role, sig) for f, role, sig in _grammar_checks(back, calc)]
    assert len(classified) == len(set(classified)) == len(set(checks)) < len(checks)
    assert set(classified) == set(checks)


def test_grammar_memo_keys_on_the_role_and_the_signature(monkeypatch, comember_program):
    # a disjunction is a goal but no core formula, and `bit k` is ill-typed
    # once k is a function; one walk answers every calculus, so a second
    # calculus's query on a walked formula and role reads the memo
    sig = _cold(comember_program.signature)
    f = ps.parse_goal("bit 0 \\/ bit 1", comember_program)
    g = fm.Atom(A(C("bit"), C("k")))
    calls = []
    _count_walks(monkeypatch, calls, lambda sig, _f, role: (role, sig))
    fohh = Calculus.FOHH
    assert eng._grammar_ok(sig, f, "goal", fohh)
    assert not eng._grammar_ok(sig, _rebuild_formula(f), "core", fohh)
    assert eng._grammar_ok(sig, f, "goal", fohh)
    assert eng._grammar_ok(sig, f, "goal", Calculus.FOHC)
    for _ in range(2):
        assert eng._grammar_ok(sig.extend("k", IOTA), g, "goal", fohh)
        assert not eng._grammar_ok(sig.extend("k", fn_type(IOTA, IOTA)), g, "goal", fohh)
    assert calls == [("goal", sig), ("core", sig), ("goal", sig.extend("k", IOTA))]


# ---------------------------------------------------------------------------
# fragment classification and the signature's memo
# ---------------------------------------------------------------------------


ROLES = ("clause", "goal", "core")


def _outcome(run):
    """What run returns, or the type and text of the CupError it raises."""
    try:
        return run()
    except CupError as exc:
        return type(exc), str(exc)


def _cold(sig):
    """An equal signature with nothing memoised."""
    return Signature(sig.constants)


def _node_formulas(seq):
    yield from (e.formula for e in seq.entries)
    yield seq.goal
    if seq.focus is not None:
        yield seq.focus


# the paper's grammars, one calculus at a time, as the reference of
# `formulas.classify`'s one walk


def _atom_in(sig, ctx, t, calc, clause_side):
    head, _args = tm.spine(t)
    if isinstance(head, Var):
        # flexible atoms: higher-order goals only
        return calc.higher_order and not clause_side
    if not isinstance(head, Con):
        return False
    return calc.higher_order or tm.is_first_order_atom(sig, ctx, t)


def _clause_in(sig, ctx, f, calc):
    if isinstance(f, fm.Atom):
        return _atom_in(sig, ctx, f.term, calc, clause_side=True)
    if isinstance(f, fm.Conj):
        return _clause_in(sig, ctx, f.left, calc) and _clause_in(sig, ctx, f.right, calc)
    if isinstance(f, fm.Impl):
        return _goal_in(sig, ctx, f.left, calc) and _clause_in(sig, ctx, f.right, calc)
    if isinstance(f, fm.Forall):
        return _clause_in(sig, {**ctx, f.var: f.ty}, f.body, calc)
    return False


def _goal_in(sig, ctx, f, calc):
    if isinstance(f, fm.Top):
        return True
    if isinstance(f, fm.Atom):
        return _atom_in(sig, ctx, f.term, calc, clause_side=False)
    if isinstance(f, (fm.Conj, fm.Disj)):
        return _goal_in(sig, ctx, f.left, calc) and _goal_in(sig, ctx, f.right, calc)
    if isinstance(f, fm.Exists):
        return _goal_in(sig, {**ctx, f.var: f.ty}, f.body, calc)
    if isinstance(f, fm.Impl):
        return calc.hereditary and _clause_in(sig, ctx, f.left, calc) and _goal_in(sig, ctx, f.right, calc)
    if isinstance(f, fm.Forall):
        return calc.hereditary and _goal_in(sig, {**ctx, f.var: f.ty}, f.body, calc)
    return False


def _core_in(sig, ctx, f, calc):
    if isinstance(f, fm.Atom):
        return _atom_in(sig, ctx, f.term, calc, clause_side=True)
    if isinstance(f, fm.Conj):
        return _core_in(sig, ctx, f.left, calc) and _core_in(sig, ctx, f.right, calc)
    if isinstance(f, fm.Impl):
        return calc.hereditary and _core_in(sig, ctx, f.left, calc) and _core_in(sig, ctx, f.right, calc)
    if isinstance(f, fm.Forall):
        return calc.hereditary and _core_in(sig, {**ctx, f.var: f.ty}, f.body, calc)
    return False


def classify_reference(sig, f, role):
    """One uncached type check of f, then every calculus's grammar: the
    calculi, or the type and text of the error."""
    try:
        fm._typecheck_formula(sig, {}, f)
    except CupError as exc:
        return IllTyped, str(exc)
    grammar = {"clause": _clause_in, "goal": _goal_in, "core": _core_in}[role]
    return frozenset(c for c in Calculus if grammar(sig, {}, f, c))


def test_in_fragment_agrees_with_classify(regression_proofs, comember_program):
    # the regression proofs, the search goals' proofs and their mutation grids
    proofs = [res.tree for _program, _goal, _calc, res in regression_proofs.values()]
    proofs += [tree for _program, _calc, tree in _search_goal_proofs(range(1, 9))]
    cases = {}
    for proof in proofs:
        for tree in [proof] + [t for _path, _name, t in proof_mutations(proof)]:
            for node in tree.nodes():
                sig = node.sequent.signature
                for f in _node_formulas(node.sequent):
                    cases.setdefault((fm.formula_key(f), sig), f)
    # ill-typed, a flexible atom, and a formula of each role only
    sig = comember_program.signature
    p_of_0 = _atom(V("P"), C("0"))
    hand = [
        _atom(C("bit"), C("0"), C("0")), fm.Atom(C("0")), _atom(C("bit"), V("y")),
        fm.Exists("P", fn_type(IOTA, O), p_of_0), fm.Forall("P", fn_type(IOTA, O), p_of_0),
        ps.parse_goal("bit 0 \\/ bit 1", comember_program),
        ps.parse_goal("forall x. bit x => bit x", comember_program),
        ps.parse_goal("bit 0 => bit 1", comember_program),
        ps.parse_goal("(bit 0 => bit 1) => bit 1", comember_program),
        ps.parse_goal("exists x. bit x", comember_program),
        ps.parse_goal("true", comember_program),
    ]
    for f in hand:
        cases[(fm.formula_key(f), sig)] = f
    # every clause and goal of the corpus, on new programs
    programs = workloads.load_programs()
    corpus = [(p.signature, c) for p in programs.values() for c in p.clauses]
    corpus += [(programs[name].signature, ps.parse_goal(text, programs[name]))
               for name, entry in cli.CORPUS.items() for _kind, text, _calc, _want in entry["runs"]]
    for sig, f in corpus:
        cases.setdefault((fm.formula_key(f), sig), f)
    seen = collections.Counter()
    for (_key, sig), f in cases.items():
        for role in ROLES:
            # the reference on a cold signature; classify on a cold one and
            # the entry twice on the warm one, the second answer from its memo
            want = classify_reference(_cold(sig), f, role)
            assert _outcome(lambda: fm.classify(_cold(sig), f, role)) == want, (f, role)
            for calc, _ in itertools.product(Calculus, range(2)):
                got = _outcome(lambda: fm.in_fragment(sig, f, role, calc))
                if isinstance(want, frozenset):
                    assert got == (calc in want), (f, role, calc)
                    seen[got] += 1
                else:
                    assert got == want, (f, role, calc)
                    seen["raised"] += 1
    assert len(cases) > 150 and seen[True] > 1000 and seen[False] > 500 and seen["raised"] > 20


def test_an_ill_typed_formula_raises_on_every_call_with_one_message(comember_program):
    sig = _cold(comember_program.signature)
    bit_0 = ps.parse_goal("bit 0", comember_program)
    for f in (_atom(C("bit"), C("0"), C("0")), fm.Conj(bit_0, fm.Atom(C("0"))),
              fm.Forall("x", IOTA, _atom(C("bit"), V("y")))):
        messages = set()
        for _ in range(3):
            for role in ROLES:
                for calc in Calculus:
                    with pytest.raises(IllTyped) as raised:
                        fm.in_fragment(sig, f, role, calc)
                    messages.add(str(raised.value))
                with pytest.raises(IllTyped) as raised:
                    fm.classify(sig, f, role)
                messages.add(str(raised.value))
        assert len(messages) == 1, (f, messages)
        # errors are never kept, nor a grammar answer for an ill-typed formula
        assert fm.formula_key(f) not in sig._memo
        assert not any((fm.formula_key(f), role) in sig._memo for role in ROLES)
    assert fm.in_fragment(sig, bit_0, "goal", Calculus.FOHC)


def test_a_typing_kept_under_one_signature_is_not_used_under_another(comember_program):
    # `bit k` is well typed with k : i and ill typed with k : i -> i, in
    # either order of first use
    sig = comember_program.signature
    g, k = fm.Atom(A(C("bit"), C("k"))), C("k")
    for first in (IOTA, fn_type(IOTA, IOTA)):
        for ty in (first, fn_type(IOTA, IOTA) if first == IOTA else IOTA):
            ext = sig.extend("k", ty)
            for _ in range(2):
                assert tm.typecheck(ext, {}, k) == ty
                if ty == IOTA:
                    assert fm.in_fragment(ext, g, "goal", Calculus.FOHH)
                else:
                    with pytest.raises(IllTyped):
                        fm.in_fragment(ext, g, "goal", Calculus.FOHH)


def _memo_shape(key, value):
    """Which of the memo's six key shapes key and its value have, or None."""
    if isinstance(key, tm.Term):
        return "term type" if isinstance(value, tm.SimpleType) else None
    if isinstance(key, str):
        return "formula typed" if value is True else None
    if not (isinstance(key, tuple) and len(key) == 2):
        return None
    first, second = key
    if isinstance(first, tm.Term):
        if (second is None or isinstance(second, tm.SimpleType)) and isinstance(value, bool):
            return "first-order verdict"
        if second is gd.GuardReport and isinstance(value, gd.GuardReport):
            return "guard report"
    elif isinstance(first, str):
        if second in ROLES and isinstance(value, frozenset) and value <= fm.ALL_CALCULI:
            return "calculi"
        if isinstance(second, tm.SimpleType) and isinstance(value, Signature):
            return "extension"
    return None


def test_every_memo_key_has_one_of_six_shapes():
    # `terms`, `formulas` and `guardedness` all write `Signature._memo`;
    # after a search block and an audit block on new programs, every key of
    # each program signature and of the children `extend` made has one of
    # the shapes the `Signature` comment names, with its value type, and
    # none holds a calculus
    shapes = collections.Counter()
    for workload in ("search", "audit"):
        ctx = workloads.setup(workload, 3, 1)
        for op in ctx["blocks"][0]:
            workloads.WORKLOADS[workload].run(ctx, op)
        sigs, seen = [p.signature for p in ctx["programs"].values()], set()
        while sigs:
            sig = sigs.pop()
            if id(sig) in seen:
                continue
            seen.add(id(sig))
            for key, value in sig._memo.items():
                shape = _memo_shape(key, value)
                assert shape is not None, (key, value)
                assert not (isinstance(key, tuple) and any(isinstance(part, Calculus) for part in key)), key
                shapes[shape] += 1
                if shape == "extension":
                    sigs.append(value)
    assert set(shapes) == {"term type", "first-order verdict", "formula typed", "calculi", "guard report",
                           "extension"}, shapes


def test_one_round_trip_type_checks_each_formula_once_per_signature(monkeypatch):
    # new programs, so that no signature has typed anything before
    programs = workloads.load_programs()
    typed = {}
    for name, goal, calc, _size in workloads.REGRESSIONS:
        program = programs[name]
        res = eng.coprove(program, ps.parse_goal(goal, program), eng.SearchConfig(calculus=calc))
        doc = ps.export_proof(res.tree, program)
        checked, depth = [], [0]
        real = fm._typecheck_formula

        def counting(sig, ctx, f):
            # the outermost call of one type check
            if not depth[0]:
                checked.append((fm.formula_key(f), sig))
            depth[0] += 1
            try:
                return real(sig, ctx, f)
            finally:
                depth[0] -= 1

        with monkeypatch.context() as m:
            m.setattr(fm, "_typecheck_formula", counting)
            back = ps.import_proof(doc, program)
            imported = len(checked)
            assert eng.check(back, program, calc) == (True, None)
        assert len(checked) == len(set(checked)), name
        # the document states only the root's sequent, whose goal the search
        # typed: the import types nothing, and check each formula that
        # enters the proof once. A proof may have none to type: member67's
        # foci are its program's clauses and its root goal, on the program's
        # signature, which the parse and the search typed
        assert imported == 0, name
        typed[name] = len(checked)
    assert sum(typed.values()) > 0, typed


def _with_cold_signatures(tree):
    """A copy of the proof whose sequents hold cold copies of their
    signatures; a signature shared by two nodes stays shared."""
    cold = {}

    def go(node):
        sig = node.sequent.signature
        if id(sig) not in cold:
            cold[id(sig)] = sig, _cold(sig)
        seq = node.sequent.with_(signature=cold[id(sig)][1])
        return eng.ProofTree(seq, node.rule, node.witness, node.eigen, tuple(go(c) for c in node.children))

    return go(tree)


def test_memo_state_does_not_change_a_verdict():
    copies = 0
    for program, calc, tree in _search_goal_proofs(range(1, 9)):
        for _path, _name, mutated in proof_mutations(tree):
            copies += 1
            cold = _with_cold_signatures(mutated)
            verdict = eng.check(cold, program, calc)
            assert not verdict[0]
            assert eng.check(cold, program, calc) == verdict
            # the import has typed the payloads on its signatures already
            doc = ps.export_proof(mutated, program)
            back = ps.import_proof(doc, program)
            # the document carries the broken node: the tree it reads back is
            # the copy, and checks with the copy's verdict and diagnostic
            assert back.equal(mutated)
            assert eng.check(back, program, calc) == verdict
            assert eng.check(back, program, calc) == eng.check(_with_cold_signatures(back), program, calc)
            assert ps.export_proof(back, program) == doc
    assert copies == 2591


def test_signatures_compare_hash_and_look_up_by_their_constants(regression_proofs):
    rng = random.Random(5)
    sigs = [p.signature for p in workloads.load_programs().values()]
    sigs += list({id(node.sequent.signature): node.sequent.signature
                  for _program, _goal, _calc, res in regression_proofs.values()
                  for node in res.tree.nodes()}.values())
    extended = 0
    for sig in sigs:
        items = list(sig.constants)
        extended += any(tm.FRESH_MARK in n for n, _ty in items)
        shuffled = rng.sample(items, len(items))
        chained = Signature()
        for name, ty in shuffled:
            chained = chained.extend(name, ty)
        same = [Signature.of(dict(reversed(items))), Signature.of(dict(shuffled)), chained]
        for other in same:
            assert other == sig and hash(other) == hash(sig)
        assert sig.extend("extra", IOTA) != sig
        # one child per extension, equal to and hashed as a new signature
        extra = Signature.of({**dict(items), "extra": IOTA})
        assert sig.extend("extra", IOTA) is sig.extend("extra", IOTA)
        assert sig.extend("extra", IOTA) == extra and hash(sig.extend("extra", IOTA)) == hash(extra)
        assert sig.extend("extra", O) is not sig.extend("extra", IOTA)
        names = [n for n, _ty in items] + ["absent", "", items[0][0] + "x", "x" + tm.FRESH_MARK + "99"]
        for name in names:
            want = next((ty for n, ty in items if n == name), None)
            for s in [sig] + same:
                assert s.lookup(name) == want and (name in s) == (want is not None), name
    assert extended >= 2
